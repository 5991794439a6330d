#!/usr/bin/env python3
"""End-to-end dissemination benchmark: one command, every metric.

    python3 benchmarks/e2e/run.py                  # all workloads, interleaved repeats
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --traced         # the per-layer ledger
    python3 benchmarks/e2e/run.py --selfcheck      # two sets, compared to the bounds
    python3 benchmarks/e2e/run.py --quick          # smoke run for test_schema.py

Every repeat of every workload runs in a child process of its own
(``child.py``) with ``PYTHONHASHSEED`` pinned, repeats interleaved across
workloads (A B C D, A B C D, A B C D) so a burst of interference from
the shared machine hits at most one repeat of each.  The repeats do
byte-identical work, so a round's time is the fastest of its repeats and
a document's latency the lowest of its repeats; the reported value is
the median over rounds (see ``timing_estimates``).  Metric names, units,
directions and bounds come from ``BENCHMARK.json``; the last line
printed is the result as one JSON object.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: String hashing decides set/dict iteration order and with it the
#: covering-tree shape: six fresh processes of one 7-broker run gave
#: 1122-2125 docs/s with random hashing, 1782-1923 pinned.  The pin is
#: the same for every ``--seed``: the seed varies the inputs, and runs
#: with different seeds must stay comparable.
HASH_SEED = "7"
REPEATS = 3
#: Seconds one child may take before it is killed (the whole command
#: must end well inside the driver's 180 s).
CHILD_TIMEOUT_S = 150

#: Metrics that are counts of what the program did, not timings: two
#: runs of one commit on one seed must agree on them exactly.
EXACT = ("msgs_per_doc", "rts_entries")


def load_manifest() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def rounds_for(workload_cls, seconds: float, quick: bool) -> int:
    if quick:
        return 2
    return max(2, round(seconds * workload_cls.rounds_per_second))


def run_child(workload: str, seed: int, rounds: int, traced: bool,
              quick: bool) -> Dict[str, object]:
    """One repeat in a fresh interpreter; returns its JSON report."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--rounds", str(rounds),
    ]
    if traced:
        command.append("--traced")
    if quick:
        command.append("--quick")
    done = subprocess.run(
        command, env=env, cwd=HERE, stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(
            "run.py: %s repeat exited with code %d" % (workload, done.returncode)
        )
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def round_metrics(elapsed_s: float, latency_ms: List[float]) -> Dict[str, float]:
    ordered = sorted(latency_ms)
    count = len(ordered)
    return {
        "docs_per_s": count / elapsed_s,
        "deliver_p50_ms": statistics.median(ordered),
        # of 200 latencies the 190th: exactly ten samples lie beyond it
        "deliver_p95_ms": ordered[count - count // 20 - 1],
    }


def timing_estimates(reports: List[Dict[str, object]]) -> Dict[str, float]:
    """The three per-round timings of one workload, from all its repeats.

    Every repeat does byte-identical work (same seed, same hash seed),
    so what differs between them is interference, which on a shared box
    only ever slows things down.  The repeats are therefore used as an
    interference filter at the finest grain available: a round's wall
    time is the fastest of its repeats, a document's latency the lowest
    of its repeats.  Percentiles are then taken over the 200 documents
    of a round, and the reported value is the median over rounds.
    """
    rounds = [r["rounds"] for r in reports]
    filtered = []
    for index in range(len(rounds[0]["elapsed_s"])):
        elapsed = min(r["elapsed_s"][index] for r in rounds)
        latency = [
            min(doc) for doc in zip(*(r["latency_ms"][index] for r in rounds))
        ]
        filtered.append(round_metrics(elapsed, latency))
    return {
        name: statistics.median(entry[name] for entry in filtered)
        for name in filtered[0]
    }


def setup_estimate(reports: List[Dict[str, object]]) -> float:
    """Each repeat sets up once, cold, in its fresh process (a second
    set-up in the same process would reuse compiled XPEs and hide work
    moved into set-up); the fastest repeat is the least interfered with."""
    return min(r["setup_s"] for r in reports)


def spread(values: List[float]) -> float:
    """(max - min) / median of the per-repeat values."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def summarise(reports: List[Dict[str, object]], bounds: Dict[str, float]):
    """Fold one workload's repeats into its result entry."""
    values = timing_estimates(reports)
    values["setup_s"] = setup_estimate(reports)
    # Each repeat on its own, for the spread column.
    per_repeat: Dict[str, List[float]] = {name: [] for name in values}
    for report in reports:
        alone = timing_estimates([report])
        alone["setup_s"] = setup_estimate([report])
        for name, value in alone.items():
            per_repeat[name].append(value)
    for name, of in (
        ("msgs_per_doc", lambda r: statistics.median(r["rounds"]["msgs_per_doc"])),
        ("rts_entries", lambda r: float(r["rts_entries"])),
        ("peak_rss_mb", lambda r: r["peak_rss_mb"]),
    ):
        per_repeat[name] = [of(r) for r in reports]
        values[name] = statistics.median(per_repeat[name])
    attempted = sum(r["ops_attempted"] for r in reports)
    failed = sum(r["ops_failed"] for r in reports)
    failures = [text for r in reports for text in r["failures"]]
    # Same seed, same hash seed: every repeat must have delivered the
    # same number of paths for every document.
    attempted += 1
    if len({r["delivery_digest"] for r in reports}) != 1:
        failed += 1
        failures.append("repeats disagree on per-document delivery counts")
    rounds = sum(len(r["rounds"]["elapsed_s"]) for r in reports)
    metrics = {}
    for name, value in values.items():
        entry = {
            "value": value,
            "repeat_spread": spread(per_repeat[name]),
            "repeats": per_repeat[name],
            "samples": len(reports) if name == "setup_s" else rounds,
        }
        limit = 0.0 if name in EXACT else bounds.get(name)
        if limit is not None and entry["repeat_spread"] > limit:
            entry["flag"] = "repeat spread %.1f%% exceeds the %.0f%% bound" % (
                100 * entry["repeat_spread"], 100 * limit)
        metrics[name] = entry
    return {
        "metrics": metrics,
        "fail_share": failed / attempted,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": failures[:10],
        "docs_timed": sum(r["docs_timed"] for r in reports),
        "mean_doc_bytes": statistics.mean(r["mean_doc_bytes"] for r in reports),
        "env": [r["env"] for r in reports],
        "probe_s": statistics.median(
            p for r in reports for p in r["rounds"]["probe_s"]),
        "rounds": [r["rounds"] for r in reports],
    }


def run_set(names: List[str], args, manifest) -> Dict[str, object]:
    """One full set: every named workload, repeats interleaved."""
    from workloads import WORKLOADS

    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    repeats = 1 if (args.quick or args.trace) else REPEATS
    reports: Dict[str, List[dict]] = {name: [] for name in names}
    for _repeat in range(repeats):
        for name in names:
            rounds = rounds_for(WORKLOADS[name], args.seconds, args.quick)
            if args.trace and not args.quick:
                rounds = max(2, rounds // 2)
            reports[name].append(
                run_child(name, args.seed, rounds, bool(args.trace), args.quick)
            )
    results = {}
    for name in names:
        results[name] = summarise(reports[name], bounds)
        if args.trace:
            results[name]["traced"] = reports[name][0]["traced"]
    return results


def print_table(results, manifest, traced: bool):
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    for name, result in results.items():
        print("== %s  (%d documents timed, %.0f B each, %d/%d checks failed, "
              "CPU probe %.2f ms)" % (
                  name, result["docs_timed"], result["mean_doc_bytes"],
                  result["ops_failed"], result["ops_attempted"],
                  1e3 * result["probe_s"]))
        for metric in [m["name"] for m in manifest["end_to_end"]]:
            entry = result["metrics"][metric]
            print("  %-16s %14.4f %-6s spread %5.1f%%  n=%-3d %s" % (
                metric, entry["value"], units[metric],
                100 * entry["repeat_spread"], entry["samples"],
                "!! " + entry["flag"] if "flag" in entry else ""))
        print("  %-16s %14.4f %-6s" % ("fail_share", result["fail_share"], "ratio"))
        for text in result["failures"]:
            print("  FAILED " + text)
        if traced:
            layer_units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
            traced_part = result["traced"]
            for metric, value in sorted(traced_part["metrics"].items()):
                print("  %-44s %14.4f %s" % (
                    metric, value, layer_units.get(metric, "?")))
            wall = traced_part["profiled_wall_seconds"]
            print("  ledger parts sum to %.4f s of %.4f s wall (%.2f%%); "
                  "cProfile itself accounted for %.2f%%" % (
                      traced_part["ledger_seconds"], wall,
                      100 * traced_part["ledger_seconds"] / wall,
                      100 * traced_part["profile_total_seconds"] / wall))


def result_line(results, manifest, traced: bool, single: Optional[str]):
    """The contract's last line: correct / attempted / failed / metrics."""
    metrics = {}
    for name, result in results.items():
        prefix = "" if single else name + "/"
        if traced:
            units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
            values = result["traced"]["metrics"]
            for metric in units:
                metrics[prefix + metric] = {
                    "value": values[metric], "unit": units[metric]}
        else:
            for m in manifest["end_to_end"]:
                metrics[prefix + m["name"]] = {
                    "value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
    attempted = sum(r["ops_attempted"] for r in results.values())
    failed = sum(r["ops_failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def selfcheck(names, args, manifest) -> int:
    """Two full sets back to back, compared against the bounds."""
    first = run_set(names, args, manifest)
    second = run_set(names, args, manifest)
    print("%-13s %-15s %12s %12s %8s %7s  %s" % (
        "workload", "metric", "set 1", "set 2", "diff", "bound", "verdict"))
    failures = 0
    for name in names:
        for m in manifest["end_to_end"]:
            metric = m["name"]
            a = first[name]["metrics"][metric]["value"]
            b = second[name]["metrics"][metric]["value"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if metric in EXACT:
                ok, bound = a == b, "exact"
            else:
                ok, bound = abs(worse) <= m["bound"], "%.0f%%" % (100 * m["bound"])
            failures += not ok
            print("%-13s %-15s %12.4f %12.4f %+7.1f%% %7s  %s" % (
                name, metric, a, b, 100 * (b - a) / a, bound,
                "PASS" if ok else "FAIL"))
        for label, result in (("set 1", first[name]), ("set 2", second[name])):
            if result["ops_failed"]:
                failures += 1
                print("%-13s fail_share %s is %.4f  FAIL" % (
                    name, label, result["fail_share"]))
    print("selfcheck: %s" % ("PASS" if not failures else "%d FAIL" % failures))
    return 1 if failures else 0


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("run.py: %s has no repro package; run from a full checkout"
              % SRC, file=sys.stderr)
        return 2
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(manifest["run_seconds"]),
                        help="measured work per run, in reference-box seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    selected = [args.workload] if args.workload else names
    if args.selfcheck:
        return selfcheck(selected, args, manifest)

    started = time.time()
    results = run_set(selected, args, manifest)
    print_table(results, manifest, bool(args.trace))
    line = result_line(results, manifest, bool(args.trace), args.workload)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "result.json"), "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "hash_seed": HASH_SEED, "wall_s": time.time() - started,
                   "results": results, "line": line}, handle, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
