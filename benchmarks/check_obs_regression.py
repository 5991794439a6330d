#!/usr/bin/env python
"""Gate hot-path performance against the committed baseline.

Usage::

    python benchmarks/check_obs_regression.py BENCH_obs.json
    python benchmarks/check_obs_regression.py BENCH_obs.json --threshold 2.0
    python benchmarks/check_obs_regression.py BENCH_obs.json --write-baseline

Reads the observability artifact a benchmark session wrote (see
``benchmarks/conftest.py``) and compares every instrumented hot-path
timing histogram against ``benchmarks/BENCH_baseline.json``.  Timings
are first divided by each run's *calibration* figure — the measured
cost of a fixed pure-Python loop — so a faster or slower machine does
not read as a code change.  A metric fails when its calibrated p50
exceeds the baseline's by more than ``--threshold`` (default 2.0).

Large *improvements* fail too: a calibrated p50 below ``1/threshold``
of the baseline means the baseline no longer describes the code and
must be refreshed deliberately (``--write-baseline``) so the gate keeps
teeth — otherwise a later regression that merely gives the improvement
back would pass unnoticed.  ``--allow-improvement`` downgrades these to
warnings (useful on the PR that introduces the speedup, before its
baseline refresh lands).

Exit status: 0 on pass, 1 on regression, stale-fast baseline, or
malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_baseline.json")

#: Histograms with fewer samples than this are too noisy to gate on.
MIN_SAMPLES = 30

#: Only metrics under these prefixes are performance gates; counters and
#: workload-dependent distributions (delivery delay depends on the
#: latency model, not code speed) are reported but never fail the build.
GATED_PREFIXES = (
    "adverts.",
    "broker.handle.",
    "covering.tree.",
    "matching.",
    "merging.",
    "network.dispatch",
    "telemetry.",
)


def load(path):
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise SystemExit(
            "%s: not found — run the benchmark suite first "
            "(pytest benchmarks/ --benchmark-disable)" % path
        )
    calibration = payload.get("meta", {}).get("calibration_seconds")
    histograms = payload.get("metrics", {}).get("histograms", {})
    if not calibration or calibration <= 0:
        raise SystemExit("%s: missing or invalid meta.calibration_seconds" % path)
    return calibration, histograms


def gated(name: str) -> bool:
    return any(name.startswith(prefix) for prefix in GATED_PREFIXES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="BENCH_obs.json from this run")
    parser.add_argument("--baseline", default=BASELINE_PATH)
    parser.add_argument("--threshold", type=float, default=2.0)
    parser.add_argument(
        "--allow-improvement",
        action="store_true",
        help="report metrics faster than 1/threshold of the baseline "
        "as warnings instead of failures",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="copy the current artifact over the baseline and exit",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="PREFIX",
        default=None,
        help="gate only metrics under this prefix (repeatable); lets "
        "several CI lanes share one baseline file, each gating its own "
        "slice (e.g. the mass-matching lane passes --only matching.mass.)",
    )
    parser.add_argument(
        "--exclude",
        action="append",
        metavar="PREFIX",
        default=None,
        help="skip metrics under this prefix (repeatable) — the "
        "complement of --only for the lane that runs everything else",
    )
    args = parser.parse_args(argv)

    if args.write_baseline:
        with open(args.current) as handle:
            payload = json.load(handle)
        with open(args.baseline, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("baseline written to %s" % args.baseline)
        return 0

    if not os.path.exists(args.baseline):
        print(
            "no baseline at %s — run with --write-baseline first" % args.baseline
        )
        return 1

    base_cal, base_hists = load(args.baseline)
    cur_cal, cur_hists = load(args.current)
    print(
        "calibration: baseline %.4fs, current %.4fs (machine ratio %.2fx)"
        % (base_cal, cur_cal, cur_cal / base_cal)
    )

    failures = []
    improvements = []
    compared = 0
    for name in sorted(base_hists):
        if not gated(name):
            continue
        if args.only and not any(name.startswith(p) for p in args.only):
            continue
        if args.exclude and any(name.startswith(p) for p in args.exclude):
            continue
        base = base_hists[name]
        current = cur_hists.get(name)
        if current is None:
            failures.append(
                "%s: present in baseline but missing from this run "
                "(renamed? update the baseline)" % name
            )
            continue
        if base["count"] < MIN_SAMPLES or current["count"] < MIN_SAMPLES:
            print(
                "  skip %-40s (samples: baseline %d, current %d)"
                % (name, base["count"], current["count"])
            )
            continue
        base_p50 = base["p50"] / base_cal
        cur_p50 = current["p50"] / cur_cal
        ratio = cur_p50 / base_p50 if base_p50 else 1.0
        improved = ratio < 1.0 / args.threshold
        if ratio > args.threshold:
            verdict = "FAIL"
        elif improved:
            verdict = "warn" if args.allow_improvement else "FAST"
        else:
            verdict = "ok"
        print(
            "  %-4s %-40s calibrated p50 ratio %.2fx (n=%d)"
            % (verdict, name, ratio, current["count"])
        )
        compared += 1
        if ratio > args.threshold:
            failures.append(
                "%s: calibrated p50 regressed %.2fx (> %.1fx threshold)"
                % (name, ratio, args.threshold)
            )
        elif improved:
            improvements.append(
                "%s: calibrated p50 improved to %.2fx of baseline "
                "(< 1/%.1f)" % (name, ratio, args.threshold)
            )

    print("compared %d gated hot-path metrics" % compared)
    if improvements:
        print("\nLARGE IMPROVEMENTS (baseline is stale):")
        for improvement in improvements:
            print("  - %s" % improvement)
        print(
            "  refresh the baseline deliberately: "
            "python benchmarks/check_obs_regression.py %s --write-baseline"
            % args.current
        )
    if failures:
        print("\nREGRESSIONS:")
        for failure in failures:
            print("  - %s" % failure)
        return 1
    if improvements and not args.allow_improvement:
        return 1
    print("no hot-path regression beyond %.1fx" % args.threshold)
    return 0


if __name__ == "__main__":
    sys.exit(main())
