"""One repeat of one workload, in a process of its own.

``run.py`` starts this with ``PYTHONHASHSEED`` pinned and ``src/`` on
``PYTHONPATH``; the last line of stdout is one JSON object with the
repeat's raw per-round samples.  A repeat is: one cold set-up (timed),
warm-up rounds, then timed rounds of 200 documents.

The timed unit is one document: XML text -> ``XMLDocument.parse`` ->
``publications()`` -> one ``PublishMsg`` per path submitted at the
publisher's edge broker -> backend quiescent (every ``window``
documents).  ``gc.collect()`` runs between rounds, outside the timed
region; the collector stays enabled inside it.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

# The two backends are imported here, not lazily inside the adapters'
# set-up, so that ``setup_s`` times the set-up and not the import.
import repro.network.overlay  # noqa: F401
import repro.runtime.asyncio_backend  # noqa: F401
from repro import obs
from repro.broker.messages import PublishMsg, SubscribeMsg
from repro.runtime.workload import PUBLISHER
from repro.xmldoc.document import XMLDocument

import ledger
from oracle import ReferenceOracle
from workloads import (
    DOCS_PER_ROUND,
    WORKLOADS,
    host_of,
    live_subscriptions,
    oracle_sample,
    subscription_count,
)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def require_pinned_hash_seed():
    """String hashing decides set/dict iteration order, and with it the
    covering-tree shape and the work done: an unpinned seed makes two
    runs of the same commit differ by tens of percent."""
    pinned = os.environ.get("PYTHONHASHSEED", "")
    if sys.flags.hash_randomization and not pinned.isdigit():
        sys.exit(
            "child.py: PYTHONHASHSEED is not pinned; start it through "
            "run.py (refusing to measure with random string hashing)"
        )


def probe() -> float:
    """Seconds for a fixed pure-Python loop (dict and int work), best of
    three: how fast this CPU runs interpreter code right now."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        total = 0
        for i in range(20000):
            table[i & 1023] = i
            total += table.get((i * 7) & 1023, 0)
        best = min(best, time.perf_counter() - started)
    return best


def pin_to_fastest_cpu(allowed) -> float:
    """Pin this process to whichever of (up to four of) its CPUs runs
    the probe fastest right now, and return that probe time.

    On a VM with neighbours the vCPUs are not equally fast at any one
    moment — one may share its core with a busy sibling for seconds to
    minutes (probe 8.5 ms on one, 13.5 ms on the other) — and the
    scheduler, which cannot see that, keeps a single-threaded process
    where it is.  Called before every round and set-up, outside the
    timed regions."""
    if not hasattr(os, "sched_setaffinity") or len(allowed) < 2:
        return probe()
    timings = []
    for cpu in sorted(allowed)[:4]:
        os.sched_setaffinity(0, {cpu})
        timings.append((probe(), cpu))
    seconds, cpu = min(timings)
    os.sched_setaffinity(0, {cpu})
    return seconds


class RoundDriver:
    """Publishes rounds through one live adapter and checks deliveries."""

    def __init__(self, workload, adapter, cpus):
        self.workload = workload
        self.adapter = adapter
        self.host = host_of(adapter)
        if workload.window == 1:
            self.clock = time.perf_counter
        else:
            # Several documents are in flight, so a document's delivery
            # time comes from the runtime's own delivery records, which
            # are stamped on the runtime's clock.
            host = self.host
            self.clock = lambda: host.now
        #: What the driver has subscribed (the churn hook edits it) ...
        self.live = live_subscriptions(workload)
        #: ... and the oracle's own copy, replayed from the churn log.
        self.oracle = ReferenceOracle(live_subscriptions(workload))
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.delivery_digest = hashlib.sha256()
        self.last_publications: List[list] = []
        #: The CPUs this process may run on, read before the first pin.
        self.cpus = cpus

    # -- the timed region ---------------------------------------------------

    def run(
        self,
        round_index: int,
        exact: bool = False,
        profiler: Optional[cProfile.Profile] = None,
        spans: Optional[list] = None,
    ) -> Dict[str, float]:
        workload = self.workload
        adapter = self.adapter
        host = self.host
        texts = workload.prepare_round(round_index)
        sizes = [len(text.encode("utf-8")) for text in texts]
        gc.collect()

        submit = adapter.submit
        quiesce = adapter.quiesce
        now = adapter.now
        clock = self.clock
        after_document = workload.after_document
        live = self.live
        window = workload.window
        last = len(texts) - 1
        prefix = "r%d-d" % round_index
        handed_in: List[float] = []
        decomposed: List[float] = []
        quiesced: List[float] = []
        publications: List[list] = []
        churn = {}
        in_flight = 0
        stats = host.stats
        messages_before = stats.network_traffic + stats.client_messages

        probe_before = pin_to_fastest_cpu(self.cpus)
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        for index, text in enumerate(texts):
            handed_in.append(clock())
            pubs = XMLDocument.parse(text, prefix + str(index)).publications()
            decomposed.append(clock())
            size = sizes[index]
            issued_at = now()
            for publication in pubs:
                submit(
                    PUBLISHER,
                    PublishMsg(
                        publication=publication,
                        publisher_id=PUBLISHER,
                        doc_size_bytes=size,
                        issued_at=issued_at,
                    ),
                )
            publications.append(pubs)
            in_flight += 1
            if in_flight == window or index == last:
                quiesce()
                done = clock()
                quiesced.extend([done] * in_flight)
                in_flight = 0
                op = after_document(adapter, round_index, index, live)
                if op is not None:
                    churn[index] = op
        elapsed = time.perf_counter() - started
        if profiler is not None:
            profiler.disable()
        probe_s = (probe_before + probe()) / 2.0

        messages = stats.network_traffic + stats.client_messages - messages_before
        if window > 1:
            # submit -> last matching delivery, from the delivery records
            # (a document nobody wanted counts until its batch drained).
            last_delivery: Dict[str, float] = {}
            for record in stats.deliveries:
                if record.delivered_at > last_delivery.get(record.doc_id, 0.0):
                    last_delivery[record.doc_id] = record.delivered_at
            finished = [
                last_delivery.get(prefix + str(index), quiesced[index])
                for index in range(len(texts))
            ]
        else:
            finished = quiesced
        latency_ms = [
            (finished[index] - handed_in[index]) * 1e3
            for index in range(len(texts))
        ]
        if spans is not None:
            origin = handed_in[0]
            for index in range(len(texts)):
                spans.append({
                    "doc": prefix + str(index),
                    "ingest": [handed_in[index] - origin,
                               decomposed[index] - origin],
                    "route": [decomposed[index] - origin,
                              finished[index] - origin],
                })
        deliveries = self._check(round_index, publications, churn, exact)
        self.last_publications = publications
        return {
            "elapsed_s": elapsed,
            "probe_s": probe_s,
            "latency_ms": latency_ms,
            "msgs_per_doc": messages / len(texts),
            "deliveries": deliveries,
            "doc_bytes": sum(sizes),
        }

    # -- correctness (outside the timed region) -----------------------------

    def _check(self, round_index, publications, churn, exact: bool) -> int:
        """Every document: no client got a path twice, and the delivery
        count goes into a digest the parent compares across repeats.
        With *exact*, the sampled documents' delivered ``(client, path)``
        sets must equal the reference oracle's over the then-live XPEs."""
        host = self.host
        by_doc = defaultdict(list)
        for client_id, client in host.subscribers.items():
            for message in client.received:
                publication = message.publication
                by_doc[publication.doc_id].append(
                    (client_id, publication.path_id)
                )
            del client.received[:]
        del host.stats.deliveries[:]
        sample = set(oracle_sample(self.workload, round_index)) if exact else ()
        counts = []
        for index, pubs in enumerate(publications):
            doc_id = "r%d-d%d" % (round_index, index)
            got = by_doc.get(doc_id, [])
            delivered = set(got)
            problem = None
            if len(delivered) != len(got):
                problem = "%s: a path was delivered twice" % doc_id
            elif index in sample:
                expected = self.oracle.expected(pubs)
                if delivered != expected:
                    problem = "%s: %d missing, %d unexpected deliveries" % (
                        doc_id,
                        len(expected - delivered),
                        len(delivered - expected),
                    )
            self._record(problem)
            counts.append(len(got))
            if index in churn:
                self.oracle.apply(*churn[index])
        duplicates = sum(c.duplicates for c in host.subscribers.values())
        self._record(
            "round %d: %d duplicates suppressed at clients"
            % (round_index, duplicates) if duplicates else None
        )
        self.delivery_digest.update(repr(counts).encode("ascii"))
        return sum(counts)

    def _record(self, problem: Optional[str]):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(problem)


def routing_table_entries(host) -> int:
    return sum(b.routing_table_size() for b in host.brokers.values())


def handled_messages(host) -> int:
    return sum(sum(b.stats.values()) for b in host.brokers.values())


def environment(loadavg_start) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "loadavg_start": list(loadavg_start),
        "loadavg_end": list(os.getloadavg()),
    }


def timed_setup(workload, cpus):
    """The ``setup_s`` region: returns ``(adapter, seconds)``."""
    gc.collect()
    pin_to_fastest_cpu(cpus)
    started = time.perf_counter()
    adapter = workload.setup()
    return adapter, time.perf_counter() - started


def measure(args, cpus) -> Dict[str, object]:
    """An untraced repeat: the end-to-end samples."""
    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    adapter, setup_s = timed_setup(workload, cpus)
    try:
        driver = RoundDriver(workload, adapter, cpus)
        rts_entries = routing_table_entries(driver.host)
        for round_index in range(workload.warmup_rounds):
            driver.run(round_index)
        rounds = [
            driver.run(workload.warmup_rounds + offset, exact=(offset == 0))
            for offset in range(args.rounds)
        ]
    finally:
        adapter.close()
    return _report(args, driver, setup_s, rts_entries, rounds)


def measure_traced(args, cpus) -> Dict[str, object]:
    """A traced repeat: the per-layer ledger.  Three phases over the same
    live overlay, each ``args.rounds`` rounds — plain (the baseline the
    tracing overhead is a ratio to), under cProfile with metrics off (the
    ledger of the production configuration), and unprofiled with
    ``obs.enable_metrics()`` on (the program's own counts)."""
    workload = WORKLOADS[args.workload](args.seed, quick=args.quick)
    obs.enable_metrics(reset=True)
    adapter, setup_s = timed_setup(workload, cpus)
    setup_snapshot = obs.get_registry().snapshot()
    obs.disable_metrics()
    try:
        driver = RoundDriver(workload, adapter, cpus)
        host = driver.host
        rts_entries = routing_table_entries(host)
        next_round = 0
        for _ in range(workload.warmup_rounds):
            driver.run(next_round)
            next_round += 1
        plain = []
        for offset in range(args.rounds):
            plain.append(driver.run(next_round, exact=(offset == 0)))
            next_round += 1

        profiler = cProfile.Profile()
        spans: List[dict] = []
        profiled = []
        for _ in range(args.rounds):
            profiled.append(
                driver.run(next_round, profiler=profiler, spans=spans)
            )
            next_round += 1

        obs.enable_metrics(reset=True)
        handled_before = handled_messages(host)
        counted = []
        for _ in range(args.rounds):
            counted.append(driver.run(next_round))
            next_round += 1
        snapshot = obs.get_registry().snapshot()
        obs.disable_metrics()
        counted_docs = DOCS_PER_ROUND * len(counted)
        metrics = ledger.registry_metrics(
            snapshot, setup_snapshot, counted_docs,
            subscription_count(workload), host,
            handled_messages(host) - handled_before,
            sum(r["deliveries"] for r in counted),
        )
    finally:
        adapter.close()

    profile = pstats.Stats(profiler)
    seconds, calls = ledger.fold_profile(profile.stats)
    profiled_docs = DOCS_PER_ROUND * len(profiled)
    profiled_wall = sum(r["elapsed_s"] for r in profiled)
    # cProfile charges its own bookkeeping to nobody, so the profile's
    # total stays 2-3 % under the wall time measured around the same
    # loop; that remainder is unattributed too, and the parts then sum
    # to the wall time.
    profile_total = sum(seconds.values())
    seconds[ledger.UNATTRIBUTED] += max(0.0, profiled_wall - profile_total)
    metrics.update(ledger.ledger_metrics(seconds, calls, profiled_docs))
    metrics.update(ledger.wire_metrics(_wire_stream(workload, driver)))
    plain_rate = statistics.median(DOCS_PER_ROUND / r["elapsed_s"] for r in plain)
    profiled_rate = statistics.median(
        DOCS_PER_ROUND / r["elapsed_s"] for r in profiled
    )
    metrics["trace.overhead_ratio"] = profiled_rate / plain_rate

    os.makedirs(OUT_DIR, exist_ok=True)
    profile.dump_stats(os.path.join(OUT_DIR, "trace-%s.pstats" % args.workload))
    with open(os.path.join(OUT_DIR, "trace-%s.json" % args.workload), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "clock": "seconds since the round's first hand-in",
                   "spans": spans}, f)

    report = _report(args, driver, setup_s, rts_entries, plain)
    report["traced"] = {
        "metrics": metrics,
        "ledger_seconds": sum(seconds.values()),
        "profiled_wall_seconds": profiled_wall,
        "profile_total_seconds": profile_total,
        "untraced_docs_per_s": plain_rate,
        "traced_docs_per_s": profiled_rate,
    }
    return report


def _wire_stream(workload, driver) -> List[object]:
    """The last round's PublishMsg stream plus (up to 2 000 of) the
    set-up's SubscribeMsg stream, rebuilt for the codec replay."""
    stream: List[object] = []
    for client_id, exprs in workload.client_subs.items():
        for expr in exprs:
            if len(stream) < 2000:
                stream.append(SubscribeMsg(expr=expr, subscriber_id=client_id))
    for pubs in driver.last_publications:
        for publication in pubs:
            stream.append(
                PublishMsg(publication=publication, publisher_id=PUBLISHER)
            )
    return stream


def _report(args, driver, setup_s, rts_entries, rounds) -> Dict[str, object]:
    docs = DOCS_PER_ROUND * len(rounds)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": {
            name: [r[name] for r in rounds]
            for name in ("elapsed_s", "probe_s", "latency_ms", "msgs_per_doc")
        },
        "setup_s": setup_s,
        "rts_entries": rts_entries,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "docs_timed": docs,
        "mean_doc_bytes": sum(r["doc_bytes"] for r in rounds) / docs,
        "ops_attempted": driver.attempted,
        "ops_failed": driver.failed,
        "failures": driver.failures,
        "delivery_digest": driver.delivery_digest.hexdigest(),
        "env": environment(args.loadavg_start),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    require_pinned_hash_seed()
    args.loadavg_start = os.getloadavg()
    cpus = (
        frozenset(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else frozenset()
    )
    report = measure_traced(args, cpus) if args.traced else measure(args, cpus)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
