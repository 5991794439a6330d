"""The golden same-work run: one deterministic routing plan under each
of the six strategies and both matching engines, as one canonical JSON.

On the 7-broker tree (constant latency, ``processing_scale=0``, merge
interval 20, a PSD + NITF path universe), a PSD publisher at ``b1`` and
a NITF one at ``b3`` advertise; six subscribers (``b2`` .. ``b7``) take
30 PSD and 30 NITF queries each; each publisher publishes 5 documents;
every broker sweeps; each subscriber retracts every fourth query; each
publisher publishes 5 more.  Advertisements and documents stop at
``DEPTH`` elements (NITF's recursion gives 2,253 advertisements at the
default depth, each checked per SUB).  Recorded: traffic by kind,
frames, work counts, per broker its fingerprint, table size, memo and
automaton counters and merge events, per subscriber a delivery digest.

Regenerate (``tests/test_golden.py`` compares the committed file)::

    PYTHONPATH=src python tests/golden/routing_full.py --write
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro import obs
from repro.adverts.generator import generate_advertisements
from repro.broker.strategies import RoutingConfig
from repro.covering import algorithms
from repro.dtd.paths import enumerate_paths
from repro.dtd.samples import nitf_dtd, psd_dtd
from repro.merging.engine import PathUniverse
from repro.network.latency import ConstantLatency
from repro.network.overlay import Overlay
from repro.obs.registry import MetricsRegistry
from repro.runtime.base import routing_fingerprint
from repro.workloads.datasets import nitf_queries, psd_queries
from repro.workloads.document_generator import generate_documents
from repro.workloads.xpath_generator import XPathWorkloadParams

GOLDEN = Path(__file__).with_suffix(".json")
ENGINES = ("auto", "shared")
DEPTH = 7
WORK_COUNTERS = ("adverts.intersect.hit", "adverts.intersect.miss", "covering.tree.cover_checks",
                 "covering.tree.nodes_visited", "broker.match_cache.stale", "broker.edge.recheck",
                 "merging.events")
#: Queries of three or more steps, concrete in the first two, so that no
#: subscriber's 60 queries match every path of every document.
QUERIES = XPathWorkloadParams(wildcard_prob=0.2, descendant_prob=0.15, relative_prob=0.2,
                               min_length=3, wildcard_min_position=2)


#: Runs of the covering algorithms, behind every precheck of ``covers``.
_UNCACHED = [0]


def _counted(algorithm):
    def run(s1, s2):
        _UNCACHED[0] += 1
        return algorithm(s1, s2)
    return run


def run_plan(config: RoutingConfig, sources, universe) -> dict:
    registry = obs.set_registry(MetricsRegistry(enabled=True))
    _UNCACHED[0] = 0
    overlay = Overlay.binary_tree(3, config=config, latency_model=ConstantLatency(0.001),
                                  universe=universe, processing_scale=0.0, metrics=registry)
    publishers = []
    for home, (client, dtd, adverts) in zip(("b1", "b3"), sources):
        publishers.append((overlay.attach_publisher(client, home), dtd))
        for advert in adverts:
            publishers[-1][0].advertise(advert)
    overlay.run()
    subscribers = []
    for index in range(6):
        subscriber = overlay.attach_subscriber("sub%d" % index, "b%d" % (index + 2))
        exprs = (psd_queries(30, 200 + index, QUERIES).exprs
                 + nitf_queries(30, 300 + index, QUERIES).exprs)
        subscribers.append((subscriber, exprs))
        for expr in exprs:
            subscriber.subscribe(expr)
    overlay.run()
    _publish(overlay, publishers, "r1", seed=5)
    for broker_id in sorted(overlay.brokers):
        overlay.trigger_merge_sweep(broker_id)
        overlay.run()
    for subscriber, exprs in subscribers:
        for expr in exprs[::4]:
            subscriber.unsubscribe(expr)
    overlay.run()
    _publish(overlay, publishers, "r2", seed=6)
    counters = registry.counter_values()
    work = {name: counters.get(name, 0) for name in WORK_COUNTERS}
    work["covers.uncached"] = _UNCACHED[0]
    return {
        "traffic": dict(sorted(overlay.stats.messages_by_kind.items())),
        "frames": overlay.stats.frames,
        "work": work,
        "brokers": {b: _broker(overlay.brokers[b]) for b in overlay.brokers},
        "deliveries": {s.client_id: _deliveries(s.received) for s, _ in subscribers},
    }


def _publish(overlay, publishers, prefix, seed):
    for publisher, dtd in publishers:
        for document in generate_documents(
                dtd, 5, seed=seed, target_bytes=800, max_depth=DEPTH,
                doc_prefix="%s-%s" % (prefix, publisher.client_id)):
            publisher.publish_document(document)
    overlay.run()


def _deliveries(received) -> str:
    """``count:digest`` of the delivered ``(document, path)`` pairs."""
    rows = sorted("%s %s" % (msg.publication.doc_id, "/".join(msg.publication.path))
                  for msg in received)
    digest = hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()
    return "%d:%s" % (len(rows), digest[:16])


def _broker(broker) -> dict:
    memo = broker.match_cache.stats()
    state = {
        "fingerprint": routing_fingerprint(broker)[:16],
        "table": len(broker.table),
        "memo_hits": memo["hits"],
        "memo_misses": memo["misses"],
        "merge_events": sorted("%s <- %s @%.6f" % (e.merger, " | ".join(sorted(map(
            str, e.replaced))), e.degree) for e in broker.merge_log),
    }
    if broker.automaton is not None:
        state["nfa_states"] = broker.automaton.stats()["nfa_states"]
    return state


def generate() -> dict:
    dtds = {"psd": psd_dtd(), "nitf": nitf_dtd()}
    sources = [(client, dtd, generate_advertisements(dtd, DEPTH)) for client, dtd in dtds.items()]
    universe = PathUniverse([path for dtd in dtds.values() for path in enumerate_paths(dtd, DEPTH)])
    previous, uncached = obs.get_registry(), algorithms.covers_uncached
    algorithms.covers_uncached = _counted(uncached)
    try:  # each run counts into a registry of its own
        return {
            "%s/%s" % (name, engine): run_plan(replace(
                RoutingConfig.by_name(name), merge_interval=20, matching_engine=engine),
                sources, universe)
            for name in RoutingConfig.ALL_NAMES for engine in ENGINES
        }
    finally:
        obs.set_registry(previous)
        algorithms.covers_uncached = uncached


def render(document: dict) -> str:
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    text = render(generate())
    GOLDEN.write_text(text) if sys.argv[1:] == ["--write"] else print(text, end="")
