"""Chaos battery: the 7-broker overlay converges under injected faults.

Each scenario runs the Tables-2-style workload (advertise, subscribe,
publish) on the paper's 7-broker binary tree with one class of fault
injected — drop-only, duplicate-only, reorder-only, a timed partition
and a mid-run broker crash/restart — and must reach exactly the
fault-free ground truth: the same per-subscriber delivered publication
sets and the same routing table sizes.  Reliable links plus idempotent
handlers mask the faults; only the transport-level counters betray
that anything went wrong.
"""

import pytest

from repro import obs
from repro.broker.strategies import RoutingConfig
from repro.dtd.samples import psd_dtd
from repro.merging.engine import PathUniverse
from repro.network import ConstantLatency, Overlay
from repro.network.faults import CrashEvent, FaultPlan, LinkFaults, Partition
from repro.obs import MetricsRegistry
from repro.workloads.datasets import psd_queries
from repro.workloads.document_generator import generate_documents

XPES_PER_LEAF = 12
DOCUMENTS = 5


def run_workload(plan=None, metrics=None, attach=None):
    """Advertise, subscribe and publish on a 7-broker tree; return the
    finished overlay.  ``attach`` is called with the overlay before any
    traffic is submitted (e.g. to register an audit oracle)."""
    dtd = psd_dtd()
    overlay = Overlay.binary_tree(
        3,
        config=RoutingConfig.by_name("with-Adv-with-Cov"),
        latency_model=ConstantLatency(0.001),
        universe=PathUniverse.from_dtd(dtd, max_depth=10),
        processing_scale=0.0,
        metrics=metrics,
        faults=plan,
    )
    if attach is not None:
        attach(overlay)
    publisher = overlay.attach_publisher("pub", "b1")
    publisher.advertise_dtd(dtd)
    overlay.run()
    for index, leaf in enumerate(overlay.leaf_brokers()):
        subscriber = overlay.attach_subscriber("sub%d" % index, leaf)
        for expr in psd_queries(XPES_PER_LEAF, seed=100 + index).exprs:
            subscriber.subscribe(expr)
    overlay.run()
    for document in generate_documents(dtd, DOCUMENTS, seed=3, target_bytes=800):
        publisher.publish_document(document)
    overlay.run()
    return overlay


def delivered_publications(overlay):
    """Per-subscriber set of delivered (doc_id, path_id) pairs."""
    return {
        sub_id: {
            (msg.publication.doc_id, msg.publication.path_id)
            for msg in subscriber.received
        }
        for sub_id, subscriber in overlay.subscribers.items()
    }


@pytest.fixture(scope="module")
def ground_truth():
    overlay = run_workload()
    return delivered_publications(overlay), overlay.routing_table_sizes()


SCENARIOS = {
    "drop-only": FaultPlan(
        seed=11, default=LinkFaults(drop=0.2), rto=0.01
    ),
    "duplicate-only": FaultPlan(
        seed=12, default=LinkFaults(duplicate=0.2), rto=0.01
    ),
    "reorder-only": FaultPlan(
        seed=13,
        default=LinkFaults(reorder=0.3, reorder_window=0.01),
        rto=0.05,
    ),
    "partition-heals": FaultPlan(
        seed=14, partitions=(Partition("b1", "b3", 0.0, 0.5),), rto=0.01
    ),
    "crash-restart": FaultPlan(
        seed=15,
        default=LinkFaults(drop=0.1),
        crashes=(CrashEvent("b2", at=0.002, restart_at=0.2),),
        rto=0.01,
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_converges_to_fault_free_ground_truth(name, ground_truth):
    plan = SCENARIOS[name]
    overlay = run_workload(plan)
    baseline_delivered, baseline_tables = ground_truth
    assert delivered_publications(overlay) == baseline_delivered
    assert overlay.routing_table_sizes() == baseline_tables
    assert overlay.transport.in_flight() == 0
    stats = overlay.transport.stats
    if plan.default.drop or plan.partitions:
        assert stats["dropped"] > 0 or stats["partitioned"] > 0
        assert stats["retransmits"] > 0
    if plan.default.duplicate:
        assert stats["duplicated"] > 0 and stats["dup_suppressed"] > 0
    if plan.default.reorder:
        assert stats["reordered"] > 0
    if plan.crashes:
        assert stats["crashes"] == 1 and stats["recoveries"] == 1


@pytest.mark.parametrize("name", ["fault-free"] + sorted(SCENARIOS))
def test_no_client_sees_a_duplicate(name):
    """Reliable links suppress every redelivery before it reaches a
    client: ``network.clients.duplicates`` stays 0 on every scenario.
    One hand-made redelivery afterwards shows the counter is live."""
    previous = obs.get_registry()
    registry = obs.set_registry(MetricsRegistry(enabled=True))
    try:
        overlay = run_workload(SCENARIOS.get(name), metrics=registry)
        counter = registry.counter("network.clients.duplicates")
        assert counter.value == 0
        assert all(
            sub.duplicates == 0 for sub in overlay.subscribers.values()
        )
        subscriber = overlay.subscribers["sub0"]
        overlay.receive("sub0", subscriber.received[:1], 2, overlay.now)
        assert counter.value == subscriber.duplicates == 1
    finally:
        obs.set_registry(previous)


@pytest.mark.parametrize("name", ["fault-free"] + sorted(SCENARIOS))
def test_audit_oracle_reports_clean(name, audit_oracle):
    """The ground-truth audit passes every invariant over the chaos
    matrix (see repro.audit): zero soundness violations, zero
    unexplained false positives."""
    oracles = []
    plan = SCENARIOS.get(name)
    run_workload(plan, attach=lambda o: oracles.append(audit_oracle(o)))
    report = oracles[0].check()
    assert report.ok, report.summary()


def test_audit_counters_surface_in_the_metrics_registry(audit_oracle):
    registry = MetricsRegistry(enabled=True)
    oracles = []
    run_workload(
        SCENARIOS["drop-only"],
        metrics=registry,
        attach=lambda o: oracles.append(audit_oracle(o)),
    )
    report = oracles[0].check()
    assert report.ok, report.summary()
    assert registry.counter("audit.checks").value == 1
    assert registry.counter("audit.violations.soundness").value == 0
    assert registry.counter("audit.violations.unexplained_fp").value == 0


def test_fault_events_surface_in_the_metrics_registry():
    """ISSUE acceptance: a chaos run reports nonzero
    ``network.faults.dropped`` and ``broker.retransmits``."""
    registry = MetricsRegistry(enabled=True)
    overlay = run_workload(SCENARIOS["drop-only"], metrics=registry)
    assert registry.counter("network.faults.dropped").value > 0
    assert registry.counter("broker.retransmits").value > 0
    snapshot = overlay.metrics_snapshot()
    assert snapshot["transport"]["dropped"] > 0
    assert snapshot["faults"]["seed"] == 11


def test_crash_without_state_diverges_only_in_tables(ground_truth):
    """A stateless restart (persistence disabled) is the degraded
    behaviour the recovery path exists to avoid: the restarted broker
    forgets routing state it had not re-learnt, so convergence to the
    ground-truth tables is no longer guaranteed — but the run still
    terminates with nothing in flight."""
    plan = FaultPlan(
        seed=16,
        crashes=(CrashEvent("b2", at=0.002, restart_at=0.2, with_state=False),),
        rto=0.01,
    )
    overlay = run_workload(plan)
    assert overlay.transport.stats["crashes"] == 1
    assert overlay.transport.stats["recoveries"] == 1
    assert overlay.transport.in_flight() == 0


def test_same_seed_reproduces_the_chaos_run_exactly():
    plan = SCENARIOS["drop-only"]
    first = run_workload(plan)
    second = run_workload(plan)
    assert delivered_publications(first) == delivered_publications(second)
    assert dict(first.transport.stats) == dict(second.transport.stats)
