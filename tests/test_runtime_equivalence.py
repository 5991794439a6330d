"""Backend-equivalence battery: one workload, three execution models.

The same seeded workload (PSD advertisements, per-leaf Set A query
subsets, generated documents) runs on the paper's 7-broker tree through

* the discrete-event simulator,
* the asyncio concurrent runtime, and
* the one-OS-process-per-broker socket deployment,

and every observation that should not depend on the execution model is
compared: the delivered ``(client, doc_id, path)`` sets, the per-broker
routing-table fingerprints at quiescence, the audit oracle verdict and
causal trace completeness.  See docs/runtime.md for why the reference
run pins FIFO links (constant latency, no processing charge) and why
the subscription phase is serialized.
"""

import pytest

from repro.audit.oracle import AuditOracle
from repro.broker.messages import PublishMsg
from repro.runtime.base import binary_tree_topology, tree_leaves
from repro.runtime.workload import (
    ADAPTERS,
    AsyncioAdapter,
    MultiprocessAdapter,
    SimulatorAdapter,
    WorkloadSpec,
    build_plan,
    run_workload,
)

SPEC = WorkloadSpec(levels=3, queries_per_leaf=4, documents=4, seed=7)


@pytest.fixture(scope="module")
def plan():
    return build_plan(SPEC)


@pytest.fixture(scope="module")
def results(plan):
    adapters = {
        "simulator": SimulatorAdapter(tracing=True),
        "asyncio": AsyncioAdapter(tracing=True),
        "multiprocess": MultiprocessAdapter(tracing=True),
    }
    return {
        name: run_workload(adapter, SPEC, plan, auditor=AuditOracle())
        for name, adapter in adapters.items()
    }


def test_all_backends_present(results):
    assert set(results) == set(ADAPTERS)


def test_deliveries_are_nonempty_and_identical(results):
    reference = results["simulator"].delivered
    assert reference, "workload delivered nothing — not a useful comparison"
    for name, result in results.items():
        assert result.delivered == reference, name


def test_routing_fingerprints_identical_at_quiescence(results):
    reference = results["simulator"].fingerprints
    assert len(reference) == 7
    for name, result in results.items():
        diverged = [
            broker_id
            for broker_id in reference
            if result.fingerprints.get(broker_id) != reference[broker_id]
        ]
        assert diverged == [], (name, diverged)


def test_audit_oracle_clean_on_every_backend(results):
    for name, result in results.items():
        assert result.audit_problems == [], name


def test_traces_causally_complete(results):
    # The simulator and asyncio runtime verify full TraceRecorder trees;
    # the multiprocess deployment checks its children's hop spans
    # against the overlay tree paths (a child never sees a delivery).
    for name, result in results.items():
        assert result.trace_problems == [], name


class PathByPathAsyncio(AsyncioAdapter):
    """The per-message reference, no knob needed: every publication is
    drained before the next is submitted, so each travels as a group of
    one."""

    def submit(self, client_id, message):
        super().submit(client_id, message)
        if isinstance(message, PublishMsg):
            self.quiesce()


def test_grouped_dispatch_is_path_by_path_dispatch_on_asyncio(plan):
    """The asyncio row of tests/test_match_caches.py::
    test_grouped_dispatch_is_path_by_path_dispatch: how a document's
    paths were framed is unobservable in what was delivered, in the
    routing tables, to the audit oracle and in the trace trees."""
    adapters = {
        "grouped": AsyncioAdapter(tracing=True),
        "single": PathByPathAsyncio(tracing=True),
    }
    results = {
        name: run_workload(adapter, SPEC, plan, auditor=AuditOracle())
        for name, adapter in adapters.items()
    }
    grouped, single = results["grouped"], results["single"]
    assert grouped.delivered and grouped.delivered == single.delivered
    assert grouped.fingerprints == single.fingerprints
    for result in results.values():
        assert result.audit_problems == []
        assert result.trace_problems == []
    grouped_stats = adapters["grouped"].host.stats
    single_stats = adapters["single"].host.stats
    assert grouped_stats.network_traffic == single_stats.network_traffic
    assert grouped_stats.client_messages == single_stats.client_messages
    # ... and groups really formed: fewer frames carried the same messages.
    assert grouped_stats.frames < single_stats.frames
    spans = {
        name: adapter.host.tracing.spans for name, adapter in adapters.items()
    }
    assert any(s.attrs.get("group", 1) > 1 for s in spans["grouped"])
    assert not any("group" in s.attrs for s in spans["single"])


def test_shared_engine_equivalent_on_every_backend():
    """The acceptance battery for ``matching_engine="shared"``: the
    same workload matched through the shared-automaton mirror delivers
    the identical set on all three backends, keeps all seven routing
    fingerprints identical across them, and stays audit-clean."""
    spec = WorkloadSpec(
        levels=3,
        queries_per_leaf=4,
        documents=4,
        seed=7,
        matching_engine="shared",
    )
    shared_plan = build_plan(spec)
    reference = run_workload(SimulatorAdapter(), SPEC, build_plan(SPEC))
    results = {
        name: run_workload(
            adapter_cls(), spec, shared_plan, auditor=AuditOracle()
        )
        for name, adapter_cls in (
            ("simulator", SimulatorAdapter),
            ("asyncio", AsyncioAdapter),
            ("multiprocess", MultiprocessAdapter),
        )
    }
    assert reference.delivered
    # Fingerprints digest the config (engine name included), so the
    # cross-backend comparison is among the shared-engine runs; the
    # delivered sets additionally match the plain-engine reference.
    shared_reference = results["simulator"]
    for name, result in results.items():
        assert result.delivered == reference.delivered, name
        assert result.audit_problems == [], name
        diverged = [
            broker_id
            for broker_id in shared_reference.fingerprints
            if result.fingerprints.get(broker_id)
            != shared_reference.fingerprints[broker_id]
        ]
        assert diverged == [], (name, diverged)


def test_unserialized_subscriptions_still_deliver_identically(plan):
    """Covering tables are arrival-order-dependent (racing subscriptions
    from different leaves at a shared ancestor resolve differently), but
    the *delivered* sets never are.  Without the serialized subscription
    phase, fingerprints are out of contract — deliveries are not."""
    spec = WorkloadSpec(
        levels=3,
        queries_per_leaf=4,
        documents=4,
        seed=7,
        serialize_subscriptions=False,
    )
    reference = run_workload(SimulatorAdapter(), spec)
    concurrent = run_workload(AsyncioAdapter(), spec)
    assert concurrent.delivered == reference.delivered


def test_binary_tree_topology_matches_overlay_naming():
    broker_ids, links = binary_tree_topology(3)
    assert broker_ids == ["b%d" % i for i in range(1, 8)]
    assert ("b1", "b2") in links and ("b3", "b7") in links
    assert len(links) == 6
    assert tree_leaves(3) == ["b4", "b5", "b6", "b7"]


def test_workload_plan_is_deterministic():
    a, b = build_plan(SPEC), build_plan(SPEC)
    assert [str(e) for leaf in a.subscriptions for e in a.subscriptions[leaf]] \
        == [str(e) for leaf in b.subscriptions for e in b.subscriptions[leaf]]
    assert [d.doc_id for d in a.documents] == [d.doc_id for d in b.documents]
    assert a.broker_ids == b.broker_ids and a.links == b.links
