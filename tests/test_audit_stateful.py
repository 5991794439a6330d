"""Audit oracle: stateful interleaving suite + pinned regressions.

The stateful machine interleaves SUB/UNSUB/ADV/publish/merge-sweep/
crash-restart on the paper's 7-broker tree with imperfect merging
enabled and asserts, after every step settles, that the audit oracle
reports zero soundness violations and zero unexplained false positives.

The pinned regression tests demonstrate the two bug classes this PR
fixes — the unsubscribe/merge leak (a constituent UNSUB hitting the
"unknown expression" no-op so the merger never retires) and stale
``forwarded`` marks surviving the retraction of the entry they describe
— and show that *reverting* either fix makes the audit fail.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.audit import AuditOracle, run_audited_workload
from repro.broker.broker import Broker
from repro.broker.messages import SubscribeMsg, UnsubscribeMsg
from repro.broker.persistence import restore, snapshot
from repro.broker.strategies import MergingMode, RoutingConfig
from repro.dtd import parse_dtd
from repro.dtd.samples import psd_dtd
from repro.merging.engine import MergeEvent, PathUniverse
from repro.merging.registry import MergerRegistry
from repro.network import ConstantLatency, Overlay
from repro.network.faults import FaultPlan
from repro.workloads.datasets import psd_queries
from repro.workloads.document_generator import generate_documents
from repro.xpath import parse_xpath


def x(text):
    return parse_xpath(text)


UNIVERSE_DTD = """
<!ELEMENT r (a, b?)>
<!ELEMENT a (c?, d?, e?)>
<!ELEMENT b (c?)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA)>
<!ELEMENT e (#PCDATA)>
"""


def make_merging_broker(max_degree=0.0):
    universe = PathUniverse.from_dtd(parse_dtd(UNIVERSE_DTD))
    config = RoutingConfig(
        advertisements=False,
        covering=True,
        merging=(
            MergingMode.PERFECT if max_degree == 0.0 else MergingMode.IMPERFECT
        ),
        max_imperfect_degree=max_degree,
        merge_interval=1000,
    )
    broker = Broker("B", config=config, universe=universe)
    broker.connect("up")
    broker.connect("down")
    return broker


CONSTITUENTS = ("/r/a/c", "/r/a/d", "/r/a/e")
MERGER = "/r/a/*"


def merged_broker():
    broker = make_merging_broker()
    for text in CONSTITUENTS:
        broker.handle(SubscribeMsg(expr=x(text)), "down")
    sweep_out = broker.run_merge_sweep()
    return broker, sweep_out


# -- fix #1: unsubscribe of merged constituents ----------------------------


def test_unsubscribe_of_last_constituent_retires_merger():
    broker, sweep_out = merged_broker()
    merger = x(MERGER)
    assert broker.table.keys_of(merger) == {"down"}
    assert broker._merge_registry.is_merger(merger)
    # The sweep forwarded the merger and retracted the constituents.
    assert any(
        isinstance(m, SubscribeMsg) and m.expr == merger and d == "up"
        for d, (m,) in sweep_out
    )
    retracted = {
        m.expr for d, (m,) in sweep_out if isinstance(m, UnsubscribeMsg)
    }
    assert retracted == {x(t) for t in CONSTITUENTS}
    for text in CONSTITUENTS:
        assert not broker.forwarded.was_sent(x(text), "up")

    # Unsubscribing all but the last constituent keeps the merger alive.
    for text in CONSTITUENTS[:-1]:
        assert broker.handle(UnsubscribeMsg(expr=x(text)), "down") == []
        assert broker.table.keys_of(merger) == {"down"}
    # The last constituent retires the merger key and propagates the
    # retraction upstream (pre-fix: "unknown expression" no-op, leak).
    out = broker.handle(UnsubscribeMsg(expr=x(CONSTITUENTS[-1])), "down")
    assert any(
        isinstance(m, UnsubscribeMsg) and m.expr == merger and d == "up"
        for d, (m,) in out
    )
    assert broker.routing_table_size() == 0
    assert len(broker._merge_registry) == 0
    assert not broker.forwarded.was_sent(merger, "up")


def test_direct_merger_subscription_outlives_constituents():
    broker, _ = merged_broker()
    merger = x(MERGER)
    # The same hop also subscribes the merger expression itself: the
    # redelivery branch must record direct interest, not drop it.
    assert broker.handle(SubscribeMsg(expr=merger), "down") == []
    for text in CONSTITUENTS:
        assert broker.handle(UnsubscribeMsg(expr=x(text)), "down") == []
    # All constituents gone, but the direct subscription holds the key.
    assert broker.table.keys_of(merger) == {"down"}
    out = broker.handle(UnsubscribeMsg(expr=merger), "down")
    assert any(
        isinstance(m, UnsubscribeMsg) and m.expr == merger for _, (m,) in out
    )
    assert broker.routing_table_size() == 0


def test_constituent_resubscribe_is_absorbed_by_the_merger():
    broker, _ = merged_broker()
    merger = x(MERGER)
    # Re-subscribing a merged-away constituent must not duplicate state:
    # the merger already carries this hop's interest.
    assert broker.handle(SubscribeMsg(expr=x(CONSTITUENTS[0])), "down") == []
    assert broker.table.keys_of(x(CONSTITUENTS[0])) == set()
    assert broker.table.keys_of(merger) == {"down"}


def test_chained_merges_flatten_in_the_registry():
    registry = MergerRegistry()
    registry.record(
        MergeEvent(
            merger=x("/r/a/*"),
            replaced=(x("/r/a/c"), x("/r/a/d")),
            degree=0.0,
            replaced_keys=(frozenset({"h"}), frozenset({"h"})),
        )
    )
    registry.record(
        MergeEvent(
            merger=x("/r/*/*"),
            replaced=(x("/r/a/*"), x("/r/b/c")),
            degree=0.0,
            replaced_keys=(frozenset({"h"}), frozenset({"h"})),
        )
    )
    assert not registry.is_merger(x("/r/a/*"))
    assert registry.find_contribution(x("/r/a/c"), "h") == x("/r/*/*")
    assert registry.find_contribution(x("/r/b/c"), "h") == x("/r/*/*")
    registry.remove_contribution(x("/r/*/*"), x("/r/a/c"), "h")
    registry.remove_contribution(x("/r/*/*"), x("/r/a/d"), "h")
    registry.remove_contribution(x("/r/*/*"), x("/r/b/c"), "h")
    assert not registry.hop_needs(x("/r/*/*"), "h")


def test_registry_survives_snapshot_restore():
    broker, _ = merged_broker()
    clone = restore(
        snapshot(broker), universe=PathUniverse.from_dtd(parse_dtd(UNIVERSE_DTD))
    )
    assert clone._merge_registry.constituents == broker._merge_registry.constituents
    assert clone._merge_registry.direct == broker._merge_registry.direct
    assert [e.merger for e in clone.merge_log] == [
        e.merger for e in broker.merge_log
    ]
    # The restored broker retires the merger exactly like the original.
    for text in CONSTITUENTS:
        clone.handle(UnsubscribeMsg(expr=x(text)), "down")
    assert clone.routing_table_size() == 0
    assert len(clone._merge_registry) == 0


# -- fix #2: forwarded mark lifecycle --------------------------------------


def test_retraction_clears_marks_so_repromotion_forwards_again():
    broker = make_merging_broker()
    expr = x("/r/a/c")
    out = broker.handle(SubscribeMsg(expr=expr), "down")
    assert any(d == "up" for d, _ in out)
    assert broker.forwarded.was_sent(expr, "up")
    broker.handle(UnsubscribeMsg(expr=expr), "down")
    assert not broker.forwarded.was_sent(expr, "up")
    # Re-promotion: the same expression subscribed again must travel
    # upstream again (a stale mark would suppress it — the bug class).
    out = broker.handle(SubscribeMsg(expr=expr), "down")
    assert any(
        isinstance(m, SubscribeMsg) and m.expr == expr and d == "up"
        for d, (m,) in out
    )


def test_merge_sweep_clears_constituent_marks():
    broker, _ = merged_broker()
    for text in CONSTITUENTS:
        assert not broker.forwarded.was_sent(x(text), "up")
    assert broker.forwarded.was_sent(x(MERGER), "up")


# -- revert demonstrations: the audit catches both bug classes -------------


def _small_audited_overlay():
    dtd = parse_dtd(UNIVERSE_DTD)
    universe = PathUniverse.from_dtd(dtd)
    overlay = Overlay.binary_tree(
        2,
        config=RoutingConfig.with_adv_with_cov_ipm(
            max_imperfect_degree=1.0, merge_interval=1000
        ),
        latency_model=ConstantLatency(0.001),
        universe=universe,
        processing_scale=0.0,
    )
    oracle = overlay.attach_auditor(AuditOracle())
    publisher = overlay.attach_publisher("pub", "b2")
    publisher.advertise_dtd(dtd)
    overlay.run()
    subscriber = overlay.attach_subscriber("sub", "b3")
    subscriber.subscribe("/r/a/c")
    subscriber.subscribe("/r/a/d")
    overlay.run()
    return overlay, oracle, subscriber


def test_reverting_the_registry_fix_makes_the_audit_fail():
    overlay, oracle, subscriber = _small_audited_overlay()
    overlay.trigger_merge_sweep("b1")
    overlay.run()
    assert oracle.check().ok
    # Revert fix #1: the pre-fix broker kept no constituent bookkeeping,
    # so a constituent UNSUB hits the unknown-expression no-op and the
    # merger key at b1 leaks forever.
    overlay.brokers["b1"]._merge_registry = MergerRegistry()
    subscriber.unsubscribe("/r/a/c")
    subscriber.unsubscribe("/r/a/d")
    overlay.run()
    report = oracle.check()
    assert not report.ok
    assert any(
        v.code in ("stale-entry", "leaked-merger")
        for v in report.unexplained_fp
    ), report.summary()


def test_reverting_the_mark_fix_makes_the_audit_fail():
    overlay, oracle, subscriber = _small_audited_overlay()
    subscriber.unsubscribe("/r/a/c")
    subscriber.unsubscribe("/r/a/d")
    overlay.run()
    assert oracle.check().ok
    # Revert fix #2: pre-fix, an emitted UNSUBSCRIBE could leave the
    # forwarding mark behind.  Reinstate such a stale mark by hand: the
    # mark claims /r/a/c is still forwarded to b2, but b2 holds no entry.
    overlay.brokers["b1"].forwarded.mark(x("/r/a/c"), "b2")
    report = oracle.check()
    assert not report.ok
    assert any(
        v.code == "stale-forward-mark" for v in report.soundness
    ), report.summary()
    # ... and the mark has the advertised consequence: a re-subscription
    # is suppressed upstream, which the representation check also flags.
    subscriber.subscribe("/r/a/c")
    overlay.run()
    report = oracle.check()
    assert any(
        v.code == "missing-routing-entry" for v in report.soundness
    ), report.summary()


def test_inexact_client_entry_makes_the_audit_fail():
    """Invariant 7: an edge broker delivers on a matched client key
    without re-checking, so an entry the client never subscribed (and
    no merger explains) is a soundness violation."""
    overlay, oracle, _ = _small_audited_overlay()
    assert oracle.check().ok
    edge = overlay.brokers["b3"]
    edge.client_subs["sub"].discard(x("/r/a/c"))
    report = oracle.check()
    assert [v.code for v in report.soundness] == ["inexact-client-entry"]
    assert report.soundness[0].broker_id == "b3"
    assert "/r/a/c" in report.soundness[0].detail
    # A merger absorbing the client's subscriptions explains its entry.
    edge.client_subs["sub"].add(x("/r/a/c"))
    overlay.trigger_merge_sweep("b3")
    assert edge.table.keys_of(x("/r/a/*")) == {"sub"}
    assert oracle.check().ok


# -- the chaos-matrix acceptance gate --------------------------------------


def test_audited_workload_matrix_is_clean_under_crash_faults():
    """Seed-pinned acceptance slice: the crash-restart scenario (the
    hardest one: persistence + replay + merge state) audits clean."""
    from repro.audit import audit_scenarios

    plan = audit_scenarios(seed=0)["crash-restart"]
    _, _, report = run_audited_workload(plan=plan)
    assert report.ok, report.summary()


# -- stateful interleaving --------------------------------------------------


class AuditMachine(RuleBasedStateMachine):
    """Random interleavings of every routing-state mutation the overlay
    supports, audited to quiescence after each step."""

    def __init__(self):
        super().__init__()
        self.dtd = psd_dtd()
        universe = PathUniverse.from_dtd(self.dtd, max_depth=10)
        self.overlay = Overlay.binary_tree(
            3,
            config=RoutingConfig.with_adv_with_cov_ipm(
                max_imperfect_degree=0.1, merge_interval=1000
            ),
            latency_model=ConstantLatency(0.001),
            universe=universe,
            processing_scale=0.0,
            faults=FaultPlan(seed=0, rto=0.01),
        )
        self.oracle = self.overlay.attach_auditor(AuditOracle(probe_limit=60))
        self.publisher = self.overlay.attach_publisher("pub", "b1")
        self.publisher.advertise_dtd(self.dtd)
        self.second_publisher = self.overlay.attach_publisher("pub2", "b7")
        self.pool = list(psd_queries(24, seed=7).exprs)
        documents = generate_documents(self.dtd, 3, seed=2, target_bytes=400)
        self.doc_paths = [
            [p.path for p in document.publications()] for document in documents
        ]
        self.subscribers = [
            self.overlay.attach_subscriber("sub%d" % i, leaf)
            for i, leaf in enumerate(self.overlay.leaf_brokers())
        ]
        self.published = 0
        self._settle()

    def _settle(self):
        self.overlay.run()
        report = self.oracle.check(drain=False)
        assert report.ok, report.summary()

    @rule(sub=st.integers(0, 3), expr=st.integers(0, 23))
    def subscribe(self, sub, expr):
        self.subscribers[sub].subscribe(self.pool[expr])
        self._settle()

    @rule(sub=st.integers(0, 3), expr=st.integers(0, 23))
    def unsubscribe(self, sub, expr):
        subscriber = self.subscribers[sub]
        if self.pool[expr] in subscriber.subscriptions:
            subscriber.unsubscribe(self.pool[expr])
        self._settle()

    @rule(doc=st.integers(0, 2))
    def publish(self, doc):
        self.published += 1
        self.publisher.publish_paths(
            self.doc_paths[doc],
            doc_id="d%d" % self.published,
            size_bytes=400,
        )
        self._settle()

    @rule(broker=st.integers(1, 7))
    def merge_sweep(self, broker):
        self.overlay.trigger_merge_sweep("b%d" % broker)
        self._settle()

    @rule(broker=st.integers(2, 7))
    def crash_restart(self, broker):
        broker_id = "b%d" % broker
        if not self.overlay.is_down(broker_id):
            self.overlay.crash_broker(broker_id, with_state=True)
            self.overlay.recover_broker(broker_id)
        self._settle()

    @rule()
    def toggle_second_publisher(self):
        if self.second_publisher.advertised:
            for adv_id in list(self.second_publisher.advertised):
                self.second_publisher.unadvertise(adv_id)
        else:
            self.second_publisher.advertise_dtd(self.dtd)
        self._settle()


TestAuditMachine = AuditMachine.TestCase
TestAuditMachine.settings = settings(
    max_examples=10, stateful_step_count=10, deadline=None
)
