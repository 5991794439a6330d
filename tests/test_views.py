"""Edge replay windows (repro.views): unit contract, routing untouched
by views, window replay for late subscribers, crash semantics, audit
classification and backend equivalence.

The load-bearing guarantees (docs/views.md):

* views never route: a views-on core emits exactly the views-off
  core's frames (compared through ``canonical_effects``);
* a window holds the last publications its group routed, whoever
  subscribes meanwhile — no subscription change truncates it;
* replays are exactly-once per ``(doc_id, path_id)`` at the client;
* windows are derived state — never persisted, dropped on
  crash/restore — so correctness never depends on one existing;
* the audit oracle judges every replay against the receiving client's
  live subscriptions and fails the run on one that matches none.
"""

import dataclasses

import pytest

from repro.audit.harness import audit_scenarios, run_audited_workload
from repro.audit.oracle import AuditOracle
from repro.broker import (
    Broker,
    PublishMsg,
    RoutingConfig,
    SubscribeMsg,
)
from repro.broker.core import BrokerCore, canonical_effects
from repro.broker.messages import UnsubscribeMsg
from repro.broker.persistence import restore, snapshot
from repro.dtd.samples import psd_dtd
from repro.merging.engine import PathUniverse
from repro.network.latency import ConstantLatency
from repro.network.overlay import Overlay
from repro.views import ViewManager
from repro.workloads.datasets import psd_queries
from repro.workloads.document_generator import generate_documents
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


def x(text):
    return parse_xpath(text)


def _pub(path, doc_id, path_id=0):
    return PublishMsg(
        publication=Publication(doc_id=doc_id, path_id=path_id, path=path),
        publisher_id="pub",
    )


def _views_config(views=True):
    return dataclasses.replace(RoutingConfig.no_adv_with_cov(), views=views)


def _doc_ids(messages):
    return [m.publication.doc_id for m in messages]


# -- ViewManager unit contract ---------------------------------------------


class TestViewManager:
    GROUP = (("a", "b"), None)

    def test_first_publication_opens_the_window(self):
        views = ViewManager()
        views.capture([_pub(("a", "b"), "d0")])
        assert list(views.views) == [self.GROUP]
        assert _doc_ids(views.views[self.GROUP].replay_messages()) == ["d0"]
        assert views.materialized == 1

    def test_window_capacity_evicts_oldest(self):
        views = ViewManager(window=2)
        views.capture([_pub(("a", "b"), "d%d" % i) for i in range(4)])
        view = views.views[self.GROUP]
        assert _doc_ids(view.replay_messages()) == ["d2", "d3"]

    def test_max_views_lru_eviction(self):
        views = ViewManager(max_views=2)
        for root in ("a", "b", "a", "c"):
            views.capture([_pub((root, "x"), "d-" + root)])
        # "a" was routed again after "b", so "b" is least recent.
        assert list(views.views) == [(("a", "x"), None), (("c", "x"), None)]

    def test_replay_queueing_matches_the_subscription(self):
        views = ViewManager()
        views.capture([_pub(("a", "b"), "d1"), _pub(("a", "b"), "d2")])
        assert views.queue_replays_for("late", x("/a/b")) == 2
        assert views.queue_replays_for("late", x("/z/q")) == 0
        pending = views.take_pending_replays()
        assert len(pending) == 1
        client_id, messages, view = pending[0]
        assert client_id == "late" and view == "replay"
        assert _doc_ids(messages) == ["d1", "d2"]
        assert not views.take_pending_replays()

    def test_stats_shape(self):
        views = ViewManager()
        views.capture([_pub(("a", "b"), "d1"), _pub(("a", "c"), "d1", 1)])
        views.queue_replays_for("late", x("/a/b"))
        assert views.stats() == {
            "views": 2, "materialized": 2, "replays_queued": 1,
            "window_capacity": 64, "retained": 2,
        }


# -- views never route -----------------------------------------------------


def _core(config):
    core = BrokerCore("b1", config=config)
    core.connect("n1")
    core.attach_client("c1")
    core.on_message(SubscribeMsg(expr=x("/a/b"), subscriber_id="c1"), "c1")
    return core


class TestByteIdentity:
    def test_views_on_effects_equal_views_off_effects(self):
        """Publications, groups, a second client and its UNSUB: every
        step yields the same frames with views on, none of them a
        replay."""
        viewed = _core(_views_config())
        plain = _core(_views_config(views=False))
        for core in (viewed, plain):
            core.attach_client("c2")
        steps = [
            SubscribeMsg(expr=x("/a/b"), subscriber_id="c2"),
            [_pub(("a", "b"), "w%d" % i) for i in range(3)],
            [_pub(("a", "b"), "g", 0), _pub(("a", "c"), "g", 1),
             _pub(("a", "b"), "g", 2)],
            UnsubscribeMsg(expr=x("/a/b"), subscriber_id="c2"),
            [_pub(("a", "b"), "after")],
        ]

        def step(core, item):
            if isinstance(item, list):
                return core.on_publications(
                    [dataclasses.replace(m) for m in item], "n1"
                )
            return core.on_message(dataclasses.replace(item), "c2")

        for item in steps:
            got, want = step(viewed, item), step(plain, item)
            assert all(view is None for _d, _m, view in got)
            assert canonical_effects(got) == canonical_effects(want)
        # c2 left: the last publication reached c1 alone.
        assert [destination for destination, _m, _v in got] == ["c1"]
        # Every routed publication is retained, /a/c's included.
        assert viewed.broker.views.stats()["retained"] == 7

    def test_replay_effect_carries_the_window(self):
        core = _core(_views_config())
        for i in range(3):
            core.on_message(_pub(("a", "b"), "doc%d" % i), "n1")
        core.attach_client("late")
        frames = core.on_message(
            SubscribeMsg(expr=x("/a/b"), subscriber_id="late"), "late"
        )
        replays = [frame for frame in frames if frame[2] == "replay"]
        assert len(replays) == 1
        destination, messages, _view = replays[0]
        assert destination == "late"
        assert _doc_ids(messages) == ["doc0", "doc1", "doc2"]
        # Replays target only local clients; a neighbor subscribing to
        # the same expression must not trigger one.
        core.connect("n2")
        frames = core.on_message(
            SubscribeMsg(expr=x("/a/b"), subscriber_id="s9"), "n2"
        )
        assert not [frame for frame in frames if frame[2] == "replay"]

    def test_unrelated_subscription_keeps_the_window(self):
        """A window holds the last publications its group delivered,
        whoever subscribes meanwhile: a neighbour's unrelated SUB
        between two publications must not truncate it."""
        core = _core(_views_config())
        for doc_id in ("d1", "d2"):
            core.on_message(_pub(("a", "b"), doc_id), "n1")
        core.on_message(
            SubscribeMsg(expr=x("/z/q"), subscriber_id="s9"), "n1"
        )
        core.on_message(_pub(("a", "b"), "d3"), "n1")
        core.attach_client("late")
        frames = core.on_message(
            SubscribeMsg(expr=x("/a/b"), subscriber_id="late"), "late"
        )
        assert [
            _doc_ids(messages)
            for _d, messages, view in frames
            if view == "replay"
        ] == [["d1", "d2", "d3"]]


# -- views are derived state (crash / restore semantics) -------------------


class TestCrashSemantics:
    def test_views_are_not_persisted_and_restore_fresh(self):
        broker = Broker("b1", config=_views_config())
        broker.connect("n1")
        broker.attach_client("c1")
        broker.handle(SubscribeMsg(expr=x("/a/b"), subscriber_id="c1"), "c1")
        for i in range(4):
            broker.handle(_pub(("a", "b"), "d%d" % i), "n1")
        assert broker.views.stats()["retained"] == 4
        rebuilt = restore(snapshot(broker))
        assert rebuilt.config.views
        stats = rebuilt.views.stats()
        assert stats["views"] == 0 and stats["retained"] == 0
        # The first post-crash publication routes as before and starts
        # the group's window afresh.
        out = rebuilt.handle(_pub(("a", "b"), "post0"), "n1")
        assert [d for d, _ in out] == ["c1"]
        assert rebuilt.views.stats()["retained"] == 1


# -- simulator: equivalence, replay, tracing, audit ------------------------


def _overlay(config, levels=2, universe=None):
    return Overlay.binary_tree(
        levels,
        config=config,
        latency_model=ConstantLatency(0.001),
        universe=universe,
        processing_scale=0.0,
    )


def _run_workload(config, docs=3, repeats=2):
    dtd = psd_dtd()
    universe = PathUniverse.from_dtd(dtd, max_depth=10)
    overlay = _overlay(config, universe=universe)
    oracle = overlay.attach_auditor(AuditOracle())
    publisher = overlay.attach_publisher("pub", "b1")
    if config.advertisements:
        publisher.advertise_dtd(dtd)
        overlay.run()
    for index, leaf in enumerate(overlay.leaf_brokers()):
        subscriber = overlay.attach_subscriber("sub%d" % index, leaf)
        for expr in psd_queries(6, seed=50 + index).exprs:
            subscriber.subscribe(expr)
    overlay.run()
    # Same seed each round: the rounds repeat the same publication
    # groups under fresh doc ids.
    for round_no in range(repeats):
        for document in generate_documents(
            dtd, docs, seed=9, target_bytes=600,
            doc_prefix="r%d" % round_no,
        ):
            publisher.publish_document(document)
    overlay.run()
    return overlay, oracle


class TestSimulator:
    def test_views_do_not_change_the_delivered_set(self):
        config = RoutingConfig.with_adv_with_cov()
        off, off_oracle = _run_workload(config)
        on, on_oracle = _run_workload(dataclasses.replace(config, views=True))
        assert off.delivered_map() == on.delivered_map()
        assert off.stats.network_traffic == on.stats.network_traffic
        assert off_oracle.check().ok
        report = on_oracle.check()
        assert report.ok, report.problems()
        retained = sum(
            b.views.stats()["retained"] for b in on.brokers.values()
        )
        assert retained >= 1

    def test_late_subscriber_replay_is_exactly_once(self):
        config = dataclasses.replace(
            RoutingConfig.with_adv_with_cov(), views=True
        )
        dtd = psd_dtd()
        universe = PathUniverse.from_dtd(dtd, max_depth=10)
        overlay = _overlay(config, universe=universe)
        oracle = overlay.attach_auditor(AuditOracle())
        publisher = overlay.attach_publisher("pub", "b1")
        publisher.advertise_dtd(dtd)
        overlay.run()
        leaf = overlay.leaf_brokers()[0]
        exprs = list(psd_queries(6, seed=3).exprs)
        sub0 = overlay.attach_subscriber("sub0", leaf)
        for expr in exprs:
            sub0.subscribe(expr)
        overlay.run()
        docs = generate_documents(dtd, 4, seed=1, target_bytes=600)
        for document in docs:
            publisher.publish_document(document)
        for document in docs:  # repeats: duplicates the client drops
            publisher.publish_document(document)
        overlay.run()
        got0 = {
            (m.publication.doc_id, tuple(m.publication.path))
            for m in sub0.received
        }
        late = overlay.attach_subscriber("late", leaf)
        for expr in exprs:
            late.subscribe(expr)
        overlay.run()
        got_late = {
            (m.publication.doc_id, tuple(m.publication.path))
            for m in late.received
        }
        assert got_late == got0  # full catch-up ...
        # ... exactly once: windows replayed once per matching SUB, and
        # the client dropped every repeat.
        seen = [
            (m.publication.doc_id, m.publication.path_id)
            for m in late.received
        ]
        assert len(seen) == len(set(seen))
        assert late.duplicates >= 1
        report = oracle.check()
        assert report.ok, report.problems()
        assert report.info.get("replayed", 0) >= 1

    def test_traces_stay_causally_complete_with_views(self):
        from repro.obs.tracing import verify_traces

        overlay, _, report = run_audited_workload(views=True, tracing=True)
        assert report.ok, report.problems()
        assert verify_traces(overlay) == []
        # Every routed publication went through the matching core: one
        # match span per publication hop.
        spans = overlay.tracing.spans
        hops = [
            s for s in spans
            if s.name == "hop" and s.attrs["kind"] == "PublishMsg"
        ]
        assert hops
        assert len(hops) == sum(1 for s in spans if s.name == "match")

    def test_replay_emits_its_broker_side_span(self):
        from repro.obs.tracing import verify_traces

        config = dataclasses.replace(
            RoutingConfig.with_adv_with_cov(), views=True
        )
        dtd = psd_dtd()
        universe = PathUniverse.from_dtd(dtd, max_depth=10)
        overlay = _overlay(config, universe=universe)
        overlay.enable_tracing()
        publisher = overlay.attach_publisher("pub", "b1")
        publisher.advertise_dtd(dtd)
        overlay.run()
        leaf = overlay.leaf_brokers()[0]
        sub0 = overlay.attach_subscriber("sub0", leaf)
        exprs = list(psd_queries(4, seed=3).exprs)
        for expr in exprs:
            sub0.subscribe(expr)
        overlay.run()
        for document in generate_documents(dtd, 3, seed=1, target_bytes=600):
            publisher.publish_document(document)
        overlay.run()
        late = overlay.attach_subscriber("late", leaf)
        for expr in exprs:
            late.subscribe(expr)
        overlay.run()
        assert late.received
        names = {span.name for span in overlay.tracing.spans}
        assert "view.replay" in names
        assert verify_traces(overlay) == []


# -- the chaos matrix with views on ----------------------------------------


@pytest.mark.parametrize("scenario", ["fault-free", "crash-restart"])
def test_audited_chaos_with_views(scenario):
    """The seven invariants (plus the replay judgement) hold with views
    enabled — including a broker crash that drops its windows
    mid-stream."""
    plan = audit_scenarios(0)[scenario]
    _, _, report = run_audited_workload(plan=plan, views=True, seed=5)
    assert report.ok, report.problems()


def test_audited_views_with_shared_engine():
    _, _, report = run_audited_workload(
        views=True, matching_engine="shared", seed=7,
    )
    assert report.ok, report.problems()
