"""Edge materialized views (repro.views): unit contract, byte-identity
with the core route, window replay for late subscribers, crash
semantics, audit classification and backend equivalence.

The load-bearing guarantees (docs/views.md):

* a view-served delivery is byte-identical to the core-routed one —
  pinned through ``canonical_effects``, which renders ``ViewServe`` as
  a plain delivery;
* replays are exactly-once per ``(doc_id, path_id)`` at the client;
* views are derived state — never persisted, dropped on crash/restore,
  lazily rewarmed — so correctness never depends on a view existing;
* the audit oracle classifies ``view_served``/``replayed`` deliveries
  and fails the run when either leaves the expected set.
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
from repro.broker.core import (
    BrokerCore,
    Deliver,
    Replay,
    ViewServe,
    canonical_effects,
)
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


def _views_config(**overrides):
    base = dict(views=True, view_hot_threshold=2)
    base.update(overrides)
    return dataclasses.replace(RoutingConfig.no_adv_with_cov(), **base)


# -- ViewManager unit contract ---------------------------------------------


class TestViewManager:
    GROUP = (("a", "b"), None)

    def _warm(self, views, stamp=(0, 0), count=None):
        keys, wanting = frozenset({"c1"}), frozenset({"c1"})
        for _ in range(count if count is not None else views.hot_threshold):
            views.observe(*self.GROUP, keys, wanting, stamp)
        return keys, wanting

    def test_materializes_only_at_hot_threshold(self):
        views = ViewManager(hot_threshold=3)
        self._warm(views, count=2)
        assert views.serve(*self.GROUP, (0, 0)) is None
        self._warm(views, count=1)
        assert views.serve(*self.GROUP, (0, 0)) == (
            frozenset({"c1"}), frozenset({"c1"})
        )

    def test_stale_stamp_drops_the_view_but_heat_survives(self):
        views = ViewManager(hot_threshold=2)
        self._warm(views)
        assert views.serve(*self.GROUP, (0, 0)) is not None
        # Routing state moved: the memo (and its window) is poison.
        assert views.serve(*self.GROUP, (1, 0)) is None
        assert views.dropped_stale == 1
        assert not views.views
        # The group is still known-hot: one fresh observe rewarms it.
        views.observe(*self.GROUP, frozenset({"c2"}), frozenset({"c2"}),
                      (1, 0))
        assert views.serve(*self.GROUP, (1, 0)) == (
            frozenset({"c2"}), frozenset({"c2"})
        )

    def test_client_epoch_is_part_of_the_stamp(self):
        views = ViewManager(hot_threshold=2)
        self._warm(views, stamp=(0, views.client_epoch))
        views.client_epoch += 1  # a local client joined or left
        assert views.serve(*self.GROUP, (0, views.client_epoch)) is None

    def test_window_capacity_evicts_oldest(self):
        views = ViewManager(window=2, hot_threshold=1)
        self._warm(views, count=1)
        for i in range(4):
            views.capture(*self.GROUP, _pub(("a", "b"), "d%d" % i))
        view = views.views[self.GROUP]
        assert [m.publication.doc_id for m in view.replay_messages()] == [
            "d2", "d3"
        ]

    def test_max_views_lru_eviction(self):
        views = ViewManager(hot_threshold=1, max_views=2)
        for root in ("a", "b", "c"):
            views.observe((root, "x"), None, frozenset(), frozenset(), (0, 0))
        assert len(views.views) == 2
        assert (("a", "x"), None) not in views.views

    def test_replay_queueing_matches_the_subscription(self):
        views = ViewManager(hot_threshold=1)
        self._warm(views, count=1)
        views.capture(*self.GROUP, _pub(("a", "b"), "d1"))
        views.capture(*self.GROUP, _pub(("a", "b"), "d2"))
        assert views.queue_replays_for("late", x("/a/b")) == 2
        assert views.queue_replays_for("late", x("/z/q")) == 0
        pending = views.take_pending_replays()
        assert len(pending) == 1
        client_id, messages, group = pending[0]
        assert client_id == "late" and group == ("a", "b")
        assert [m.publication.doc_id for m in messages] == ["d1", "d2"]
        assert not views.take_pending_replays()

    def test_stats_shape_and_hit_ratio(self):
        views = ViewManager(hot_threshold=1)
        self._warm(views, count=1)
        views.serve(*self.GROUP, (0, 0))
        views.serve(*self.GROUP, (9, 9))  # stale -> miss
        stats = views.stats()
        assert stats["serves"] == 1 and stats["misses"] == 1
        assert stats["hit_ratio"] == 0.5
        assert {"views", "hot_groups", "materialized", "dropped_stale",
                "replays_queued", "window_capacity", "retained"} <= set(stats)


# -- byte-identity with the core route -------------------------------------


def _core(config):
    core = BrokerCore("b1", config=config)
    core.connect("n1")
    core.attach_client("c1")
    core.on_message(SubscribeMsg(expr=x("/a/b"), subscriber_id="c1"), "c1")
    return core


class TestByteIdentity:
    def test_view_served_effects_equal_core_routed_effects(self):
        viewed = _core(_views_config(view_hot_threshold=1))
        plain = _core(dataclasses.replace(_views_config(), views=False))
        saw_serve = False
        for i in range(6):
            message = _pub(("a", "b"), "doc%d" % i)
            got = viewed.on_message(message, "n1")
            want = plain.on_message(
                dataclasses.replace(message), "n1"
            )
            assert canonical_effects(got) == canonical_effects(want), i
            saw_serve = saw_serve or any(
                isinstance(e, ViewServe) for e in got
            )
        assert saw_serve  # the fast path actually engaged
        assert viewed.broker.views.serves >= 1

    def test_a_group_splits_into_served_and_routed_runs(self):
        """One client's share of a group may mix view-served and
        core-routed members: one effect per run, arrival order kept,
        and flattened it is what the plain core delivers."""
        viewed = _core(_views_config(view_hot_threshold=1))
        plain = _core(dataclasses.replace(_views_config(), views=False))
        for core in (viewed, plain):
            core.on_message(
                SubscribeMsg(expr=x("/a/c"), subscriber_id="c1"), "c1"
            )
            core.on_message(_pub(("a", "b"), "warm"), "n1")  # /a/b is hot
        paths = [("a", "b"), ("a", "c"), ("a", "c"), ("a", "b")]
        group = [_pub(path, "doc", i) for i, path in enumerate(paths)]
        got = viewed.on_publications(group, "n1")
        assert [(type(e), len(e.messages)) for e in got] == [
            (ViewServe, 1), (Deliver, 1), (ViewServe, 2),
        ]
        want = plain.on_publications(
            [dataclasses.replace(m) for m in group], "n1"
        )
        assert [(type(e), len(e.messages)) for e in want] == [(Deliver, 4)]
        assert canonical_effects(got) == canonical_effects(want)

    def test_replay_effect_carries_the_window(self):
        core = _core(_views_config(view_hot_threshold=1))
        for i in range(3):
            core.on_message(_pub(("a", "b"), "doc%d" % i), "n1")
        core.attach_client("late")
        effects = core.on_message(
            SubscribeMsg(expr=x("/a/b"), subscriber_id="late"), "late"
        )
        replays = [e for e in effects if isinstance(e, Replay)]
        assert len(replays) == 1
        assert replays[0].client_id == "late"
        assert [m.publication.doc_id for m in replays[0].messages] == [
            "doc1", "doc2"
        ] or len(replays[0].messages) >= 1
        # Replays target only local clients; a neighbor subscribing to
        # the same expression must not trigger one.
        core.connect("n2")
        effects = core.on_message(
            SubscribeMsg(expr=x("/a/b"), subscriber_id="s9"), "n2"
        )
        assert not [e for e in effects if isinstance(e, Replay)]

    def test_unsubscribe_invalidates_the_serve_memo(self):
        core = _core(_views_config(view_hot_threshold=1))
        core.attach_client("c2")
        core.on_message(
            SubscribeMsg(expr=x("/a/b"), subscriber_id="c2"), "c2"
        )
        for i in range(2):
            core.on_message(_pub(("a", "b"), "w%d" % i), "n1")
        # c2 leaves: the wanting set cached by the view is now wrong,
        # and the client-epoch stamp must force a core re-route.
        from repro.broker.messages import UnsubscribeMsg

        core.on_message(
            UnsubscribeMsg(expr=x("/a/b"), subscriber_id="c2"), "c2"
        )
        effects = core.on_message(_pub(("a", "b"), "after"), "n1")
        delivered = {
            e.client_id for e in effects if isinstance(e, Deliver)
        }
        assert delivered == {"c1"}


# -- views are derived state (crash / restore semantics) -------------------


class TestCrashSemantics:
    def test_views_are_not_persisted_and_restore_fresh(self):
        broker = Broker("b1", config=_views_config(view_hot_threshold=1))
        broker.connect("n1")
        broker.attach_client("c1")
        broker.handle(SubscribeMsg(expr=x("/a/b"), subscriber_id="c1"), "c1")
        for i in range(4):
            broker.handle(_pub(("a", "b"), "d%d" % i), "n1")
        assert broker.views.stats()["views"] >= 1
        rebuilt = restore(snapshot(broker))
        assert rebuilt.config.views
        stats = rebuilt.views.stats()
        assert stats["views"] == 0 and stats["serves"] == 0
        # First post-crash publication converges through the core ...
        out = rebuilt.handle(_pub(("a", "b"), "post0"), "n1")
        assert [d for d, _ in out] == ["c1"]
        # ... and the view lazily rewarms afterwards.
        rebuilt.handle(_pub(("a", "b"), "post1"), "n1")
        assert rebuilt.views.stats()["views"] >= 1


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
    # groups (hot!) under fresh doc ids — the view-serve sweet spot.
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
        on, on_oracle = _run_workload(
            dataclasses.replace(config, views=True, view_hot_threshold=1)
        )
        assert off.delivered_map() == on.delivered_map()
        assert off_oracle.check().ok
        report = on_oracle.check()
        assert report.ok, report.problems()
        assert report.info.get("view_served", 0) >= 1
        served = sum(
            b.views.stats()["serves"] for b in on.brokers.values()
            if b.views is not None
        )
        assert served >= 1

    def test_late_subscriber_replay_is_exactly_once(self):
        config = dataclasses.replace(
            RoutingConfig.with_adv_with_cov(), views=True,
            view_hot_threshold=1,
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
        for document in docs:  # repeats fill the windows
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
        # ... exactly once despite duplicated window entries.
        seen = [
            (m.publication.doc_id, m.publication.path_id)
            for m in late.received
        ]
        assert len(seen) == len(set(seen))
        report = oracle.check()
        assert report.ok, report.problems()
        assert report.info.get("replayed", 0) >= 1

    def test_traces_stay_causally_complete_with_views(self):
        from repro.obs.tracing import verify_traces

        overlay, _, report = run_audited_workload(
            views=True, view_hot_threshold=1, tracing=True
        )
        assert report.ok, report.problems()
        assert verify_traces(overlay) == []
        names = {span.name for span in overlay.tracing.spans}
        assert "view.serve" in names

    def test_replay_emits_its_broker_side_span(self):
        from repro.obs.tracing import verify_traces

        config = dataclasses.replace(
            RoutingConfig.with_adv_with_cov(), views=True,
            view_hot_threshold=1,
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
        if any(m for m in late.received):
            names = {span.name for span in overlay.tracing.spans}
            assert "view.replay" in names
        assert verify_traces(overlay) == []


# -- the chaos matrix with views on ----------------------------------------


@pytest.mark.parametrize("scenario", ["fault-free", "crash-restart"])
def test_audited_chaos_with_views(scenario):
    """The seven invariants (plus the view classifications) hold with
    views enabled — including a broker crash that drops its views
    mid-stream, after which deliveries converge via the core."""
    plan = audit_scenarios(0)[scenario]
    _, _, report = run_audited_workload(
        plan=plan, views=True, view_hot_threshold=1, seed=5
    )
    assert report.ok, report.problems()


def test_audited_views_with_shared_engine():
    _, _, report = run_audited_workload(
        views=True, view_hot_threshold=1, matching_engine="shared", seed=7,
    )
    assert report.ok, report.problems()
