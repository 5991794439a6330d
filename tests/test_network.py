"""Unit tests for the simulator, latency models, stats and overlay."""

import gc

import pytest

from repro import obs
from repro.broker import PublishMsg, SubscribeMsg
from repro.errors import RoutingError, TopologyError
from repro.network import (
    ClusterLatency,
    ConstantLatency,
    FaultPlan,
    Overlay,
    PlanetLabLatency,
    Simulator,
)
from repro.network.stats import DeliveryLog, DeliveryRecord, NetworkStats
from repro.obs import MetricsRegistry
from repro.runtime.asyncio_backend import AsyncioRuntime
from repro.runtime.workload import PUBLISHER, WorkloadSpec, build_plan
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_fifo_for_equal_times(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.5]
        assert sim.now == 0.5

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_until_bound(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(3.0, lambda: seen.append(3))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.pending() == 1

    def test_max_events_bound(self):
        sim = Simulator()
        def reschedule():
            sim.schedule(1.0, reschedule)
        sim.schedule(1.0, reschedule)
        processed = sim.run(max_events=10)
        assert processed == 10

    def test_events_carry_their_arguments_in_fifo_order(self):
        """An event is ``action(*args)``; equal timestamps still run in
        scheduling order, zero-argument callables interleaved."""
        sim = Simulator()
        order = []
        for i in range(3):
            sim.schedule(1.0, order.append, i)
            sim.schedule(1.0, lambda i=i: order.append(-i))
        sim.schedule(0.5, order.extend, ("a", "b"))
        sim.schedule(1.0, divmod, 7, 2)  # a return value is ignored
        with pytest.raises(ValueError):
            sim.schedule(-1.0, order.append, "past")
        assert sim.run() == 8
        assert order == ["a", "b", 0, 0, 1, -1, 2, -2]
        assert sim.now == 1.0

    def test_until_and_max_events_bound_argument_events(self):
        sim = Simulator()
        seen = []
        for at in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(at, seen.append, at)
        assert sim.run(until=2.5) == 2
        assert sim.run(max_events=1) == 1
        assert seen == [1.0, 2.0, 3.0]
        assert (sim.pending(), sim.processed_events, sim.now) == (1, 3, 3.0)

    def test_counts_survive_a_raising_action(self):
        """The events that completed before an action raised are counted
        — ``processed_events`` and the ``network.sim.events`` counter —
        and the next run picks up after the failed event."""
        previous = obs.get_registry()
        registry = obs.set_registry(MetricsRegistry())
        try:
            sim = Simulator()
            seen = []
            sim.schedule(1.0, lambda: seen.append(1))
            sim.schedule(2.0, lambda: seen.append(2))
            sim.schedule(3.0, lambda: 1 / 0)
            sim.schedule(4.0, lambda: seen.append(4))
            with pytest.raises(ZeroDivisionError):
                sim.run()
            assert seen == [1, 2]
            assert sim.processed_events == 2
            assert registry.counter("network.sim.events").value == 2
            assert registry.gauge("network.sim.pending").value == 1
            assert sim.run() == 1
            assert sim.processed_events == 3
            assert registry.counter("network.sim.events").value == 3
        finally:
            obs.set_registry(previous)

    @pytest.mark.parametrize("faults", [None, "drop=0.1,dup=0.05,seed=3"])
    def test_no_closure_in_the_heap_while_a_document_is_in_flight(
        self, faults
    ):
        """Every event a host schedules — link and client frames, and
        with a fault plan the transport's data, ack and retransmit
        timers — is a bound method plus arguments, never a lambda."""
        spec = WorkloadSpec(
            levels=3, queries_per_leaf=3, documents=2, seed=1,
            target_bytes=2048,
        )
        plan = build_plan(spec)
        overlay = Overlay.binary_tree(
            3, config=spec.config(), latency_model=ConstantLatency(0.001),
            processing_scale=0.0,
            faults=None if faults is None else FaultPlan.from_spec(faults),
        )
        publisher = overlay.attach_publisher(PUBLISHER, "b1")
        for adv_id, advert in plan.adverts:
            publisher.advertise(advert, adv_id)
        for leaf in sorted(plan.subscriptions):
            subscriber = overlay.attach_subscriber("sub-%s" % leaf, leaf)
            for expr in plan.subscriptions[leaf]:
                subscriber.subscribe(expr)
        overlay.run()
        delivered_before = len(overlay.stats.deliveries)
        kinds = set()
        for document in plan.documents:
            publisher.publish_document(document)
        while overlay.sim.pending():
            for _time, _seq, action, args in overlay.sim._queue:
                assert action.__name__ != "<lambda>", (action, args)
                kinds.add(action.__name__)
            overlay.sim.run(max_events=1)
        assert len(overlay.stats.deliveries) > delivered_before
        expected = {"_edge_receive", "_broker_receive", "_client_receive"}
        if faults is not None:
            expected = {
                "_edge_receive", "_client_receive", "_deliver_data",
                "_deliver_ack", "_retransmit_check",
            }
        assert expected <= kinds


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.25)
        assert model.latency("a", "b", 10_000) == 0.25

    def test_cluster_scales_with_size(self):
        model = ClusterLatency(jitter_fraction=0.0)
        small = model.latency("a", "b", 64)
        large = model.latency("a", "b", 10_000_000)
        assert large > small

    def test_planetlab_link_base_is_stable(self):
        model = PlanetLabLatency(seed=1, jitter_fraction=0.0)
        assert model.link_base("x", "y") == model.link_base("x", "y")

    def test_planetlab_symmetric_links(self):
        model = PlanetLabLatency(seed=2)
        assert model.link_base("x", "y") == model.link_base("y", "x")

    def test_planetlab_wan_slower_than_cluster(self):
        wan = PlanetLabLatency(seed=3, jitter_fraction=0.0)
        lan = ClusterLatency(jitter_fraction=0.0)
        assert wan.latency("a", "b", 2048) > lan.latency("a", "b", 2048)

    def test_planetlab_bad_range_rejected(self):
        with pytest.raises(ValueError):
            PlanetLabLatency(min_base_seconds=0.2, max_base_seconds=0.1)


class TestNetworkStats:
    def test_traffic_accounting(self):
        stats = NetworkStats()
        stats.record_broker_message("b1", "PublishMsg")
        stats.record_broker_message("b2", "SubscribeMsg")
        assert stats.network_traffic == 2
        assert stats.traffic_of_kind("PublishMsg") == 1

    def test_first_delivery_wins(self):
        stats = NetworkStats()
        late = DeliveryRecord("s", "d", 1, issued_at=0.0, delivered_at=2.0, hops=3)
        early = DeliveryRecord("s", "d", 0, issued_at=0.0, delivered_at=1.0, hops=3)
        stats.record_delivery(late)
        stats.record_delivery(early)
        firsts = stats.delivered_documents()
        assert firsts[("s", "d")].delivered_at == 1.0
        assert stats.mean_notification_delay() == 1.0

    def test_delays_by_hops(self):
        stats = NetworkStats()
        stats.record_delivery(
            DeliveryRecord("s", "d1", 0, issued_at=0.0, delivered_at=1.0, hops=2)
        )
        stats.record_delivery(
            DeliveryRecord("s", "d2", 0, issued_at=0.0, delivered_at=3.0, hops=4)
        )
        grouped = stats.delays_by_hops()
        assert grouped == {2: [1.0], 4: [3.0]}

    def test_delivery_record_is_an_immutable_value(self):
        positional = DeliveryRecord("s", "d", 1, 0.5, 2.0, 3)
        keyword = DeliveryRecord(
            subscriber_id="s", doc_id="d", path_id=1,
            issued_at=0.5, delivered_at=2.0, hops=3,
        )
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert len({positional, keyword}) == 1
        assert positional != DeliveryRecord("s", "d", 1, 0.5, 2.0, 4)
        assert positional.delay == 1.5
        assert repr(positional) == (
            "DeliveryRecord(subscriber_id='s', doc_id='d', path_id=1, "
            "issued_at=0.5, delivered_at=2.0, hops=3)"
        )
        with pytest.raises(AttributeError):
            positional.hops = 4
        with pytest.raises(AttributeError):
            positional.note = "late"
        assert positional.hops == 3

    def test_empty_stats(self):
        stats = NetworkStats()
        assert stats.mean_notification_delay() is None
        assert stats.summary()["network_traffic"] == 0


class TestDeliveryLog:
    """The collector contract: what a delivery leaves behind is an exact
    tuple of atomic values, which CPython stops tracking, and it still
    reads as :class:`DeliveryRecord` values."""

    FIELDS = ("s", "d", 1, 0.5, 2.0, 3)

    def test_reads_as_delivery_records(self):
        stats = NetworkStats()
        stats.record_delivery(self.FIELDS)
        stats.record_delivery(DeliveryRecord("s", "d", 2, 0.5, 3.0, 4))
        log = stats.deliveries
        assert isinstance(log, DeliveryLog)
        assert len(log) == 2 and log
        first = log[0]
        assert type(first) is DeliveryRecord
        assert first == DeliveryRecord(*self.FIELDS) == self.FIELDS
        assert first.delay == 1.5
        assert log[-1].path_id == 2
        assert log[:1] == [first]
        assert [r.delivered_at for r in log] == [2.0, 3.0]
        assert DeliveryRecord(*self.FIELDS) in log
        del log[:]
        assert len(log) == 0 and not log
        assert list(log) == []

    def test_a_record_passed_in_is_stored_untracked(self):
        stats = NetworkStats()
        stats.record_delivery(DeliveryRecord(*self.FIELDS))
        gc.collect()
        (row,) = stats.deliveries._rows
        assert type(row) is tuple
        assert not gc.is_tracked(row)
        assert stats.deliveries[0] == DeliveryRecord(*self.FIELDS)

    def test_delivering_leaves_nothing_for_the_collector(self):
        """N publications through a one-broker overlay: every stored
        delivery is untracked after a collection, and the collector's
        object count grows by far less than N."""
        overlay = Overlay.binary_tree(1, latency_model=ConstantLatency(0.001))
        publisher = overlay.attach_publisher("p", "b1")
        subscriber = overlay.attach_subscriber("s", "b1")
        subscriber.subscribe("/a")
        overlay.run()

        def deliver(first, count):
            for i in range(first, first + count):
                publisher.publish_paths([("a", "b")], doc_id="d%d" % i)
                overlay.run()
            del subscriber.received[:]
            gc.collect()

        deliver(0, 50)  # warm every cache on the path
        before = len(gc.get_objects())
        count = 2000
        deliver(50, count)
        grown = len(gc.get_objects()) - before
        assert len(overlay.stats.deliveries) == 50 + count
        assert grown < count // 20, grown
        rows = overlay.stats.deliveries._rows
        assert not any(gc.is_tracked(row) for row in rows)


class TestOverlayTopology:
    def test_binary_tree_shape(self):
        overlay = Overlay.binary_tree(3)
        assert len(overlay.brokers) == 7
        assert len(overlay.links) == 6
        assert overlay.leaf_brokers() == ["b4", "b5", "b6", "b7"]

    def test_duplicate_broker_rejected(self):
        overlay = Overlay()
        overlay.add_broker("b1")
        with pytest.raises(TopologyError):
            overlay.add_broker("b1")

    def test_duplicate_link_rejected(self):
        overlay = Overlay()
        overlay.add_broker("a")
        overlay.add_broker("b")
        overlay.connect("a", "b")
        with pytest.raises(TopologyError):
            overlay.connect("b", "a")

    def test_unknown_broker_link_rejected(self):
        overlay = Overlay()
        overlay.add_broker("a")
        with pytest.raises(TopologyError):
            overlay.connect("a", "zzz")

    def test_duplicate_client_rejected(self):
        overlay = Overlay.binary_tree(2)
        overlay.attach_subscriber("c", "b1")
        with pytest.raises(TopologyError):
            overlay.attach_publisher("c", "b2")

    def test_unknown_client_submission(self):
        overlay = Overlay.binary_tree(2)
        from repro.broker.messages import SubscribeMsg
        from repro.xpath import parse_xpath

        with pytest.raises(RoutingError):
            overlay.submit("ghost", SubscribeMsg(expr=parse_xpath("/a")))

    def test_tree_needs_a_level(self):
        with pytest.raises(TopologyError):
            Overlay.binary_tree(0)


class TestAcyclicity:
    def test_cycle_creating_link_rejected(self):
        overlay = Overlay()
        for name in ("a", "b", "c"):
            overlay.add_broker(name)
        overlay.connect("a", "b")
        overlay.connect("b", "c")
        with pytest.raises(TopologyError):
            overlay.connect("c", "a")

    def test_disconnected_components_may_join(self):
        overlay = Overlay()
        for name in ("a", "b", "c", "d"):
            overlay.add_broker(name)
        overlay.connect("a", "b")
        overlay.connect("c", "d")
        overlay.connect("b", "c")  # joins the components: fine
        assert len(overlay.links) == 3


class JoinRuleCases:
    """The kernel's join rule (``HostKernel.join``) on whichever host
    the subclass's ``one_broker`` fixture builds: one broker ``b1``
    with one client ``c``.  The rule is one piece of code; only how
    long a group stays open is the backend's."""

    @staticmethod
    def publication(path_id, doc_id="d1", size=512):
        return PublishMsg(
            publication=Publication(
                doc_id=doc_id, path_id=path_id, path=("a", "b")
            ),
            publisher_id="c",
            doc_size_bytes=size,
        )

    def test_link_stays_fifo_across_a_closed_group(self, one_broker):
        """PUB, SUB, PUB back to back: the SUB closes the group, so
        the three reach the edge broker in submission order."""
        host = one_broker()
        recorder = host.enable_tracing()
        host.submit("c", self.publication(0))
        host.submit(
            "c", SubscribeMsg(expr=parse_xpath("/a/b"), subscriber_id="c")
        )
        host.submit("c", self.publication(1))
        host.run()
        hops = [span for span in recorder.spans if span.name == "hop"]
        assert [span.attrs["kind"] for span in hops] == [
            "PublishMsg", "SubscribeMsg", "PublishMsg",
        ]
        assert not any("group" in span.attrs for span in hops)
        assert host.stats.frames == 3

    def test_a_forced_merge_sweep_closes_the_group(self, one_broker):
        host = one_broker()
        host.submit("c", self.publication(0))
        host.trigger_merge_sweep("b1")
        host.submit("c", self.publication(1))
        assert host.stats.frames == 2
        host.run()
        assert host.stats.network_traffic == 2

    def test_a_group_is_one_document_at_one_instant(self, one_broker):
        host = one_broker()
        for path_id in range(3):
            host.submit("c", self.publication(path_id))
        assert host.stats.frames == 1
        host.submit("c", self.publication(0, doc_id="d2"))  # other document
        host.submit("c", self.publication(1, doc_id="d2", size=9))  # other size
        assert host.stats.frames == 3
        host.run()
        host.submit("c", self.publication(2, doc_id="d2", size=9))  # later
        assert host.stats.frames == 4
        host.run()
        assert host.stats.network_traffic == 6
        if isinstance(host, Overlay):
            assert host.sim.processed_events == 4

    def test_a_group_joined_after_it_arrived_is_not_lost(self, one_broker):
        """Zero link latency: the simulator's clock does not move while
        the first frame is delivered, yet a later path must open a new
        one (on asyncio: the actor has dequeued the first)."""
        host = one_broker(latency=0.0)
        host.submit("c", self.publication(0))
        host.run()
        host.submit("c", self.publication(1))
        host.run()
        assert host.stats.frames == 2
        assert host.stats.network_traffic == 2


class TestDispatchUnitOnAsyncio(JoinRuleCases):
    @pytest.fixture
    def one_broker(self):
        runtimes = []

        def build(latency=None):  # the client-edge link is a queue put
            runtime = AsyncioRuntime()
            runtimes.append(runtime)
            runtime.add_broker("b1")
            runtime.start()
            runtime.attach_subscriber("c", "b1")
            return runtime

        yield build
        for runtime in runtimes:
            runtime.close(drain=False)


class TestDispatchUnit(JoinRuleCases):
    """Consecutive publications of one document cross a link as one
    frame (a group); everything else stays per message."""

    @pytest.fixture
    def one_broker(self):
        def build(latency=0.001):
            overlay = Overlay.binary_tree(
                1, latency_model=ConstantLatency(latency)
            )
            overlay.attach_subscriber("c", "b1")
            return overlay

        return build

    @pytest.mark.parametrize(
        "queries_per_leaf, seed, traffic, client_messages",
        # (traffic, client messages): what one event per message cost
        # at the commit before groups — logical counts, pinned.
        [(1, 2, 36, 13), (3, 1, 42, 21), (8, 7, 63, 36)],
    )
    def test_one_document_costs_one_event_per_broker_and_subscriber(
        self, queries_per_leaf, seed, traffic, client_messages
    ):
        spec = WorkloadSpec(
            levels=3, queries_per_leaf=queries_per_leaf, documents=1,
            seed=seed, target_bytes=2048,
        )
        plan = build_plan(spec)
        overlay = Overlay.binary_tree(
            3, config=spec.config(), latency_model=ConstantLatency(0.001),
            processing_scale=0.0,
        )
        publisher = overlay.attach_publisher(PUBLISHER, "b1")
        for adv_id, advert in plan.adverts:
            publisher.advertise(advert, adv_id)
        overlay.run()
        for leaf in sorted(plan.subscriptions):
            subscriber = overlay.attach_subscriber("sub-%s" % leaf, leaf)
            for expr in plan.subscriptions[leaf]:
                subscriber.subscribe(expr)
            overlay.run()
        stats = overlay.stats
        traffic_before = stats.network_traffic
        at_brokers = dict(stats.broker_messages)
        events_before = overlay.sim.processed_events
        publisher.publish_document(plan.documents[0])
        overlay.run()
        assert stats.network_traffic - traffic_before == traffic
        assert stats.client_messages == client_messages
        brokers_reached = sum(
            1 for broker_id, count in stats.broker_messages.items()
            if count > at_brokers.get(broker_id, 0)
        )
        subscribers_reached = sum(
            1 for client in overlay.subscribers.values() if client.received
        )
        assert (
            overlay.sim.processed_events - events_before
            <= brokers_reached + subscribers_reached
        )
