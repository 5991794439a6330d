"""Live telemetry plane: rings, SLO health machine, per-backend
sampling, flight dumps on health transitions and crashes, and the
Prometheus endpoint (see docs/telemetry.md).

The three backend scenario tests share one shape: a seeded overload
pinned to a single broker must walk exactly that broker through the
full healthy -> degraded -> overloaded sequence (one level per sample,
never a skip), while the fault-free twin of the same workload reports
every broker healthy with zero alerts.
"""

import json
import os
import threading
import urllib.request

import pytest

from repro import obs
from repro.broker.messages import PublishMsg, SubscribeMsg
from repro.broker.strategies import RoutingConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import (
    DEGRADED,
    HEALTHY,
    OVERLOADED,
    HealthMonitor,
    PrometheusEndpoint,
    SLORule,
    TelemetryPlane,
    TelemetryRing,
    TelemetrySample,
    default_slo_rules,
    load_timeline,
    render_timeline,
    render_top,
)
from repro.runtime.base import scaled
from repro.xmldoc import Publication
from repro.xpath import parse_xpath

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.fixture(autouse=True)
def _clean_global_registry():
    obs.get_registry().reset().disable()
    yield
    obs.get_registry().reset().disable()


def _publication(
    i, path=("claims", "claim", "amount"), round_no=0, path_id=0
):
    return PublishMsg(
        publication=Publication(
            doc_id="doc-%d-%d" % (round_no, i), path_id=path_id,
            path=tuple(path),
        ),
        publisher_id="pub",
    )


def _overload_rules(queue_depth=(3.0, 8.0)):
    """Rules where only the queue-depth ceiling can fire — the
    scenario tests pin the escalation to one cause on one broker."""
    return default_slo_rules(
        queue_depth=queue_depth,
        retransmit_rate=(1e9, 2e9),
        delivery_p99=(1e9, 2e9),
    )


def _assert_full_walk(plane, target, others):
    """Exactly *target* walked healthy -> degraded -> overloaded."""
    health = plane.health()
    assert health[target] == OVERLOADED
    for broker in others:
        assert health.get(broker, HEALTHY) == HEALTHY, health
    walked = [
        (t.previous, t.state)
        for t in plane.monitor.transitions
        if t.broker_id == target
    ]
    assert walked == [(HEALTHY, DEGRADED), (DEGRADED, OVERLOADED)]
    assert all(
        t.broker_id == target for t in plane.monitor.transitions
    ), plane.monitor.transitions
    assert plane.monitor.alerts.get("queue-depth", 0) >= 2
    assert set(plane.monitor.alerts) == {"queue-depth"}


# -- the ring ---------------------------------------------------------------


class TestTelemetryRing:
    def test_accepts_until_capacity(self):
        ring = TelemetryRing(capacity=8)
        for i in range(8):
            assert ring.append(TelemetrySample(float(i), {"v": i}))
        assert len(ring) == 8
        assert ring.stride == 1
        assert ring.dropped == 0

    def test_overflow_halves_and_doubles_stride(self):
        ring = TelemetryRing(capacity=8)
        for i in range(9):
            ring.append(TelemetrySample(float(i), {"v": i}))
        assert ring.stride == 2
        # the survivors are the even arrivals plus the new one
        assert [s.time for s in ring] == [0.0, 2.0, 4.0, 6.0, 8.0]

    def test_long_run_stays_bounded_and_aligned(self):
        ring = TelemetryRing(capacity=16)
        total = 1000
        for i in range(total):
            ring.append(TelemetrySample(float(i), {"v": i}))
        assert len(ring) <= 16
        assert ring.stride & (ring.stride - 1) == 0  # power of two
        # every retained sample sits on the final stride grid
        assert all(int(s.time) % ring.stride == 0 for s in ring)
        times = [s.time for s in ring]
        assert times == sorted(times)
        assert times[0] == 0.0  # the run's start is never lost
        assert ring.dropped + len(ring) <= total

    def test_to_dict_shape(self):
        ring = TelemetryRing(capacity=4)
        ring.append(TelemetrySample(0.5, {"queue_depth": 2.0}))
        doc = ring.to_dict()
        assert doc["stride"] == 1
        assert doc["samples"][0]["time"] == 0.5
        assert doc["samples"][0]["queue_depth"] == 2.0


# -- SLO rules and the health state machine ---------------------------------


class TestSLORules:
    def test_ceiling_and_floor(self):
        ceiling = SLORule("q", "queue_depth", ">", 10.0, 20.0)
        assert ceiling.evaluate({"queue_depth": 5.0}) == HEALTHY
        assert ceiling.evaluate({"queue_depth": 15.0}) == DEGRADED
        assert ceiling.evaluate({"queue_depth": 25.0}) == OVERLOADED
        floor = SLORule("floor", "ratio", "<", 0.05)
        assert floor.evaluate({"ratio": 0.5}) == HEALTHY
        assert floor.evaluate({"ratio": 0.01}) == DEGRADED

    def test_absent_metric_is_skipped(self):
        rule = SLORule("q", "queue_depth", ">", 10.0)
        assert rule.evaluate({}) is None

    def test_bad_op_raises(self):
        with pytest.raises(ValueError):
            SLORule("q", "queue_depth", "=", 1.0).evaluate(
                {"queue_depth": 2.0}
            )


class TestHealthMonitor:
    def _sample(self, t, depth):
        return TelemetrySample(t, {"queue_depth": float(depth)})

    def test_escalates_one_level_per_sample(self):
        monitor = HealthMonitor(
            rules=[SLORule("q", "queue_depth", ">", 3.0, 8.0)]
        )
        # a sample already past the overloaded ceiling still only steps
        # to degraded first — the full sequence is always narrated
        assert monitor.observe("b1", self._sample(0.0, 100)) == DEGRADED
        assert monitor.observe("b1", self._sample(1.0, 100)) == OVERLOADED
        assert [
            (t.previous, t.state) for t in monitor.transitions
        ] == [(HEALTHY, DEGRADED), (DEGRADED, OVERLOADED)]

    def test_recovery_needs_consecutive_clean_samples(self):
        monitor = HealthMonitor(
            rules=[SLORule("q", "queue_depth", ">", 3.0)], clear_after=2
        )
        monitor.observe("b1", self._sample(0.0, 10))
        assert monitor.state("b1") == DEGRADED
        monitor.observe("b1", self._sample(1.0, 0))
        assert monitor.state("b1") == DEGRADED  # streak of 1 < clear_after
        monitor.observe("b1", self._sample(2.0, 10))  # breach resets streak
        monitor.observe("b1", self._sample(3.0, 0))
        assert monitor.state("b1") == DEGRADED
        monitor.observe("b1", self._sample(4.0, 0))
        assert monitor.state("b1") == HEALTHY

    def test_alert_counters_and_registry(self):
        registry = MetricsRegistry(enabled=True)
        monitor = HealthMonitor(
            rules=[SLORule("q", "queue_depth", ">", 3.0)],
            registry=registry,
        )
        monitor.observe("b1", self._sample(0.0, 10))
        monitor.observe("b1", self._sample(1.0, 10))
        assert monitor.alerts == {"q": 2}
        assert registry.counter("telemetry.alert.q").value == 2
        assert registry.counter("telemetry.transitions").value == 1

    def test_hooks_fire_on_transition(self):
        seen = []
        monitor = HealthMonitor(
            rules=[SLORule("q", "queue_depth", ">", 3.0)]
        )
        monitor.add_hook(
            lambda broker, prev, state, rule, sample: seen.append(
                (broker, prev, state, rule)
            )
        )
        monitor.observe("b1", self._sample(0.0, 10))
        assert seen == [("b1", HEALTHY, DEGRADED, "q")]


class TestTelemetryPlane:
    def test_counters_become_deltas(self):
        plane = TelemetryPlane(
            registry=MetricsRegistry(enabled=True), interval=1.0
        )
        plane.record("b1", 1.0, gauges={}, counters={"handled": 10.0})
        plane.record("b1", 2.0, gauges={}, counters={"handled": 25.0})
        samples = list(plane.ring("b1"))
        assert samples[0].values["handled"] == 10.0
        assert samples[1].values["handled"] == 15.0

    def test_delivery_window_surfaces_p99(self):
        plane = TelemetryPlane(
            registry=MetricsRegistry(enabled=True), interval=1.0
        )
        for delay in (0.01, 0.02, 0.9):
            plane.note_delivery("b1", delay)
        plane.record("b1", 1.0, gauges={}, counters={})
        assert plane.ring("b1").last().values["delivery_p99"] == 0.9

    def test_timeline_roundtrip_and_render(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        plane = TelemetryPlane(registry=registry, interval=0.5)
        for t in range(6):
            plane.record(
                "b1",
                float(t),
                gauges={"queue_depth": float(t * 2)},
                counters={"handled": float(t * 10)},
            )
        path = str(tmp_path / "timeline.json")
        plane.write_timeline(path, meta={"scenario": "unit"})
        document = load_timeline(path)
        assert document["version"] == 1
        assert document["meta"]["scenario"] == "unit"
        assert "b1" in document["brokers"]
        rendered = render_timeline(document, metric="queue_depth")
        assert "b1" in rendered and "queue_depth" in rendered
        top = render_top(plane, now=6.0)
        assert "b1" in top and "health" in top

    def test_load_rejects_unknown_version(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"version": 99}, handle)
        with pytest.raises(ValueError):
            load_timeline(path)


# -- registry thread safety -------------------------------------------------


class TestRegistryConcurrency:
    def test_increments_and_snapshots_race_free(self):
        registry = MetricsRegistry(enabled=True)
        threads, per_thread = 8, 2000
        errors = []

        def work(seed):
            try:
                for i in range(per_thread):
                    registry.inc("stress.count")
                    registry.histogram("stress.seconds").record(
                        1e-4 * ((seed + i) % 7 + 1)
                    )
                    registry.set_gauge("stress.gauge", float(i))
                    if i % 128 == 0:
                        # concurrent readers must never crash or tear
                        registry.snapshot()
                        registry.counter_values(("stress.",))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        workers = [
            threading.Thread(target=work, args=(t,)) for t in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        total = threads * per_thread
        assert registry.counter("stress.count").value == total
        histogram = registry.histogram("stress.seconds")
        assert histogram.count == total
        assert sum(n for _, n in histogram.bucket_counts()) == total


# -- Prometheus exposition --------------------------------------------------


class TestPrometheusExposition:
    def _registry(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("broker.publishes").inc(5)
        registry.set_gauge("telemetry.health.b1", 2.0)
        histogram = registry.histogram("matching.match.seconds")
        for value in (0.0005, 0.004, 0.004, 0.25):
            histogram.record(value)
        return registry

    def test_matches_golden_exposition(self):
        # Registered collectors fold process-global cache/compile stats
        # into every snapshot; those vary with test order, so the golden
        # comparison pins exactly the families this test created.
        ours = (
            "repro_broker_",
            "repro_telemetry_",
            "repro_matching_match_seconds",
        )
        text = "\n".join(
            line
            for line in obs.to_prometheus(self._registry()).splitlines()
            if any(marker in line for marker in ours)
        ) + "\n"
        golden = os.path.join(GOLDEN, "telemetry_exposition.prom")
        with open(golden) as handle:
            assert text == handle.read()

    def test_histogram_buckets_are_cumulative_and_consistent(self):
        text = obs.to_prometheus(self._registry())
        buckets = []
        for line in text.splitlines():
            if line.startswith("repro_matching_match_seconds_bucket"):
                buckets.append(float(line.rsplit(" ", 1)[1]))
            if line.startswith("repro_matching_match_seconds_count"):
                count = float(line.rsplit(" ", 1)[1])
            if line.startswith("repro_matching_match_seconds_sum"):
                total = float(line.rsplit(" ", 1)[1])
        assert buckets == sorted(buckets)  # cumulative, monotone
        assert buckets[-1] == count == 4.0  # +Inf bucket equals _count
        assert total == pytest.approx(0.2585)
        assert 'le="+Inf"' in text

    def test_help_and_type_lines(self):
        text = obs.to_prometheus(self._registry())
        assert "# HELP repro_broker_publishes_total" in text
        assert "# TYPE repro_broker_publishes_total counter" in text
        assert "# TYPE repro_telemetry_health_b1 gauge" in text
        assert "# TYPE repro_matching_match_seconds histogram" in text

    def test_name_sanitisation(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("weird-name/with.chars").inc()
        text = obs.to_prometheus(registry)
        assert "repro_weird_name_with_chars_total 1" in text


class TestPrometheusEndpoint:
    def test_http_and_textfile(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.counter("broker.publishes").inc(3)
        plane = TelemetryPlane(registry=registry, interval=1.0)
        plane.record(
            "b1", 1.0, gauges={"queue_depth": 1.0}, counters={}
        )
        textfile = str(tmp_path / "repro.prom")
        endpoint = PrometheusEndpoint(
            registry, plane, port=0, textfile=textfile
        )
        endpoint.start()
        try:
            body = urllib.request.urlopen(endpoint.url, timeout=10).read()
            text = body.decode("utf-8")
            assert "repro_broker_publishes_total 3" in text
            # the plane's health gauges ride along
            assert "repro_telemetry_health_b1 0" in text
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    endpoint.url.replace("/metrics", "/nope"), timeout=10
                )
            assert endpoint.write() == textfile
            with open(textfile) as handle:
                assert "repro_broker_publishes_total 3" in handle.read()
        finally:
            endpoint.close()


# -- backend scenarios ------------------------------------------------------


def _simulator_overlay(registry, queueing=True):
    from repro.network.latency import ConstantLatency
    from repro.network.overlay import Overlay

    return Overlay.binary_tree(
        2,
        config=RoutingConfig.no_adv_no_cov(),
        latency_model=ConstantLatency(0.001),
        processing_scale=0.0,
        queueing=queueing,
        metrics=registry,
    )


class TestSimulatorTelemetry:
    def test_overload_walks_one_broker_through_the_sequence(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        overlay = _simulator_overlay(registry)
        overlay.enable_tracing(flight_dir=str(tmp_path))
        plane = overlay.enable_telemetry(
            interval=0.002, rules=_overload_rules(), clear_after=1000
        )
        overlay.processing_delay["b2"] = 0.005
        publisher = overlay.attach_publisher("pub", "b1")
        subscriber = overlay.attach_subscriber("sub", "b2")
        subscriber.subscribe(parse_xpath("/claims//amount"))
        overlay.run()
        for i in range(40):
            overlay.submit("pub", _publication(i))
        overlay.run()
        assert len(subscriber.received) == 40  # overload loses nothing
        _assert_full_walk(plane, "b2", ("b1", "b3"))
        assert registry.counter("telemetry.alert.queue-depth").value >= 2
        assert registry.counter("telemetry.transitions").value == 2
        dumps = sorted(os.listdir(str(tmp_path)))
        assert any("health-b2-degraded" in name for name in dumps)
        assert any("health-b2-overloaded" in name for name in dumps)

    def test_fault_free_twin_stays_healthy(self):
        registry = MetricsRegistry(enabled=True)
        overlay = _simulator_overlay(registry)
        plane = overlay.enable_telemetry(
            interval=0.002, rules=_overload_rules(), clear_after=1000
        )
        overlay.attach_publisher("pub", "b1")
        subscriber = overlay.attach_subscriber("sub", "b2")
        subscriber.subscribe(parse_xpath("/claims//amount"))
        overlay.run()
        for i in range(40):
            overlay.submit("pub", _publication(i))
        overlay.run()
        assert plane.samples_taken > 0
        assert set(plane.health().values()) == {HEALTHY}
        assert plane.monitor.alerts == {}
        assert plane.monitor.transitions == []

    def test_sampling_timers_never_block_quiescence(self):
        registry = MetricsRegistry(enabled=True)
        overlay = _simulator_overlay(registry, queueing=False)
        overlay.enable_telemetry(interval=0.002)
        overlay.attach_publisher("pub", "b1")
        subscriber = overlay.attach_subscriber("sub", "b3")
        subscriber.subscribe(parse_xpath("/claims//amount"))
        overlay.run()
        # repeated runs: the parked timers must re-arm on new work and
        # park again at quiescence, never spinning the simulator
        for round_no in range(3):
            for i in range(5):
                overlay.submit("pub", _publication(i, round_no=round_no))
            overlay.run()
            assert overlay.sim.pending() == 0
        assert len(subscriber.received) == 15

    def test_restart_scenario_keeps_sampling(self):
        """A crashed-and-recovered broker resumes telemetry (the
        rebuilt core is re-armed) and the audit-degraded gauge follows
        the oracle's stateless-recovery fallback."""
        from repro.audit.oracle import AuditOracle
        from repro.network.faults import FaultPlan

        registry = MetricsRegistry(enabled=True)
        overlay = _simulator_overlay(registry)
        overlay.install_faults(FaultPlan(seed=3))
        oracle = overlay.attach_auditor(AuditOracle())
        plane = overlay.enable_telemetry(interval=0.002)
        overlay.attach_publisher("pub", "b1")
        subscriber = overlay.attach_subscriber("sub", "b2")
        subscriber.subscribe(parse_xpath("/claims//amount"))
        overlay.run()
        overlay.crash_broker("b2", with_state=False)
        overlay.recover_broker("b2")
        before = len(plane.ring("b2"))
        for i in range(20):
            overlay.submit("pub", _publication(i))
        overlay.run()
        assert len(plane.ring("b2")) > before
        assert oracle.stateless_recoveries  # the fallback engaged
        assert plane.ring("b2").last().values["audit_degraded"] == 1.0


class TestAsyncioTelemetry:
    def _runtime(self, registry):
        from repro.runtime.asyncio_backend import AsyncioRuntime

        runtime = AsyncioRuntime(
            config=RoutingConfig.no_adv_no_cov(),
            link_capacity=4,
            client_capacity=4,
            metrics=registry,
        )
        for broker_id in ("b1", "b2", "b3"):
            runtime.add_broker(broker_id)
        runtime.connect("b1", "b2")
        runtime.connect("b2", "b3")
        return runtime

    def test_overload_walks_one_broker_through_the_sequence(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        runtime = self._runtime(registry)
        runtime.enable_tracing(flight_dir=str(tmp_path))
        plane = runtime.enable_telemetry(
            interval=0.01, rules=_overload_rules(), clear_after=100000
        )
        runtime.start()
        try:
            runtime.attach_publisher("pub", "b1")
            subscriber = runtime.attach_subscriber("sub", "b3")
            runtime.submit(
                "sub",
                SubscribeMsg(
                    expr=parse_xpath("/claims//amount"), subscriber_id="sub"
                ),
            )
            runtime.drain()
            runtime.client_delay["sub"] = 0.01  # slow consumer backs b3 up
            for i in range(80):
                runtime.submit("pub", _publication(i))
            runtime.drain(timeout=60.0)
            assert len(subscriber.received) == 80
            _assert_full_walk(plane, "b3", ("b1", "b2"))
            dumps = sorted(os.listdir(str(tmp_path)))
            assert any("health-b3-degraded" in name for name in dumps)
            assert any("health-b3-overloaded" in name for name in dumps)
        finally:
            runtime.close()

    def test_overload_is_measured_in_messages_held_frames_included(self):
        """The multi-path twin: three documents of twelve paths are
        three frames.  Counted in frames b3's backlog never exceeds 3;
        counting only queued messages it never exceeds 24 (the consumer
        holds one frame through its per-message delay).  Only the
        message count with the held frame included — 36 — crosses both
        ceilings."""
        documents, paths = 3, 12
        registry = MetricsRegistry(enabled=True)
        runtime = self._runtime(registry)
        plane = runtime.enable_telemetry(
            interval=0.01,
            rules=_overload_rules(queue_depth=(4.0, 30.0)),
            clear_after=100000,
        )
        runtime.start()
        try:
            runtime.attach_publisher("pub", "b1")
            subscriber = runtime.attach_subscriber("sub", "b3")
            runtime.submit(
                "sub",
                SubscribeMsg(
                    expr=parse_xpath("/claims//amount"), subscriber_id="sub"
                ),
            )
            runtime.drain()
            runtime.client_delay["sub"] = 0.01
            for i in range(documents):
                for path_id in range(paths):
                    runtime.submit("pub", _publication(i, path_id=path_id))
            runtime.drain(timeout=60.0)
            assert len(subscriber.received) == documents * paths
            assert max(runtime.max_queue_depth.values()) <= documents
            _assert_full_walk(plane, "b3", ("b1", "b2"))
        finally:
            runtime.close()

    def test_fault_free_twin_stays_healthy(self):
        registry = MetricsRegistry(enabled=True)
        runtime = self._runtime(registry)
        plane = runtime.enable_telemetry(
            interval=0.01, rules=_overload_rules(), clear_after=100000
        )
        runtime.start()
        try:
            runtime.attach_publisher("pub", "b1")
            subscriber = runtime.attach_subscriber("sub", "b3")
            runtime.submit(
                "sub",
                SubscribeMsg(
                    expr=parse_xpath("/claims//amount"), subscriber_id="sub"
                ),
            )
            runtime.drain()
            for i in range(40):
                runtime.submit("pub", _publication(i))
            runtime.drain(timeout=60.0)
            runtime.sample_telemetry()  # at least one sample, even if fast
            assert len(subscriber.received) == 40
            assert set(plane.health().values()) == {HEALTHY}
            assert plane.monitor.alerts == {}
        finally:
            runtime.close()


class TestMultiprocessTelemetry:
    def _deployment(self, tmp_path=None, service_delay=None):
        from repro.runtime.multiprocess import MultiprocessDeployment

        deployment = MultiprocessDeployment(
            config=RoutingConfig.no_adv_no_cov(),
            flight_dir=None if tmp_path is None else str(tmp_path),
            service_delay=service_delay,
        )
        for broker_id in ("b1", "b2", "b3"):
            deployment.add_broker(broker_id)
        deployment.link("b1", "b2")
        deployment.link("b2", "b3")
        deployment.start()
        return deployment

    def test_overload_walks_one_broker_through_the_sequence(self, tmp_path):
        obs.enable_metrics(reset=True)
        deployment = self._deployment(
            tmp_path, service_delay={"b2": 0.01}
        )
        try:
            plane = deployment.enable_telemetry(
                interval=0.05, rules=_overload_rules(), clear_after=100000
            )
            deployment.attach_publisher("pub", "b1")
            subscriber = deployment.attach_subscriber("sub", "b3")
            deployment.submit(
                "sub",
                SubscribeMsg(
                    expr=parse_xpath("/claims//amount"), subscriber_id="sub"
                ),
            )
            assert deployment.settle(timeout=scaled(30.0))
            for i in range(60):
                deployment.submit("pub", _publication(i))
            assert deployment.settle(timeout=scaled(60.0))
            deployment.drain_deliveries()
            assert len(subscriber.received) == 60  # overload loses nothing
            _assert_full_walk(plane, "b2", ("b1", "b3"))
            dumps = sorted(os.listdir(str(tmp_path)))
            assert any("health-b2-degraded" in name for name in dumps)
            assert any("health-b2-overloaded" in name for name in dumps)
            assert not any(deployment.broker_errors().values())
        finally:
            deployment.stop()

    def test_fault_free_twin_stays_healthy(self):
        obs.enable_metrics(reset=True)
        deployment = self._deployment()
        try:
            plane = deployment.enable_telemetry(
                interval=0.05, rules=_overload_rules(), clear_after=100000
            )
            deployment.attach_publisher("pub", "b1")
            subscriber = deployment.attach_subscriber("sub", "b3")
            deployment.submit(
                "sub",
                SubscribeMsg(
                    expr=parse_xpath("/claims//amount"), subscriber_id="sub"
                ),
            )
            assert deployment.settle(timeout=scaled(30.0))
            for i in range(20):
                deployment.submit("pub", _publication(i))
            assert deployment.settle(timeout=scaled(60.0))
            deployment.sample_telemetry()
            assert set(plane.health().values()) == {HEALTHY}
            assert plane.monitor.alerts == {}
            assert not any(deployment.broker_errors().values())
        finally:
            deployment.stop()

    def test_crash_dumps_pre_crash_flight_spans(self, tmp_path):
        obs.enable_metrics(reset=True)
        deployment = self._deployment(tmp_path)
        try:
            deployment.attach_publisher("pub", "b1")
            deployment.attach_subscriber("sub", "b3")
            deployment.submit(
                "sub",
                SubscribeMsg(
                    expr=parse_xpath("/claims//amount"), subscriber_id="sub"
                ),
            )
            assert deployment.settle(timeout=scaled(30.0))
            for i in range(20):
                deployment.submit("pub", _publication(i))
            assert deployment.settle(timeout=scaled(60.0))
            deployment.crash_broker("b2")
            assert "b2" not in deployment._live_ids()
            crash_dumps = [
                name
                for name in os.listdir(str(tmp_path))
                if "crash-b2" in name
            ]
            assert len(crash_dumps) == 1
            with open(os.path.join(str(tmp_path), crash_dumps[0])) as handle:
                document = json.load(handle)
            assert document["reason"] == "crash-b2"
            spans = [
                span
                for spans in document["brokers"].values()
                for span in spans
            ]
            # the black box holds the hops b2 dispatched before dying
            assert spans
            assert all(span["broker"] == "b2" for span in spans)
            assert any(span["name"] == "hop" for span in spans)
        finally:
            deployment.stop()
