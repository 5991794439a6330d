"""Observability layer: histogram math, registry behaviour, the
disabled no-op path, broker/overlay integration and the exporters."""

import json

import pytest

from repro import obs
from repro.broker.broker import Broker
from repro.broker.messages import SubscribeMsg
from repro.errors import ProtocolError, RoutingError
from repro.obs import MetricsRegistry
from repro.obs.registry import (
    GROWTH,
    MAX_BUCKETS,
    MIN_VALUE,
    Histogram,
    bucket_index,
)


@pytest.fixture(autouse=True)
def _clean_global_registry():
    """Each test starts from (and leaves behind) the library default:
    a disabled, empty global registry."""
    obs.get_registry().reset().disable()
    yield
    obs.get_registry().reset().disable()


# -- histogram quantile math ------------------------------------------------


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.quantile(0.5) is None
        assert h.mean is None

    def test_single_value_quantiles_exact(self):
        h = Histogram()
        h.record(0.25)
        for q in (0.01, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == 0.25
        assert h.mean == 0.25
        assert h.min == h.max == 0.25

    def test_known_inputs_exact_at_extremes(self):
        # Three fast observations and one slow one: the median must be
        # the fast value exactly (clamped to min), p99 the slow one
        # (clamped to max).
        h = Histogram()
        for value in (1.0, 1.0, 1.0, 100.0):
            h.record(value)
        assert h.quantile(0.50) == 1.0
        assert h.quantile(0.75) == 1.0
        assert h.quantile(0.99) == 100.0
        assert h.count == 4
        assert h.total == pytest.approx(103.0)

    def test_quantile_error_bound(self):
        h = Histogram()
        for i in range(1, 1001):
            h.record(float(i))
        # Log-bucketed bins guarantee ~GROWTH/2 relative error.
        assert h.quantile(0.5) == pytest.approx(500.0, rel=GROWTH - 1)
        assert h.quantile(0.95) == pytest.approx(950.0, rel=GROWTH - 1)
        assert h.quantile(1.0) == 1000.0

    def test_quantile_fraction_validation(self):
        h = Histogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_sub_minimum_values_collapse_to_first_bucket(self):
        h = Histogram()
        h.record(0.0)
        h.record(-3.0)
        h.record(MIN_VALUE / 10)
        assert h.count == 3
        assert h.min == -3.0
        # Quantiles stay within the observed range.
        assert -3.0 <= h.quantile(0.5) <= h.max

    def test_overflow_bucket(self):
        h = Histogram()
        huge = MIN_VALUE * GROWTH ** (MAX_BUCKETS + 5)
        h.record(1.0)
        h.record(huge)
        assert h.overflow_count == 1
        assert bucket_index(huge) == MAX_BUCKETS
        # A quantile landing in the overflow bucket reports the max.
        assert h.quantile(1.0) == huge
        assert h.quantile(0.5) == 1.0

    def test_merge(self):
        h1, h2 = Histogram(), Histogram()
        for value in (0.001, 0.002, 0.003):
            h1.record(value)
        for value in (0.1, 0.2):
            h2.record(value)
        h2.record(MIN_VALUE * GROWTH ** (MAX_BUCKETS + 1))  # overflow
        merged = h1.merge(h2)
        assert merged is h1
        assert h1.count == 6
        assert h1.min == 0.001
        assert h1.max == MIN_VALUE * GROWTH ** (MAX_BUCKETS + 1)
        assert h1.total == pytest.approx(
            0.006 + 0.3 + MIN_VALUE * GROWTH ** (MAX_BUCKETS + 1)
        )
        assert h1.overflow_count == 1

    def test_merge_equals_direct_construction(self):
        values_a = [0.01 * i for i in range(1, 40)]
        values_b = [0.5 * i for i in range(1, 25)]
        h1, h2, direct = Histogram(), Histogram(), Histogram()
        for v in values_a:
            h1.record(v)
            direct.record(v)
        for v in values_b:
            h2.record(v)
            direct.record(v)
        h1.merge(h2)
        for q in (0.25, 0.5, 0.9, 0.95, 0.99):
            assert h1.quantile(q) == direct.quantile(q)
        assert h1.snapshot() == direct.snapshot()


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.inc("c")
        registry.set_gauge("g", 7.5)
        registry.observe("h", 0.5)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 7.5
        assert snap["histograms"]["h"]["count"] == 1

    def test_timer_records(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        stats = registry.histogram("t")
        assert stats.count == 1
        assert stats.min >= 0.0

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.reset()
        assert registry.metric_names() == []

    def test_disabled_shortcuts_do_not_record(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("c")
        registry.observe("h", 1.0)
        registry.set_gauge("g", 1.0)
        assert registry.metric_names() == []

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.inc("a.b", 4)
        assert json.loads(registry.to_json())["counters"]["a.b"] == 4


# -- the disabled no-op path -------------------------------------------------


class TestDisabledNoop:
    def test_disabled_timer_is_shared_singleton(self):
        # No allocation per call: every disabled timer() is one object.
        assert obs.timer("x") is obs.timer("y")
        assert obs.timer("x") is obs.NOOP_TIMER

    def test_disabled_path_never_reads_the_clock(self, monkeypatch):
        import repro.obs.registry as registry_module

        calls = {"n": 0}
        real = registry_module.perf_counter

        def spy():
            calls["n"] += 1
            return real()

        monkeypatch.setattr(registry_module, "perf_counter", spy)
        monkeypatch.setattr(obs, "perf_counter", spy)

        @obs.timed("noop.fn")
        def fn(x):
            return x + 1

        for i in range(100):
            fn(i)
            with obs.timer("noop.block"):
                pass
        assert calls["n"] == 0
        assert obs.get_registry().metric_names() == []

        obs.enable_metrics()
        fn(1)
        assert calls["n"] == 2  # one start, one stop
        assert obs.get_registry().histogram("noop.fn").count == 1

    def test_timed_preserves_function_identity(self):
        @obs.timed("meta.fn")
        def documented(x):
            """Docs survive."""
            return x

        assert documented.__name__ == "documented"
        assert documented.__doc__ == "Docs survive."
        assert documented.__wrapped__(3) == 3


# -- broker integration ------------------------------------------------------


class _BogusMsg:
    kind = "bogus"


class TestBrokerUnknownKind:
    def test_unknown_kind_raises_protocol_error(self):
        broker = Broker("b1")
        with pytest.raises(ProtocolError):
            broker.handle(_BogusMsg(), from_hop=None)
        # ProtocolError is a RoutingError: existing callers keep working.
        with pytest.raises(RoutingError):
            broker.handle(_BogusMsg(), from_hop=None)
        assert broker.stats["unknown"] == 2

    def test_unknown_kind_is_counted_when_enabled(self):
        obs.enable_metrics(reset=True)
        broker = Broker("b1")
        with pytest.raises(ProtocolError):
            broker.handle(_BogusMsg(), from_hop=None)
        snap = obs.get_registry().snapshot()
        assert snap["counters"]["broker.unknown_kind"] == 1

    def test_known_kinds_timed_per_kind(self):
        obs.enable_metrics(reset=True)
        broker = Broker("b1")
        broker.attach_client("alice")
        from repro.xpath.parser import parse_xpath

        broker.handle(SubscribeMsg(expr=parse_xpath("/a/b")), "alice")
        snap = obs.get_registry().snapshot()
        assert snap["histograms"]["broker.handle.subscribe"]["count"] == 1


# -- overlay integration -----------------------------------------------------


class TestOverlaySnapshot:
    def _run_small_overlay(self):
        from repro.network.overlay import Overlay

        overlay = Overlay.binary_tree(2)
        subscriber = overlay.attach_subscriber("alice", "b2")
        publisher = overlay.attach_publisher("pub", "b3")
        from repro.dtd.samples import psd_dtd

        publisher.advertise_dtd(psd_dtd())
        overlay.run()
        subscriber.subscribe("/ProteinDatabase/ProteinEntry/header/uid")
        overlay.run()
        from repro.workloads.document_generator import generate_documents

        for doc in generate_documents(psd_dtd(), 2, seed=1, target_bytes=512):
            publisher.publish_document(doc)
        overlay.run()
        return overlay

    def test_unified_snapshot(self):
        obs.enable_metrics(reset=True)
        overlay = self._run_small_overlay()
        assert overlay.metrics is obs.get_registry()
        snap = overlay.metrics_snapshot()
        # Traffic, delay and timing in one document.
        assert snap["counters"]["network.messages"] > 0
        assert snap["histograms"]["network.dispatch"]["count"] > 0
        assert snap["histograms"]["broker.handle.advertise"]["count"] > 0
        assert snap["network"]["network_traffic"] == (
            overlay.stats.network_traffic
        )
        if overlay.stats.deliveries:
            delay = snap["histograms"]["network.delivery_delay"]
            assert delay["count"] == len(overlay.stats.deliveries)
            assert delay["p50"] is not None

    def test_disabled_overlay_still_counts_stats(self):
        overlay = self._run_small_overlay()
        assert overlay.stats.network_traffic > 0
        snap = overlay.metrics_snapshot()
        assert snap["network"]["network_traffic"] > 0
        assert snap["histograms"] == {}
        assert "network.messages" not in snap["counters"]


# -- exporters ---------------------------------------------------------------


class TestExport:
    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("x", 5)
        registry.observe("y", 0.25)
        path = tmp_path / "metrics.json"
        obs.write_json(registry, str(path), meta={"run": "test"})
        payload = json.loads(path.read_text())
        assert payload["meta"]["run"] == "test"
        assert payload["counters"]["x"] == 5
        assert payload["histograms"]["y"]["count"] == 1

    def test_line_protocol(self):
        registry = MetricsRegistry()
        registry.inc("msgs", 3)
        registry.set_gauge("depth", 2.5)
        registry.observe("lat", 0.5)
        lines = obs.to_line_protocol(registry).splitlines()
        assert "msgs,type=counter value=3i" in lines
        assert "depth,type=gauge value=2.5" in lines
        lat = [line for line in lines if line.startswith("lat,")]
        assert len(lat) == 1
        assert "count=1i" in lat[0]
        assert "p50=" in lat[0]

    def test_empty_histogram_line(self):
        registry = MetricsRegistry()
        registry.histogram("empty")
        lines = obs.to_line_protocol(registry)
        assert "empty,type=histogram count=0" in lines
