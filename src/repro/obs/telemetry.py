"""Live telemetry plane: periodic per-broker sampling, SLO health
monitoring and the operational views built on top (see
docs/telemetry.md).

The observability stack before this module was post-mortem: one
aggregate :class:`~repro.obs.registry.MetricsRegistry` snapshot at
quiescence, a flight dump only on crash.  The paper's evaluation (§4)
reasons about broker load, routing-table size and notification delay
over *time*, so the backends now drive a shared sampling pipeline:

* the simulator schedules a recurring sampling event per broker and
  samples on virtual time,
* :class:`~repro.runtime.asyncio_backend.AsyncioRuntime` runs a
  wall-clock sampler task alongside the actors while it is drained,
* :class:`~repro.runtime.multiprocess.MultiprocessDeployment`
  piggybacks sampling frames on the control channel it already polls.

All three feed a :class:`TelemetryPlane`: per-broker bounded
time-series rings (progressive downsampling on overflow — the ring
always spans the whole run at degrading resolution), counter *deltas*
per interval (the plane differentiates the cumulative registry
counters), and a :class:`HealthMonitor` that evaluates declarative
:class:`SLORule` thresholds into a per-broker health state machine::

    healthy -> degraded -> overloaded

States advance at most one level per sample (so an overload always
passes through ``degraded``) and recover one level after
``clear_after`` consecutive healthy samples.  Every breach increments
a ``telemetry.alert.<rule>`` counter; every transition is recorded and
published to hooks — the backends dump the flight recorder there.

The plane is exposed three ways: ``repro top`` (live table),
:class:`PrometheusEndpoint` (opt-in HTTP or textfile exposition using
:func:`repro.obs.export.to_prometheus`), and a
``telemetry-timeline.json`` artifact consumed by ``repro timeline``.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.obs.export import to_prometheus
from repro.obs.registry import MetricsRegistry

#: Default sampling interval (virtual seconds in the simulator, wall
#: seconds on the long-running backends).
DEFAULT_INTERVAL = 0.05

#: Ring identifier for cluster-wide registry-counter deltas.
CLUSTER = "_cluster"

HEALTHY = "healthy"
DEGRADED = "degraded"
OVERLOADED = "overloaded"

#: Severity order of the health states.
LEVELS: Dict[str, int] = {HEALTHY: 0, DEGRADED: 1, OVERLOADED: 2}
_BY_LEVEL = {level: state for state, level in LEVELS.items()}

#: Registry-counter prefixes the plane differentiates into the cluster
#: ring by default — the hot families, not the whole namespace.
DEFAULT_COUNTER_PREFIXES: Tuple[str, ...] = (
    "broker.",
    "network.",
    "runtime.",
    "matching.",
    "views.",
    "telemetry.",
)


class TelemetrySample:
    """One timestamped bundle of metric values for one broker."""

    __slots__ = ("time", "values")

    def __init__(self, time: float, values: Dict[str, float]):
        self.time = time
        self.values = values

    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {"time": self.time}
        document.update(self.values)
        return document

    def __repr__(self):
        return "TelemetrySample(t=%.3f, %d values)" % (
            self.time,
            len(self.values),
        )


class TelemetryRing:
    """Fixed-capacity time series with progressive downsampling.

    When the ring fills, every other retained sample is dropped and the
    acceptance stride doubles: a run of any length fits in ``capacity``
    samples whose spacing degrades geometrically but whose span always
    covers the whole run.  ``dropped`` counts stride-skipped arrivals.
    """

    __slots__ = ("capacity", "samples", "stride", "dropped", "_arrivals")

    def __init__(self, capacity: int = 256):
        self.capacity = max(4, int(capacity))
        self.samples: List[TelemetrySample] = []
        self.stride = 1
        self.dropped = 0
        self._arrivals = 0

    def append(self, sample: TelemetrySample) -> bool:
        """Offer *sample*; returns True if retained."""
        arrival = self._arrivals
        self._arrivals += 1
        if arrival % self.stride:
            self.dropped += 1
            return False
        if len(self.samples) >= self.capacity:
            # Keep every other sample; arrivals already kept are the
            # multiples of the old stride, so samples[::2] is exactly
            # the multiples of the doubled stride — past and future
            # acceptance stay aligned.
            self.samples = self.samples[::2]
            self.stride *= 2
            if arrival % self.stride:
                self.dropped += 1
                return False
        self.samples.append(sample)
        return True

    def last(self) -> Optional[TelemetrySample]:
        return self.samples[-1] if self.samples else None

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[TelemetrySample]:
        return iter(self.samples)

    def to_dict(self) -> Dict[str, object]:
        return {
            "stride": self.stride,
            "dropped": self.dropped,
            "samples": [sample.to_dict() for sample in self.samples],
        }


@dataclass(frozen=True)
class SLORule:
    """One declarative service-level objective.

    ``metric`` is looked up in each sample's values; absent metrics are
    skipped (a broker without views never breaches the view-hit-ratio
    floor).  ``op`` is ``">"`` for ceilings and ``"<"`` for floors.
    Crossing ``degraded`` marks the sample degraded; crossing
    ``overloaded`` (when set) marks it overloaded.
    """

    name: str
    metric: str
    op: str = ">"
    degraded: float = 0.0
    overloaded: Optional[float] = None

    def _breaches(self, value: float, threshold: float) -> bool:
        if self.op == ">":
            return value > threshold
        if self.op == "<":
            return value < threshold
        raise ValueError("SLORule op must be '>' or '<', got %r" % self.op)

    def evaluate(self, values: Dict[str, float]) -> Optional[str]:
        """The state this sample supports, or None if the metric is
        absent."""
        value = values.get(self.metric)
        if value is None:
            return None
        if self.overloaded is not None and self._breaches(
            value, self.overloaded
        ):
            return OVERLOADED
        if self._breaches(value, self.degraded):
            return DEGRADED
        return HEALTHY


def default_slo_rules(
    queue_depth: Tuple[float, float] = (64.0, 256.0),
    retransmit_rate: Tuple[float, float] = (20.0, 100.0),
    view_hit_ratio: float = 0.05,
    delivery_p99: Tuple[float, float] = (0.5, 2.0),
) -> List[SLORule]:
    """The stock rule set (see docs/telemetry.md for the rationale
    behind each threshold)."""
    return [
        SLORule("queue-depth", "queue_depth", ">", *queue_depth),
        SLORule("retransmit-rate", "retransmits", ">", *retransmit_rate),
        SLORule("view-hit-ratio", "view_hit_ratio", "<", view_hit_ratio),
        SLORule("delivery-p99", "delivery_p99", ">", *delivery_p99),
        # The audit oracle's stateless-recovery fallback means delivered
        # sets are no longer being checked exactly; surface that as a
        # degraded broker so alerts stay consistent with audit mode.
        SLORule("audit-degraded", "audit_degraded", ">", 0.5),
    ]


class HealthTransition:
    """One recorded state change."""

    __slots__ = ("broker_id", "time", "previous", "state", "rule")

    def __init__(self, broker_id, time, previous, state, rule):
        self.broker_id = broker_id
        self.time = time
        self.previous = previous
        self.state = state
        self.rule = rule

    def to_dict(self) -> Dict[str, object]:
        return {
            "broker": self.broker_id,
            "time": self.time,
            "from": self.previous,
            "to": self.state,
            "rule": self.rule,
        }

    def __repr__(self):
        return "HealthTransition(%s %s->%s at %.3f via %s)" % (
            self.broker_id,
            self.previous,
            self.state,
            self.time,
            self.rule,
        )


class HealthMonitor:
    """Per-broker health state machine over :class:`SLORule` verdicts.

    Escalation moves one level per sample toward the worst breached
    rule; recovery requires ``clear_after`` consecutive fully-healthy
    samples and also steps one level at a time.  Breaches increment
    ``telemetry.alert.<rule>`` counters in the registry; transitions
    are kept and fanned out to ``on_transition`` callbacks.
    """

    def __init__(
        self,
        rules: Optional[Iterable[SLORule]] = None,
        registry: Optional[MetricsRegistry] = None,
        clear_after: int = 3,
        on_transition: Optional[Callable] = None,
    ):
        self.rules = (
            list(rules) if rules is not None else default_slo_rules()
        )
        self.registry = registry
        self.clear_after = max(1, int(clear_after))
        self.states: Dict[object, str] = {}
        self.transitions: List[HealthTransition] = []
        self.alerts: Dict[str, int] = {}
        self._healthy_streak: Dict[object, int] = {}
        self._hooks: List[Callable] = []
        if on_transition is not None:
            self._hooks.append(on_transition)

    def add_hook(self, hook: Callable):
        """Register ``hook(broker_id, previous, state, rule, sample)``
        to run on every transition."""
        self._hooks.append(hook)

    def state(self, broker_id) -> str:
        return self.states.get(broker_id, HEALTHY)

    def observe(self, broker_id, sample: TelemetrySample) -> str:
        """Fold one sample into *broker_id*'s state; returns the new
        state."""
        worst = HEALTHY
        worst_rule: Optional[str] = None
        for rule in self.rules:
            verdict = rule.evaluate(sample.values)
            if verdict is None or verdict == HEALTHY:
                continue
            self.alerts[rule.name] = self.alerts.get(rule.name, 0) + 1
            if self.registry is not None:
                self.registry.inc("telemetry.alert." + rule.name)
            if LEVELS[verdict] > LEVELS[worst]:
                worst = verdict
                worst_rule = rule.name
        current = self.state(broker_id)
        target = current
        if LEVELS[worst] > LEVELS[current]:
            # Escalate one level at a time so every overload narrates
            # the full healthy -> degraded -> overloaded sequence.
            target = _BY_LEVEL[LEVELS[current] + 1]
            self._healthy_streak[broker_id] = 0
        elif worst == HEALTHY and current != HEALTHY:
            streak = self._healthy_streak.get(broker_id, 0) + 1
            self._healthy_streak[broker_id] = streak
            if streak >= self.clear_after:
                target = _BY_LEVEL[LEVELS[current] - 1]
                self._healthy_streak[broker_id] = 0
        else:
            self._healthy_streak[broker_id] = 0
        if target != current:
            self.states[broker_id] = target
            transition = HealthTransition(
                broker_id, sample.time, current, target, worst_rule
            )
            self.transitions.append(transition)
            if self.registry is not None:
                self.registry.inc("telemetry.transitions")
            for hook in list(self._hooks):
                hook(broker_id, current, target, worst_rule, sample)
        else:
            self.states.setdefault(broker_id, current)
        return self.state(broker_id)

    def to_dict(self) -> Dict[str, object]:
        return {
            "states": {
                str(broker): state
                for broker, state in sorted(
                    self.states.items(), key=lambda kv: str(kv[0])
                )
            },
            "transitions": [t.to_dict() for t in self.transitions],
            "alerts": dict(sorted(self.alerts.items())),
        }


def _p99(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, math.ceil(0.99 * len(ordered)) - 1)
    return ordered[rank]


class TelemetryPlane:
    """The shared sampling pipeline all three backends feed.

    ``record(broker_id, now, gauges=..., counters=...)`` stores one
    sample: gauges verbatim, counters as deltas against the previous
    cumulative value for that broker (the plane remembers the last
    reading, so backends hand over raw monotonic totals).  Delivery
    latencies noted via :meth:`note_delivery` surface as a rolling
    ``delivery_p99`` gauge.  Each sample immediately runs through the
    :class:`HealthMonitor`.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        interval: float = DEFAULT_INTERVAL,
        ring_capacity: int = 256,
        rules: Optional[Iterable[SLORule]] = None,
        clear_after: int = 3,
        counter_prefixes: Tuple[str, ...] = DEFAULT_COUNTER_PREFIXES,
        delay_window: int = 256,
    ):
        self.registry = registry
        self.interval = float(interval)
        self.ring_capacity = int(ring_capacity)
        self.counter_prefixes = tuple(counter_prefixes)
        self.monitor = HealthMonitor(
            rules=rules, registry=registry, clear_after=clear_after
        )
        self.rings: Dict[object, TelemetryRing] = {}
        self.samples_taken = 0
        self.delay_window = int(delay_window)
        self._last_counters: Dict[object, Dict[str, float]] = {}
        self._last_registry: Dict[str, int] = {}
        self._last_cluster_time: Optional[float] = None
        self._delays: Dict[object, Deque[float]] = {}
        self._lock = threading.Lock()

    # -- wiring ------------------------------------------------------------

    def add_transition_hook(self, hook: Callable):
        """``hook(broker_id, previous, state, rule, sample)`` fires on
        every health transition (backends dump the flight recorder
        here)."""
        self.monitor.add_hook(hook)

    def ring(self, broker_id) -> TelemetryRing:
        ring = self.rings.get(broker_id)
        if ring is None:
            ring = self.rings[broker_id] = TelemetryRing(self.ring_capacity)
        return ring

    # -- recording ---------------------------------------------------------

    def note_delivery(self, broker_id, delay: float):
        """Feed one end-to-end notification delay observed at
        *broker_id* (its rolling p99 becomes the ``delivery_p99``
        gauge)."""
        if broker_id is None:
            return
        with self._lock:
            window = self._delays.get(broker_id)
            if window is None:
                window = self._delays[broker_id] = deque(
                    maxlen=self.delay_window
                )
            window.append(delay)

    def record(
        self,
        broker_id,
        now: float,
        gauges: Optional[Dict[str, float]] = None,
        counters: Optional[Dict[str, float]] = None,
    ) -> str:
        """Store one sample for *broker_id* at time *now*; returns the
        broker's (possibly updated) health state."""
        with self._lock:
            values: Dict[str, float] = dict(gauges or {})
            if counters:
                last = self._last_counters.setdefault(broker_id, {})
                for name, raw in counters.items():
                    values[name] = max(0.0, raw - last.get(name, 0.0))
                    last[name] = raw
            window = self._delays.get(broker_id)
            if window:
                values.setdefault("delivery_p99", _p99(window))
            sample = TelemetrySample(now, values)
            self.ring(broker_id).append(sample)
            self.samples_taken += 1
            if self.registry is not None:
                self.registry.inc("telemetry.samples")
        return self.monitor.observe(broker_id, sample)

    def record_cluster(self, now: float):
        """Differentiate the registry's counters (filtered by
        ``counter_prefixes``) into the cluster-wide ring."""
        if self.registry is None:
            return
        current = self.registry.counter_values(self.counter_prefixes)
        with self._lock:
            values = {
                name: raw - self._last_registry.get(name, 0)
                for name, raw in current.items()
            }
            self._last_registry = current
            self._last_cluster_time = now
            self.ring(CLUSTER).append(TelemetrySample(now, values))

    def maybe_record_cluster(self, now: float):
        """Rate-limited :meth:`record_cluster` — backends call this
        once per broker sweep and the plane keeps one cluster sample
        per interval."""
        last = self._last_cluster_time
        if last is None or now - last >= self.interval * 0.99:
            self.record_cluster(now)

    # -- reading -----------------------------------------------------------

    def health(self) -> Dict[object, str]:
        """Current state of every broker that has ever been sampled."""
        return {
            broker: self.monitor.state(broker)
            for broker in self.rings
            if broker != CLUSTER
        }

    def broker_ids(self) -> List[object]:
        return sorted(
            (broker for broker in self.rings if broker != CLUSTER),
            key=str,
        )

    def publish_health_gauges(
        self, registry: Optional[MetricsRegistry] = None
    ):
        """Set ``telemetry.health.<broker>`` gauges (0 healthy,
        1 degraded, 2 overloaded) so the Prometheus endpoint exposes
        live states."""
        target = registry or self.registry
        if target is None:
            return
        for broker, state in self.health().items():
            target.set_gauge("telemetry.health.%s" % broker, LEVELS[state])

    def timeline_document(
        self, meta: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """The ``telemetry-timeline.json`` artifact."""
        document: Dict[str, object] = {
            "version": 1,
            "interval": self.interval,
            "samples_taken": self.samples_taken,
        }
        if meta:
            document["meta"] = dict(meta)
        document["brokers"] = {
            str(broker): self.rings[broker].to_dict()
            for broker in sorted(self.rings, key=str)
        }
        document["health"] = self.monitor.to_dict()
        return document

    def write_timeline(
        self, path: str, meta: Optional[Dict[str, object]] = None
    ) -> str:
        with open(path, "w") as handle:
            json.dump(
                self.timeline_document(meta=meta),
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        return path


# -- per-broker gauge extraction -------------------------------------------

def broker_gauges(broker, min_view_probes: int = 8) -> Dict[str, float]:
    """Duck-typed gauge bundle from a :class:`~repro.broker.Broker`.

    Works on any backend's broker object: routing-table size, match
    cache hit ratio, DFA size (shared engine) and view hit ratio /
    retention (when views are enabled).  The view hit ratio is withheld
    until ``min_view_probes`` lookups so cold caches don't trip the
    floor rule."""
    gauges: Dict[str, float] = {}
    size = getattr(broker, "routing_table_size", None)
    if callable(size):
        gauges["routing_table"] = float(size())
    engine = getattr(broker, "shared", None)
    stats = engine.stats() if engine is not None else {}
    if "dfa_states" in stats:
        gauges["dfa_states"] = float(stats["dfa_states"])
    views = getattr(broker, "views", None)
    if views is not None:
        serves = getattr(views, "serves", 0)
        misses = getattr(views, "misses", 0)
        probes = serves + misses
        if probes >= min_view_probes:
            gauges["view_hit_ratio"] = serves / probes
        live = getattr(views, "views", None)
        if live is not None:
            gauges["views_live"] = float(len(live))
    return gauges


# -- timeline artifact consumers -------------------------------------------

def load_timeline(path: str) -> Dict[str, object]:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("version") != 1:
        raise ValueError(
            "unsupported telemetry timeline version %r in %s"
            % (document.get("version"), path)
        )
    return document


_SPARK = " .:-=+*#%@"


def _sparkline(values: List[float], width: int) -> str:
    if not values:
        return ""
    if len(values) > width:
        # Downsample by max within equal slices (peaks matter).
        step = len(values) / width
        values = [
            max(values[int(i * step):max(int(i * step) + 1, int((i + 1) * step))])
            for i in range(width)
        ]
    top = max(values)
    if top <= 0:
        return "." * len(values)
    scale = len(_SPARK) - 1
    return "".join(
        _SPARK[min(scale, int(round(value / top * scale)))]
        for value in values
    )


def render_timeline(
    document: Dict[str, object],
    metric: Optional[str] = None,
    broker: Optional[str] = None,
    width: int = 60,
) -> str:
    """An ASCII table+sparkline view of a timeline document (the
    ``repro timeline`` output)."""
    brokers = document.get("brokers", {})
    selected = {
        name: data
        for name, data in sorted(brokers.items())
        if (broker is None or name == broker) and name != CLUSTER
    }
    if metric is None:
        candidates: List[str] = []
        for data in selected.values():
            for sample in data.get("samples", ()):
                candidates.extend(k for k in sample if k != "time")
        for preferred in ("queue_depth", "handled", "routing_table"):
            if preferred in candidates:
                metric = preferred
                break
        else:
            metric = candidates[0] if candidates else "queue_depth"
    health = document.get("health", {})
    states = health.get("states", {})
    lines = [
        "telemetry timeline — metric %r, interval %ss, %d sample(s)"
        % (metric, document.get("interval"), document.get("samples_taken", 0)),
        "",
        "%-12s %-10s %8s %8s  %s" % ("broker", "health", "last", "peak", "trend"),
    ]
    for name, data in selected.items():
        series = [
            float(sample.get(metric, 0.0) or 0.0)
            for sample in data.get("samples", ())
        ]
        last = series[-1] if series else 0.0
        peak = max(series) if series else 0.0
        lines.append(
            "%-12s %-10s %8.6g %8.6g  %s"
            % (
                name,
                states.get(name, HEALTHY),
                last,
                peak,
                _sparkline(series, width),
            )
        )
    transitions = health.get("transitions", ())
    if transitions:
        lines.append("")
        lines.append("health transitions:")
        for entry in transitions:
            lines.append(
                "  t=%-10.4g %-12s %s -> %s (%s)"
                % (
                    entry.get("time", 0.0),
                    entry.get("broker"),
                    entry.get("from"),
                    entry.get("to"),
                    entry.get("rule"),
                )
            )
    alerts = health.get("alerts", {})
    if alerts:
        lines.append("")
        lines.append(
            "alerts: "
            + ", ".join(
                "%s=%d" % (rule, count)
                for rule, count in sorted(alerts.items())
            )
        )
    return "\n".join(lines)


def render_top(plane: TelemetryPlane, now: Optional[float] = None) -> str:
    """One refresh frame of the ``repro top`` table."""
    lines = [
        "%-12s %-10s %10s %10s %10s %10s"
        % ("broker", "health", "queue", "handled/s", "retrans", "p99 ms"),
    ]
    for broker in plane.broker_ids():
        ring = plane.rings[broker]
        sample = ring.last()
        values = sample.values if sample else {}
        interval = plane.interval or 1.0
        rate = values.get("handled", 0.0) / interval
        p99 = values.get("delivery_p99")
        lines.append(
            "%-12s %-10s %10.6g %10.6g %10.6g %10s"
            % (
                broker,
                plane.monitor.state(broker),
                values.get("queue_depth", 0.0),
                rate,
                values.get("retransmits", 0.0),
                "-" if p99 is None else "%.2f" % (p99 * 1e3),
            )
        )
    transitions = plane.monitor.transitions
    if transitions:
        latest = transitions[-1]
        lines.append(
            "last transition: %s %s -> %s (%s)"
            % (latest.broker_id, latest.previous, latest.state, latest.rule)
        )
    if now is not None:
        lines.append("t=%.3f  samples=%d" % (now, plane.samples_taken))
    return "\n".join(lines)


# -- Prometheus endpoint ---------------------------------------------------

class PrometheusEndpoint:
    """Opt-in exposition of a registry (+ health gauges) for the
    long-running backends.

    Two modes, combinable: :meth:`start` serves ``GET /metrics`` from a
    daemon-threaded stdlib HTTP server on ``127.0.0.1`` (``port=0``
    picks an ephemeral port, then ``.port``/``.url`` report it), and
    ``textfile=...`` makes :meth:`write` atomically rewrite a
    node-exporter-style textfile on demand."""

    def __init__(
        self,
        registry: MetricsRegistry,
        plane: Optional[TelemetryPlane] = None,
        port: int = 0,
        textfile: Optional[str] = None,
    ):
        self.registry = registry
        self.plane = plane
        self.port = port
        self.textfile = textfile
        self._server = None
        self._thread = None

    def render(self) -> str:
        if self.plane is not None:
            self.plane.publish_health_gauges(self.registry)
        return to_prometheus(self.registry)

    def write(self) -> Optional[str]:
        """Atomic textfile rewrite (write-then-rename)."""
        if not self.textfile:
            return None
        tmp = self.textfile + ".tmp"
        with open(tmp, "w") as handle:
            handle.write(self.render())
        os.replace(tmp, self.textfile)
        return self.textfile

    def start(self) -> "PrometheusEndpoint":
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        endpoint = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                body = endpoint.render().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence request logging
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", self.port), _Handler)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="prometheus-endpoint",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        return "http://127.0.0.1:%d/metrics" % self.port

    def close(self):
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
