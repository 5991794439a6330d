"""Metric primitives and the registry (see docs/observability.md).

Three instrument types, all dependency-free and cheap enough for the
router's hot paths:

* :class:`Counter` — a monotonically increasing integer (messages
  handled, covering checks performed, subtrees pruned).
* :class:`Gauge` — a last-value-wins number (routing-table size,
  simulator queue depth).
* :class:`Histogram` — a streaming log-bucketed distribution with
  p50/p95/p99 quantiles; timers record wall seconds into one.

The bucket layout is geometric: bucket ``i`` spans
``[MIN_VALUE * GROWTH**i, MIN_VALUE * GROWTH**(i+1))`` with
``GROWTH = 2 ** 0.125`` (~9% per bucket), so a quantile read off a
bucket's geometric midpoint carries a bounded ~4.5% relative error.
Results are additionally clamped to the observed ``[min, max]``, which
makes degenerate inputs (all-equal values, extreme quantiles) exact.
Values beyond the last bucket land in a single overflow bucket and
report as the observed maximum.

A disabled :class:`MetricsRegistry` costs one attribute check per
instrumentation site: ``timer()`` returns a shared no-op context
manager (no allocation, no clock read) and ``inc``/``observe`` return
immediately.

Instruments are safe under concurrent access: the socket backend's
reader threads record into one registry, and the telemetry sampler and
the Prometheus endpoint take snapshots/deltas while recording
continues.  Counters and histograms serialise mutation and
snapshotting behind a per-instrument lock (gauge writes are a single
atomic assignment and stay lock-free); the registry serialises
instrument creation so two threads asking for the same name get the
same object.
"""

from __future__ import annotations

import json
import math
import threading
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Lower edge of bucket 0: 1 nanosecond (timers record seconds).
MIN_VALUE = 1e-9
#: Geometric bucket growth factor; 8 buckets per power of two.
GROWTH = 2.0 ** 0.125
_LOG_GROWTH = math.log(GROWTH)
#: Buckets 0..MAX_BUCKETS-1 are regular; MAX_BUCKETS is the overflow
#: bucket (reached around 2**56 seconds — values that large are bugs,
#: but they must not crash the instrumented code).
MAX_BUCKETS = 520


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1):
        with self._lock:
            self.value += amount

    def snapshot(self) -> int:
        return self.value

    def __repr__(self):
        return "Counter(%d)" % self.value


class Gauge:
    """A last-value-wins measurement.

    ``set`` is a single attribute assignment — already atomic — so the
    gauge carries no lock."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float):
        self.value = value

    def snapshot(self) -> float:
        return self.value

    def __repr__(self):
        return "Gauge(%r)" % self.value


def bucket_index(value: float) -> int:
    """Log bucket for *value*; sub-minimum values collapse into bucket
    0, oversized ones into the overflow bucket."""
    if value < MIN_VALUE:
        return 0
    index = int(math.log(value / MIN_VALUE) / _LOG_GROWTH)
    return index if index < MAX_BUCKETS else MAX_BUCKETS


def bucket_bounds(index: int) -> Tuple[float, float]:
    """``[lower, upper)`` edges of a regular bucket."""
    return (MIN_VALUE * GROWTH ** index, MIN_VALUE * GROWTH ** (index + 1))


class Histogram:
    """Streaming log-bucketed value distribution."""

    __slots__ = ("_buckets", "count", "total", "min", "max", "_lock")

    def __init__(self):
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # Reentrant: snapshot() reads quantiles while holding the lock.
        self._lock = threading.RLock()

    def record(self, value: float):
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            index = bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def overflow_count(self) -> int:
        """Observations beyond the last regular bucket."""
        return self._buckets.get(MAX_BUCKETS, 0)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, fraction: float) -> Optional[float]:
        """The value at *fraction* (0 < fraction <= 1), e.g. 0.95 for
        p95; None while empty.  Bucket resolution bounds the relative
        error at ~GROWTH/2; the result is clamped to [min, max]."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        with self._lock:
            if not self.count:
                return None
            rank = max(1, math.ceil(fraction * self.count))
            if rank >= self.count:
                return self.max
            cumulative = 0
            first = True
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if cumulative >= rank:
                    if first:
                        # Every value below this rank shares the lowest
                        # occupied bucket; the observed minimum is the
                        # most faithful representative (and makes
                        # single-bucket and extreme-skew inputs exact).
                        return self.min
                    if index >= MAX_BUCKETS:
                        return self.max
                    lower, upper = bucket_bounds(index)
                    midpoint = math.sqrt(lower * upper)
                    return min(max(midpoint, self.min), self.max)
                first = False
            return self.max  # unreachable: cumulative == count >= rank

    def bucket_counts(self) -> List[Tuple[int, int]]:
        """Sorted ``(bucket_index, count)`` pairs — a consistent copy
        exporters can iterate without racing recorders."""
        with self._lock:
            return sorted(self._buckets.items())

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other* into this histogram (bucket-wise addition)."""
        with other._lock:
            other_buckets = dict(other._buckets)
            other_count = other.count
            other_total = other.total
            other_min = other.min
            other_max = other.max
        with self._lock:
            for index, count in other_buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + count
            self.count += other_count
            self.total += other_total
            if other_min is not None and (self.min is None or other_min < self.min):
                self.min = other_min
            if other_max is not None and (self.max is None or other_max > self.max):
                self.max = other_max
        return self

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "mean": self.mean,
                "min": self.min,
                "max": self.max,
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
                "overflow": self.overflow_count,
            }

    def __repr__(self):
        return "Histogram(count=%d, mean=%r)" % (self.count, self.mean)


class _NoopTimer:
    """Shared do-nothing context manager for disabled registries."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NOOP_TIMER = _NoopTimer()


#: Snapshot-time collectors.  Hot-path caches keep plain integer
#: counters (no per-operation registry traffic at all) and register a
#: collector here that publishes them as gauges whenever *any* registry
#: is snapshot — so ``repro stats`` and the benchmark artifacts see
#: lifetime cache figures without the caches ever importing obs state
#: into their fast paths.
_COLLECTORS: List[Callable[["MetricsRegistry"], None]] = []


def register_collector(
    fn: Callable[["MetricsRegistry"], None],
) -> Callable[["MetricsRegistry"], None]:
    """Register *fn* to run at every registry snapshot (idempotent);
    usable as a decorator."""
    if fn not in _COLLECTORS:
        _COLLECTORS.append(fn)
    return fn


class _Timer:
    """Context manager recording elapsed wall seconds into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._histogram.record(perf_counter() - self._start)
        return False


class MetricsRegistry:
    """Named counters, gauges and histograms behind one snapshot.

    ``enabled`` is a plain attribute so instrumentation sites can
    branch on it without a method call; use :meth:`enable` /
    :meth:`disable` rather than writing it directly.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- lifecycle --------------------------------------------------------

    def enable(self):
        self.enabled = True
        return self

    def disable(self):
        self.enabled = False
        return self

    def reset(self):
        """Drop every recorded value (instrument objects are recreated
        on next use, so cached references go stale deliberately)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        return self

    # -- instruments ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.get(name)
                if gauge is None:
                    gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
        return histogram

    # -- recording shortcuts ----------------------------------------------

    def inc(self, name: str, amount: int = 1):
        """Increment a counter; no-op while disabled."""
        if self.enabled:
            self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float):
        if self.enabled:
            self.gauge(name).set(value)

    def observe(self, name: str, value: float):
        """Record one histogram observation; no-op while disabled."""
        if self.enabled:
            self.histogram(name).record(value)

    def timer(self, name: str):
        """Context manager timing a block into histogram *name*.

        Disabled registries hand back a shared no-op object: no
        allocation, no clock read.
        """
        if not self.enabled:
            return NOOP_TIMER
        return _Timer(self.histogram(name))

    # -- export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """One JSON-serialisable document with every metric.

        Registered collectors run first, publishing cache counters (and
        similar lazily-exported state) into this registry as gauges."""
        for collect in _COLLECTORS:
            collect(self)
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return {
            "counters": {name: c.snapshot() for name, c in counters},
            "gauges": {name: g.snapshot() for name, g in gauges},
            "histograms": {name: h.snapshot() for name, h in histograms},
        }

    def counter_values(
        self, prefixes: Optional[Tuple[str, ...]] = None
    ) -> Dict[str, int]:
        """Current cumulative counter values, optionally filtered by
        name prefix — the input the telemetry plane differentiates into
        per-interval deltas."""
        with self._lock:
            items = list(self._counters.items())
        if prefixes is None:
            return {name: c.value for name, c in items}
        return {
            name: c.value
            for name, c in items
            if name.startswith(prefixes)
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def iter_metrics(self) -> Iterator[Tuple[str, str, object]]:
        """Yield ``(kind, name, instrument)`` triples (collectors run
        first, as in :meth:`snapshot`)."""
        for collect in _COLLECTORS:
            collect(self)
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        for name, counter in counters:
            yield "counter", name, counter
        for name, gauge in gauges:
            yield "gauge", name, gauge
        for name, histogram in histograms:
            yield "histogram", name, histogram

    def metric_names(self) -> List[str]:
        with self._lock:
            return sorted(
                list(self._counters)
                + list(self._gauges)
                + list(self._histograms)
            )

    def __repr__(self):
        return "MetricsRegistry(enabled=%r, metrics=%d)" % (
            self.enabled,
            len(self.metric_names()),
        )
