"""Causal distributed tracing: contexts, spans, and the assembler.

Every client-originated operation (SUB/UNSUB/ADV/UNADV/PUB) mints a
:class:`TraceContext` — a trace id plus the root span id — that rides
on the message object through the simulator, is serialised by
:mod:`repro.network.wire` for the socket deployment, and survives
reliable-transport retransmission and broker crash/restart redelivery.
Each hop then emits :class:`Span` records into a :class:`TraceRecorder`:

====================  =====================================================
span name             meaning
====================  =====================================================
``submit``            the root: client → edge-broker link time
``hop``               one broker processing the message (arrival →
                      arrival + charged processing, queue wait included)
``queue.wait``        child of ``hop``: time spent waiting for the broker
                      to go idle (queueing mode only)
``match``             child of ``hop``: publication matching, with the
                      engine used and the match-cache outcome
``covering.check``    child of ``hop``: a SUB's table step and forwarding
``merge.absorb``      child of ``hop``: a merge sweep absorbing XPEs
``forward``           per-destination fan-out (sender → link; a point
                      event when the reliable transport owns the link)
``retransmit``        the transport resent an unacked frame (point)
``dropped.duplicate`` a duplicate was suppressed — by the transport's
                      dedup or by the subscriber client (point)
``deliver``           the leaf: a fresh delivery at a subscriber (point)
====================  =====================================================

Timestamps are **virtual** simulator seconds, so span trees line up
with the modelled end-to-end latency of
:class:`~repro.network.stats.DeliveryRecord`; broker sub-spans map
measured wall time onto the virtual clock through the overlay's
``processing_scale`` (their real durations ride in ``attrs["wall"]``).

:func:`assemble_traces` reconstructs per-trace delivery trees;
:func:`verify_traces` checks every recorded delivery against its tree —
causal completeness (one root, every parent resolves) and the
per-stage span sum staying within the recorded end-to-end latency.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.obs.flight import FlightRecorderSet

_trace_counter = itertools.count(1)
_span_counter = itertools.count(1)


@dataclass(frozen=True)
class TraceContext:
    """What rides on a message: the trace it belongs to and the span
    that caused it (the root span at mint time)."""

    trace_id: str
    span_id: str


def mint_context() -> TraceContext:
    """A fresh trace id with its root span id (process-unique)."""
    return TraceContext(
        "t%d" % next(_trace_counter), "s%d" % next(_span_counter)
    )


def next_span_id() -> str:
    return "s%d" % next(_span_counter)


def stamp(message, context: TraceContext):
    """Attach *context* to a message object (the ``trace`` attribute;
    works on frozen dataclasses).  Stamping happens exactly once, at
    mint time or on wire decode — per-hop causality travels out of
    band, because one message object may be in flight to several
    destinations at once."""
    object.__setattr__(message, "trace", context)
    return message


def trace_of(message) -> Optional[TraceContext]:
    return getattr(message, "trace", None)


def _parent_id(parent: Optional["Span"], context: TraceContext) -> str:
    """The parent span id for a new span of *context*'s trace: the
    causing span when it belongs to the same trace, else the trace's
    own root (e.g. a stored subscription re-emitted while handling an
    advertisement parents back to its original submit, not into the
    advertisement's trace)."""
    if parent is not None and parent.trace_id == context.trace_id:
        return parent.span_id
    return context.span_id


class Span:
    """One timed stage of one trace.  ``start``/``end`` are virtual
    seconds; zero-duration spans are point events."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "broker_id",
        "start", "end", "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        broker_id: object,
        start: float,
        end: float,
        attrs: Optional[dict] = None,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.broker_id = broker_id
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return max(self.end - self.start, 0.0)

    def to_dict(self) -> dict:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "broker": str(self.broker_id),
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }

    def __repr__(self):
        return "Span(%s %s %s@%s [%g,%g])" % (
            self.trace_id, self.span_id, self.name, self.broker_id,
            self.start, self.end,
        )


class HopScope:
    """Thread-local context for one broker hop, letting broker-internal
    code (matching, covering, merging) emit sub-spans without knowing
    about the overlay.  Wall-clock offsets measured inside the handler
    are mapped onto the virtual clock via ``processing_scale``."""

    __slots__ = (
        "recorder", "span", "scale", "wall_anchor", "prev", "spans",
    )

    def __init__(
        self, recorder: "TraceRecorder", span: Span, scale: float,
        spans: Optional[Dict[int, Span]] = None,
    ):
        self.recorder = recorder
        self.span = span
        self.scale = scale
        self.wall_anchor = perf_counter()
        self.prev = None
        #: ``msg_id`` → hop span of every traced message of the frame
        #: being handled (None: *span* is the only one).
        self.spans = spans

    def focus(self, message):
        """The broker is now routing *message* of a group: sub-spans
        emitted from here on belong to that message's hop span (they
        stay placed at their own wall offset in the group's window)."""
        if self.spans is not None:
            self.span = self.spans.get(message.msg_id, self.span)

    def sub_span(self, name: str, wall_start: float, wall_end: float, **attrs):
        base = self.span.start
        attrs["wall"] = wall_end - wall_start
        return self.recorder.span(
            self.span.trace_id,
            self.span.span_id,
            name,
            self.span.broker_id,
            base + (wall_start - self.wall_anchor) * self.scale,
            base + (wall_end - self.wall_anchor) * self.scale,
            **attrs,
        )


_tls = threading.local()


def current_scope() -> Optional[HopScope]:
    """The hop scope of the broker handler running on this thread (None
    when tracing is off — the broker hot paths branch on this)."""
    return _tls.__dict__.get("scope")


class TraceRecorder:
    """Collects spans, feeds the flight rings, assembles trees.

    Args:
        registry: optional :class:`~repro.obs.MetricsRegistry` mirror —
            span/drop counts while enabled, plus the ``trace.stage.*``
            histograms via :meth:`publish_stage_metrics`.
        max_spans: global span cap; beyond it spans still reach the
            bounded flight rings but are dropped from the main list
            (counted in :attr:`dropped`).
        flight_capacity / flight_dir: ring size per broker and the
            directory automatic dumps are written to (see
            :mod:`repro.obs.flight`).
    """

    def __init__(
        self,
        registry=None,
        max_spans: int = 500_000,
        flight_capacity: int = 256,
        flight_dir: Optional[str] = None,
    ):
        self.registry = registry
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.traces: Dict[str, List[Span]] = {}
        self.dropped = 0
        self.flight = FlightRecorderSet(
            capacity=flight_capacity, out_dir=flight_dir
        )

    # -- recording ---------------------------------------------------------

    def mint(self, message=None) -> TraceContext:
        """A fresh context, stamped onto *message* when given."""
        context = mint_context()
        if message is not None:
            stamp(message, context)
        return context

    def span(
        self,
        trace_id: str,
        parent_id: Optional[str],
        name: str,
        broker_id: object,
        start: float,
        end: float,
        **attrs,
    ) -> Span:
        return self.record(
            Span(trace_id, next_span_id(), parent_id, name, broker_id,
                 start, end, attrs)
        )

    def record(self, span: Span) -> Span:
        self.flight.record(span)
        if self.max_spans and len(self.spans) >= self.max_spans:
            self.dropped += 1
            return span
        self.spans.append(span)
        self.traces.setdefault(span.trace_id, []).append(span)
        registry = self.registry
        if registry is not None and registry.enabled:
            registry.counter("trace.spans").inc()
        return span

    def record_root(
        self, context: TraceContext, client_id, message, now: float,
        latency: float,
    ) -> Span:
        """The ``submit`` span: client → edge-broker link time."""
        attrs = {
            "kind": getattr(message, "kind", type(message).__name__),
            "client": str(client_id),
        }
        publication = getattr(message, "publication", None)
        if publication is not None:
            attrs["doc"] = publication.doc_id
            attrs["path_id"] = publication.path_id
        return self.record(
            Span(context.trace_id, context.span_id, None, "submit",
                 client_id, now, now + latency, attrs)
        )

    def push_hop(
        self, span: Span, scale: float,
        spans: Optional[Dict[int, Span]] = None,
    ) -> HopScope:
        """Enter a hop scope (restored with :meth:`pop_hop`); *spans*
        lets the broker re-point it per message of a group (see
        :meth:`HopScope.focus`)."""
        scope = HopScope(self, span, scale, spans)
        scope.prev = _tls.__dict__.get("scope")
        _tls.scope = scope
        return scope

    def pop_hop(self, scope: HopScope):
        _tls.scope = scope.prev

    def clear(self):
        self.spans = []
        self.traces = {}
        self.dropped = 0

    def __len__(self):
        return len(self.spans)

    # -- analysis ----------------------------------------------------------

    def assemble(self) -> Dict[str, "TraceTree"]:
        """One :class:`TraceTree` per recorded trace id."""
        return {
            trace_id: TraceTree(trace_id, spans)
            for trace_id, spans in self.traces.items()
        }

    def trees_for_doc(self, doc_id: str) -> List["TraceTree"]:
        """Delivery trees of every trace that touched document *doc_id*
        (the ``repro trace --follow`` query)."""
        return [
            tree
            for tree in self.assemble().values()
            if any(s.attrs.get("doc") == doc_id for s in tree.spans)
        ]

    def publish_stage_metrics(self, registry=None):
        """Record every span's duration into ``trace.stage.<name>``
        histograms (p50/p95/p99 come with the registry snapshot)."""
        registry = registry if registry is not None else self.registry
        if registry is None:
            return None
        for span in self.spans:
            registry.histogram("trace.stage.%s" % span.name).record(
                span.duration
            )
        return registry


class TraceTree:
    """The assembled causal tree of one trace."""

    def __init__(self, trace_id: str, spans: List[Span]):
        self.trace_id = trace_id
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        self.by_id = {span.span_id: span for span in self.spans}
        self.children: Dict[str, List[Span]] = {}
        self.roots: List[Span] = []
        for span in self.spans:
            if span.parent_id is not None and span.parent_id in self.by_id:
                self.children.setdefault(span.parent_id, []).append(span)
            else:
                self.roots.append(span)

    @property
    def complete(self) -> bool:
        """Exactly one root, which is a true root (no dangling parent)."""
        return len(self.roots) == 1 and self.roots[0].parent_id is None

    def end_to_end(self) -> float:
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans) - min(s.start for s in self.spans)

    def stage_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def chain(self, span: Span) -> List[Span]:
        """Root-to-*span* causal chain (follows parent ids)."""
        chain = [span]
        seen = {span.span_id}
        while chain[-1].parent_id is not None:
            parent = self.by_id.get(chain[-1].parent_id)
            if parent is None or parent.span_id in seen:
                break
            seen.add(parent.span_id)
            chain.append(parent)
        chain.reverse()
        return chain

    def path_sum(self, span: Span) -> float:
        """Sum of stage durations along the causal chain to *span*."""
        return sum(s.duration for s in self.chain(span))

    def delivery_spans(self) -> List[Span]:
        return [
            span
            for span in self.spans
            if span.name == "deliver" and span.attrs.get("fresh")
        ]

    def render(self) -> str:
        """ASCII rendering of the causal tree."""
        lines = ["trace %s  e2e=%.6fs" % (self.trace_id, self.end_to_end())]

        def walk(span, depth):
            attrs = " ".join(
                "%s=%s" % (key, value)
                for key, value in sorted(span.attrs.items())
                if key != "wall"
            )
            lines.append(
                "%s%-18s %-8s [%0.6f, %0.6f]%s"
                % (
                    "  " * depth,
                    span.name,
                    str(span.broker_id),
                    span.start,
                    span.end,
                    " " + attrs if attrs else "",
                )
            )
            for child in self.children.get(span.span_id, ()):
                walk(child, depth + 1)

        for root in self.roots:
            walk(root, 1)
        return "\n".join(lines)


def verify_traces(overlay, tolerance: float = 1e-9) -> List[str]:
    """Check causal completeness of every trace against the overlay's
    recorded deliveries; returns human-readable problems (empty = OK).

    For every fresh :class:`~repro.network.stats.DeliveryRecord` there
    must be a ``deliver`` span whose causal chain starts at the
    publication's submit time, ends at the delivery time, and whose
    per-stage durations sum to **at most** the recorded end-to-end
    latency (transport retries and queueing legitimately leave gaps;
    overlaps would mean the decomposition double-counts).

    The overlay must have had tracing enabled before any traffic was
    submitted, or early deliveries will have no spans to match.
    """
    recorder = overlay.tracing
    problems: List[str] = []
    if recorder is None:
        return ["tracing is not enabled on this overlay"]
    if recorder.dropped:
        problems.append(
            "%d spans dropped (max_spans=%d); trees are incomplete"
            % (recorder.dropped, recorder.max_spans)
        )
    trees = recorder.assemble()
    for trace_id in sorted(trees, key=str):
        tree = trees[trace_id]
        if not tree.complete:
            problems.append(
                "trace %s is not causally complete: %d roots (%s)"
                % (
                    trace_id,
                    len(tree.roots),
                    ", ".join(
                        "%s parent=%s" % (s.name, s.parent_id)
                        for s in tree.roots[:4]
                    ),
                )
            )
    deliver_index = {}
    for tree in trees.values():
        for span in tree.delivery_spans():
            key = (
                span.attrs.get("subscriber"),
                span.attrs.get("doc"),
                span.attrs.get("path_id"),
            )
            deliver_index[key] = (tree, span)
    for record in overlay.stats.deliveries:
        key = (record.subscriber_id, record.doc_id, record.path_id)
        entry = deliver_index.get(key)
        if entry is None:
            problems.append(
                "delivery %s/%s#%d has no deliver span"
                % (record.subscriber_id, record.doc_id, record.path_id)
            )
            continue
        tree, span = entry
        chain = tree.chain(span)
        if chain[0].name != "submit":
            problems.append(
                "delivery %s/%s#%d: chain starts at %r, not the submit root"
                % (record.subscriber_id, record.doc_id, record.path_id,
                   chain[0].name)
            )
            continue
        if abs(chain[0].start - record.issued_at) > tolerance:
            problems.append(
                "delivery %s/%s#%d: root starts at %g, publication issued "
                "at %g" % (record.subscriber_id, record.doc_id,
                           record.path_id, chain[0].start, record.issued_at)
            )
        if abs(span.end - record.delivered_at) > tolerance:
            problems.append(
                "delivery %s/%s#%d: deliver span at %g, recorded delivery "
                "at %g" % (record.subscriber_id, record.doc_id,
                           record.path_id, span.end, record.delivered_at)
            )
        total = tree.path_sum(span)
        if total > record.delay + tolerance:
            problems.append(
                "delivery %s/%s#%d: stage sum %.9f exceeds end-to-end "
                "latency %.9f" % (record.subscriber_id, record.doc_id,
                                  record.path_id, total, record.delay)
            )
    return problems


def assemble_traces(spans: List[Span]) -> Dict[str, TraceTree]:
    """Group loose spans (e.g. parsed from a flight dump) into trees."""
    grouped: Dict[str, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    return {
        trace_id: TraceTree(trace_id, trace_spans)
        for trace_id, trace_spans in grouped.items()
    }
