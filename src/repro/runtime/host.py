"""The sans-IO host kernel: what every backend does around a broker core.

:class:`~repro.broker.core.BrokerCore` turns a frame into outbound
frames; a *host* turns those frames into traffic.  Everything about
that second step that does not depend on how bytes move lives here,
once:

* the topology and the client registry (``cores`` / ``brokers`` /
  ``links`` / ``subscribers`` / ``publishers``),
* observer attachment — audit oracle, causal tracing, the telemetry
  plane and its health-transition flight dump,
* :meth:`HostKernel.admit`, the front half of a client submit, and
  :meth:`HostKernel.join`, the rule that makes consecutive publications
  of one document one client→edge frame (a :class:`Group`),
* :meth:`HostKernel.dispatch`, one frame through one broker: the single
  ``core.on_publications`` / ``on_message`` call, whose
  ``(destination, messages)`` frames it returns, ``hop`` spans
  and the hop scope, trace-stamping of what the broker originated,
* :meth:`HostKernel.receive`, the back half of a delivery: client
  dedup, ``deliver`` spans, audit observation, delivery records,
* the telemetry *sample* and the end-of-run reports.

A backend supplies three things and nothing else: a clock (the ``now``
it passes in, and the ``now`` attribute the health dump reads), the
sampling cadence (when to call :meth:`HostKernel.sample`), and "move
this frame to that peer or client" with its own latency, queueing,
backpressure or loss model.  The simulator
(:class:`~repro.network.overlay.Overlay`) and the asyncio runtime
extend the kernel; a socket node owns a one-broker kernel; the
multiprocess parent — whose brokers live in child processes — extends
it for the client edge and the observers.  On every host the ``hop``
span :meth:`HostKernel.dispatch` opens is the one record of a hop.
The kernel never sleeps, schedules or touches a socket, so a test can
drive it with a plain list (tests/test_host_kernel.py).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.broker.broker import Broker
from repro.broker.core import MERGE_SWEEP_TIMER, BrokerCore, Frame
from repro.broker.messages import Message, PublishMsg
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError, TopologyError
from repro.merging.engine import PathUniverse
from repro.network.clients import PublisherClient, SubscriberClient
from repro.network.stats import NetworkStats
from repro.obs import MetricsRegistry
from repro.obs.telemetry import TelemetryPlane, broker_gauges
from repro.obs.tracing import (
    Span,
    TraceContext,
    TraceRecorder,
    _parent_id,
    stamp,
    trace_of,
)

class Group:
    """A client→edge frame: one control message, or the publications of
    one document a client submitted back to back (see
    :meth:`HostKernel.join`)."""

    __slots__ = (
        "client_id", "doc_id", "size", "messages", "roots", "at", "latency",
    )

    def __init__(self, client_id: str, message: Message):
        self.client_id = client_id
        #: What a later publication must share to join; both None for
        #: a control message, which nothing ever joins.
        publication = getattr(message, "publication", None)
        self.doc_id = None if publication is None else publication.doc_id
        self.size = getattr(message, "doc_size_bytes", None)
        self.messages: List[Message] = [message]
        #: ``msg_id`` → ``submit`` root span of every traced message.
        self.roots: Dict[int, Span] = {}
        #: For a backend that models the client→edge link: when the
        #: frame left the client and the link delay it was charged.
        self.at = self.latency = 0.0


class HostKernel:
    """The transport-independent half of a broker host.

    Args:
        config: routing strategy applied to every broker.
        universe: publication universe handed to brokers for merging.
        metrics: the :class:`~repro.obs.MetricsRegistry` this host
            reports into; defaults to the process-global registry the
            hot-path instrumentation already uses.
    """

    #: Virtual seconds charged per measured handler wall second — where
    #: broker sub-spans (``match``, ``covering.check``) land inside
    #: their ``hop`` span.  A wall-clock host leaves it at 1.
    processing_scale = 1.0
    #: The backend's clock; every backend overrides it.
    now = 0.0

    def __init__(
        self,
        config: Optional[RoutingConfig] = None,
        universe: Optional[PathUniverse] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.config = config if config is not None else RoutingConfig.full()
        self.universe = universe
        self.metrics = metrics if metrics is not None else obs.get_registry()
        self.stats = NetworkStats(registry=self.metrics)
        #: The runtime-agnostic cores this host drives.  ``brokers``
        #: exposes the wrapped :class:`Broker` objects — the audit
        #: oracle and the test suites inspect their tables, and that
        #: interface is identical on every backend.
        self.cores: Dict[str, BrokerCore] = {}
        self.brokers: Dict[str, Broker] = {}
        self.links: Set[Tuple[str, str]] = set()
        self.subscribers: Dict[str, SubscriberClient] = {}
        self.publishers: Dict[str, PublisherClient] = {}
        self._client_home: Dict[str, str] = {}
        self._auditors: list = []
        #: Causal tracing (see :meth:`enable_tracing`) and the live
        #: telemetry plane (see :meth:`enable_telemetry`); None keeps
        #: every hot path on the zero-overhead branch.
        self.tracing: Optional[TraceRecorder] = None
        self.telemetry: Optional[TelemetryPlane] = None
        #: The client→edge frame still accepting publications (see
        #: :meth:`join`); None once anything else was submitted or the
        #: backend closed it.
        self._open_group: Optional[Group] = None

    # -- topology and clients ----------------------------------------------

    def add_broker(self, broker_id: str) -> Broker:
        if broker_id in self.brokers:
            raise TopologyError("duplicate broker id %r" % broker_id)
        core = BrokerCore(
            broker_id=broker_id, config=self.config, universe=self.universe
        )
        self.cores[broker_id] = core
        self.brokers[broker_id] = core.broker
        return core.broker

    def connect(self, a: str, b: str):
        """Create a bidirectional link between two brokers.

        The overlay must stay acyclic: the paper's dissemination
        protocol floods advertisements and reverse-path-routes
        subscriptions/publications over a spanning tree, and a cycle
        would duplicate (and for publications, loop) messages.
        """
        if a not in self.brokers or b not in self.brokers:
            raise TopologyError("cannot link unknown brokers %r-%r" % (a, b))
        if (a, b) in self.links or (b, a) in self.links:
            raise TopologyError("duplicate link %r-%r" % (a, b))
        if self._connected(a, b):
            raise TopologyError(
                "link %r-%r would close a cycle; the overlay must remain "
                "a tree" % (a, b)
            )
        self.links.add((a, b))
        self.brokers[a].connect(b)
        self.brokers[b].connect(a)

    def _connected(self, a: str, b: str) -> bool:
        """Is there already a path between brokers *a* and *b*?"""
        adjacency: Dict[str, list] = {}
        for left, right in self.links:
            adjacency.setdefault(left, []).append(right)
            adjacency.setdefault(right, []).append(left)
        seen = {a}
        stack = [a]
        while stack:
            current = stack.pop()
            if current == b:
                return True
            for neighbor in adjacency.get(current, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return False

    def attach_subscriber(self, client_id: str, broker_id: str) -> SubscriberClient:
        self._check_client(client_id, broker_id)
        client = SubscriberClient(client_id, self, broker_id)
        self.subscribers[client_id] = client
        self._client_home[client_id] = broker_id
        self.brokers[broker_id].attach_client(client_id)
        return client

    def attach_publisher(self, client_id: str, broker_id: str) -> PublisherClient:
        self._check_client(client_id, broker_id)
        client = PublisherClient(client_id, self, broker_id)
        self.publishers[client_id] = client
        self._client_home[client_id] = broker_id
        self.brokers[broker_id].attach_client(client_id)
        return client

    def _check_client(self, client_id: str, broker_id: str):
        if broker_id not in self.brokers:
            raise TopologyError("unknown broker %r" % broker_id)
        if client_id in self._client_home or client_id in self.brokers:
            raise TopologyError("duplicate client id %r" % client_id)

    def is_down(self, broker_id: object) -> bool:
        """Only a host that can crash its brokers overrides this."""
        return False

    # -- observers ---------------------------------------------------------

    def attach_auditor(self, auditor):
        """Register a :class:`repro.audit.AuditOracle`; it observes
        client submits and deliveries (and, on a host that crashes
        brokers, recoveries)."""
        self._auditors.append(auditor)
        auditor.bind(self)
        return auditor

    def enable_tracing(
        self, recorder: Optional[TraceRecorder] = None, **kwargs
    ) -> TraceRecorder:
        """Turn on causal tracing: every subsequently submitted message
        is stamped with a trace context and every hop emits spans into
        *recorder* (a fresh :class:`~repro.obs.tracing.TraceRecorder`
        bound to this host's registry by default; extra keyword
        arguments — ``flight_dir``, ``flight_capacity``, ``max_spans`` —
        configure it).  Enable before submitting traffic or early
        deliveries will have no trace trees."""
        if recorder is None:
            recorder = TraceRecorder(registry=self.metrics, **kwargs)
        self.tracing = recorder
        return recorder

    def enable_telemetry(self, plane=None, interval: float = 0.05, **kwargs):
        """Turn on the live telemetry plane: the backend samples every
        broker on its own cadence into *plane* (a fresh
        :class:`~repro.obs.telemetry.TelemetryPlane` bound to this
        host's registry by default; extra keyword arguments — ``rules``,
        ``ring_capacity``, ``clear_after`` — configure it).  Health
        transitions dump the flight recorder when tracing is also
        enabled.  Idempotent: a second call returns the first plane."""
        if self.telemetry is None:
            if plane is None:
                plane = TelemetryPlane(
                    registry=self.metrics, interval=interval, **kwargs
                )
            self.telemetry = plane
            plane.add_transition_hook(self._on_health_transition)
        return self.telemetry

    def _on_health_transition(self, broker_id, previous, state, rule, sample):
        if self.tracing is not None:
            self.tracing.flight.dump(
                "health-%s-%s" % (broker_id, state), time=self.now
            )

    # -- the submit front half ---------------------------------------------

    def admit(
        self, client_id: str, message: Message
    ) -> Tuple[str, Optional[TraceContext]]:
        """A client hands in a message: returns its edge broker and,
        with tracing enabled, the fresh
        :class:`~repro.obs.tracing.TraceContext` now stamped on the
        message (None when one already rides on it — a resubmission
        stays in its original trace).  The backend records the
        ``submit`` root span, whose length is its own link model's."""
        broker_id = self._client_home.get(client_id)
        if broker_id is None:
            raise RoutingError("unknown client %r" % client_id)
        tracing = self.tracing
        context = None
        if tracing is not None and trace_of(message) is None:
            context = tracing.mint(message)
        # the auditor observes *after* stamping so violation reports can
        # name the offending trace ids.
        for auditor in self._auditors:
            auditor.observe_submit(client_id, message)
        return broker_id, context

    def join(self, client_id: str, message: Message) -> Tuple[Group, bool]:
        """The join rule, after :meth:`admit`: consecutive publications
        of one document cross the client→edge link as one frame — a
        *group*.  A :class:`PublishMsg` joins the open group when it
        comes from the same client with the same ``doc_id`` and
        ``doc_size_bytes`` and nothing else was submitted since; any
        other message opens a new group, so the link stays FIFO (PUB,
        SUB, PUB arrive in that order).  Whether tracing, an auditor or
        telemetry is attached never changes where a group ends.

        The backend owns how long a group stays open: it calls
        :meth:`close_group` once the frame can take no more (the clock
        moved, the edge broker took it) and for anything that enters a
        link without a submit (a forced merge sweep).

        Returns ``(group, opened)``: the frame now carrying *message*,
        and whether it is a new one the backend has yet to move.
        """
        group = self._open_group
        if (
            group is not None
            and isinstance(message, PublishMsg)
            and group.client_id == client_id
            and group.doc_id == message.publication.doc_id
            and group.size == message.doc_size_bytes
        ):
            group.messages.append(message)
            return group, False
        group = self._open_group = Group(client_id, message)
        return group, True

    def close_group(self, messages: Optional[Sequence[Message]] = None):
        """The open group accepts nothing more.  With *messages* — a
        frame the backend just took off the client→edge link — only if
        they are that group's."""
        group = self._open_group
        if group is not None and (
            messages is None or group.messages is messages
        ):
            self._open_group = None

    # -- one frame through one broker --------------------------------------

    def dispatch(
        self, broker_id: str, messages: Sequence[Message], from_hop: object,
        now: float, parents: Optional[Dict[int, Span]] = None,
    ) -> Tuple[List[Frame], Optional[Dict[int, Span]], float]:
        """One frame reached a broker: a control message, or a group of
        publications (consecutive paths of one document).  The frame is
        one core call; traffic statistics and spans stay per message.

        ``parents`` maps ``msg_id`` to the span that caused the message
        (tracing only).  Every message keeps its own ``hop`` span over
        the group's window; the broker re-points the hop scope per
        message, so ``match`` sub-spans stay attributable.

        Returns ``(frames, hop_spans, elapsed)``: what to put on which
        link, the open ``hop`` spans (``msg_id`` → span; the backend
        sets their ``end`` once it knows its processing charge) and the
        handler's measured wall seconds.
        """
        first = messages[0]
        self.stats.record_broker_message(broker_id, first.kind, len(messages))
        tracing = self.tracing
        hop_spans = first_span = scope = None
        if tracing is not None:
            hop_spans = self._hop_spans(
                broker_id, messages, from_hop, now, parents
            )
            if hop_spans:
                first_span = next(iter(hop_spans.values()))
                scope = tracing.push_hop(
                    first_span, self.processing_scale, hop_spans
                )
        core = self.cores[broker_id]
        started = perf_counter()
        try:
            if isinstance(first, PublishMsg):
                frames = core.on_publications(messages, from_hop)
            else:
                frames = core.on_message(first, from_hop)
        finally:
            if scope is not None:
                tracing.pop_hop(scope)
        elapsed = perf_counter() - started
        metrics = self.metrics
        if metrics.enabled:
            metrics.histogram("network.dispatch").record(elapsed)
            metrics.counter("network.dispatch.outbound").inc(
                sum(len(frame[1]) for frame in frames)
            )
        if hop_spans:
            # What a lone message's handler originated — merger
            # subscriptions and covering retractions — joins the
            # trace that caused it; messages already carrying a context
            # keep theirs.  (A group only ever forwards its members.)
            sole = first_span if len(messages) == 1 else None
            for _destination, out_messages in frames:
                for out_msg in out_messages:
                    hop_span = hop_spans.get(out_msg.msg_id, sole)
                    if hop_span is None:
                        continue
                    hop_span.attrs["fanout"] += 1
                    if trace_of(out_msg) is None:
                        stamp(
                            out_msg,
                            TraceContext(hop_span.trace_id, hop_span.span_id),
                        )
        return frames, hop_spans, elapsed

    def _hop_spans(
        self, broker_id: str, messages: Sequence[Message], from_hop: object,
        now: float, parents: Optional[Dict[int, Span]],
    ) -> Dict[int, Span]:
        """Open the ``hop`` span of every traced message of an arriving
        frame (``msg_id`` → span)."""
        attrs = {"group": len(messages)} if len(messages) > 1 else {}
        hop_spans: Dict[int, Span] = {}
        for message in messages:
            context = trace_of(message)
            if context is None:
                continue
            parent = parents.get(message.msg_id) if parents else None
            hop_spans[message.msg_id] = self.tracing.span(
                context.trace_id, _parent_id(parent, context),
                "hop", broker_id, now, now,
                kind=message.kind, from_hop=str(from_hop), fanout=0, **attrs,
            )
        return hop_spans

    def sweep(self, broker_id: str) -> List[Frame]:
        """Run one merge sweep on *broker_id* now; returns the sweep's
        outbound control traffic (merger subscriptions plus constituent
        retractions) as frames."""
        if broker_id not in self.cores:
            raise TopologyError("unknown broker %r" % broker_id)
        return self.cores[broker_id].on_timer(MERGE_SWEEP_TIMER)

    def forward_span(
        self, src_broker: str, destination: object, message: Message,
        hop_spans: Optional[Dict[int, Span]], start: float, end: float,
        **attrs,
    ) -> Optional[Span]:
        """The ``forward`` span of one message of an outbound frame
        (None for an untraced message), under the message's own hop
        span.  What the broker originated is in nobody's *hop_spans*;
        its stamp already names the hop that caused it."""
        context = trace_of(message)
        if context is None:
            return None
        hop_span = hop_spans.get(message.msg_id) if hop_spans else None
        return self.tracing.span(
            context.trace_id, _parent_id(hop_span, context),
            "forward", src_broker, start, end,
            to=str(destination), kind=message.kind, **attrs,
        )

    # -- the delivery back half --------------------------------------------

    def receive(
        self, client_id: str, messages: Sequence[Message], hops: int,
        now: Optional[float], parents: Optional[Dict[int, Span]] = None,
    ) -> int:
        """One frame reached a subscriber.  Dedup, delivery records,
        spans and audit observations are per message; returns how many
        were fresh.

        *now* is None when the caller learns of the delivery after the
        fact (the multiprocess parent draining its children): it is
        deduplicated and audited, but no latency and no span is
        recorded for it.
        """
        stats = self.stats
        stats.record_client_message(len(messages))
        client = self.subscribers[client_id]
        tracing = self.tracing if now is not None else None
        auditors = self._auditors
        telemetry = self.telemetry
        delivered = 0
        for message in messages:
            fresh = client.receive(message, hops)
            if tracing is not None:
                context = trace_of(message)
                if context is not None:
                    publication = message.publication
                    attrs = {
                        "subscriber": client_id, "fresh": fresh, "hops": hops,
                        "doc": publication.doc_id,
                        "path_id": publication.path_id,
                    }
                    tracing.span(
                        context.trace_id,
                        _parent_id(
                            parents.get(message.msg_id) if parents else None,
                            context,
                        ),
                        "deliver" if fresh else "dropped.duplicate",
                        client_id, now, now, **attrs,
                    )
            # duplicates (client.receive returned False) never reach
            # the auditors or the delivery statistics: redelivered
            # publications count once.
            if not fresh:
                continue
            delivered += 1
            for auditor in auditors:
                auditor.observe_delivery(client_id, message)
            if now is None:
                continue
            publication = message.publication
            # the exact tuple of a DeliveryRecord's fields: what the
            # delivery log stores, and untracked by the collector.
            stats.record_delivery((
                client_id, publication.doc_id, publication.path_id,
                message.issued_at, now, hops,
            ))
            if telemetry is not None:
                telemetry.note_delivery(
                    self._client_home.get(client_id), now - message.issued_at
                )
        return delivered

    # -- the telemetry sample ----------------------------------------------

    def gather_sample(
        self, broker_id: str, gauges: Dict[str, float]
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """One broker's sample, read where the broker lives: the
        backend's own queue *gauges* plus routing-table and matcher
        gauges, and the cumulative ``handled`` counter."""
        broker = self.brokers[broker_id]
        gauges.update(broker_gauges(broker))
        return gauges, {"handled": float(sum(broker.stats.values()))}

    def record_sample(
        self, broker_id: str, now: float, gauges: Dict[str, float],
        counters: Dict[str, float],
    ):
        """Feed one gathered sample to the plane, where the observers
        live (on multiprocess the child gathers, the parent records)."""
        plane = self.telemetry
        plane.maybe_record_cluster(now)
        gauges["audit_degraded"] = (
            1.0
            if any(
                getattr(auditor, "stateless_recoveries", None)
                for auditor in self._auditors
            )
            else 0.0
        )
        plane.record(broker_id, now, gauges=gauges, counters=counters)

    def sample(self, broker_id: str, now: float, gauges: Dict[str, float]):
        """Gather and record one sample of a broker hosted here."""
        self.record_sample(broker_id, now, *self.gather_sample(broker_id, gauges))

    # -- reporting ---------------------------------------------------------

    def routing_fingerprints(self) -> Dict[str, str]:
        return {
            broker_id: core.fingerprint()
            for broker_id, core in self.cores.items()
        }

    def delivered_map(self) -> Dict[str, Set[str]]:
        """subscriber id -> set of delivered document ids (the delivery
        -equivalence invariant compares these across strategies)."""
        return {
            client_id: client.delivered_documents()
            for client_id, client in self.subscribers.items()
        }

