"""The overlay network: brokers, links, clients, and the event loop.

An :class:`Overlay` owns a :class:`~repro.network.simulator.Simulator`,
a :class:`~repro.network.stats.NetworkStats`, a latency model and a set
of brokers.  Messages submitted by clients propagate hop by hop; each
broker hop charges the link latency plus (optionally) the *measured*
processing time of the broker's handler, so notification delays combine
modelled wide-area latency with the real cost of routing-table matching
— the same two components the paper's PlanetLab numbers contain.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.broker.broker import Broker
from repro.broker.core import (
    MERGE_SWEEP_TIMER,
    TELEMETRY_TIMER,
    BrokerCore,
    Deliver,
    Replay,
    Send,
    Telemetry,
    TimerRequest,
    ViewServe,
)
from repro.broker.messages import AdvertiseMsg, Message, PublishMsg
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError, TopologyError
from repro.merging.engine import PathUniverse
from repro.network.clients import PublisherClient, SubscriberClient
from repro.network.faults import FaultPlan
from repro.network.latency import ClusterLatency, LatencyModel
from repro.network.simulator import Simulator
from repro.network.stats import DeliveryRecord, NetworkStats
from repro.obs import MetricsRegistry
from repro.obs.telemetry import TelemetryPlane, broker_gauges
from repro.obs.tracing import Span, TraceContext, TraceRecorder, stamp, trace_of


class Overlay:
    """A network of content-based XML routers.

    Args:
        config: routing strategy applied to every broker.
        latency_model: link delay model (default: cluster LAN).
        universe: publication universe handed to brokers for merging.
        processing_scale: multiplier on measured handler wall time added
            to the virtual clock (0 disables processing cost; 1 charges
            the real Python matching cost).
        queueing: serialise each broker's processing (arrivals wait for
            the broker to become idle) instead of overlapping it.
        metrics: the :class:`~repro.obs.MetricsRegistry` this overlay
            reports into; defaults to the process-global registry the
            hot-path instrumentation already uses, so
            ``overlay.metrics.snapshot()`` unifies traffic, delay and
            timing (see :meth:`metrics_snapshot`).
        faults: install a :class:`~repro.network.faults.FaultPlan` up
            front (equivalent to calling :meth:`install_faults`).
            Without one, messages are scheduled directly — the
            fault-free, zero-overhead path.
    """

    def __init__(
        self,
        config: Optional[RoutingConfig] = None,
        latency_model: Optional[LatencyModel] = None,
        universe: Optional[PathUniverse] = None,
        processing_scale: float = 1.0,
        queueing: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultPlan] = None,
    ):
        self.config = config if config is not None else RoutingConfig.full()
        self.latency_model = (
            latency_model if latency_model is not None else ClusterLatency()
        )
        self.universe = universe
        self.processing_scale = processing_scale
        self.sim = Simulator()
        self.metrics = metrics if metrics is not None else obs.get_registry()
        self.stats = NetworkStats(registry=self.metrics)
        #: The runtime-agnostic cores this host drives.  ``brokers``
        #: keeps exposing the wrapped :class:`Broker` objects — the
        #: audit oracle and the test suites inspect their tables, and
        #: that interface is identical on every backend.
        self.cores: Dict[str, BrokerCore] = {}
        self.brokers: Dict[str, Broker] = {}
        self.links: Set[Tuple[str, str]] = set()
        self.subscribers: Dict[str, SubscriberClient] = {}
        self.publishers: Dict[str, PublisherClient] = {}
        self._client_home: Dict[str, str] = {}
        self._tracers = []
        self._auditors = []
        #: Causal tracing (see :meth:`enable_tracing`); None keeps every
        #: hot path on the original zero-overhead branch.
        self.tracing: Optional[TraceRecorder] = None
        #: With queueing enabled a broker serialises its message
        #: processing: a message arriving while the broker is busy waits
        #: for the previous one to finish, so per-hop delays grow under
        #: load instead of overlapping for free.
        self.queueing = queueing
        self._busy_until: Dict[str, float] = {}
        #: Reliable transport + fault schedule (see install_faults);
        #: None keeps the original direct-delivery fast path.
        self._transport = None
        #: The client→edge frame still accepting publications (see
        #: :meth:`submit`); None once anything else was submitted or
        #: the frame arrived.
        self._open_group: Optional[_Group] = None
        self._down: Set[str] = set()
        self._crash_state: Dict[str, Optional[Dict]] = {}
        self._held_while_down: Dict[
            str,
            List[Tuple[Sequence[Message], object, int, Optional[Dict[int, Span]]]],
        ] = {}
        #: Live telemetry plane (see :meth:`enable_telemetry`); None
        #: keeps the original zero-overhead paths.
        self.telemetry = None
        #: Telemetry timer events currently in the simulator heap; the
        #: sampler parks itself when they are the only pending work so
        #: ``sim.run()`` still quiesces.
        self._telemetry_scheduled = 0
        self._telemetry_parked: Set[str] = set()
        #: In-progress message count per broker while queueing —
        #: the ``queue_depth`` gauge the sampler reads.
        self._queue_len: Dict[str, int] = {}
        #: Deterministic per-broker overload knob: extra processing
        #: seconds charged per message on top of ``processing_scale``.
        self.processing_delay: Dict[str, float] = {}
        if faults is not None:
            self.install_faults(faults)

    # -- fault injection ---------------------------------------------------

    @property
    def faults(self) -> Optional[FaultPlan]:
        return self._transport.plan if self._transport is not None else None

    @property
    def transport(self):
        """The installed :class:`~repro.network.reliable.ReliableTransport`
        (None while running fault-free)."""
        return self._transport

    def install_faults(self, plan: FaultPlan):
        """Route broker-to-broker traffic through the reliable transport,
        filtered by *plan*, and schedule its broker crash events.

        Returns the transport so callers can inspect its ``stats``.
        """
        from repro.network.reliable import ReliableTransport

        if self._transport is not None:
            raise TopologyError("a fault plan is already installed")
        self._transport = ReliableTransport(self, plan)
        for part in plan.partitions:
            if part.end >= self.sim.now and part.end != float("inf"):
                # Flight-recorder trigger: dump both endpoints' rings the
                # moment a partition heals (a no-op while tracing is off,
                # checked at fire time so enable order does not matter).
                self.sim.schedule(
                    part.end - self.sim.now,
                    lambda p=part: self._on_partition_heal(p),
                )
        for event in plan.crashes:
            if event.at < self.sim.now:
                raise TopologyError(
                    "crash of %r at %g lies in the past" % (event.broker_id, event.at)
                )
            self.sim.schedule(
                event.at - self.sim.now,
                lambda e=event: self.crash_broker(e.broker_id, e.with_state),
            )
            self.sim.schedule(
                event.restart_at - self.sim.now,
                lambda e=event: self.recover_broker(e.broker_id),
            )
        return self._transport

    def is_down(self, broker_id: object) -> bool:
        return broker_id in self._down

    def _on_partition_heal(self, partition):
        if self.tracing is not None:
            self.tracing.flight.dump(
                "partition-heal-%s-%s" % (partition.a, partition.b),
                brokers=[partition.a, partition.b],
                time=self.sim.now,
            )

    def crash_broker(self, broker_id: str, with_state: bool = True):
        """Kill a broker mid-run (requires an installed fault plan).

        With ``with_state`` its routing state is snapshotted (the
        persisted image a real process would have on disk) for
        :meth:`recover_broker` to replay.
        """
        if self._transport is None:
            raise TopologyError(
                "crash_broker needs a fault plan installed (install_faults)"
            )
        if broker_id not in self.brokers:
            raise TopologyError("unknown broker %r" % broker_id)
        if broker_id in self._down:
            raise TopologyError("broker %r is already down" % broker_id)
        from repro.broker.persistence import snapshot

        self._down.add(broker_id)
        self._crash_state[broker_id] = (
            snapshot(self.brokers[broker_id]) if with_state else None
        )
        self._busy_until.pop(broker_id, None)
        self._transport._count("crashes", "broker.crashes")
        if self.tracing is not None:
            # The black box: everything the overlay was doing in the
            # moments before the crash, with the victim's ring intact.
            self.tracing.flight.dump(
                "crash-%s" % broker_id, time=self.sim.now
            )

    def recover_broker(self, broker_id: str):
        """Bring a crashed broker back: replay its persisted snapshot
        (when taken), reset the channel epochs of its links, resend
        what the reset surfaced, replay messages its local clients
        submitted while it was down, and re-announce its stored
        advertisements to the neighbours (idempotent at the receivers:
        duplicate advertisements terminate at the SRT)."""
        if broker_id not in self._down:
            raise TopologyError("broker %r is not down" % broker_id)
        from repro.broker.persistence import restore

        state = self._crash_state.pop(broker_id)
        with_state = state is not None
        old = self.brokers[broker_id]
        if with_state:
            replacement = restore(state, universe=self.universe)
        else:
            replacement = Broker(
                broker_id=broker_id, config=self.config, universe=self.universe
            )
            for neighbor in old.neighbors:
                replacement.connect(neighbor)
            for client in old.local_clients:
                replacement.attach_client(client)
        self._rebind_broker(broker_id, replacement)
        self._down.discard(broker_id)
        self._transport.reset_links_of(broker_id, resend_outbox=with_state)
        for messages, from_hop, hops, parents in self._held_while_down.pop(
            broker_id, ()
        ):
            self.sim.schedule(
                0.0,
                lambda m=messages, f=from_hop, h=hops, p=parents:
                    self._broker_receive(broker_id, m, f, h, p),
            )
        if with_state:
            for entry in replacement.srt.entries():
                announce = AdvertiseMsg(
                    adv_id=entry.adv_id,
                    advert=entry.advert,
                    publisher_id=entry.publisher_id,
                )
                for neighbor in sorted(replacement.neighbors, key=str):
                    if neighbor != entry.last_hop:
                        self._transport.send(broker_id, neighbor, announce, 1)
        self._transport._count("recoveries", "broker.recoveries")
        for auditor in self._auditors:
            auditor.observe_recovery(broker_id, with_state)
        return replacement

    # -- construction -----------------------------------------------------

    def add_broker(self, broker_id: str) -> Broker:
        if broker_id in self.brokers:
            raise TopologyError("duplicate broker id %r" % broker_id)
        core = BrokerCore(
            broker_id=broker_id, config=self.config, universe=self.universe
        )
        self.cores[broker_id] = core
        self.brokers[broker_id] = core.broker
        if self.telemetry is not None:
            self._frames(
                broker_id, [core.enable_telemetry(self.telemetry.interval)]
            )
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

    @classmethod
    def binary_tree(
        cls,
        levels: int,
        config: Optional[RoutingConfig] = None,
        **kwargs,
    ) -> "Overlay":
        """A complete binary tree of brokers, as in the paper's traffic
        experiments: ``levels=3`` gives the 7-broker overlay, ``levels=7``
        the 127-broker one.  Brokers are named ``b1 .. bN`` with ``bi``
        linked to ``b(2i)`` and ``b(2i+1)``."""
        if levels < 1:
            raise TopologyError("a tree needs at least one level")
        overlay = cls(config=config, **kwargs)
        count = 2 ** levels - 1
        for i in range(1, count + 1):
            overlay.add_broker("b%d" % i)
        for i in range(1, count + 1):
            for child in (2 * i, 2 * i + 1):
                if child <= count:
                    overlay.connect("b%d" % i, "b%d" % child)
        return overlay

    def leaf_brokers(self):
        """Brokers with exactly one link (tree leaves)."""
        degree: Dict[str, int] = {b: 0 for b in self.brokers}
        for a, b in self.links:
            degree[a] += 1
            degree[b] += 1
        return sorted(b for b, d in degree.items() if d <= 1)

    # -- messaging ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def submit(self, client_id: str, message: Message):
        """A client hands a message to its edge broker (hop 0).

        Consecutive publications of one document cross the client-edge
        link as one frame — a *group*: a :class:`PublishMsg` joins the
        client's open group when it has the same ``doc_id`` and
        ``doc_size_bytes``, the clock has not moved and nothing else
        was submitted since.  Any other submit closes the group, so
        the link stays FIFO (PUB, SUB, PUB at one instant arrive in
        that order).  Whether tracing, an auditor or telemetry is
        attached never changes where a group ends.

        With tracing enabled the message is stamped with a fresh
        :class:`~repro.obs.tracing.TraceContext` (unless one already
        rides on it — a resubmission stays in its original trace) and a
        ``submit`` root span covering the client-edge link is recorded.
        """
        broker_id = self._client_home.get(client_id)
        if broker_id is None:
            raise RoutingError("unknown client %r" % client_id)
        self._poke_telemetry()
        tracing = self.tracing
        if tracing is not None and trace_of(message) is None:
            context = tracing.mint(message)
        else:
            context = None
        # the auditor observes *after* stamping so violation reports can
        # name the offending trace ids.
        for auditor in self._auditors:
            auditor.observe_submit(client_id, message)
        now = self.sim.now
        group = self._open_group
        if (
            group is not None
            and isinstance(message, PublishMsg)
            and group.client_id == client_id
            and group.doc_id == message.publication.doc_id
            and group.size == message.doc_size_bytes
            and group.at == now
        ):
            group.messages.append(message)
        else:
            latency = self.latency_model.latency(
                client_id, broker_id, _size_of(message)
            )
            group = self._open_group = _Group(client_id, message, now, latency)
            self.stats.record_frame()
            self.sim.schedule(
                latency, lambda: self._edge_receive(broker_id, group)
            )
        if context is not None:
            group.roots[message.msg_id] = tracing.record_root(
                context, client_id, message, now, group.latency
            )

    def _edge_receive(self, broker_id: str, group: "_Group"):
        """A client's frame reached its edge broker."""
        if self._open_group is group:
            self._open_group = None
        self._broker_receive(
            broker_id, group.messages, group.client_id, 1, group.roots
        )

    def attach_tracer(self, tracer):
        """Register a :class:`repro.network.trace.Tracer`; every broker
        message hop is offered to it."""
        self._tracers.append(tracer)
        if getattr(tracer, "registry", None) is None:
            tracer.registry = self.metrics
        return tracer

    def enable_tracing(
        self, recorder: Optional[TraceRecorder] = None, **kwargs
    ) -> TraceRecorder:
        """Turn on causal tracing: every subsequently submitted message
        is stamped with a trace context and every hop emits spans into
        *recorder* (a fresh :class:`~repro.obs.tracing.TraceRecorder`
        bound to this overlay's registry by default; extra keyword
        arguments — ``flight_dir``, ``flight_capacity``, ``max_spans`` —
        configure it).  Enable before submitting traffic or early
        deliveries will have no trace trees."""
        if recorder is None:
            recorder = TraceRecorder(registry=self.metrics, **kwargs)
        self.tracing = recorder
        return recorder

    def attach_auditor(self, auditor):
        """Register a :class:`repro.audit.AuditOracle`; it observes
        client submits, deliveries, and crash recoveries."""
        self._auditors.append(auditor)
        auditor.bind(self)
        return auditor

    def trigger_merge_sweep(self, broker_id: str):
        """Force an immediate merge sweep on one broker and forward the
        sweep's outbound control traffic (merger subscriptions plus
        constituent retractions) into the network."""
        if broker_id not in self.brokers:
            raise TopologyError("unknown broker %r" % broker_id)
        if broker_id not in self._down:
            self._on_broker_timer(broker_id, MERGE_SWEEP_TIMER)

    def _frames(
        self, broker_id: str, effects
    ) -> List[Tuple[object, Tuple[Message, ...], Optional[str]]]:
        """Interpret a core's effects under the simulator's execution
        model: sends and deliveries become ``(destination, messages,
        view)`` frames for :meth:`_forward` (which models the link) —
        *view* labels what a materialized view produced, "serve" or
        "replay", for spans and the audit oracle — timer requests land
        on the virtual clock, telemetry lands on the metrics registry."""
        frames: List[Tuple[object, Tuple[Message, ...], Optional[str]]] = []
        for effect in effects:
            if isinstance(effect, Send):
                frames.append((effect.destination, effect.messages, None))
            elif isinstance(effect, Deliver):
                frames.append((
                    effect.client_id, effect.messages,
                    "serve" if isinstance(effect, ViewServe) else None,
                ))
            elif isinstance(effect, Replay):
                # A view window replayed to a late subscriber travels
                # the broker→client link like any delivery (client-side
                # dedup makes the replay exactly-once).
                frames.append((effect.client_id, effect.messages, "replay"))
            elif isinstance(effect, TimerRequest):
                if effect.name == TELEMETRY_TIMER:
                    self._telemetry_scheduled += 1
                self.sim.schedule(
                    effect.delay,
                    lambda e=effect: self._on_broker_timer(broker_id, e.name),
                )
            elif isinstance(effect, Telemetry):
                if self.metrics.enabled:
                    self.metrics.counter(effect.name).inc(effect.value)
        return frames

    def _on_broker_timer(self, broker_id: str, name: str):
        if name == TELEMETRY_TIMER:
            self._on_telemetry_timer(broker_id)
            return
        if broker_id in self._down:
            return
        for destination, messages, view in self._frames(
            broker_id, self.cores[broker_id].on_timer(name)
        ):
            self._forward(broker_id, destination, messages, 0.0, 1, view=view)

    def _on_telemetry_timer(self, broker_id: str):
        """One sampling tick.  The sampler re-arms itself only while
        other (non-telemetry) events are pending — otherwise it parks
        and :meth:`submit` wakes it — so ``sim.run()`` still quiesces
        with telemetry enabled."""
        self._telemetry_scheduled -= 1
        plane = self.telemetry
        if plane is None:
            return
        if broker_id in self._down:
            # Dead brokers don't sample; park the timer so recovery's
            # next submission restarts it.
            self._telemetry_parked.add(broker_id)
            return
        core = self.cores[broker_id]
        if core.telemetry_interval is None:
            # The core was rebuilt on recovery; re-arm it in place.
            core.telemetry_interval = plane.interval
        effects = core.on_timer(TELEMETRY_TIMER)
        self._sample_broker(broker_id)
        if self.sim.pending() > self._telemetry_scheduled:
            self._frames(broker_id, effects)
        else:
            # Only telemetry timers remain: drop the re-arm request.
            self._frames(
                broker_id,
                [e for e in effects if not isinstance(e, TimerRequest)],
            )
            self._telemetry_parked.add(broker_id)

    def _sample_broker(self, broker_id: str):
        plane = self.telemetry
        now = self.sim.now
        plane.maybe_record_cluster(now)
        gauges = {
            "queue_depth": float(self._queue_len.get(broker_id, 0)),
            "queue_lag": max(
                0.0, self._busy_until.get(broker_id, 0.0) - now
            ),
            "audit_degraded": 1.0
            if any(
                getattr(a, "stateless_recoveries", None)
                for a in self._auditors
            )
            else 0.0,
        }
        gauges.update(broker_gauges(self.brokers[broker_id]))
        counters = {
            "handled": float(sum(self.brokers[broker_id].stats.values())),
        }
        plane.record(broker_id, now, gauges=gauges, counters=counters)

    def enable_telemetry(self, plane=None, interval: float = 0.05, **kwargs):
        """Turn on the live telemetry plane: every broker core arms a
        ``telemetry-sample`` timer on the virtual clock and each tick
        records queue depth/lag, matcher and view gauges, and handled
        deltas into *plane* (a fresh
        :class:`~repro.obs.telemetry.TelemetryPlane` bound to this
        overlay's registry by default; extra keyword arguments —
        ``rules``, ``ring_capacity``, ``clear_after`` — configure it).
        Health transitions dump the flight recorder when tracing is
        also enabled."""
        if self.telemetry is not None:
            return self.telemetry
        if plane is None:
            plane = TelemetryPlane(
                registry=self.metrics, interval=interval, **kwargs
            )
        self.telemetry = plane
        plane.add_transition_hook(self._on_health_transition)
        for broker_id in sorted(self.cores):
            self._frames(
                broker_id,
                [self.cores[broker_id].enable_telemetry(plane.interval)],
            )
        return plane

    def _on_health_transition(self, broker_id, previous, state, rule, sample):
        if self.tracing is not None:
            self.tracing.flight.dump(
                "health-%s-%s" % (broker_id, state), time=self.sim.now
            )

    def _poke_telemetry(self):
        """Re-arm parked telemetry timers — new work just arrived."""
        if self.telemetry is None or not self._telemetry_parked:
            return
        parked, self._telemetry_parked = self._telemetry_parked, set()
        for broker_id in sorted(parked):
            if broker_id in self._down:
                self._telemetry_parked.add(broker_id)
                continue
            self._frames(
                broker_id,
                [TimerRequest(TELEMETRY_TIMER, self.telemetry.interval)],
            )

    def transport_deliver(
        self, broker_id: str, message: Message, from_hop: object, hops: int,
        parent_span: Optional[Span] = None,
    ):
        """In-order, deduplicated delivery from the reliable transport
        (whose frames are groups of one)."""
        self._broker_receive(
            broker_id, (message,), from_hop, hops,
            None if parent_span is None else {message.msg_id: parent_span},
        )

    def link_latency(
        self, src: object, dst: object, message: Optional[Message]
    ) -> float:
        """Link delay for one frame (None models a small control frame)."""
        size = 64 if message is None else _size_of(message)
        return self.latency_model.latency(src, dst, size)

    def _broker_receive(
        self, broker_id: str, messages: Sequence[Message], from_hop: object,
        hops: int, parents: Optional[Dict[int, Span]] = None,
    ):
        """One frame reached a broker: a control message, or a group of
        publications (consecutive paths of one document).  The frame is
        one simulator event, one core call and one processing charge;
        traffic statistics, tracer records and spans stay per message.

        ``parents`` maps ``msg_id`` to the span that caused the message
        (tracing only).  Every message keeps its own ``hop`` span over
        the group's window; the broker re-points the hop scope per
        message, so ``match`` sub-spans stay attributable.
        """
        if self._down and broker_id in self._down:
            # A directly-scheduled frame (client edge) reached a dead
            # broker: hold it and replay on recovery, as a reconnecting
            # client library would.
            self._held_while_down.setdefault(broker_id, []).append(
                (messages, from_hop, hops, parents)
            )
            self._transport._count(
                "held_while_down", "network.faults.held", len(messages)
            )
            return
        first = messages[0]
        count = len(messages)
        now = self.sim.now
        self.stats.record_broker_message(broker_id, first.kind, count)
        if self._tracers:
            for message in messages:
                for tracer in self._tracers:
                    tracer.record(now, broker_id, message, from_hop)
        tracing = self.tracing
        hop_spans = sole = scope = None
        if tracing is not None:
            hop_spans = self._hop_spans(broker_id, messages, from_hop, parents)
        if hop_spans:
            first_span = next(iter(hop_spans.values()))
            scope = tracing.push_hop(
                first_span, self.processing_scale, hop_spans
            )
            if count == 1:
                sole = first_span
        core = self.cores[broker_id]
        started = time.perf_counter()
        try:
            if isinstance(first, PublishMsg):
                effects = core.on_publications(messages, from_hop)
            else:
                effects = core.on_message(first, from_hop)
            frames = self._frames(broker_id, effects)
        finally:
            if scope is not None:
                tracing.pop_hop(scope)
        elapsed = time.perf_counter() - started
        metrics = self.metrics
        if metrics.enabled:
            metrics.histogram("network.dispatch").record(elapsed)
            metrics.counter("network.dispatch.outbound").inc(
                sum(len(frame[1]) for frame in frames)
            )
        processing, waited = self._charge_processing(
            broker_id, elapsed, count
        )
        if hop_spans:
            for hop_span in hop_spans.values():
                hop_span.end = now + processing
                if waited > 0.0:
                    tracing.span(
                        hop_span.trace_id, hop_span.span_id, "queue.wait",
                        broker_id, now, now + waited,
                    )
            # What a lone message's handler originated — merger
            # subscriptions, covering retractions, replays — joins the
            # trace that caused it; messages already carrying a context
            # keep theirs.  (A group only ever forwards its members.)
            for _destination, out_messages, _view in frames:
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
        for destination, out_messages, view in frames:
            self._forward(
                broker_id, destination, out_messages, processing, hops,
                hop_spans, view,
            )

    def _hop_spans(
        self, broker_id: str, messages: Sequence[Message], from_hop: object,
        parents: Optional[Dict[int, Span]],
    ) -> Dict[int, Span]:
        """Open the ``hop`` span of every traced message of an arriving
        frame (``msg_id`` → span); the caller closes them once the
        frame's processing charge is known."""
        now = self.sim.now
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

    def _charge_processing(
        self, broker_id: str, elapsed: float, count: int = 1
    ) -> Tuple[float, float]:
        """Turn measured handler wall time into the virtual-clock delay
        charged to this broker's outbound frames (queueing makes the
        charge include time spent waiting for the broker to go idle).
        A frame is charged once; *count* is how many messages it
        carried — the per-message ``processing_delay`` and the backlog
        the telemetry sampler reads both scale with it.

        Returns ``(processing, waited)`` — the total charge and the
        queue-wait portion of it (0 without queueing), so tracing can
        emit ``queue.wait`` spans.
        """
        processing = elapsed * self.processing_scale
        if self.processing_delay:
            processing += self.processing_delay.get(broker_id, 0.0) * count
        waited = 0.0
        if self.queueing:
            queued_from = max(
                self.sim.now, self._busy_until.get(broker_id, 0.0)
            )
            finish = queued_from + processing
            self._busy_until[broker_id] = finish
            processing = finish - self.sim.now
            waited = queued_from - self.sim.now
            if self.metrics.enabled:
                self.metrics.histogram("network.queue_wait").record(waited)
            if self.telemetry is not None:
                # Track the instantaneous backlog for the sampler:
                # *count* messages in progress from now until the
                # frame's finish time.
                self._queue_len[broker_id] = (
                    self._queue_len.get(broker_id, 0) + count
                )
                self.sim.schedule(
                    processing,
                    lambda b=broker_id: self._queue_len.__setitem__(
                        b, self._queue_len[b] - count
                    ),
                )
        return processing, waited

    def _forward(
        self,
        src_broker: str,
        destination: object,
        messages: Sequence[Message],
        processing: float,
        hops: int,
        hop_spans: Optional[Dict[int, Span]] = None,
        view: Optional[str] = None,
    ):
        """Put one outbound frame on its link: one latency draw (at the
        frame's largest document size) and one simulator event per
        frame, one ``forward`` span per message.  With a fault plan
        installed broker-bound frames are handed to the reliable
        transport one message each — its sequence numbers,
        acknowledgements and dedup are per message."""
        tracing = self.tracing
        to_broker = destination in self.brokers
        if not to_broker and destination not in self.subscribers:
            raise RoutingError(
                "broker %r emitted message to unknown destination %r"
                % (src_broker, destination)
            )
        start = self.sim.now + processing
        if to_broker and self._transport is not None:
            for message in messages:
                # Point span: the link time (and any retransmission
                # backoff) belongs to the transport, whose delays
                # appear as gaps — never overlaps — in the chain.
                fwd = (
                    self._forward_span(
                        src_broker, destination, message, hop_spans,
                        start, start, transport=True,
                    )
                    if tracing is not None
                    else None
                )
                self.stats.record_frame()
                self._transport.send(
                    src_broker, destination, message, hops + 1,
                    first_delay=processing, parent_span=fwd,
                )
            return
        if view == "replay":
            # a replayed window mixes documents: the frame arrives when
            # its largest member would.
            size = max(map(_size_of, messages))
        else:
            # a group shares one doc_size_bytes (submit's join rule).
            size = _size_of(messages[0])
        latency = self.latency_model.latency(src_broker, destination, size)
        parents: Optional[Dict[int, Span]] = None
        if tracing is not None:
            attrs = {} if view is None else {"view": view}
            if len(messages) > 1:
                attrs["group"] = len(messages)
            parents = {}
            for message in messages:
                fwd = self._forward_span(
                    src_broker, destination, message, hop_spans,
                    start, start + latency, **attrs,
                )
                if fwd is not None:
                    parents[message.msg_id] = fwd
        self.stats.record_frame()
        if to_broker:
            self.sim.schedule(
                processing + latency,
                lambda: self._broker_receive(
                    destination, messages, src_broker, hops + 1, parents
                ),
            )
        else:
            self.sim.schedule(
                processing + latency,
                lambda: self._client_receive(
                    destination, messages, hops, parents, view
                ),
            )

    def _forward_span(
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

    def _client_receive(
        self, client_id: str, messages: Sequence[Message], hops: int,
        parents: Optional[Dict[int, Span]] = None,
        view: Optional[str] = None,
    ):
        """One frame reached a subscriber.  *view* is "serve"/"replay"
        when a materialized view produced it (labels the spans and the
        audit observations).  Dedup, delivery records, spans and audit
        observations are per message."""
        self.stats.record_client_message(len(messages))
        client = self.subscribers[client_id]
        tracing = self.tracing
        now = self.sim.now
        for message in messages:
            fresh = client.receive(message, hops)
            if tracing is not None:
                context = trace_of(message)
                if context is not None:
                    attrs = {
                        "subscriber": client_id,
                        "fresh": fresh,
                        "hops": hops,
                    }
                    if view is not None:
                        attrs["view"] = view
                    publication = getattr(message, "publication", None)
                    if publication is not None:
                        attrs["doc"] = publication.doc_id
                        attrs["path_id"] = publication.path_id
                    tracing.span(
                        context.trace_id,
                        _parent_id(
                            parents.get(message.msg_id) if parents else None,
                            context,
                        ),
                        "deliver" if fresh else "dropped.duplicate",
                        client_id, now, now, **attrs,
                    )
            if fresh and isinstance(message, PublishMsg):
                for auditor in self._auditors:
                    if view is not None:
                        auditor.observe_delivery(client_id, message, view=view)
                    else:
                        auditor.observe_delivery(client_id, message)
                # duplicates (client.receive returned False) never reach
                # the delivery statistics: redelivered publications
                # count once.
                self.stats.record_delivery(
                    DeliveryRecord(
                        subscriber_id=client_id,
                        doc_id=message.publication.doc_id,
                        path_id=message.publication.path_id,
                        issued_at=message.issued_at,
                        delivered_at=now,
                        hops=hops,
                    )
                )
                if self.telemetry is not None:
                    self.telemetry.note_delivery(
                        self._client_home.get(client_id),
                        now - message.issued_at,
                    )

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain all pending traffic; returns processed event count."""
        return self.sim.run(max_events=max_events)

    # -- reporting ----------------------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, object]:
        """One document with traffic, delay and hot-path timing.

        ``self.metrics.snapshot()`` already carries everything recorded
        while the registry was enabled; this helper additionally folds
        in the :class:`NetworkStats` summary (always collected, even
        with metrics off) and per-broker routing-table gauges.
        """
        for broker_id, broker in self.brokers.items():
            self.metrics.gauge("broker.%s.routing_table" % broker_id).set(
                broker.routing_table_size()
            )
        # hits/misses/stale are hot-path counters (Broker records them
        # per publication); size and evictions are only knowable from
        # the cache objects, so they are folded in here as gauges.
        self.metrics.gauge("broker.match_cache.size").set(
            sum(len(b.match_cache) for b in self.brokers.values())
        )
        self.metrics.gauge("broker.match_cache.evictions").set(
            sum(b.match_cache.evictions for b in self.brokers.values())
        )
        serves = misses = live = retained = 0
        views_on = False
        for broker in self.brokers.values():
            manager = broker.views
            if manager is None:
                continue
            views_on = True
            serves += manager.serves
            misses += manager.misses
            live += len(manager.views)
            retained += sum(len(v.window) for v in manager.views.values())
        if views_on:
            total = serves + misses
            self.metrics.gauge("views.hit_ratio").set(
                (serves / total) if total else 0.0
            )
            self.metrics.gauge("views.live").set(live)
            self.metrics.gauge("views.retained").set(retained)
        document = self.metrics.snapshot()
        document["network"] = self.stats.summary()
        if self._transport is not None:
            document["transport"] = dict(self._transport.stats)
            document["faults"] = self._transport.plan.describe()
        return document

    def routing_table_sizes(self) -> Dict[str, int]:
        return {
            broker_id: broker.routing_table_size()
            for broker_id, broker in self.brokers.items()
        }

    def restart_broker(self, broker_id: str, with_state: bool = True):
        """Replace a broker in place, as after a process restart.

        With ``with_state`` the new instance is rebuilt from a snapshot
        (see :mod:`repro.broker.persistence`) and routing continues
        unaffected; without it the broker comes back empty — the
        degraded behaviour the persistence layer exists to avoid.
        """
        from repro.broker.persistence import restore, snapshot

        old = self.brokers.get(broker_id)
        if old is None:
            raise TopologyError("unknown broker %r" % broker_id)
        if with_state:
            replacement = restore(snapshot(old), universe=self.universe)
        else:
            replacement = Broker(
                broker_id=broker_id,
                config=self.config,
                universe=self.universe,
            )
            for neighbor in old.neighbors:
                replacement.connect(neighbor)
            for client in old.local_clients:
                replacement.attach_client(client)
        self._rebind_broker(broker_id, replacement)
        return replacement

    def _rebind_broker(self, broker_id: str, replacement: Broker):
        """Swap in a restored/replacement broker, re-wrapping its core."""
        self.cores[broker_id] = BrokerCore(broker=replacement)
        self.brokers[broker_id] = replacement

    def describe(self) -> Dict[str, object]:
        """Topology plus per-broker summaries (CLI / debugging)."""
        return {
            "strategy": self.config.name,
            "brokers": len(self.brokers),
            "links": sorted("%s-%s" % link for link in self.links),
            "subscribers": sorted(self.subscribers),
            "publishers": sorted(self.publishers),
            "stats": self.stats.summary(),
            "per_broker": {
                broker_id: broker.describe()
                for broker_id, broker in sorted(self.brokers.items())
            },
        }

    def delivered_map(self) -> Dict[str, Set[str]]:
        """subscriber id -> set of delivered document ids (the delivery
        -equivalence invariant compares these across strategies)."""
        return {
            client_id: client.delivered_documents()
            for client_id, client in self.subscribers.items()
        }


class _Group:
    """A client→edge frame in flight: one control message, or the
    publications of one document submitted back to back (see
    :meth:`Overlay.submit`)."""

    __slots__ = (
        "client_id", "doc_id", "size", "at", "latency", "messages", "roots",
    )

    def __init__(
        self, client_id: str, message: Message, at: float, latency: float
    ):
        self.client_id = client_id
        #: What a later publication must share to join; both None for
        #: a control message, which nothing ever joins.
        publication = getattr(message, "publication", None)
        self.doc_id = None if publication is None else publication.doc_id
        self.size = getattr(message, "doc_size_bytes", None)
        self.at = at
        self.latency = latency
        self.messages: List[Message] = [message]
        #: ``msg_id`` → ``submit`` root span of every traced message.
        self.roots: Dict[int, Span] = {}


def _parent_id(parent: Optional[Span], context: TraceContext) -> str:
    """The parent span id for a new span of *context*'s trace: the
    causing span when it belongs to the same trace, else the trace's
    own root (e.g. a stored subscription re-emitted while handling an
    advertisement parents back to its original submit, not into the
    advertisement's trace)."""
    if parent is not None and parent.trace_id == context.trace_id:
        return parent.span_id
    return context.span_id


def _size_of(message: Message) -> int:
    if isinstance(message, PublishMsg):
        return max(message.doc_size_bytes, 64)
    return 64  # control messages are small and size-invariant
