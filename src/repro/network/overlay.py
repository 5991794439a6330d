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

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.broker.broker import Broker
from repro.broker.core import BrokerCore
from repro.broker.messages import AdvertiseMsg, Message, PublishMsg
from repro.broker.strategies import RoutingConfig
from repro.errors import TopologyError
from repro.merging.engine import PathUniverse
from repro.network.faults import FaultPlan
from repro.network.latency import ClusterLatency, LatencyModel
from repro.network.simulator import Simulator
from repro.obs import MetricsRegistry
from repro.obs.tracing import Span
from repro.runtime.host import Group, HostKernel
from repro.views import record_gauges as record_view_gauges


class Overlay(HostKernel):
    """A network of content-based XML routers: the discrete-event
    backend of :class:`~repro.runtime.host.HostKernel`.  The kernel
    owns the topology, the observers and what a frame means; this class
    supplies the virtual clock, link latency, the processing charge
    (with optional queueing), the telemetry cadence and fault injection.

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
        super().__init__(config, universe, metrics)
        self.latency_model = (
            latency_model if latency_model is not None else ClusterLatency()
        )
        self.processing_scale = processing_scale
        self.sim = Simulator()
        #: With queueing enabled a broker serialises its message
        #: processing: a message arriving while the broker is busy waits
        #: for the previous one to finish, so per-hop delays grow under
        #: load instead of overlapping for free.
        self.queueing = queueing
        self._busy_until: Dict[str, float] = {}
        #: Reliable transport + fault schedule (see install_faults);
        #: None keeps the original direct-delivery fast path.
        self._transport = None
        self._down: Set[str] = set()
        self._crash_state: Dict[str, Optional[Dict]] = {}
        self._held_while_down: Dict[
            str,
            List[Tuple[Sequence[Message], object, int, Optional[Dict[int, Span]]]],
        ] = {}
        #: Telemetry sampling events currently in the simulator heap;
        #: the sampler parks itself when they are the only pending work
        #: so ``sim.run()`` still quiesces.
        self._telemetry_scheduled = 0
        self._telemetry_parked: Set[str] = set()
        #: Per broker while queueing with telemetry on, ``(finish,
        #: count)`` of every frame charged, in finish order (a broker's
        #: finish times only grow under queueing).  The sampler expires
        #: what finished and reads the rest as ``queue_depth``.
        self._backlog: Dict[str, Deque[Tuple[float, int]]] = {}
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
                    part.end - self.sim.now, self._on_partition_heal, part
                )
        for event in plan.crashes:
            if event.at < self.sim.now:
                raise TopologyError(
                    "crash of %r at %g lies in the past" % (event.broker_id, event.at)
                )
            self.sim.schedule(
                event.at - self.sim.now,
                self.crash_broker, event.broker_id, event.with_state,
            )
            self.sim.schedule(
                event.restart_at - self.sim.now,
                self.recover_broker, event.broker_id,
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
        self._backlog.pop(broker_id, None)
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
        state = self._crash_state.pop(broker_id)
        with_state = state is not None
        replacement = self._rebind_broker(broker_id, state)
        self._down.discard(broker_id)
        self._transport.reset_links_of(broker_id, resend_outbox=with_state)
        for messages, from_hop, hops, parents in self._held_while_down.pop(
            broker_id, ()
        ):
            self.sim.schedule(
                0.0, self._broker_receive,
                broker_id, messages, from_hop, hops, parents,
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
        broker = super().add_broker(broker_id)
        if self.telemetry is not None:
            self._arm_sampler(broker_id)
        return broker

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
        link as one frame — a *group*, formed by the kernel's join rule
        (:meth:`HostKernel.join`).  Here a group stays open while the
        clock has not moved and its frame has not reached the edge
        broker.

        With tracing enabled the message is stamped with a fresh
        :class:`~repro.obs.tracing.TraceContext` (unless one already
        rides on it — a resubmission stays in its original trace) and a
        ``submit`` root span covering the client-edge link is recorded.
        """
        broker_id, context = self.admit(client_id, message)
        self._poke_telemetry()
        now = self.sim.now
        group = self._open_group
        if group is not None and group.at != now:
            self.close_group()
        group, opened = self.join(client_id, message)
        if opened:
            group.at = now
            group.latency = self.latency_model.latency(
                client_id, broker_id, _size_of(message)
            )
            self.stats.record_frame()
            self.sim.schedule(
                group.latency, self._edge_receive, broker_id, group
            )
        if context is not None:
            group.roots[message.msg_id] = self.tracing.record_root(
                context, client_id, message, now, group.latency
            )

    def _edge_receive(self, broker_id: str, group: Group):
        """A client's frame reached its edge broker."""
        self.close_group(group.messages)
        self._broker_receive(
            broker_id, group.messages, group.client_id, 1, group.roots
        )

    def trigger_merge_sweep(self, broker_id: str):
        """Force an immediate merge sweep on one broker and forward the
        sweep's outbound control traffic (merger subscriptions plus
        constituent retractions) into the network."""
        self.close_group()
        if broker_id in self._down:
            return
        for destination, messages, view in self.sweep(broker_id):
            self._forward(broker_id, destination, messages, 0.0, 1, view=view)

    # -- telemetry cadence -------------------------------------------------

    def enable_telemetry(self, plane=None, interval: float = 0.05, **kwargs):
        """See :meth:`HostKernel.enable_telemetry`.  Here every broker
        gets a recurring sampling event on the virtual clock; each tick
        records queue depth/lag beside the kernel's gauges."""
        if self.telemetry is None:
            super().enable_telemetry(plane, interval, **kwargs)
            for broker_id in sorted(self.cores):
                self._arm_sampler(broker_id)
        return self.telemetry

    def _arm_sampler(self, broker_id: str):
        self._telemetry_scheduled += 1
        self.sim.schedule(
            self.telemetry.interval, self._on_telemetry_timer, broker_id
        )

    def _on_telemetry_timer(self, broker_id: str):
        """One sampling tick.  The sampler re-arms itself only while
        other (non-telemetry) events are pending — otherwise it parks
        and :meth:`submit` wakes it — so ``sim.run()`` still quiesces
        with telemetry enabled."""
        self._telemetry_scheduled -= 1
        if broker_id in self._down:
            # Dead brokers don't sample; park the timer so recovery's
            # next submission restarts it.
            self._telemetry_parked.add(broker_id)
            return
        now = self.sim.now
        self.sample(broker_id, now, {
            "queue_depth": float(self._queue_depth(broker_id, now)),
            "queue_lag": max(
                0.0, self._busy_until.get(broker_id, 0.0) - now
            ),
        })
        if self.sim.pending() > self._telemetry_scheduled:
            self._arm_sampler(broker_id)
        else:
            self._telemetry_parked.add(broker_id)

    def _queue_depth(self, broker_id: str, now: float) -> int:
        """Messages still in progress at *broker_id*: the backlog's
        frames that finish after *now* (those that did are dropped)."""
        backlog = self._backlog.get(broker_id, ())
        while backlog and backlog[0][0] <= now:
            backlog.popleft()
        return sum(count for _finish, count in backlog)

    def _poke_telemetry(self):
        """Re-arm parked telemetry timers — new work just arrived."""
        if self.telemetry is None or not self._telemetry_parked:
            return
        parked, self._telemetry_parked = self._telemetry_parked, set()
        for broker_id in sorted(parked):
            if broker_id in self._down:
                self._telemetry_parked.add(broker_id)
            else:
                self._arm_sampler(broker_id)

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
        """One frame reached a broker (see :meth:`HostKernel.dispatch`):
        here it is one simulator event and one processing charge, which
        closes the frame's ``hop`` spans and delays what it sends."""
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
        now = self.sim.now
        frames, hop_spans, elapsed = self.dispatch(
            broker_id, messages, from_hop, now, parents
        )
        processing, waited = self._charge_processing(
            broker_id, elapsed, len(messages)
        )
        if hop_spans:
            for hop_span in hop_spans.values():
                hop_span.end = now + processing
                if waited > 0.0:
                    self.tracing.span(
                        hop_span.trace_id, hop_span.span_id, "queue.wait",
                        broker_id, now, now + waited,
                    )
        for destination, out_messages, view in frames:
            self._forward(
                broker_id, destination, out_messages, processing, hops,
                hop_spans, view,
            )

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
                # *count* messages in progress from now until the
                # frame's finish time, read at sample time.
                self._backlog.setdefault(broker_id, deque()).append(
                    (finish, count)
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
        # The core named a neighbour or an attached client: no check.
        to_broker = destination in self.brokers
        start = self.sim.now + processing
        if to_broker and self._transport is not None:
            for message in messages:
                # Point span: the link time (and any retransmission
                # backoff) belongs to the transport, whose delays
                # appear as gaps — never overlaps — in the chain.
                fwd = (
                    self.forward_span(
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
            # a group shares one doc_size_bytes (the kernel's join rule).
            size = _size_of(messages[0])
        latency = self.latency_model.latency(src_broker, destination, size)
        parents: Optional[Dict[int, Span]] = None
        if tracing is not None:
            attrs = {"group": len(messages)} if len(messages) > 1 else {}
            parents = {}
            for message in messages:
                fwd = self.forward_span(
                    src_broker, destination, message, hop_spans,
                    start, start + latency, view, **attrs,
                )
                if fwd is not None:
                    parents[message.msg_id] = fwd
        self.stats.record_frame()
        if to_broker:
            self.sim.schedule(
                processing + latency, self._broker_receive,
                destination, messages, src_broker, hops + 1, parents,
            )
        else:
            self.sim.schedule(
                processing + latency, self._client_receive,
                destination, messages, hops, parents, view,
            )

    def _client_receive(
        self, client_id: str, messages: Sequence[Message], hops: int,
        parents: Optional[Dict[int, Span]], view: Optional[str],
    ):
        """A broker's frame reached a subscriber, now."""
        self.receive(client_id, messages, hops, self.sim.now, parents, view)

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
        record_view_gauges(self.metrics, self.brokers.values())
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
        from repro.broker.persistence import snapshot

        old = self.brokers.get(broker_id)
        if old is None:
            raise TopologyError("unknown broker %r" % broker_id)
        return self._rebind_broker(
            broker_id, snapshot(old) if with_state else None
        )

    def _rebind_broker(self, broker_id: str, state: Optional[Dict]) -> Broker:
        """Swap in the broker a restart leaves behind — restored from
        the snapshot *state*, or (None) empty but for its wiring — and
        re-wrap its core."""
        from repro.broker.persistence import restore

        old = self.brokers[broker_id]
        if state is not None:
            replacement = restore(state, universe=self.universe)
        else:
            replacement = Broker(
                broker_id=broker_id, config=self.config, universe=self.universe
            )
            for neighbor in old.neighbors:
                replacement.connect(neighbor)
            for client in old.local_clients:
                replacement.attach_client(client)
        self.cores[broker_id] = BrokerCore(broker=replacement)
        self.brokers[broker_id] = replacement
        return replacement

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


def _size_of(message: Message) -> int:
    if isinstance(message, PublishMsg):
        return max(message.doc_size_bytes, 64)
    return 64  # control messages are small and size-invariant
