"""Reliable delivery over faulty links.

:class:`Channel` is the protocol, as a sans-IO state machine — no
clock, no scheduler, no socket:

* a link direction carries sequence-numbered data frames and
  **cumulative** acknowledgements;
* unacknowledged frames are **retransmitted** after a timeout that
  backs off exponentially (capped), so drops, partitions and crashed
  receivers are survived;
* the receiver **suppresses duplicates** and releases strictly
  **in order** (out-of-order frames are buffered until the gap fills),
  so reordered and duplicated transmissions never reach a broker
  twice or early;
* acknowledgements are cumulative over *released* frames only, so a
  crash cannot lose frames that were buffered but never handed to the
  broker — the peer still holds them unacknowledged and resends them
  on the post-recovery channel epoch.

Together with idempotent broker handlers and crash recovery from
persisted snapshots this gives at-least-once transmission with
effectively exactly-once routing-state updates.

Two drivers run the machine.  :class:`ReliableTransport` (below) is the
simulator's: with a :class:`~repro.network.faults.FaultPlan` installed,
every broker-to-broker hop of an :class:`~repro.network.overlay.Overlay`
travels through it instead of being scheduled directly — frames are
plain Python objects, timers are simulator events, loss is the plan's.
``repro.network.sockets._Connection`` is the TCP one: frames are
:mod:`repro.network.wire` lines, timers a polling thread.

Traffic accounting note: :class:`~repro.network.stats.NetworkStats`
keeps counting *application* messages received by brokers (the paper's
Tables 2–3 metric), which the transport deduplicates.  Physical frame
counts, retransmissions and fault events are reported separately under
``network.transport.*`` / ``network.faults.*`` / ``broker.*`` metrics
and in :attr:`ReliableTransport.stats`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.broker.messages import Message
from repro.network.faults import FaultDecision, FaultPlan
from repro.obs.tracing import Span, _parent_id, trace_of


class Channel:
    """One link's reliability state machine.

    The sender half (sequence allocation, unacked frames, attempts —
    :meth:`push` / :meth:`retry` / :meth:`acked`) and the receiver half
    (next expected sequence, out-of-order buffer — :meth:`accept` /
    :attr:`ack`) share no field.  The simulator keeps both ends of one
    *directed* link in one object; a socket connection keeps its own
    sending half and the receiving half of the opposite direction in
    one.  Payloads are opaque: whatever the driver needs back when a
    frame is retransmitted or released.

    ``epoch`` guards against frames and acknowledgements from before a
    :meth:`reset` (broker restart): the driver tags what it puts in
    flight with the epoch and discards stale arrivals.

    Args:
        rto: initial retransmission timeout, in the driver's seconds.
        rto_cap: the timeout doubles per retransmission up to this.
        max_attempts: transmissions per frame before it is abandoned.
        src, dst: labels for the driver; the machine never reads them.
    """

    __slots__ = (
        "src", "dst", "rto", "rto_cap", "max_attempts", "epoch",
        "next_seq", "unacked", "attempts", "expected", "buffer",
    )

    def __init__(
        self, rto: float, rto_cap: float, max_attempts: int,
        src: object = None, dst: object = None,
    ):
        self.src = src
        self.dst = dst
        self.rto = rto
        self.rto_cap = rto_cap
        self.max_attempts = max_attempts
        self.epoch = 0
        self.next_seq = 0
        #: seq -> payload awaiting cumulative acknowledgement.
        self.unacked: Dict[int, object] = {}
        #: seq -> transmissions so far (the first one included).
        self.attempts: Dict[int, int] = {}
        self.expected = 0
        self.buffer: Dict[int, object] = {}

    # -- sender half -------------------------------------------------------

    def push(self, payload: object) -> int:
        """Take a frame for its first transmission; returns its
        sequence number.  The driver transmits it and arms a timer of
        :attr:`rto`."""
        seq = self.next_seq
        self.next_seq += 1
        self.unacked[seq] = payload
        self.attempts[seq] = 1
        return seq

    def retry(self, seq: int) -> Optional[float]:
        """The timer of the still-unacked frame *seq* fired.  Returns
        the timeout to arm after retransmitting it — doubled per
        attempt, capped — or None when its attempts are used up: the
        frame is abandoned (forgotten here; the driver counts it)."""
        attempts = self.attempts[seq]
        if attempts >= self.max_attempts:
            del self.unacked[seq]
            del self.attempts[seq]
            return None
        self.attempts[seq] = attempts + 1
        return min(self.rto * 2.0 ** attempts, self.rto_cap)

    def acked(self, ack: int):
        """A cumulative acknowledgement arrived: everything numbered
        *ack* or lower was released at the far end."""
        for seq in [s for s in self.unacked if s <= ack]:
            del self.unacked[seq]
            del self.attempts[seq]

    # -- receiver half -----------------------------------------------------

    def accept(self, seq: int, payload: object) -> Optional[List[object]]:
        """A data frame arrived.  Returns None for a duplicate (already
        released, or already waiting in the buffer); otherwise the
        payloads that are now releasable in sequence order — empty
        while a gap before *seq* is still open."""
        if seq < self.expected or seq in self.buffer:
            return None
        self.buffer[seq] = payload
        ready = []
        while self.expected in self.buffer:
            ready.append(self.buffer.pop(self.expected))
            self.expected += 1
        return ready

    @property
    def ack(self) -> int:
        """The cumulative acknowledgement to send: the last sequence
        number released in order (-1 before the first)."""
        return self.expected - 1

    def reset(self) -> List[object]:
        """Start a new epoch, returning the unacked payloads in sequence
        order (the caller decides whether to resend them)."""
        pending = [self.unacked[seq] for seq in sorted(self.unacked)]
        self.epoch += 1
        self.next_seq = 0
        self.unacked = {}
        self.attempts = {}
        self.expected = 0
        self.buffer = {}
        return pending


class ReliableTransport:
    """The simulator's driver of :class:`Channel`: one channel per
    directed link, timers as simulator events, every physical
    transmission filtered through the fault plan, spans and counters.

    Args:
        overlay: the owning :class:`~repro.network.overlay.Overlay`.
        plan: the fault schedule every transmission is filtered through.
        max_attempts: per-frame transmission cap; a frame still unacked
            after this many sends is abandoned (counted, never silently)
            so a permanently dead peer cannot spin the simulator
            forever.
    """

    #: retransmission timeouts back off exponentially up to this
    #: multiple of the plan's initial rto.
    RTO_CAP_FACTOR = 64.0

    def __init__(self, overlay, plan: FaultPlan, max_attempts: int = 50):
        self.overlay = overlay
        self.plan = plan
        self.max_attempts = max_attempts
        self.channels: Dict[Tuple[object, object], Channel] = {}
        #: physical transmissions so far per link direction — the index
        #: fed to :meth:`FaultPlan.decide`, shared by data and ack
        #: frames so the fault schedule of a direction is one stream.
        self._tx_index: Dict[Tuple[object, object], int] = defaultdict(int)
        self.stats: Dict[str, int] = defaultdict(int)

    # -- bookkeeping -------------------------------------------------------

    def channel(self, src: object, dst: object) -> Channel:
        channel = self.channels.get((src, dst))
        if channel is None:
            channel = self.channels[(src, dst)] = Channel(
                self.plan.rto, self.plan.rto * self.RTO_CAP_FACTOR,
                self.max_attempts, src, dst,
            )
        return channel

    def _count(self, stat: str, metric: str, amount: int = 1):
        self.stats[stat] += amount
        metrics = self.overlay.metrics
        if metrics.enabled:
            metrics.counter(metric).inc(amount)

    def _decide(self, src: object, dst: object) -> Optional[FaultDecision]:
        """Draw the plan's decision for one physical transmission on
        the src→dst direction; None when the frame is lost to it."""
        index = self._tx_index[(src, dst)]
        self._tx_index[(src, dst)] = index + 1
        decision = self.plan.decide(src, dst, index, self.overlay.sim.now)
        if decision.partitioned:
            self._count("partitioned", "network.faults.partitioned")
            return None
        if decision.dropped:
            self._count("dropped", "network.faults.dropped")
            return None
        return decision

    # -- sending -----------------------------------------------------------

    def send(
        self, src: object, dst: object, message: Message, hops: int,
        first_delay: float = 0.0, parent_span: Optional[Span] = None,
    ):
        """Reliably deliver *message* over the src→dst link.

        ``hops`` is the hop count the receiver should observe;
        ``first_delay`` models sender-side processing before the first
        transmission (retransmissions skip it).  ``parent_span`` is the
        causing span (the overlay's ``forward``) — every transmission
        of the frame, retransmissions and post-crash resends included,
        stays under it, in the message's original trace.
        """
        channel = self.channel(src, dst)
        seq = channel.push((message, hops, parent_span))
        self._count("sent", "network.transport.sent")
        self._transmit(channel, seq, extra=first_delay)
        self._schedule_retransmit(
            channel, seq, channel.epoch, first_delay + channel.rto
        )

    def _transmit(self, channel: Channel, seq: int, extra: float = 0.0):
        self._count("frames", "network.transport.frames")
        decision = self._decide(channel.src, channel.dst)
        if decision is None:
            return
        if decision.copies > 1:
            self._count("duplicated", "network.faults.duplicated")
        if decision.reordered:
            self._count("reordered", "network.faults.reordered")
        payload = channel.unacked[seq]
        latency = self.overlay.link_latency(
            channel.src, channel.dst, payload[0]
        )
        epoch = channel.epoch
        for copy in range(decision.copies):
            # the duplicate trails the original by a hair so "arrives
            # twice" and "arrives out of order" stay distinct faults.
            delay = extra + latency + decision.extra_delay + copy * 1e-9
            self.overlay.sim.schedule(
                delay, self._deliver_data, channel, epoch, seq, payload
            )

    def _schedule_retransmit(
        self, channel: Channel, seq: int, epoch: int, delay: float
    ):
        self.overlay.sim.schedule(
            delay, self._retransmit_check, channel, epoch, seq
        )

    def _retransmit_check(self, channel: Channel, epoch: int, seq: int):
        if epoch != channel.epoch or seq not in channel.unacked:
            return  # acknowledged, or superseded by a channel reset
        if self.overlay.is_down(channel.src):
            return  # sender died; recovery resends its outbox
        attempt = channel.attempts[seq]
        rto = channel.retry(seq)
        if rto is None:
            self._count("abandoned", "network.transport.abandoned")
            return
        self._count("retransmits", "broker.retransmits")
        message, _hops, parent_span = channel.unacked[seq]
        tracing = self.overlay.tracing
        if tracing is not None:
            context = trace_of(message)
            if context is not None:
                now = self.overlay.sim.now
                tracing.span(
                    context.trace_id, _parent_id(parent_span, context),
                    "retransmit", channel.src, now, now,
                    to=str(channel.dst), seq=seq, attempt=attempt,
                )
        self._transmit(channel, seq)
        self._schedule_retransmit(channel, seq, channel.epoch, rto)

    # -- receiving ---------------------------------------------------------

    def _deliver_data(
        self, channel: Channel, epoch: int, seq: int,
        payload: Tuple[Message, int, Optional[Span]],
    ):
        if epoch != channel.epoch:
            self._count("stale", "network.transport.stale")
            return
        if self.overlay.is_down(channel.dst):
            self._count("crash_dropped", "network.faults.crash_dropped")
            return
        ready = channel.accept(seq, payload)
        if ready is None:
            self._count("dup_suppressed", "broker.dup_suppressed")
            tracing = self.overlay.tracing
            if tracing is not None:
                message, _hops, parent_span = payload
                context = trace_of(message)
                if context is not None:
                    # The duplicate joins the original trace — it must
                    # never look like a fresh operation.
                    now = self.overlay.sim.now
                    tracing.span(
                        context.trace_id, _parent_id(parent_span, context),
                        "dropped.duplicate", channel.dst, now, now,
                        seq=seq, src=str(channel.src),
                    )
        else:
            for message, hops, parent_span in ready:
                self.overlay.transport_deliver(
                    channel.dst, message, channel.src, hops, parent_span
                )
        self._send_ack(channel)

    def _send_ack(self, channel: Channel):
        """Cumulative ack of everything delivered in order so far.

        Acks physically ride the reverse link direction, so they draw
        fault decisions from the reverse direction's transmission
        stream (and can be dropped, delayed or duplicated like any
        frame — a lost ack just means one more retransmission).
        """
        self._count("acks", "network.transport.acks")
        decision = self._decide(channel.dst, channel.src)
        if decision is None:
            return
        ack = channel.ack
        epoch = channel.epoch
        latency = self.overlay.link_latency(channel.dst, channel.src, None)
        for copy in range(decision.copies):
            self.overlay.sim.schedule(
                latency + decision.extra_delay + copy * 1e-9,
                self._deliver_ack, channel, epoch, ack,
            )

    def _deliver_ack(self, channel: Channel, epoch: int, ack: int):
        if epoch != channel.epoch or self.overlay.is_down(channel.src):
            return
        channel.acked(ack)

    # -- crash recovery ----------------------------------------------------

    def reset_links_of(self, broker_id: object, resend_outbox: bool):
        """Start fresh channel epochs on every link touching *broker_id*
        (both directions) and resend what the reset surfaced.

        The surviving neighbour always resends its unacknowledged
        frames; the restarted broker's own outbox is resent only when
        its state was recovered (``resend_outbox``) — a stateless
        restart forgets in-flight output exactly like a real process.
        """
        for (src, dst), channel in sorted(
            self.channels.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
        ):
            if broker_id not in (src, dst):
                continue
            pending = channel.reset()
            if src == broker_id and not resend_outbox:
                self._count(
                    "forgotten_outbox", "network.transport.forgotten",
                    len(pending),
                )
                continue
            for message, hops, parent_span in pending:
                # Post-recovery redelivery keeps the original causal
                # context: the message's trace stamp and parent span
                # both survive the channel epoch reset.
                self.send(src, dst, message, hops, parent_span=parent_span)

    def in_flight(self) -> int:
        """Unacknowledged frames across all channels (debug/tests)."""
        return sum(len(c.unacked) for c in self.channels.values())
