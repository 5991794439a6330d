"""An asyncio event-loop execution of the brokers.

What travels is the *frame*: a control message, or a group — the
consecutive publications of one document on one link (the kernel's
join rule, :meth:`~repro.runtime.host.HostKernel.join`, forms it at
the client edge; brokers forward a group as a group).  Every broker is
an actor: an unbounded inbox drained by one task that hands each
inbound frame to the host kernel
(:meth:`~repro.runtime.host.HostKernel.dispatch`) and queues the frames
it returns.  Every directed broker link has a
**bounded** send queue drained by a sender task, and every subscriber
has a bounded delivery queue drained by a consumer task — so a slow
link or a slow client exerts real backpressure: the upstream actor
blocks on the full queue (surfacing ``runtime.backpressure.*``
metrics) instead of buffering without limit.  Only send queues are
bounded; inboxes are not, which is what makes the topology
deadlock-free — a sender task can always hand its frame to the next
inbox, so every bounded queue always drains.

A queue slot, a pending unit and ``NetworkStats.frames`` count frames;
artificial delays, the fault hook and the telemetry ``queue_depth``
gauge stay per message (a frame of *n* paths is delayed *n* times the
per-message delay, loses only the members the hook names, and weighs
*n* in its broker's backlog).  Nothing is ever dropped unless the host
installs a :attr:`AsyncioRuntime.drop_filter` fault hook.

The class shares the :class:`~repro.network.overlay.Overlay` surface
(``submit``/``run``/``brokers``/``links``/``tracing``/``attach_auditor``
…) by extending the same :class:`~repro.runtime.host.HostKernel`, so
the publisher/subscriber clients, the audit oracle and
:func:`repro.obs.tracing.verify_traces` work on it unchanged.  What
this module adds is the transport: a wall clock, queues, tasks and the
sampler's cadence.  The loop is private and driven synchronously:
callers stay plain blocking code and the runtime only makes progress
inside :meth:`run` / :meth:`drain` / :meth:`close`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.broker.broker import Broker
from repro.broker.messages import Message
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError, TopologyError
from repro.network.clients import SubscriberClient
from repro.obs.tracing import Span
from repro.runtime.base import scaled
from repro.runtime.host import HostKernel

#: The inbox frame of no messages: it asks an actor for a merge sweep,
#: in arrival order with the rest of its inbox.
_SWEEP: Tuple[Message, ...] = ()


class AsyncioRuntime(HostKernel):
    """One-process concurrent backend: brokers as asyncio actors.

    Args:
        config: routing configuration shared by every broker.
        universe: optional :class:`~repro.xpath.universe.PathUniverse`.
        link_capacity: bound of every broker→broker send queue, in
            frames — a slot holds one control message or one group,
            however many paths it carries (as a simulator event does).
        client_capacity: bound of every subscriber delivery queue, in
            frames likewise.
        metrics: metrics registry (defaults to the process registry).
    """

    def __init__(
        self,
        config: Optional[RoutingConfig] = None,
        universe=None,
        link_capacity: int = 64,
        client_capacity: int = 16,
        metrics=None,
    ):
        super().__init__(config, universe, metrics)
        self.link_capacity = link_capacity
        self.client_capacity = client_capacity
        self._t0 = time.monotonic()
        #: Fault hook: ``f(src, dst, message) -> True`` drops that
        #: message on the src→dst link (counted as
        #: ``runtime.faults.dropped``); the rest of its frame travels
        #: on.  Without it the runtime never drops anything.
        self.drop_filter: Optional[Callable[[str, str, Message], bool]] = None
        #: Per-directed-link artificial service delay, seconds per
        #: message — the slow-consumer-link knob the backpressure tests
        #: turn.
        self.link_delay: Dict[Tuple[str, str], float] = {}
        #: Per-subscriber artificial consume delay, seconds per message.
        self.client_delay: Dict[str, float] = {}
        #: Observed high-water mark of every bounded queue, in frames.
        self.max_queue_depth: Dict[object, int] = {}

        self._loop = asyncio.new_event_loop()
        self._tasks: List[asyncio.Task] = []
        self._inboxes: Dict[str, asyncio.Queue] = {}
        self._link_queues: Dict[Tuple[str, str], asyncio.Queue] = {}
        self._client_queues: Dict[str, asyncio.Queue] = {}
        #: Frames in flight anywhere, and beside it every broker's
        #: share in messages (see :meth:`queue_depth`).
        self._pending = 0
        self._backlog: Dict[str, int] = {}
        self._idle: Optional[asyncio.Event] = None
        self._errors: List[BaseException] = []
        self._started = False
        self._closed = False
        # asyncio primitives must be created while the owning loop is
        # current (pre-3.10 they bind get_event_loop() at construction).
        self._loop.run_until_complete(self._bootstrap())

    async def _bootstrap(self):
        self._idle = asyncio.Event()
        self._idle.set()

    # -- topology ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Monotonic seconds since the runtime was built."""
        return time.monotonic() - self._t0

    def add_broker(self, broker_id: str) -> Broker:
        if self._started:
            raise TopologyError("add brokers before start()")
        return super().add_broker(broker_id)

    def connect(self, a: str, b: str):
        if self._started:
            raise TopologyError("connect brokers before start()")
        super().connect(a, b)

    def start(self):
        """Spawn the actor, link-sender and client-consumer tasks."""
        if self._started:
            return
        self._started = True
        self._loop.run_until_complete(self._spawn_topology())

    async def _spawn_topology(self):
        for broker_id in self.brokers:
            self._inboxes[broker_id] = asyncio.Queue()
            self._backlog[broker_id] = 0
            self._tasks.append(
                self._loop.create_task(self._actor(broker_id))
            )
        for a, b in sorted(self.links):
            for src, dst in ((a, b), (b, a)):
                queue = asyncio.Queue(maxsize=self.link_capacity)
                self._link_queues[(src, dst)] = queue
                self._tasks.append(
                    self._loop.create_task(self._link_sender(src, dst))
                )

    # -- clients ----------------------------------------------------------

    def attach_subscriber(self, client_id: str, broker_id: str) -> SubscriberClient:
        client = super().attach_subscriber(client_id, broker_id)
        self._loop.run_until_complete(self._spawn_consumer(client_id))
        return client

    async def _spawn_consumer(self, client_id: str):
        self._client_queues[client_id] = asyncio.Queue(
            maxsize=self.client_capacity
        )
        self._tasks.append(
            self._loop.create_task(self._client_consumer(client_id))
        )

    def _check_client(self, client_id: str, broker_id: str):
        if not self._started:
            raise TopologyError("attach clients after start()")
        super()._check_client(client_id, broker_id)

    # -- telemetry cadence -------------------------------------------------

    async def _telemetry_sampler(self):
        """This backend's sampling cadence: while a :meth:`drain` is
        driving the loop, one sample of every broker per plane interval
        (each broker's queue depth beside the kernel's gauges).

        The sampler lives for one drain, outside the pending-frame
        accounting — a tick that counted as pending work would hold
        ``_pending`` above zero forever and hang the drain — and its
        first tick comes a full interval after driving resumed: a timer
        left over from before the loop was parked would sample the
        caller's burst of submits, not the brokers' backlog."""
        plane = self.telemetry
        while True:
            await asyncio.sleep(plane.interval)
            try:
                self.sample_telemetry()
            except asyncio.CancelledError:  # pragma: no cover
                raise
            except BaseException as exc:
                # A telemetry bug must fail the next drain, not pass
                # silently (and not crash the loop mid-flight).
                self._errors.append(exc)
                self._idle.set()
                return

    def queue_depth(self, broker_id: str) -> int:
        """Instantaneous backlog attributable to *broker_id*, in
        messages: those of every frame in its inbox, its outbound link
        queues and the delivery queues of its locally attached
        subscribers — or held by the task that took the frame off one
        of them and is not done with it yet (an actor blocked on a full
        queue, a sender or consumer mid-delay).  A running count, not a
        walk over the queues."""
        return self._backlog[broker_id]

    def sample_telemetry(self):
        """Take one telemetry sample of every broker right now (the
        sampler task calls this on its cadence; tests may call it
        directly for a deterministic sample)."""
        if self.telemetry is None:
            return
        now = self.now
        for broker_id in self.brokers:
            self.sample(broker_id, now, {
                "queue_depth": float(self.queue_depth(broker_id)),
            })

    def submit(self, client_id: str, message: Message):
        """A client hands a message to its edge broker.

        Consecutive publications of one document join one inbox frame
        (:meth:`HostKernel.join`); here a group stays open until the
        edge broker's actor dequeues it.  Safe to call while the loop
        is parked: the frame queues and travels on the next
        :meth:`run`/:meth:`drain`.
        """
        self._check_open()
        broker_id, context = self.admit(client_id, message)
        group, opened = self.join(client_id, message)
        if context is not None:
            # The wall clock has moved since the publisher stamped
            # ``issued_at``: the trace starts there, so its root and the
            # delivery record (which trusts the stamp) agree.
            now = self.now
            issued = min(getattr(message, "issued_at", now), now)
            group.roots[message.msg_id] = self.tracing.record_root(
                context, client_id, message, issued, now - issued
            )
        if opened:
            self._begin(broker_id, 1)
            self.stats.record_frame()
            self._inboxes[broker_id].put_nowait(
                (group.messages, client_id, 1, group.roots)
            )
        else:
            self._backlog[broker_id] += 1

    def trigger_merge_sweep(self, broker_id: str):
        """Enqueue an immediate merge sweep on one broker (processed in
        arrival order with the rest of its inbox)."""
        self._check_open()
        if broker_id not in self.brokers:
            raise TopologyError("unknown broker %r" % broker_id)
        if not self._started:
            raise TopologyError("trigger merge sweeps after start()")
        self.close_group()
        self._begin(broker_id, 0)
        self._inboxes[broker_id].put_nowait((_SWEEP, None, 0, None))

    # -- progress ---------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> None:
        """Run the loop until no frame is in flight anywhere.

        *timeout* is in unscaled seconds (``REPRO_TEST_TIMEOUT_SCALE``
        multiplies it); expiry raises — a drain that cannot finish
        means a lost frame or a stuck task, never a legal state.
        """
        self._check_open()
        try:
            self._loop.run_until_complete(
                asyncio.wait_for(self._drained(), scaled(timeout))
            )
        except asyncio.TimeoutError:
            raise RoutingError(
                "asyncio runtime failed to drain within %.1fs "
                "(%d frames still pending)" % (scaled(timeout), self._pending)
            )
        if self._errors:
            raise self._errors[0]

    def run(self, max_events=None) -> int:
        """Overlay-compatible alias for :meth:`drain`."""
        self.drain()
        return 0

    async def _drained(self):
        if self.telemetry is None:
            await self._idle.wait()
            return
        sampler = self._loop.create_task(self._telemetry_sampler())
        try:
            await self._idle.wait()
        finally:
            sampler.cancel()
            await asyncio.gather(sampler, return_exceptions=True)

    def _check_open(self):
        if self._closed:
            raise RoutingError("runtime is closed")

    def _begin(self, broker_id: str, count: int):
        """One more frame in flight, its *count* messages in
        *broker_id*'s backlog."""
        self._pending += 1
        self._backlog[broker_id] += count
        self._idle.clear()

    def _finish(self, broker_id: str, count: int):
        self._backlog[broker_id] -= count
        self._pending -= 1
        if self._pending == 0:
            self._idle.set()

    # -- graceful shutdown -------------------------------------------------

    def close(self, drain: bool = True):
        """Drain in-flight traffic (best effort), cancel every task and
        close the loop.  Idempotent."""
        if self._closed:
            return
        if drain and self._started and self._pending:
            try:
                self.drain()
            except Exception:
                pass
        self._closed = True
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            self._loop.run_until_complete(
                asyncio.gather(*self._tasks, return_exceptions=True)
            )
        self._loop.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    # -- the actors --------------------------------------------------------

    async def _actor(self, broker_id: str):
        inbox = self._inboxes[broker_id]
        while True:
            messages, from_hop, hops, parents = await inbox.get()
            try:
                hop_spans = None
                if messages is _SWEEP:
                    frames = self.sweep(broker_id)
                else:
                    # Off the client→edge link: a later path of this
                    # document opens a new frame.
                    self.close_group(messages)
                    # (Only spans read the clock.)
                    frames, hop_spans, _elapsed = self.dispatch(
                        broker_id, messages, from_hop,
                        0.0 if self.tracing is None else self.now, parents,
                    )
                    if hop_spans:
                        now = self.now
                        for hop_span in hop_spans.values():
                            hop_span.end = now
                for destination, out_messages in frames:
                    await self._forward(
                        broker_id, destination, out_messages, hops,
                        hop_spans,
                    )
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                # A broker bug must fail the drain, not hang it.
                self._errors.append(exc)
                self._idle.set()
                raise
            finally:
                self._finish(broker_id, len(messages))

    async def _forward(
        self, broker_id: str, destination: object,
        messages: Sequence[Message], hops: int,
        hop_spans: Optional[Dict[int, Span]],
    ):
        """Queue one outbound frame, one slot whatever its length: onto
        the bounded link queue toward a neighbour, or the bounded
        delivery queue of a local subscriber.  ``forward`` spans stay
        one per message."""
        if destination in self.brokers:
            key = (broker_id, destination)
            queue = self._link_queues[key]
        else:
            key = destination
            queue = self._client_queues[destination]
        parents: Optional[Dict[int, Span]] = None
        if self.tracing is not None:
            now = self.now
            attrs = {"group": len(messages)} if len(messages) > 1 else {}
            parents = {}
            for message in messages:
                fwd = self.forward_span(
                    broker_id, destination, message, hop_spans, now, now,
                    **attrs,
                )
                if fwd is not None:
                    parents[message.msg_id] = fwd
        self._begin(broker_id, len(messages))
        self.stats.record_frame()
        await self._bounded_put(queue, key, (messages, hops, parents))

    async def _bounded_put(self, queue: asyncio.Queue, key, item):
        """Put with backpressure accounting: a full queue blocks the
        producing actor and surfaces ``runtime.backpressure.*``."""
        if queue.full():
            metrics = self.metrics
            if metrics.enabled:
                metrics.counter("runtime.backpressure.waits").inc()
            started = time.monotonic()
            await queue.put(item)
            if metrics.enabled:
                metrics.histogram("runtime.backpressure.wait_seconds").record(
                    time.monotonic() - started
                )
        else:
            queue.put_nowait(item)
        depth = queue.qsize()
        if depth > self.max_queue_depth.get(key, 0):
            self.max_queue_depth[key] = depth

    async def _link_sender(self, src: str, dst: str):
        queue = self._link_queues[(src, dst)]
        while True:
            messages, hops, parents = await queue.get()
            count = len(messages)
            delay = self.link_delay.get((src, dst), 0.0)
            if delay:
                await asyncio.sleep(delay * count)
            drop = self.drop_filter
            if drop is not None:
                messages = tuple(
                    message for message in messages
                    if not drop(src, dst, message)
                )
                if len(messages) < count and self.metrics.enabled:
                    self.metrics.counter("runtime.faults.dropped").inc(
                        count - len(messages)
                    )
                if not messages:
                    self._finish(src, count)
                    continue
            # The frame — what survived of it — changes backlogs.
            # Inboxes are unbounded: the sender never blocks, so every
            # bounded queue upstream is guaranteed to drain (no cycles).
            self._backlog[src] -= count
            self._backlog[dst] += len(messages)
            self._inboxes[dst].put_nowait((messages, src, hops + 1, parents))

    async def _client_consumer(self, client_id: str):
        queue = self._client_queues[client_id]
        home = self._client_home[client_id]
        while True:
            messages, hops, parents = await queue.get()
            try:
                delay = self.client_delay.get(client_id, 0.0)
                if delay:
                    await asyncio.sleep(delay * len(messages))
                self.receive(client_id, messages, hops, self.now, parents)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                self._errors.append(exc)
                self._idle.set()
                raise
            finally:
                self._finish(home, len(messages))
