"""An asyncio event-loop execution of the broker core.

Every broker is an actor: an unbounded inbox drained by one task that
feeds each inbound message to its :class:`~repro.broker.core.BrokerCore`
and interprets the returned effects.  Every directed broker link has a
**bounded** send queue drained by a sender task, and every subscriber
has a bounded delivery queue drained by a consumer task — so a slow
link or a slow client exerts real backpressure: the upstream actor
blocks on the full queue (surfacing ``runtime.backpressure.*``
metrics) instead of buffering without limit.  Only send queues are
bounded; inboxes are not, which is what makes the topology
deadlock-free — a sender task can always hand its message to the next
inbox, so every bounded queue always drains.

Nothing is ever dropped unless the host installs a
:attr:`AsyncioRuntime.drop_filter` fault hook.

The class deliberately mirrors the :class:`~repro.network.overlay.
Overlay` surface (``submit``/``run``/``brokers``/``links``/``tracing``/
``attach_auditor`` …) so the publisher/subscriber clients, the audit
oracle and :func:`repro.obs.tracing.verify_traces` work on it
unchanged.  The loop is private and driven synchronously: callers stay
plain blocking code and the runtime only makes progress inside
:meth:`run` / :meth:`drain` / :meth:`close`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.broker.broker import Broker
from repro.broker.core import (
    BrokerCore,
    Deliver,
    Replay,
    Send,
    Telemetry,
    TimerRequest,
    ViewServe,
)
from repro.broker.messages import Message, PublishMsg
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError, TopologyError
from repro.network.clients import PublisherClient, SubscriberClient
from repro.network.stats import DeliveryRecord, NetworkStats
from repro.obs.tracing import Span, TraceContext, TraceRecorder, stamp, trace_of
from repro.runtime.base import scaled


class _TimerFire:
    """Internal inbox item: a host timer fired for this broker."""

    __slots__ = ("name",)
    kind = "timer"

    def __init__(self, name: str):
        self.name = name


class _Clock:
    """Monotonic seconds since the runtime started (the ``sim.now``
    shim the oracle's failure reporting expects)."""

    def __init__(self):
        self._t0 = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._t0


class AsyncioRuntime:
    """One-process concurrent backend: brokers as asyncio actors.

    Args:
        config: routing configuration shared by every broker.
        universe: optional :class:`~repro.xpath.universe.PathUniverse`.
        link_capacity: bound of every broker→broker send queue.
        client_capacity: bound of every subscriber delivery queue.
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
        self.config = config if config is not None else RoutingConfig.full()
        self.universe = universe
        self.link_capacity = link_capacity
        self.client_capacity = client_capacity
        self.metrics = metrics if metrics is not None else obs.get_registry()
        self.stats = NetworkStats(registry=self.metrics)
        self.sim = _Clock()
        self.cores: Dict[str, BrokerCore] = {}
        self.brokers: Dict[str, Broker] = {}
        self.links: Set[Tuple[str, str]] = set()
        self.subscribers: Dict[str, SubscriberClient] = {}
        self.publishers: Dict[str, PublisherClient] = {}
        self._client_home: Dict[str, str] = {}
        self._auditors = []
        self.tracing: Optional[TraceRecorder] = None
        #: Fault hook: ``f(src, dst, message) -> True`` drops the frame
        #: on the src→dst link (counted as ``runtime.faults.dropped``).
        #: Without it the runtime never drops anything.
        self.drop_filter: Optional[Callable[[str, str, Message], bool]] = None
        #: Per-directed-link artificial service delay, seconds — the
        #: slow-consumer-link knob the backpressure tests turn.
        self.link_delay: Dict[Tuple[str, str], float] = {}
        #: Per-subscriber artificial consume delay, seconds.
        self.client_delay: Dict[str, float] = {}
        #: Observed high-water mark of every bounded queue.
        self.max_queue_depth: Dict[object, int] = {}

        self._loop = asyncio.new_event_loop()
        self._tasks: List[asyncio.Task] = []
        self._inboxes: Dict[str, asyncio.Queue] = {}
        self._link_queues: Dict[Tuple[str, str], asyncio.Queue] = {}
        self._client_queues: Dict[str, asyncio.Queue] = {}
        self._pending = 0
        self._idle: Optional[asyncio.Event] = None
        self._errors: List[BaseException] = []
        self._issued: Dict[Tuple[str, int], float] = {}
        #: The live telemetry plane (:meth:`enable_telemetry`); sampled
        #: by a wall-clock task that is *outside* the pending-message
        #: accounting — it must never keep :meth:`drain` from settling.
        self.telemetry = None
        self._sampler_spawned = False
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
        return self.sim.now

    def add_broker(self, broker_id: str) -> Broker:
        if self._started:
            raise TopologyError("add brokers before start()")
        if broker_id in self.brokers:
            raise TopologyError("duplicate broker id %r" % broker_id)
        core = BrokerCore(
            broker_id=broker_id, config=self.config, universe=self.universe
        )
        self.cores[broker_id] = core
        self.brokers[broker_id] = core.broker
        return core.broker

    def connect(self, a: str, b: str):
        if self._started:
            raise TopologyError("connect brokers before start()")
        for broker_id in (a, b):
            if broker_id not in self.brokers:
                raise TopologyError("unknown broker %r" % broker_id)
        self.cores[a].connect(b)
        self.cores[b].connect(a)
        self.links.add((a, b))

    def start(self):
        """Spawn the actor, link-sender and client-consumer tasks."""
        if self._started:
            return
        self._started = True
        self._loop.run_until_complete(self._spawn_topology())
        if self.telemetry is not None and not self._sampler_spawned:
            self._loop.run_until_complete(self._spawn_sampler())

    async def _spawn_topology(self):
        for broker_id in self.brokers:
            self._inboxes[broker_id] = asyncio.Queue()
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

    def attach_publisher(self, client_id: str, broker_id: str) -> PublisherClient:
        self._check_client(client_id, broker_id)
        client = PublisherClient(client_id, self, broker_id)
        self.publishers[client_id] = client
        self.cores[broker_id].attach_client(client_id)
        self._client_home[client_id] = broker_id
        return client

    def attach_subscriber(self, client_id: str, broker_id: str) -> SubscriberClient:
        self._check_client(client_id, broker_id)
        client = SubscriberClient(client_id, self, broker_id)
        self.subscribers[client_id] = client
        self.cores[broker_id].attach_client(client_id)
        self._client_home[client_id] = broker_id
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
        if broker_id not in self.brokers:
            raise TopologyError("unknown broker %r" % broker_id)
        if client_id in self._client_home or client_id in self.brokers:
            raise TopologyError("duplicate client id %r" % client_id)

    # -- overlay-compatible surface ---------------------------------------

    def is_down(self, broker_id: str) -> bool:
        return False

    def attach_auditor(self, auditor):
        self._auditors.append(auditor)
        auditor.bind(self)
        return auditor

    def enable_tracing(
        self, recorder: Optional[TraceRecorder] = None, **kwargs
    ) -> TraceRecorder:
        if recorder is None:
            recorder = TraceRecorder(registry=self.metrics, **kwargs)
        self.tracing = recorder
        return recorder

    def enable_telemetry(self, plane=None, interval: float = 0.05, **kwargs):
        """Turn on the live telemetry plane: a dedicated wall-clock
        sampler task wakes every *interval* seconds (while the loop is
        being driven by :meth:`run`/:meth:`drain`) and records each
        broker's queue depths, matcher/view gauges and handled deltas
        into *plane* (a fresh
        :class:`~repro.obs.telemetry.TelemetryPlane` bound to this
        runtime's registry by default; extra keyword arguments —
        ``rules``, ``ring_capacity``, ``clear_after`` — configure it).

        The sampler deliberately lives outside the pending-message
        accounting: re-arming core ``TimerRequest`` ticks through
        :meth:`_apply_effect` would hold ``_pending`` above zero forever
        and hang every drain.  Health transitions dump the flight
        recorder when tracing is also enabled."""
        if self.telemetry is not None:
            return self.telemetry
        if plane is None:
            from repro.obs.telemetry import TelemetryPlane

            plane = TelemetryPlane(
                registry=self.metrics, interval=interval, **kwargs
            )
        self.telemetry = plane
        plane.add_transition_hook(self._on_health_transition)
        if self._started and not self._sampler_spawned:
            self._loop.run_until_complete(self._spawn_sampler())
        return plane

    async def _spawn_sampler(self):
        self._sampler_spawned = True
        self._tasks.append(
            self._loop.create_task(self._telemetry_sampler())
        )

    async def _telemetry_sampler(self):
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

    def _on_health_transition(self, broker_id, previous, state, rule, sample):
        tracing = self.tracing
        if tracing is not None and getattr(tracing, "flight", None) is not None:
            tracing.flight.dump(
                "health-%s-%s" % (broker_id, state), time=self.now
            )

    def queue_depth(self, broker_id: str) -> int:
        """Instantaneous backlog attributable to *broker_id*: its inbox
        plus its outbound link queues plus the delivery queues of its
        locally attached subscribers."""
        depth = self._inboxes[broker_id].qsize()
        for (src, _dst), queue in self._link_queues.items():
            if src == broker_id:
                depth += queue.qsize()
        for client_id, queue in self._client_queues.items():
            if self._client_home.get(client_id) == broker_id:
                depth += queue.qsize()
        return depth

    def sample_telemetry(self):
        """Take one telemetry sample of every broker right now (the
        sampler task calls this on its cadence; tests may call it
        directly for a deterministic sample)."""
        plane = self.telemetry
        if plane is None:
            return
        from repro.obs.telemetry import broker_gauges

        now = self.now
        plane.maybe_record_cluster(now)
        degraded = any(
            getattr(auditor, "stateless_recoveries", None)
            for auditor in self._auditors
        )
        for broker_id in self.brokers:
            gauges = {
                "queue_depth": float(self.queue_depth(broker_id)),
                "audit_degraded": 1.0 if degraded else 0.0,
            }
            gauges.update(broker_gauges(self.brokers[broker_id]))
            counters = {
                "handled": float(sum(self.brokers[broker_id].stats.values()))
            }
            plane.record(broker_id, now, gauges=gauges, counters=counters)

    def submit(self, client_id: str, message: Message):
        """A client hands a message to its edge broker.

        Safe to call while the loop is parked: the message queues and
        travels on the next :meth:`run`/:meth:`drain`.
        """
        broker_id = self._client_home.get(client_id)
        if broker_id is None:
            raise RoutingError("unknown client %r" % client_id)
        tracing = self.tracing
        context = None
        if tracing is not None and trace_of(message) is None:
            context = tracing.mint(message)
        for auditor in self._auditors:
            auditor.observe_submit(client_id, message)
        now = self.now
        root: Optional[Span] = None
        if context is not None:
            root = tracing.record_root(context, client_id, message, now, 0.0)
        publication = getattr(message, "publication", None)
        if publication is not None:
            self._issued.setdefault(
                (publication.doc_id, publication.path_id), now
            )
        self._begin()
        self.stats.record_frame()
        self._inboxes[broker_id].put_nowait((message, client_id, 1, root))

    def trigger_merge_sweep(self, broker_id: str):
        """Enqueue an immediate merge sweep on one broker (processed in
        arrival order with the rest of its inbox)."""
        if broker_id not in self.brokers:
            raise TopologyError("unknown broker %r" % broker_id)
        self._begin()
        self._inboxes[broker_id].put_nowait(
            (_TimerFire("merge-sweep"), None, 0, None)
        )

    # -- progress ---------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> None:
        """Run the loop until no message is in flight anywhere.

        *timeout* is in unscaled seconds (``REPRO_TEST_TIMEOUT_SCALE``
        multiplies it); expiry raises — a drain that cannot finish
        means a lost message or a stuck task, never a legal state.
        """
        if self._closed:
            raise RoutingError("runtime is closed")
        try:
            self._loop.run_until_complete(
                asyncio.wait_for(self._drained(), scaled(timeout))
            )
        except asyncio.TimeoutError:
            raise RoutingError(
                "asyncio runtime failed to drain within %.1fs "
                "(%d messages still pending)" % (scaled(timeout), self._pending)
            )
        if self._errors:
            raise self._errors[0]

    def run(self, max_events=None) -> int:
        """Overlay-compatible alias for :meth:`drain`."""
        self.drain()
        return 0

    async def _drained(self):
        await self._idle.wait()

    def _begin(self):
        self._pending += 1
        self._idle.clear()

    def _finish(self):
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
        core = self.cores[broker_id]
        while True:
            message, from_hop, hops, parent_span = await inbox.get()
            try:
                tracing = self.tracing
                context = None
                hop_span: Optional[Span] = None
                if isinstance(message, _TimerFire):
                    effects = core.on_timer(message.name)
                else:
                    self.stats.record_broker_message(broker_id, message.kind)
                    context = (
                        trace_of(message) if tracing is not None else None
                    )
                    if context is not None:
                        now = self.now
                        hop_span = tracing.span(
                            context.trace_id,
                            _parent_id(parent_span, context),
                            "hop", broker_id, now, now,
                            kind=message.kind, from_hop=str(from_hop),
                        )
                    effects = core.on_message(message, from_hop)
                    if hop_span is not None:
                        hop_span.end = self.now
                        hop_span.attrs["fanout"] = len(effects)
                for effect in effects:
                    await self._apply_effect(
                        broker_id, effect, hops, context, hop_span
                    )
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                # A broker bug must fail the drain, not hang it.
                self._errors.append(exc)
                self._idle.set()
                raise
            finally:
                self._finish()

    async def _apply_effect(
        self,
        broker_id: str,
        effect,
        hops: int,
        context: Optional[TraceContext],
        hop_span: Optional[Span],
    ):
        """Interpret one effect.  Inbox items are single messages, so
        every frame the core emits here is a group of one (a Replay
        aside), and each message rides its queue on its own."""
        tracing = self.tracing
        if isinstance(effect, Send):
            key = (broker_id, effect.destination)
            queue = self._link_queues[key]
            for out_msg in effect.messages:
                fwd = None
                if tracing is not None:
                    fwd = self._forward_span(
                        broker_id, effect.destination, out_msg, context,
                        hop_span,
                    )
                self._begin()
                self.stats.record_frame()
                await self._bounded_put(queue, key, (out_msg, hops, fwd))
        elif isinstance(effect, (Deliver, Replay)):
            # Deliveries — a view window replayed to a late subscriber
            # included — ride the client's bounded queue (backpressure
            # included); client-side dedup makes a replay exactly-once.
            client_id = effect.client_id
            queue = self._client_queues[client_id]
            if isinstance(effect, Replay):
                view = "replay"
            else:
                view = "serve" if isinstance(effect, ViewServe) else None
            attrs = {} if view is None else {"view": view}
            for out_msg in effect.messages:
                fwd = None
                if tracing is not None:
                    fwd = self._forward_span(
                        broker_id, client_id, out_msg, context, hop_span,
                        **attrs,
                    )
                self._begin()
                self.stats.record_frame()
                await self._bounded_put(
                    queue, client_id, (out_msg, hops, fwd, view)
                )
        elif isinstance(effect, TimerRequest):
            self._begin()
            self._loop.call_later(
                effect.delay,
                lambda: self._inboxes[broker_id].put_nowait(
                    (_TimerFire(effect.name), None, 0, None)
                ),
            )
        elif isinstance(effect, Telemetry):
            if self.metrics.enabled:
                self.metrics.counter(effect.name).inc(effect.value)

    def _forward_span(
        self, broker_id: str, destination: object, out_msg: Message,
        context: Optional[TraceContext], hop_span: Optional[Span], **attrs,
    ) -> Optional[Span]:
        """The ``forward`` span of one outbound message while tracing
        is on (None for an untraced message).  Broker-originated
        traffic joins the causal trace of the message that produced it
        (same rule as the simulator); messages with a context keep
        theirs."""
        if context is not None and trace_of(out_msg) is None:
            stamp(out_msg, TraceContext(context.trace_id, hop_span.span_id))
        out_context = trace_of(out_msg)
        if out_context is None:
            return None
        now = self.now
        return self.tracing.span(
            out_context.trace_id, _parent_id(hop_span, out_context),
            "forward", broker_id, now, now,
            to=str(destination), kind=out_msg.kind, **attrs,
        )

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
            message, hops, span = await queue.get()
            delay = self.link_delay.get((src, dst), 0.0)
            if delay:
                await asyncio.sleep(delay)
            drop = self.drop_filter
            if drop is not None and drop(src, dst, message):
                if self.metrics.enabled:
                    self.metrics.counter("runtime.faults.dropped").inc()
                self._finish()
                continue
            # inboxes are unbounded: the sender never blocks, so every
            # bounded queue upstream is guaranteed to drain (no cycles).
            self._inboxes[dst].put_nowait((message, src, hops + 1, span))

    async def _client_consumer(self, client_id: str):
        queue = self._client_queues[client_id]
        while True:
            message, hops, span, view = await queue.get()
            try:
                delay = self.client_delay.get(client_id, 0.0)
                if delay:
                    await asyncio.sleep(delay)
                self._deliver(client_id, message, hops, span, view)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                self._errors.append(exc)
                self._idle.set()
                raise
            finally:
                self._finish()

    def _deliver(
        self, client_id: str, message: Message, hops: int,
        parent_span: Optional[Span], view: Optional[str] = None,
    ):
        """*view* is "serve"/"replay" when a materialized view produced
        the delivery (labels the span and the audit observation)."""
        self.stats.record_client_message()
        client = self.subscribers[client_id]
        fresh = client.receive(message, hops)
        now = self.now
        tracing = self.tracing
        if tracing is not None:
            context = trace_of(message)
            if context is not None:
                attrs = {
                    "subscriber": client_id, "fresh": fresh, "hops": hops,
                }
                if view is not None:
                    attrs["view"] = view
                publication = getattr(message, "publication", None)
                if publication is not None:
                    attrs["doc"] = publication.doc_id
                    attrs["path_id"] = publication.path_id
                tracing.span(
                    context.trace_id, _parent_id(parent_span, context),
                    "deliver" if fresh else "dropped.duplicate",
                    client_id, now, now, **attrs,
                )
        if fresh and isinstance(message, PublishMsg):
            for auditor in self._auditors:
                if view is not None:
                    auditor.observe_delivery(client_id, message, view=view)
                else:
                    auditor.observe_delivery(client_id, message)
            key = (message.publication.doc_id, message.publication.path_id)
            issued_at = self._issued.get(key, message.issued_at)
            self.stats.record_delivery(
                DeliveryRecord(
                    subscriber_id=client_id,
                    doc_id=message.publication.doc_id,
                    path_id=message.publication.path_id,
                    issued_at=issued_at,
                    delivered_at=now,
                    hops=hops,
                )
            )
            if self.telemetry is not None:
                self.telemetry.note_delivery(
                    self._client_home.get(client_id), now - issued_at
                )

    # -- reporting ---------------------------------------------------------

    def routing_fingerprints(self) -> Dict[str, str]:
        return {
            broker_id: core.fingerprint()
            for broker_id, core in self.cores.items()
        }

    def delivered_map(self) -> Dict[str, Set[str]]:
        return {
            client_id: client.delivered_documents()
            for client_id, client in self.subscribers.items()
        }


def _parent_id(parent: Optional[Span], context: TraceContext) -> str:
    if parent is not None and parent.trace_id == context.trace_id:
        return parent.span_id
    return context.span_id
