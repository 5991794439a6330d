"""One OS process per broker: the real-deployment backend.

Each broker runs a :class:`~repro.network.sockets.SocketBrokerNode` in
its own ``multiprocessing`` child, listening on a real TCP port and
speaking :mod:`repro.network.wire` frames (sequence numbers, acks,
retransmission — the full reliable transport) to its neighbours.  The
parent keeps one control pipe per child and drives it with a tiny
command protocol: connect-to-peer, attach-client, submit, probe for
quiescence, drain buffered deliveries, snapshot / fingerprint the
routing tables, report spans and transport stats, stop.

This is the backend that runs the paper's Table 3 overlay — 127 broker
processes in a complete binary tree — on one machine (``repro
deploy``).  Everything observable crosses a process boundary, so:

* delivered documents come back as wire objects and go through the
  parent's half of the host kernel (:meth:`~repro.runtime.host.
  HostKernel.receive`): the same :class:`~repro.network.clients.
  SubscriberClient` dedup and audit observation as in-process hosts;
* the audit oracle runs against brokers *restored from persistence
  snapshots* shipped over the pipes (the facade
  :meth:`MultiprocessDeployment.attach_auditor` binds it to);
* causal tracing cannot share a recorder across processes, so
  :meth:`MultiprocessDeployment.enable_tracing` gives each child a
  recorder of its own: the kernel's ``hop`` spans land there, on the
  child's wall clock, and its flight ring is what a crash or health
  dump carries.  :meth:`MultiprocessDeployment.verify_hop_traces`
  checks that every delivered publication's trace has a ``hop`` span
  at every broker on its routing path — the cross-process
  causal-completeness statement.

Every deadline is scaled by ``REPRO_TEST_TIMEOUT_SCALE`` (see
:mod:`repro.runtime.base`).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from typing import Dict, List, Optional, Set, Tuple

from repro.broker.messages import Message
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError, TopologyError
from repro.network.clients import PublisherClient, SubscriberClient
from repro.network.wire import message_from_obj, message_to_obj
from repro.obs.tracing import TraceRecorder, mint_context, stamp, trace_of
from repro.runtime.base import routing_fingerprint, scaled
from repro.runtime.host import HostKernel


def _broker_worker(
    conn,
    broker_id: str,
    config,
    rto: float,
    tracing: Optional[dict] = None,
    service_delay: float = 0.0,
):
    """Child-process main: host one socket broker, obey the pipe.
    *tracing* is the keyword arguments of the child kernel's
    ``enable_tracing`` (None: tracing off)."""
    # Imported here as well so a ``spawn`` child resolves everything in
    # its own interpreter (under ``fork`` these are already loaded).
    from repro.broker.persistence import snapshot
    from repro.network.sockets import SocketBrokerNode

    node = SocketBrokerNode(
        broker_id, config=config, port=0, rto=rto,
        service_delay=service_delay,
    )
    # Dump reasons always carry the broker id: the children share one
    # flight directory.
    recorder = (
        None if tracing is None else node.kernel.enable_tracing(**tracing)
    )
    node.start()
    delivered: List[Tuple[str, dict]] = []
    conn.send(("ready", node.host, node.port))
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        command, args = request[0], request[1:]
        try:
            if command == "connect":
                peer_id, host, port = args
                node.dial(peer_id, host, port)
                reply = None
            elif command == "neighbors":
                reply = sorted(map(str, node.broker.neighbors))
            elif command == "attach":
                (client_id,) = args

                def sink(message, client_id=client_id):
                    obj = message_to_obj(message)
                    view = getattr(message, "view", None)
                    if view is not None:
                        # Local-delivery classification from the socket
                        # node (a window replay); folded into the
                        # drained object for the parent-side auditor.
                        obj["view"] = view
                    delivered.append((client_id, obj))

                node.attach_local_client(client_id, sink)
                reply = None
            elif command == "submit":
                client_id, obj = args
                node.submit_local(client_id, message_from_obj(obj))
                reply = None
            elif command == "probe":
                handled = sum(node.broker.stats.values())
                reply = (handled, node.pending_count(), len(delivered))
            elif command == "drain_deliveries":
                reply, delivered = delivered, []
            elif command == "fingerprint":
                reply = routing_fingerprint(node.broker)
            elif command == "snapshot":
                reply = snapshot(node.broker)
            elif command == "spans":
                reply = (
                    [] if recorder is None
                    else [span.to_dict() for span in list(recorder.spans)]
                )
            elif command == "transport_stats":
                reply = node.transport_stats()
            elif command == "telemetry":
                gauges, counters = node.kernel.gather_sample(broker_id, {
                    "queue_depth": float(node.inbox_depth()),
                    "pending": float(node.pending_count()),
                })
                stats = node.transport_stats()
                counters["retransmits"] = float(stats.get("retransmits", 0))
                counters["sent"] = float(stats.get("sent", 0))
                reply = (gauges, counters)
            elif command == "flight_dump":
                (reason,) = args
                reply = None
                if recorder is not None:
                    document = recorder.flight.dump(
                        reason, time=time.monotonic()
                    )
                    reply = document.get("path")
            elif command == "errors":
                reply = list(node.errors)
            elif command == "crash":
                # Supervised abort: dump the flight ring the way a
                # fatal-signal handler would, ack so the parent knows
                # the dump landed, then die without cleanup.
                if recorder is not None:
                    recorder.flight.dump(
                        "crash-%s" % broker_id, time=time.monotonic()
                    )
                conn.send(("ok", None))
                import os

                os._exit(1)
            elif command == "stop":
                node.stop()
                conn.send(("ok", None))
                break
            else:
                raise RoutingError("unknown deployment command %r" % command)
            conn.send(("ok", reply))
        except Exception:
            conn.send(("err", traceback.format_exc()))
    conn.close()


class _AuditView:
    """The overlay facade the audit oracle binds to: the deployment
    itself (topology, client registry, clock …) except for two things.

    ``brokers`` holds parent-side replicas restored from each child's
    persistence snapshot; :meth:`run` (the oracle's drain hook) settles
    the deployment, folds buffered deliveries into the oracle, and
    refreshes the replicas so the check always sees quiescent state.
    """

    def __init__(self, deployment: "MultiprocessDeployment"):
        self._deployment = deployment
        self.brokers = {}

    def __getattr__(self, name):
        return getattr(self._deployment, name)

    def run(self):
        self._deployment.run()
        self.brokers = self._deployment.restore_brokers()


class MultiprocessDeployment(HostKernel):
    """A real multi-process broker overlay on localhost.

    Drive it like the other backends: ``add_broker`` / ``link`` /
    ``start`` / ``attach_*`` / ``submit`` / ``run`` — then read
    ``subscribers[..].received`` and :meth:`routing_fingerprints`.
    Always :meth:`stop` (or use ``with``).

    This is the parent half of the host: the client registry, the
    observers, :meth:`~repro.runtime.host.HostKernel.admit` and
    :meth:`~repro.runtime.host.HostKernel.receive`.  The brokers — and
    the kernel's ``dispatch`` — run in the children, one
    :class:`~repro.network.sockets.SocketBrokerNode` each, so ``cores``
    and ``brokers`` stay empty here.
    """

    def __init__(
        self,
        config: Optional[RoutingConfig] = None,
        universe=None,
        rto: float = 0.05,
        start_method: Optional[str] = None,
        service_delay: Optional[Dict[str, float]] = None,
    ):
        super().__init__(config, universe)
        self.rto = rto
        #: What every child passes to its kernel's ``enable_tracing``
        #: (see :meth:`enable_tracing`); None keeps tracing off.
        self._child_tracing: Optional[dict] = None
        #: Per-broker dispatcher slowdown, seconds per message — the
        #: deterministic overload knob for telemetry scenarios.
        self.service_delay = dict(service_delay or {})
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.broker_ids: List[str] = []
        self._procs: Dict[str, multiprocessing.Process] = {}
        self._pipes: Dict[str, object] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}
        self._started = False
        self._t0: Optional[float] = None
        self._last_sample: Optional[float] = None

    # -- topology ---------------------------------------------------------

    def add_broker(self, broker_id: str):
        if self._started:
            raise TopologyError("add brokers before start()")
        if broker_id in self.broker_ids:
            raise TopologyError("duplicate broker id %r" % broker_id)
        self.broker_ids.append(broker_id)

    def link(self, a: str, b: str):
        for broker_id in (a, b):
            if broker_id not in self.broker_ids:
                raise TopologyError("unknown broker %r" % broker_id)
        self.links.add((a, b))

    def start(self, timeout: float = 30.0):
        """Spawn every broker process, wire every link, and wait for
        all handshakes to finish."""
        self._started = True
        self._t0 = time.monotonic()
        deadline = time.time() + scaled(timeout)
        for broker_id in self.broker_ids:
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_broker_worker,
                args=(
                    child_conn, broker_id, self.config, self.rto,
                    self._child_tracing,
                    self.service_delay.get(broker_id, 0.0),
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._procs[broker_id] = process
            self._pipes[broker_id] = parent_conn
        for broker_id in self.broker_ids:
            pipe = self._pipes[broker_id]
            if not pipe.poll(max(deadline - time.time(), 0.01)):
                raise RoutingError(
                    "broker process %r did not come up" % broker_id
                )
            tag, host, port = pipe.recv()
            if tag != "ready":
                raise RoutingError(
                    "broker process %r failed to start: %r" % (broker_id, host)
                )
            self._addresses[broker_id] = (host, port)
        for a, b in sorted(self.links):
            host, port = self._addresses[b]
            self._rpc(a, "connect", b, host, port)
        # The dialing side is wired synchronously; the passive side
        # registers the neighbour in its handshake thread — poll until
        # every broker knows every neighbour the topology gives it.
        expected: Dict[str, Set[str]] = {b: set() for b in self.broker_ids}
        for a, b in self.links:
            expected[a].add(b)
            expected[b].add(a)
        for broker_id in self.broker_ids:
            while True:
                known = set(self._rpc(broker_id, "neighbors"))
                if expected[broker_id] <= known:
                    break
                if time.time() > deadline:
                    raise RoutingError(
                        "broker %r finished handshakes with %r, expected %r"
                        % (broker_id, sorted(known),
                           sorted(expected[broker_id]))
                    )
                time.sleep(0.005)

    def stop(self):
        """Graceful shutdown: ask every child to stop, then reap."""
        for broker_id, pipe in self._pipes.items():
            try:
                pipe.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for broker_id, process in self._procs.items():
            process.join(timeout=scaled(5.0))
            if process.is_alive():
                process.terminate()
                process.join(timeout=scaled(5.0))
        for pipe in self._pipes.values():
            try:
                pipe.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.stop()

    # -- control-pipe RPC --------------------------------------------------

    def _rpc(self, broker_id: str, command: str, *args, timeout: float = 30.0):
        pipe = self._pipes[broker_id]
        pipe.send((command,) + args)
        if not pipe.poll(scaled(timeout)):
            raise RoutingError(
                "broker process %r did not answer %r within %.1fs"
                % (broker_id, command, scaled(timeout))
            )
        status, payload = pipe.recv()
        if status != "ok":
            raise RoutingError(
                "broker process %r failed %r:\n%s"
                % (broker_id, command, payload)
            )
        return payload

    # -- clients ----------------------------------------------------------

    def attach_publisher(self, client_id: str, broker_id: str) -> PublisherClient:
        self._attach(client_id, broker_id)
        client = PublisherClient(client_id, self, broker_id)
        self.publishers[client_id] = client
        return client

    def attach_subscriber(self, client_id: str, broker_id: str) -> SubscriberClient:
        self._attach(client_id, broker_id)
        client = SubscriberClient(client_id, self, broker_id)
        self.subscribers[client_id] = client
        return client

    def _attach(self, client_id: str, broker_id: str):
        """The broker lives in a child: attaching is an RPC."""
        if client_id in self._client_home:
            raise TopologyError("duplicate client id %r" % client_id)
        self._rpc(broker_id, "attach", client_id)
        self._client_home[client_id] = broker_id

    def submit(self, client_id: str, message: Message):
        """Ship one client message to its edge broker's process.

        A fresh trace context is minted parent-side (unless the message
        already carries one) and rides the wire object, so the hop spans
        of every process the message crosses name the same trace.
        """
        if trace_of(message) is None:
            stamp(message, mint_context())
        broker_id, _context = self.admit(client_id, message)
        self._rpc(broker_id, "submit", client_id, message_to_obj(message))

    # -- quiescence and observation ---------------------------------------

    @property
    def now(self) -> float:
        """Wall seconds since :meth:`start` (the telemetry clock)."""
        if self._t0 is None:
            return 0.0
        return time.monotonic() - self._t0

    def _live_ids(self) -> List[str]:
        return [
            broker_id
            for broker_id in self.broker_ids
            if self._procs.get(broker_id) is not None
            and self._procs[broker_id].is_alive()
        ]

    def settle(self, timeout: float = 30.0) -> bool:
        """Poll every live process until no broker handles a new
        message — and no frame awaits an ack — for a short grace
        period.  With telemetry enabled the poll loop doubles as the
        sampler: one sampling sweep piggybacks on the control channel
        every plane interval."""

        def totals():
            handled, pending = [], 0
            for broker_id in self._live_ids():
                h, p, d = self._rpc(broker_id, "probe")
                handled.append((h, d))
                pending += p
            return tuple(handled), pending

        deadline = time.time() + scaled(timeout)
        # The probe's pending count covers both halves of a reliable
        # exchange (sent-but-unacked and acked-but-not-dispatched, see
        # _Connection) plus the inbox backlog, so a frame can never
        # hide between an ack and its dispatch; the grace only has to
        # outlast the probe's own cross-process snapshot skew.
        grace = scaled(0.05)
        self._maybe_sample()
        last, pending = totals()
        stable_since = time.time()
        while time.time() < deadline:
            time.sleep(0.02)
            self._maybe_sample()
            current, pending = totals()
            if current != last:
                last = current
                stable_since = time.time()
            elif pending == 0 and time.time() - stable_since > grace:
                self._maybe_sample()
                return True
        return False

    # -- observers ---------------------------------------------------------

    def enable_tracing(self, **kwargs) -> TraceRecorder:
        """Turn on causal tracing in every child; call before
        :meth:`start`.  Each child calls its kernel's
        :meth:`~repro.runtime.host.HostKernel.enable_tracing` with
        *kwargs* — ``flight_dir``, ``flight_capacity``, ``max_spans`` —
        so its hops are ``hop`` spans in its own recorder (read them
        with :meth:`child_spans`) and its flight ring is what crash and
        health dumps carry.  The parent's recorder, returned, records
        nothing: deliveries reach it after the fact (see
        :meth:`drain_deliveries`)."""
        if self._started:
            raise TopologyError("enable tracing before start()")
        self._child_tracing = kwargs
        return super().enable_tracing()

    def enable_telemetry(self, plane=None, interval: float = 0.25, **kwargs):
        """See :meth:`HostKernel.enable_telemetry`.  Here sampling
        frames piggyback on the control pipes: every :meth:`settle`
        poll (or an explicit :meth:`sample_telemetry`) sweeps the
        children at most once per plane interval.  Health transitions
        ask the affected child to dump its flight ring (when tracing
        is on)."""
        return super().enable_telemetry(plane, interval, **kwargs)

    def _on_health_transition(self, broker_id, previous, state, rule, sample):
        if self._child_tracing is None:
            return
        try:
            self._rpc(
                broker_id, "flight_dump",
                "health-%s-%s" % (broker_id, state), timeout=10.0,
            )
        except (RoutingError, OSError, BrokenPipeError):
            pass

    def _maybe_sample(self):
        if self.telemetry is None:
            return
        now = self.now
        if (
            self._last_sample is not None
            and now - self._last_sample < self.telemetry.interval
        ):
            return
        self.sample_telemetry()

    def sample_telemetry(self):
        """One sampling sweep: ask every live child for its gauge and
        counter frame over the control pipe and feed the plane."""
        if self.telemetry is None:
            return
        now = self._last_sample = self.now
        for broker_id in self._live_ids():
            try:
                gauges, counters = self._rpc(
                    broker_id, "telemetry", timeout=10.0
                )
            except (RoutingError, OSError, BrokenPipeError):
                continue
            self.record_sample(broker_id, now, gauges, counters)

    def broker_errors(self) -> Dict[str, List[str]]:
        """Handler tracebacks collected by each live child's
        dispatcher."""
        return {
            broker_id: self._rpc(broker_id, "errors")
            for broker_id in self._live_ids()
        }

    def crash_broker(self, broker_id: str, timeout: float = 10.0):
        """Hard-kill one child the supervised-abort way: it dumps its
        flight ring (when tracing is on) and exits
        without cleanup — peers see a dead listener, exactly like a
        real node failure.  Returns when the process is gone."""
        pipe = self._pipes[broker_id]
        try:
            pipe.send(("crash",))
            if pipe.poll(scaled(timeout)):
                pipe.recv()
        except (OSError, BrokenPipeError, EOFError):
            pass
        process = self._procs[broker_id]
        process.join(timeout=scaled(timeout))
        if process.is_alive():
            process.terminate()
            process.join(timeout=scaled(timeout))

    def drain_deliveries(self) -> int:
        """Pull buffered deliveries out of every child and hand them to
        the kernel's :meth:`receive` (per-subscriber dedup, audit
        observation).  Returns the number of fresh deliveries folded
        in.  The parent learns of a delivery only now, not when it
        happened, so it records no latency for it."""
        fresh = 0
        for broker_id in self._live_ids():
            for client_id, obj in self._rpc(broker_id, "drain_deliveries"):
                view = obj.pop("view", None)
                message = message_from_obj(obj)
                if client_id in self.subscribers:
                    fresh += self.receive(
                        client_id, (message,), 0, None, view=view
                    )
        return fresh

    def run(self, max_events=None) -> int:
        """Overlay-compatible quiescence: settle, then fold the
        children's buffered deliveries in."""
        if not self.settle():
            raise RoutingError("multiprocess deployment failed to settle")
        self.drain_deliveries()
        return 0

    def routing_fingerprints(self) -> Dict[str, str]:
        return {
            broker_id: self._rpc(broker_id, "fingerprint")
            for broker_id in self.broker_ids
        }

    def restore_brokers(self) -> Dict[str, object]:
        """Parent-side broker replicas from the children's persistence
        snapshots (what the audit oracle inspects)."""
        from repro.broker.persistence import restore

        return {
            broker_id: restore(
                self._rpc(broker_id, "snapshot"), universe=self.universe
            )
            for broker_id in self.broker_ids
        }

    def transport_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for broker_id in self._live_ids():
            for key, value in self._rpc(broker_id, "transport_stats").items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- audit and tracing -------------------------------------------------

    def attach_auditor(self, auditor) -> "_AuditView":
        """Bind *auditor* to this deployment via an overlay facade; the
        oracle then observes submits/deliveries as usual and checks
        routing state restored from the children's snapshots."""
        view = _AuditView(self)
        self._auditors.append(auditor)
        auditor.bind(view)
        return view

    def child_spans(self) -> Dict[str, List[dict]]:
        """Every span each child's recorder holds, as
        :meth:`~repro.obs.tracing.Span.to_dict` objects (empty lists
        while tracing is off)."""
        return {
            broker_id: self._rpc(broker_id, "spans")
            for broker_id in self.broker_ids
        }

    def verify_hop_traces(self) -> List[str]:
        """Cross-process causal completeness: every delivered
        publication's trace id must appear in a ``hop`` span of
        **every** broker on the unique tree path from the edge broker of
        the publisher that sent it to the subscriber's.  Requires
        :meth:`enable_tracing`; returns human-readable problems (empty =
        causally complete)."""
        if self.tracing is None:
            return ["tracing is off (enable_tracing was not called)"]
        hop_traces: Dict[str, Set[str]] = {
            broker_id: {span["trace"] for span in spans if span["name"] == "hop"}
            for broker_id, spans in self.child_spans().items()
        }
        adjacency: Dict[str, List[str]] = {b: [] for b in self.broker_ids}
        for a, b in self.links:
            adjacency[a].append(b)
            adjacency[b].append(a)
        problems: List[str] = []
        # What each subscriber holds is exactly the fresh deliveries,
        # trace stamp and publisher id included (both rode the wire).
        delivered = sorted(
            (
                (client_id, m.publication.doc_id, m.publication.path_id,
                 m.publisher_id, trace_of(m))
                for client_id, client in self.subscribers.items()
                for m in client.received
            ),
            key=lambda delivery: delivery[:3],
        )
        for client_id, doc_id, path_id, publisher_id, context in delivered:
            if context is None:
                problems.append(
                    "delivery %s/%s#%d carried no trace context"
                    % (client_id, doc_id, path_id)
                )
                continue
            source = self._client_home.get(publisher_id)
            if source is None:
                problems.append(
                    "delivery %s/%s#%d names unknown publisher %r"
                    % (client_id, doc_id, path_id, publisher_id)
                )
                continue
            path = self._tree_path(
                adjacency, self._client_home[client_id], source
            )
            for broker_id in path:
                if context.trace_id not in hop_traces[broker_id]:
                    problems.append(
                        "delivery %s/%s#%d: trace %s has no hop span at %s"
                        % (client_id, doc_id, path_id, context.trace_id,
                           broker_id)
                    )
        return problems

    @staticmethod
    def _tree_path(
        adjacency: Dict[str, List[str]], start: str, goal: str
    ) -> List[str]:
        """BFS path from *start* to *goal* (trees have exactly one
        simple path)."""
        parents: Dict[str, Optional[str]] = {start: None}
        frontier = [start]
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                if node == goal:
                    path = []
                    cursor: Optional[str] = node
                    while cursor is not None:
                        path.append(cursor)
                        cursor = parents[cursor]
                    return path
                for neighbor in adjacency[node]:
                    if neighbor not in parents:
                        parents[neighbor] = node
                        nxt.append(neighbor)
            frontier = nxt
        return [start]
