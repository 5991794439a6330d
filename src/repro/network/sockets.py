"""A real TCP deployment of the broker.

The paper deploys its routers on a 20-node cluster and on PlanetLab.
This module provides the equivalent runnable artifact: each
:class:`SocketBrokerNode` hosts one broker — a
:class:`~repro.broker.core.BrokerCore` inside a one-broker
:class:`~repro.runtime.host.HostKernel` — behind a TCP listener,
speaking the newline-delimited JSON protocol of
:mod:`repro.network.wire`.  Neighbour brokers and clients connect over
sockets; everything the simulator exercises in-process runs unchanged
over real connections.

A deployment is driven programmatically::

    deployment = LocalDeployment(config=RoutingConfig.full())
    deployment.add_broker("b1")
    deployment.add_broker("b2")
    deployment.link("b1", "b2")
    deployment.start()
    publisher = deployment.publisher("pub", "b1")
    subscriber = deployment.subscriber("sub", "b2")
    ...
    deployment.stop()

Threading model: one acceptor plus one reader thread per connection,
feeding a per-node inbox queue drained by a single dispatcher thread
(brokers are single-threaded state machines, exactly as in the
simulator).  Reader threads only ack and enqueue, so a slow broker's
backlog is *visible*: the inbox depth is the queue-saturation gauge
the telemetry plane samples, and ``service_delay`` turns one node into
a deterministic bottleneck for overload scenarios.  The implementation
favours clarity over raw throughput — it exists to show the routing
layer is transport-independent and to back the integration tests in
tests/test_sockets.py.

Reliability: every message travels as a sequence-numbered data frame
(:func:`repro.network.wire.encode_data_frame`) acknowledged
cumulatively.  Each connection drives one
:class:`~repro.network.reliable.Channel` — the same state machine the
simulator's transport drives — so unacknowledged frames are resent
with capped exponential backoff and the receiver suppresses duplicates
and releases strictly in order: a retransmitted SUB can never be
overtaken by the UNSUB sent after it.  TCP itself never loses bytes —
the loss the layer heals is injected via ``loss_rate`` (dropping
physical sends before the socket), which is how the integration tests
exercise retransmission without leaving localhost.  A line that is not
a data or ack frame is malformed: it is counted and skipped, so nothing
reaches the broker outside the ordered, deduplicated stream.

Tracing: a node's hops are recorded by its kernel, as on every other
host.  After ``node.kernel.enable_tracing()`` each dispatched message
opens a ``hop`` span on the wall clock (``time.monotonic``), closed
when the handler returns; the recorder's flight ring is the node's
black box.
"""

from __future__ import annotations

import queue
import random
import socket
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.broker.messages import Message, PublishMsg
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError
from repro.network.reliable import Channel
from repro.network.wire import (
    WireError,
    decode_frame,
    encode_ack_frame,
    encode_data_frame,
)
from repro.obs.tracing import mint_context, stamp, trace_of
from repro.runtime.base import scaled
from repro.runtime.host import HostKernel


def stamp_view(message: Message, kind: str):
    """Attach the view-delivery class ("replay") to a message
    object, the same out-of-band way trace contexts travel (works on
    frozen dataclasses; local deliveries only — never wire-encoded by
    the transport, only folded into drained delivery objects)."""
    object.__setattr__(message, "view", kind)


class _Connection:
    """One reliable framed peer connection: the TCP driver of a
    :class:`~repro.network.reliable.Channel` (this end's sending half
    plus the receiving half of the opposite direction), with a reader
    thread and a retransmission thread.

    Args:
        sock: the connected socket.
        peer_name: broker/client id of the far end.
        on_message: ``callback(peer_name, message)`` for each
            application message, exactly once and in sending order.
        drop_send: optional fault hook ``f(payload_bytes) -> bool``;
            returning True discards that physical transmission (the
            retransmission loop recovers it).
        rto: initial retransmission timeout, seconds.
        max_attempts: per-frame transmission cap before giving up.
    """

    #: retransmission backoff doubles up to this multiple of the
    #: initial rto — uncapped, a lossy streak can push the next retry
    #: out tens of seconds and stall an otherwise-healthy link.
    RTO_CAP_FACTOR = 8.0

    def __init__(
        self,
        sock: socket.socket,
        peer_name: str,
        on_message,
        drop_send: Optional[Callable[[bytes], bool]] = None,
        rto: float = 0.05,
        max_attempts: int = 30,
    ):
        self.sock = sock
        self.peer_name = peer_name
        self._on_message = on_message
        self._drop_send = drop_send
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        #: Guarded by ``_state_lock``.  An unacked payload is
        #: ``[message, resend deadline (monotonic)]`` — the deadline is
        #: this driver's timer.
        self._channel = Channel(rto, rto * self.RTO_CAP_FACTOR, max_attempts)
        #: Data frames acked but whose dispatch has not returned yet.
        #: The ack races ahead of the routing work it acknowledges, so a
        #: quiescence probe that only watches unacked counts can declare
        #: the network idle while a handler is still running — this
        #: counter closes that window (incremented before the ack is
        #: transmitted, decremented when the handler returns).
        self._inflight_rx = 0
        self.stats: Dict[str, int] = {
            "sent": 0, "retransmits": 0, "dup_suppressed": 0,
            "acks": 0, "abandoned": 0, "injected_drops": 0, "malformed": 0,
        }
        self._thread = threading.Thread(target=self._read_loop, daemon=True)
        self._retransmitter = threading.Thread(
            target=self._retransmit_loop, daemon=True
        )
        self._closed = threading.Event()

    def start(self):
        self._thread.start()
        self._retransmitter.start()

    def send(self, message: Message):
        with self._state_lock:
            channel = self._channel
            seq = channel.push([message, time.monotonic() + channel.rto])
            self.stats["sent"] += 1
        self._transmit(encode_data_frame(seq, message))

    def _transmit(self, payload: bytes):
        if self._drop_send is not None and self._drop_send(payload):
            self.stats["injected_drops"] += 1
            return
        with self._send_lock:
            try:
                self.sock.sendall(payload)
            except OSError:
                self._closed.set()

    def _retransmit_loop(self):
        tick = max(self._channel.rto / 4.0, 0.005)
        while not self._closed.is_set():
            time.sleep(tick)
            now = time.monotonic()
            due = []
            with self._state_lock:
                channel = self._channel
                for seq, record in list(channel.unacked.items()):
                    if now < record[1]:
                        continue
                    rto = channel.retry(seq)
                    if rto is None:
                        self.stats["abandoned"] += 1
                        continue
                    record[1] = now + rto
                    due.append(encode_data_frame(seq, record[0]))
                    self.stats["retransmits"] += 1
            for payload in due:
                obs.inc("broker.retransmits")
                self._transmit(payload)

    def pending_count(self) -> int:
        """Frames whose reliable exchange is incomplete from this
        connection's point of view: sent-but-unacked plus
        received-and-acked-but-not-yet-dispatched."""
        with self._state_lock:
            return len(self._channel.unacked) + self._inflight_rx

    def close(self):
        self._closed.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()

    def _read_loop(self):
        buffer = b""
        while not self._closed.is_set():
            try:
                chunk = self.sock.recv(65536)
            except OSError:
                break
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line.strip():
                    self._handle_line(line)
        self._closed.set()

    def _handle_line(self, line: bytes):
        try:
            frame = decode_frame(line)
        except WireError:
            # One bad line must not end the reader: the connection
            # would look open while every later frame went unread.
            self.stats["malformed"] += 1
            obs.inc("network.transport.malformed")
            return
        if frame.kind == "ack":
            with self._state_lock:
                self._channel.acked(frame.seq)
            return
        # Ack everything released so far (even on a duplicate: its
        # first ack may be the one that got lost), hand each message on
        # once, in order.  The ack echoes the data frame's trace id so
        # both directions of a reliable exchange are attributable to the
        # same causal trace.  The inflight counter goes up before the
        # ack leaves: by the time the sender sees its unacked count
        # drop, this side already advertises the pending dispatch, so a
        # cross-node quiescence probe can never observe "all idle" with
        # the handler still to run.
        self.stats["acks"] += 1
        with self._state_lock:
            self._inflight_rx += 1
            ready = self._channel.accept(frame.seq, frame.message)
            ack = self._channel.ack
        try:
            if ack >= 0:  # nothing to acknowledge before frame 0 lands
                self._transmit(encode_ack_frame(ack, trace_id=frame.trace_id))
            if ready is None:
                self.stats["dup_suppressed"] += 1
                obs.inc("broker.dup_suppressed")
                return
            for message in ready:
                self._on_message(self.peer_name, message)
        finally:
            with self._state_lock:
                self._inflight_rx -= 1


class SocketBrokerNode:
    """One broker process-equivalent: a TCP listener plus the broker.

    ``loss_rate`` injects sender-side transmission loss (each physical
    frame send, data or ack, is discarded with that probability) so the
    reliability layer's retransmission/dedup paths can be exercised
    over loopback; ``loss_seed`` makes the injection reproducible and
    ``rto`` tunes the retransmission timeout.
    """

    def __init__(
        self,
        broker_id: str,
        config: Optional[RoutingConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        universe=None,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        rto: float = 0.05,
        service_delay: float = 0.0,
    ):
        #: A one-broker host kernel: it turns each inbound message into
        #: the frames this node then writes to a connection or a sink.
        self.kernel = HostKernel(config=config, universe=universe)
        self.broker = self.kernel.add_broker(broker_id)
        self.broker_id = broker_id
        self.loss_rate = loss_rate
        self.rto = rto
        #: Extra seconds the dispatcher sleeps before each message — a
        #: deterministic bottleneck knob for overload scenarios.
        self.service_delay = service_delay
        self._loss_rng = random.Random((loss_seed, broker_id).__repr__())
        self._loss_lock = threading.Lock()
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()
        self._connections: Dict[str, _Connection] = {}
        #: client id -> ``deliver(message)`` of each in-process client.
        self._client_sinks: Dict[str, Callable[[Message], None]] = {}
        self._lock = threading.RLock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )
        self._stopping = threading.Event()
        #: Inbound messages awaiting the dispatcher thread.
        self._inbox: "queue.Queue[Tuple[str, Message]]" = queue.Queue()
        #: Enqueued-or-dispatching count (the queue-depth gauge).
        self._dispatch_pending = 0
        self._pending_lock = threading.Lock()
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, daemon=True
        )
        #: Tracebacks from handler failures (the dispatcher must not
        #: die silently; tests and the worker loop surface these).
        self.errors: List[str] = []

    def _drop_send(self, _payload: bytes) -> bool:
        if self.loss_rate <= 0.0:
            return False
        with self._loss_lock:
            return self._loss_rng.random() < self.loss_rate

    def _make_connection(self, sock: socket.socket, peer: str) -> _Connection:
        return _Connection(
            sock,
            peer,
            self._on_message,
            drop_send=self._drop_send if self.loss_rate > 0.0 else None,
            rto=self.rto,
        )

    def transport_stats(self) -> Dict[str, int]:
        """Aggregated reliability counters across this node's links."""
        totals: Dict[str, int] = {}
        with self._lock:
            connections = list(self._connections.values())
        for connection in connections:
            for key, value in connection.stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def pending_count(self) -> int:
        """Incomplete work from this node's point of view: unfinished
        reliable exchanges across its links plus inbox messages not yet
        dispatched — zero on every node is quiescence."""
        with self._lock:
            connections = list(self._connections.values())
        with self._pending_lock:
            inbox = self._dispatch_pending
        return (
            sum(connection.pending_count() for connection in connections)
            + inbox
        )

    def inbox_depth(self) -> int:
        """Messages enqueued or being dispatched right now — the
        queue-saturation gauge the telemetry sampler reads."""
        with self._pending_lock:
            return self._dispatch_pending

    # -- lifecycle ---------------------------------------------------------

    def start(self):
        self._accept_thread.start()
        self._dispatch_thread.start()

    def stop(self):
        self._stopping.set()
        self._listener.close()
        with self._lock:
            connections = list(self._connections.values())
        for connection in connections:
            connection.close()

    # -- wiring --------------------------------------------------------------

    def connect_to(self, peer: "SocketBrokerNode"):
        """Dial a neighbouring in-process node (the passive side learns
        our name via the handshake line)."""
        self.dial(peer.broker_id, peer.host, peer.port)

    def dial(self, peer_id: str, host: str, port: int):
        """Dial a neighbouring broker by address — the form the
        multiprocess deployment uses, where the peer node object lives
        in another OS process and only its listen address is known."""
        sock = socket.create_connection((host, port))
        sock.sendall(("HELLO %s\n" % self.broker_id).encode("ascii"))
        connection = self._make_connection(sock, peer_id)
        with self._lock:
            self._connections[peer_id] = connection
            self.broker.connect(peer_id)
        connection.start()

    def attach_local_client(self, client_id: str, deliver):
        """Register an in-process client; *deliver* is called with each
        message routed to it (publishers never receive anything)."""
        with self._lock:
            self.broker.attach_client(client_id)
            self._client_sinks[client_id] = deliver

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                break
            threading.Thread(
                target=self._handshake, args=(sock,), daemon=True
            ).start()

    def _handshake(self, sock: socket.socket):
        buffer = b""
        while b"\n" not in buffer:
            chunk = sock.recv(4096)
            if not chunk:
                sock.close()
                return
            buffer += chunk
        line, rest = buffer.split(b"\n", 1)
        words = line.decode("ascii", "replace").split()
        if len(words) != 2 or words[0] != "HELLO":
            sock.close()
            return
        peer_name = words[1]
        connection = self._make_connection(sock, peer_name)
        with self._lock:
            self._connections[peer_name] = connection
            if peer_name not in self.broker.neighbors:
                self.broker.connect(peer_name)
        # What arrived behind the handshake line goes through before the
        # reader thread exists, so the connection releases in order.
        for extra in rest.split(b"\n"):
            if extra.strip():
                connection._handle_line(extra)
        connection.start()

    # -- message plumbing ------------------------------------------------------

    def submit_local(self, client_id: str, message: Message):
        """A locally attached client hands in a message."""
        self._on_message(client_id, message)

    def _on_message(self, from_hop: str, message: Message):
        """Enqueue one inbound message for the dispatcher thread.

        Called from reader threads and local clients; the pending count
        goes up before the enqueue so a quiescence probe can never see
        "all idle" with a message between queue and handler."""
        with self._pending_lock:
            self._dispatch_pending += 1
        self._inbox.put((from_hop, message))

    def _dispatch_loop(self):
        while True:
            try:
                from_hop, message = self._inbox.get(timeout=0.05)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            try:
                if self.service_delay > 0.0:
                    time.sleep(self.service_delay)
                self._dispatch(from_hop, message)
            except Exception:
                self.errors.append(traceback.format_exc())
            finally:
                with self._pending_lock:
                    self._dispatch_pending -= 1

    def _dispatch(self, from_hop: str, message: Message):
        with self._lock:
            # (Only spans read the clock.)
            frames, hop_spans, _elapsed = self.kernel.dispatch(
                self.broker_id, (message,), from_hop,
                0.0 if self.kernel.tracing is None else time.monotonic(),
            )
            if hop_spans:
                now = time.monotonic()
                for hop_span in hop_spans.values():
                    hop_span.end = now
            for destination, out_messages, view in frames:
                sink = self._client_sinks.get(destination)
                if sink is None:
                    connection = self._connections.get(destination)
                    if connection is None:
                        raise RoutingError(
                            "broker %r has no connection to %r"
                            % (self.broker_id, destination)
                        )
                    for out_msg in out_messages:
                        connection.send(out_msg)
                    continue
                for out_msg in out_messages:
                    if view is not None:
                        # Rides the message object like the trace stamp;
                        # the multiprocess worker folds it into the wire
                        # object so the parent-side auditor can classify
                        # the delivery.
                        stamp_view(out_msg, view)
                    sink(out_msg)


class LocalDeployment:
    """A multi-broker TCP deployment on localhost.

    ``loss_rate``/``loss_seed``/``rto`` propagate to every node's
    connections (see :class:`SocketBrokerNode`) so a whole deployment
    can run over injected-lossy links.
    """

    def __init__(
        self,
        config: Optional[RoutingConfig] = None,
        universe=None,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        rto: float = 0.05,
    ):
        self.config = config
        self.universe = universe
        self.loss_rate = loss_rate
        self.loss_seed = loss_seed
        self.rto = rto
        self.nodes: Dict[str, SocketBrokerNode] = {}
        self._links: Set[Tuple[str, str]] = set()
        self._clients: Dict[str, "DeployedClient"] = {}

    def add_broker(self, broker_id: str) -> SocketBrokerNode:
        node = SocketBrokerNode(
            broker_id,
            config=self.config,
            universe=self.universe,
            loss_rate=self.loss_rate,
            loss_seed=self.loss_seed,
            rto=self.rto,
        )
        self.nodes[broker_id] = node
        return node

    def transport_stats(self) -> Dict[str, int]:
        """Reliability counters aggregated across the deployment."""
        totals: Dict[str, int] = {}
        for node in self.nodes.values():
            for key, value in node.transport_stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def link(self, a: str, b: str):
        self._links.add((a, b))

    def start(self, handshake_timeout: float = 5.0):
        handshake_timeout = scaled(handshake_timeout)
        for node in self.nodes.values():
            node.start()
        for a, b in sorted(self._links):
            self.nodes[a].connect_to(self.nodes[b])
        # connect_to wires the dialing side synchronously, but the
        # passive side registers the connection (and the broker
        # neighbour) in its handshake thread.  A client attached right
        # after start() could otherwise submit to a broker that does not
        # know its neighbours yet, and the message would never flood.
        deadline = time.time() + handshake_timeout
        while time.time() < deadline:
            if all(
                a in self.nodes[b]._connections
                and a in self.nodes[b].broker.neighbors
                for a, b in self._links
            ):
                return
            time.sleep(0.005)
        raise RoutingError(
            "deployment links did not finish handshaking within %.1fs"
            % handshake_timeout
        )

    def stop(self):
        for node in self.nodes.values():
            node.stop()

    def publisher(self, client_id: str, broker_id: str) -> "DeployedClient":
        return self._attach(client_id, broker_id)

    def subscriber(self, client_id: str, broker_id: str) -> "DeployedClient":
        return self._attach(client_id, broker_id)

    def _attach(self, client_id: str, broker_id: str) -> "DeployedClient":
        client = DeployedClient(client_id, self.nodes[broker_id])
        self.nodes[broker_id].attach_local_client(client_id, client._deliver)
        self._clients[client_id] = client
        return client

    def settle(self, timeout: float = 1.0):
        """Crude quiescence wait for tests: sleep-poll until no node has
        handled a new message — and no frame is awaiting an ack — for a
        short grace period.  *timeout* is in unscaled seconds —
        ``REPRO_TEST_TIMEOUT_SCALE`` multiplies every deadline here."""
        timeout = scaled(timeout)

        def totals():
            handled = tuple(
                sum(node.broker.stats.values()) for node in self.nodes.values()
            )
            pending = sum(node.pending_count() for node in self.nodes.values())
            return handled, pending

        deadline = time.time() + timeout
        last = totals()
        stable_since = time.time()
        while time.time() < deadline:
            time.sleep(0.02)
            current = totals()
            if current != last:
                last = current
                stable_since = time.time()
            elif current[1] == 0 and time.time() - stable_since > scaled(0.1):
                return True
        return False


class DeployedClient:
    """A client attached to a deployed broker over the local API."""

    def __init__(self, client_id: str, node: SocketBrokerNode):
        self.client_id = client_id
        self._node = node
        self.received: List[Message] = []
        self._lock = threading.Lock()

    def _deliver(self, message: Message):
        with self._lock:
            self.received.append(message)

    def submit(self, message: Message):
        # Client-originated operations mint their causal trace context
        # here; it rides every data frame the message travels on
        # (retransmits included — they resend the original payload).
        if trace_of(message) is None:
            stamp(message, mint_context())
        self._node.submit_local(self.client_id, message)

    def delivered_documents(self) -> Set[str]:
        with self._lock:
            return {
                msg.publication.doc_id
                for msg in self.received
                if isinstance(msg, PublishMsg)
            }
