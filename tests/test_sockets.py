"""Integration tests: brokers over real TCP sockets.

The same routing layer the simulator exercises in-process runs here
over localhost connections with the JSON wire protocol — the runnable
equivalent of the paper's cluster/PlanetLab deployment.  Deployments
are :class:`~repro.runtime.multiprocess.MultiprocessDeployment`s, one
OS process per broker, so every delivery reaches its subscriber
through the host kernel's dedup and audit path; the handshake tests
drive one :class:`~repro.network.sockets.SocketBrokerNode` directly.

Every wall-clock deadline below (the deployment's quiescence wait and
the transport's internal ack/retransmit timers) is multiplied by the
``REPRO_TEST_TIMEOUT_SCALE`` environment knob, so a loaded CI runner
slows the whole file down with one export instead of per-test edits.
"""

import socket

import pytest

from repro.adverts import Advertisement
from repro.adverts.generator import generate_advertisements
from repro.broker.messages import (
    AdvertiseMsg,
    PublishMsg,
    SubscribeMsg,
    UnsubscribeMsg,
)
from repro.broker.strategies import RoutingConfig
from repro.dtd.parser import parse_dtd
from repro.errors import TopologyError
from repro.merging.engine import PathUniverse
from repro.network import Overlay
from repro.network.sockets import SocketBrokerNode
from repro.runtime.base import TIMEOUT_SCALE_ENV, scaled, timeout_scale
from repro.runtime.multiprocess import MultiprocessDeployment
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


def _deployment(config, **kwargs):
    """A started b1 - b2 - b3 chain (the caller stops it)."""
    deployment = MultiprocessDeployment(config=config, **kwargs)
    for name in ("b1", "b2", "b3"):
        deployment.add_broker(name)
    deployment.link("b1", "b2")
    deployment.link("b2", "b3")
    deployment.start()
    return deployment


def _publication(doc_id, path, publisher_id="pub"):
    return PublishMsg(
        publication=Publication(doc_id=doc_id, path_id=0, path=path),
        publisher_id=publisher_id,
    )


@pytest.fixture
def chain():
    deployment = _deployment(RoutingConfig.with_adv_with_cov())
    yield deployment
    deployment.stop()


def test_end_to_end_over_tcp(chain):
    chain.attach_publisher("pub", "b1")
    subscriber = chain.attach_subscriber("sub", "b3")

    chain.submit(
        "pub",
        AdvertiseMsg(
            adv_id="adv1",
            advert=Advertisement.from_tests(("claims", "claim", "amount")),
            publisher_id="pub",
        ),
    )
    chain.run()

    chain.submit(
        "sub",
        SubscribeMsg(expr=parse_xpath("/claims//amount"), subscriber_id="sub"),
    )
    chain.run()

    chain.submit("pub", _publication("c-1", ("claims", "claim", "amount")))
    chain.run()
    assert subscriber.delivered_documents() == {"c-1"}


def test_non_matching_publication_not_delivered(chain):
    chain.attach_publisher("pub", "b1")
    subscriber = chain.attach_subscriber("sub", "b3")

    chain.submit(
        "pub",
        AdvertiseMsg(
            adv_id="adv1",
            advert=Advertisement.from_tests(("claims", "claim", "amount")),
            publisher_id="pub",
        ),
    )
    chain.run()
    chain.submit(
        "sub",
        SubscribeMsg(
            expr=parse_xpath("/claims/claim/policy"), subscriber_id="sub"
        ),
    )
    chain.run()
    chain.submit("pub", _publication("c-2", ("claims", "claim", "amount")))
    chain.run()
    assert subscriber.delivered_documents() == set()


def test_subscription_travels_only_toward_advertiser(chain):
    """With advertisement-based routing, b3's subscription reaches b1
    via b2; brokers store it along the way."""
    chain.attach_publisher("pub", "b1")
    chain.attach_subscriber("sub", "b3")
    chain.submit(
        "pub",
        AdvertiseMsg(
            adv_id="adv1",
            advert=Advertisement.from_tests(("a", "b")),
            publisher_id="pub",
        ),
    )
    chain.run()
    chain.submit("sub", SubscribeMsg(expr=parse_xpath("/a"), subscriber_id="sub"))
    chain.run()
    brokers = chain.restore_brokers()
    assert brokers["b1"].routing_table_size() == 1
    assert brokers["b2"].routing_table_size() == 1


def _wait_until(condition, timeout=5.0):
    import time

    deadline = time.time() + scaled(timeout)
    while time.time() < deadline:
        if condition():
            return True
        time.sleep(0.005)
    return condition()


class TestRobustness:
    """The handshake is the node's: one ``SocketBrokerNode`` with two
    local clients, and raw sockets playing the dialing peer."""

    @pytest.fixture
    def node(self):
        node = SocketBrokerNode("b1", config=RoutingConfig.no_adv_no_cov())
        node.start()
        yield node
        node.stop()

    @staticmethod
    def _attach(node, client_id):
        received = []
        node.attach_local_client(client_id, received.append)
        return received

    @staticmethod
    def _closed_by_node(sock):
        """True when the node closes *sock* from its end."""
        sock.settimeout(scaled(5.0))
        try:
            return sock.recv(1) == b""
        finally:
            sock.close()

    def test_garbage_handshake_is_ignored(self, node):
        """A peer that fails the handshake must not crash the node."""
        sock = socket.create_connection((node.host, node.port))
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
        assert self._closed_by_node(sock)
        # The node still routes afterwards, and still takes a peer.
        received = self._attach(node, "sub")
        self._attach(node, "pub")
        node.submit_local(
            "sub", SubscribeMsg(expr=parse_xpath("/r"), subscriber_id="sub")
        )
        node.submit_local("pub", _publication("r-1", ("r", "s")))
        assert _wait_until(lambda: len(received) == 1)
        assert received[0].publication.doc_id == "r-1"
        peer = socket.create_connection((node.host, node.port))
        try:
            peer.sendall(b"HELLO b2\n")
            assert _wait_until(lambda: "b2" in node.broker.neighbors)
        finally:
            peer.close()
        assert node.transport_stats()["malformed"] == 1
        assert node.errors == []

    def test_half_open_connection_ignored(self, node):
        sock = socket.create_connection((node.host, node.port))
        # Say nothing; just disconnect.
        sock.close()
        assert _wait_until(lambda: node.pending_count() == 0)
        assert node.broker.neighbors == set()
        assert node.errors == []

    def test_hello_with_a_refused_name_registers_nothing(self, node):
        """``HELLO sub`` names a local client and ``HELLO b1`` the node
        itself: the broker refuses both, so each socket is closed and
        counted as malformed, no connection or neighbour is left behind,
        and a SUB from another client is not flooded into ``sub``'s
        sink."""
        received = self._attach(node, "sub")
        self._attach(node, "other")
        for name in (b"sub", b"b1"):
            sock = socket.create_connection((node.host, node.port))
            sock.sendall(b"HELLO " + name + b"\n")
            assert self._closed_by_node(sock), name
        assert node.broker.neighbors == set()
        assert node._connections == {}
        assert node.transport_stats()["malformed"] == 2
        node.submit_local(
            "other", SubscribeMsg(expr=parse_xpath("/a"), subscriber_id="other")
        )
        assert _wait_until(lambda: node.pending_count() == 0)
        assert received == []
        assert node.errors == []


class TestTimeoutScale:
    """The single knob every deadline in this file derives from."""

    def test_default_is_identity(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_SCALE_ENV, raising=False)
        assert timeout_scale() == 1.0
        assert scaled(5.0) == 5.0

    def test_scales_every_deadline(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_SCALE_ENV, "3")
        assert timeout_scale() == 3.0
        assert scaled(5.0) == 15.0

    @pytest.mark.parametrize("raw", ["banana", "", "0", "-2"])
    def test_broken_values_never_shrink_timeouts(self, raw, monkeypatch):
        """An unparseable or non-positive export must fall back to 1.0
        — a broken env var should never turn into a zero deadline."""
        monkeypatch.setenv(TIMEOUT_SCALE_ENV, raw)
        assert timeout_scale() == 1.0
        assert scaled(2.0) == 2.0

    def test_deployment_honours_the_knob(self, monkeypatch):
        """A scaled deployment still settles: the knob stretches the
        deadline and the transport timers together, it never races one
        against the other."""
        monkeypatch.setenv(TIMEOUT_SCALE_ENV, "2")
        deployment = MultiprocessDeployment(config=RoutingConfig.no_adv_no_cov())
        deployment.add_broker("b1")
        deployment.add_broker("b2")
        deployment.link("b1", "b2")
        deployment.start()
        try:
            deployment.attach_subscriber("sub", "b2")
            deployment.submit(
                "sub", SubscribeMsg(expr=parse_xpath("/x"), subscriber_id="sub")
            )
            assert deployment.settle(timeout=2.5)
        finally:
            deployment.stop()


def _assert_loss_healed(deployment, subscriber):
    """Loss was injected and retried, never surfaced: no frame was
    abandoned, no broker handler failed, and no subscriber saw a
    redelivery."""
    stats = deployment.transport_stats()
    assert stats["injected_drops"] > 0
    assert stats["retransmits"] > 0
    assert stats["abandoned"] == 0
    assert deployment.broker_errors() == {"b1": [], "b2": [], "b3": []}
    assert subscriber.duplicates == 0


class TestLossyLinks:
    """The TCP layer's sequence/ack/retransmit protocol heals
    sender-side injected frame loss (the deployment-level twin of the
    simulator's FaultPlan)."""

    @pytest.fixture
    def lossy_chain(self):
        deployment = _deployment(
            RoutingConfig.no_adv_no_cov(),
            loss_rate=0.25,
            loss_seed=7,
            rto=0.05,
        )
        yield deployment
        deployment.stop()

    def test_delivery_survives_injected_loss(self, lossy_chain):
        lossy_chain.attach_publisher("pub", "b1")
        subscriber = lossy_chain.attach_subscriber("sub", "b3")
        lossy_chain.submit(
            "sub",
            SubscribeMsg(
                expr=parse_xpath("/claims//amount"), subscriber_id="sub"
            ),
        )
        lossy_chain.run()
        doc_ids = ["c-%d" % i for i in range(5)]
        for doc_id in doc_ids:
            lossy_chain.submit(
                "pub", _publication(doc_id, ("claims", "claim", "amount"))
            )
        lossy_chain.run()
        assert subscriber.delivered_documents() == set(doc_ids)
        _assert_loss_healed(lossy_chain, subscriber)


# -- the reliable connection: one Channel, driven over TCP --------------------


def _label(message):
    return "%s:%s" % (type(message).__name__, message.expr)


class TestConnection:
    """``_Connection`` pairs over ``socket.socketpair()`` — the TCP
    driver of ``repro.network.reliable.Channel`` without a broker."""

    @pytest.fixture
    def pair(self):
        import socket

        from repro.network.sockets import _Connection

        made = []

        def connect(drop_send=None):
            left, right = socket.socketpair()
            received = []
            sender = _Connection(
                left, "rx", lambda peer, message: None,
                drop_send=drop_send, rto=0.02,
            )
            receiver = _Connection(
                right, "tx", lambda peer, message: received.append(message),
                rto=0.02,
            )
            made.extend((sender, receiver))
            sender.start()
            receiver.start()
            return sender, receiver, received

        yield connect
        for connection in made:
            connection.close()

    def test_unsub_never_overtakes_its_sub_under_loss(self, pair):
        """The first physical transmission (the SUB) is dropped; its
        retransmission reaches the peer after the UNSUB sent behind it.
        The connection must still hand the broker SUB before UNSUB,
        each exactly once — released out of order, the UNSUB would be a
        no-op and the SUB a dead subscription routed forever."""
        from repro.broker.messages import UnsubscribeMsg

        dropped = []

        def drop_first(payload):
            if not dropped:
                dropped.append(payload)
                return True
            return False

        sender, _receiver, received = pair(drop_send=drop_first)
        expr = parse_xpath("/a")
        sender.send(SubscribeMsg(expr=expr, subscriber_id="s"))
        sender.send(UnsubscribeMsg(expr=expr, subscriber_id="s"))
        # (the receiver acks before it hands a message on)
        assert _wait_until(
            lambda: len(received) == 2 and sender.pending_count() == 0
        )
        assert [_label(m) for m in received] == [
            "SubscribeMsg:/a", "UnsubscribeMsg:/a",
        ]
        assert sender.stats["retransmits"] >= 1

    def test_receiver_dedup_state_does_not_grow_with_traffic(self, pair):
        """After N in-order frames the receiving end holds a counter
        and an empty window — not N sequence numbers."""
        sender, receiver, received = pair()
        for i in range(200):
            sender.send(SubscribeMsg(expr=parse_xpath("/a/b%d" % i)))
        assert _wait_until(
            lambda: len(received) == 200 and sender.pending_count() == 0
        )
        channel = receiver._channel
        assert channel.expected == 200
        assert channel.buffer == {} and channel.unacked == {}
        assert sender._channel.unacked == {}

    def test_malformed_frames_do_not_kill_the_reader(self):
        """Garbage on the wire is counted and skipped; a valid data
        frame behind it on the same socket is still delivered and
        acknowledged (the reader thread used to die on the first bad
        line, with the connection still looking open)."""
        import socket

        from repro.network.sockets import _Connection
        from repro.network.wire import decode_frame, encode_data_frame

        raw, wired = socket.socketpair()
        received = []
        connection = _Connection(
            wired, "peer", lambda peer, message: received.append(message)
        )
        connection.start()
        try:
            message = SubscribeMsg(expr=parse_xpath("/a"), subscriber_id="s")
            raw.sendall(
                b"not json at all\n"
                b"\xff\xfe\xfd\n"
                b'{"kind":"data","seq":"x"}\n'
                + encode_data_frame(0, message)
            )
            raw.settimeout(scaled(5.0))
            reply = b""
            while b"\n" not in reply:
                reply += raw.recv(4096)
            ack = decode_frame(reply.split(b"\n", 1)[0])
            assert (ack.kind, ack.seq) == ("ack", 0)
            # (the ack leaves before the message is handed on)
            assert _wait_until(lambda: len(received) == 1)
            assert [_label(m) for m in received] == ["SubscribeMsg:/a"]
            assert connection.stats["malformed"] == 3
        finally:
            connection.close()
            raw.close()

    #: Data frames that parse as JSON but carry a wrong-typed field.
    WRONG_TYPED = [
        {"kind": "publish", "doc_id": "d", "path_id": 0, "path": 5},
        {"kind": "publish", "doc_id": "d", "path_id": "x", "path": ["a"]},
        {"kind": "publish", "doc_id": "d", "path_id": 0, "path": ["a"],
         "attributes": 5},
        {"kind": "publish", "doc_id": "d", "path_id": 0, "path": ["a"],
         "doc_size_bytes": "z"},
        {"kind": "subscribe", "expr": 5},
        {"kind": "subscribe", "expr": "/a[["},
        {"kind": "advertise", "adv_id": "a1", "advert": [{"rep": 5}]},
    ]

    def test_wrong_typed_data_frames_are_malformed(self):
        """A data frame whose JSON parses but whose fields have the
        wrong type is counted as malformed and skipped like garbage;
        the valid frame behind it is still delivered.  A bool is not a
        seq: ``"seq": true`` would otherwise be buffered as seq 1 and
        released behind the valid seq 0."""
        import json
        import socket

        from repro.network.sockets import _Connection
        from repro.network.wire import encode_data_frame

        peer, wired = socket.socketpair()
        received = []
        connection = _Connection(
            wired, "peer", lambda _peer, message: received.append(message)
        )
        connection.start()
        try:
            lines = [
                json.dumps({"kind": "data", "seq": 0, "msg": msg})
                for msg in self.WRONG_TYPED
            ]
            lines.append(json.dumps({
                "kind": "data", "seq": True,
                "msg": {"kind": "subscribe", "expr": "/x"},
            }))
            peer.sendall(
                "".join(line + "\n" for line in lines).encode("utf-8")
                + encode_data_frame(
                    0, SubscribeMsg(expr=parse_xpath("/a"), subscriber_id="s")
                )
            )
            assert _wait_until(lambda: connection.stats["acks"] == 1)
            assert _wait_until(lambda: connection.pending_count() == 0)
            assert connection.stats["malformed"] == len(lines)
            assert [_label(m) for m in received] == ["SubscribeMsg:/a"]
        finally:
            connection.close()
            peer.close()

    def test_a_bare_message_line_is_malformed(self):
        """A message outside a data frame carries no seq: handed on, it
        would skip the ack, the dedup and the in-order release, and
        overtake the stream unseen by a quiescence probe.  It is
        counted as malformed and skipped; the data frame behind it is
        the one message delivered."""
        import socket

        from repro.network.sockets import _Connection
        from repro.network.wire import encode, encode_data_frame

        peer, wired = socket.socketpair()
        received = []
        connection = _Connection(
            wired, "peer", lambda _peer, message: received.append(message)
        )
        connection.start()
        try:
            peer.sendall(
                encode(SubscribeMsg(expr=parse_xpath("/x"), subscriber_id="s"))
                + encode_data_frame(
                    0, SubscribeMsg(expr=parse_xpath("/a"), subscriber_id="s")
                )
            )
            assert _wait_until(lambda: connection.stats["acks"] == 1)
            assert _wait_until(lambda: connection.pending_count() == 0)
            assert [_label(m) for m in received] == ["SubscribeMsg:/a"]
            assert connection.stats["malformed"] == 1
        finally:
            connection.close()
            peer.close()


class TestLossyLinksKeepOrder:
    def test_sub_unsub_pub_under_loss_leaves_nothing_behind(self):
        """SUB then UNSUB back to back over 25 %-lossy links, then a
        publication: whatever was dropped and resent, every broker ends
        with an empty routing table and nothing is delivered."""
        deployment = _deployment(
            RoutingConfig.no_adv_no_cov(),
            loss_rate=0.25, loss_seed=11, rto=0.02,
        )
        try:
            deployment.attach_publisher("pub", "b1")
            subscriber = deployment.attach_subscriber("sub", "b3")
            exprs = [parse_xpath("/claims/claim/f%d" % i) for i in range(12)]
            exprs.append(parse_xpath("/claims//amount"))
            for expr in exprs:
                deployment.submit(
                    "sub", SubscribeMsg(expr=expr, subscriber_id="sub")
                )
                deployment.submit(
                    "sub", UnsubscribeMsg(expr=expr, subscriber_id="sub")
                )
            deployment.run()
            deployment.submit(
                "pub", _publication("c-1", ("claims", "claim", "amount"))
            )
            deployment.run()
            assert subscriber.delivered_documents() == set()
            for name, broker in deployment.restore_brokers().items():
                assert broker.routing_table_size() == 0, name
            _assert_loss_healed(deployment, subscriber)
        finally:
            deployment.stop()


_MERGE_DTD = parse_dtd(
    """
    <!ELEMENT r (a, b)>
    <!ELEMENT a (c | d | e)>
    <!ELEMENT b (c?)>
    <!ELEMENT c (#PCDATA)>
    <!ELEMENT d (#PCDATA)>
    <!ELEMENT e (#PCDATA)>
    """
)


def _ipm_chain(merge_interval, host_class=MultiprocessDeployment):
    """A b1 - b2 - b3 IPM chain over the DTD's universe, with a
    publisher at b1 whose advertisements have settled, a subscriber
    ``sub`` at b3 and a subscriber ``mid`` at b2."""
    config = RoutingConfig.with_adv_with_cov_ipm(merge_interval=merge_interval)
    universe = PathUniverse.from_dtd(_MERGE_DTD)
    if host_class is MultiprocessDeployment:
        host = _deployment(config, universe=universe)
    else:
        host = Overlay(config=config, universe=universe)
        for name in ("b1", "b2", "b3"):
            host.add_broker(name)
        host.connect("b1", "b2")
        host.connect("b2", "b3")
    host.attach_publisher("pub", "b1")
    host.attach_subscriber("sub", "b3")
    host.attach_subscriber("mid", "b2")
    for i, advert in enumerate(generate_advertisements(_MERGE_DTD)):
        host.submit(
            "pub",
            AdvertiseMsg(adv_id="adv%d" % i, advert=advert, publisher_id="pub"),
        )
    host.run()
    return host


def _subscribe(host, client_id, texts):
    for text in texts:
        host.submit(
            client_id,
            SubscribeMsg(expr=parse_xpath(text), subscriber_id=client_id),
        )


class TestMergingOnSockets:
    def test_merge_sweeps_run_without_any_host_timer(self):
        """Merge sweeps are count-driven inside ``Broker.handle_subscribe``
        (every ``merge_interval`` subscriptions), not a host timer: a
        socket host, which has no timers at all, still merges — and the
        merger crosses the wire to the neighbour."""
        deployment = _ipm_chain(merge_interval=3)
        try:
            subscriber = deployment.subscribers["sub"]
            # the full sibling set under /r/a: the third subscription
            # triggers b3's sweep, which rewrites it to /r/a/*
            _subscribe(deployment, "sub", ("/r/a/c", "/r/a/d", "/r/a/e"))
            deployment.run()
            merger = parse_xpath("/r/a/*")
            brokers = deployment.restore_brokers()
            edge = brokers["b3"]
            assert [event.merger for event in edge.merge_log] == [merger]
            neighbour = brokers["b2"]
            assert merger in neighbour.table
            assert "b3" in neighbour.table.keys_of(merger)
            deployment.submit("pub", _publication("m-1", ("r", "a", "d")))
            deployment.run()
            assert subscriber.delivered_documents() == {"m-1"}
        finally:
            deployment.stop()

    def test_a_forced_sweep_merges_and_delivers_as_the_simulator(self):
        """``trigger_merge_sweep`` over the control pipe: b3's
        dispatcher runs the sweep in inbox order and sends its frames
        like any handler's; afterwards every subscriber receives exactly
        what it receives on the simulator after the same forced
        sweep."""
        paths = [("r", "a", "c"), ("r", "a", "d"), ("r", "b", "c"),
                 ("r", "a", "e")]

        def publish_after_sweep(host):
            """Subscribe, force b3's sweep, publish; each subscriber's
            delivered documents."""
            _subscribe(host, "sub", ("/r/a/c", "/r/a/d", "/r/a/e"))
            _subscribe(host, "mid", ("/r/b/c",))
            host.run()
            host.trigger_merge_sweep("b3")
            host.run()
            for i, path in enumerate(paths):
                host.submit("pub", _publication("m-%d" % i, path))
            host.run()
            return {
                client_id: client.delivered_documents()
                for client_id, client in host.subscribers.items()
            }

        deployment = _ipm_chain(merge_interval=1000)
        try:
            assert deployment.restore_brokers()["b3"].merge_log == []
            delivered = publish_after_sweep(deployment)
            merges = deployment.restore_brokers()["b3"].merge_log
            assert deployment.broker_errors() == {"b1": [], "b2": [], "b3": []}
        finally:
            deployment.stop()
        overlay = _ipm_chain(merge_interval=1000, host_class=Overlay)
        expected = publish_after_sweep(overlay)
        merger = parse_xpath("/r/a/*")
        assert [event.merger for event in merges] == [merger]
        assert [event.merger for event in overlay.brokers["b3"].merge_log] == [
            merger
        ]
        assert expected == {"sub": {"m-0", "m-1", "m-3"}, "mid": {"m-2"}}
        assert delivered == expected

    def test_a_forced_sweep_needs_a_started_deployment_and_a_known_broker(
        self,
    ):
        unstarted = MultiprocessDeployment(config=RoutingConfig.no_adv_no_cov())
        unstarted.add_broker("b1")
        with pytest.raises(TopologyError, match="unknown broker"):
            unstarted.trigger_merge_sweep("nowhere")
        with pytest.raises(TopologyError, match="after start"):
            unstarted.trigger_merge_sweep("b1")
