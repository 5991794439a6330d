"""Integration tests: brokers over real TCP sockets.

The same routing layer the simulator exercises in-process runs here
over localhost connections with the JSON wire protocol — the runnable
equivalent of the paper's cluster/PlanetLab deployment.

Every wall-clock deadline below (the ``settle(timeout=...)`` calls and
the transport's internal ack/retransmit timers) is multiplied by the
``REPRO_TEST_TIMEOUT_SCALE`` environment knob, so a loaded CI runner
slows the whole file down with one export instead of per-test edits.
"""

import pytest

from repro.adverts import Advertisement
from repro.broker.messages import AdvertiseMsg, PublishMsg, SubscribeMsg
from repro.broker.strategies import RoutingConfig
from repro.network.sockets import LocalDeployment
from repro.runtime.base import TIMEOUT_SCALE_ENV, scaled, timeout_scale
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


@pytest.fixture
def chain():
    deployment = LocalDeployment(config=RoutingConfig.with_adv_with_cov())
    for name in ("b1", "b2", "b3"):
        deployment.add_broker(name)
    deployment.link("b1", "b2")
    deployment.link("b2", "b3")
    deployment.start()
    yield deployment
    deployment.stop()


def test_end_to_end_over_tcp(chain):
    publisher = chain.publisher("pub", "b1")
    subscriber = chain.subscriber("sub", "b3")

    publisher.submit(
        AdvertiseMsg(
            adv_id="adv1",
            advert=Advertisement.from_tests(("claims", "claim", "amount")),
            publisher_id="pub",
        )
    )
    assert chain.settle(timeout=5.0)

    subscriber.submit(
        SubscribeMsg(expr=parse_xpath("/claims//amount"), subscriber_id="sub")
    )
    assert chain.settle(timeout=5.0)

    publisher.submit(
        PublishMsg(
            publication=Publication(
                doc_id="c-1", path_id=0, path=("claims", "claim", "amount")
            ),
            publisher_id="pub",
        )
    )
    assert chain.settle(timeout=5.0)
    assert subscriber.delivered_documents() == {"c-1"}


def test_non_matching_publication_not_delivered(chain):
    publisher = chain.publisher("pub", "b1")
    subscriber = chain.subscriber("sub", "b3")

    publisher.submit(
        AdvertiseMsg(
            adv_id="adv1",
            advert=Advertisement.from_tests(("claims", "claim", "amount")),
            publisher_id="pub",
        )
    )
    chain.settle(timeout=5.0)
    subscriber.submit(
        SubscribeMsg(expr=parse_xpath("/claims/claim/policy"), subscriber_id="sub")
    )
    chain.settle(timeout=5.0)
    publisher.submit(
        PublishMsg(
            publication=Publication(
                doc_id="c-2", path_id=0, path=("claims", "claim", "amount")
            ),
            publisher_id="pub",
        )
    )
    chain.settle(timeout=5.0)
    assert subscriber.delivered_documents() == set()


def test_subscription_travels_only_toward_advertiser(chain):
    """With advertisement-based routing, b3's subscription reaches b1
    via b2; brokers store it along the way."""
    publisher = chain.publisher("pub", "b1")
    subscriber = chain.subscriber("sub", "b3")
    publisher.submit(
        AdvertiseMsg(
            adv_id="adv1",
            advert=Advertisement.from_tests(("a", "b")),
            publisher_id="pub",
        )
    )
    chain.settle(timeout=5.0)
    subscriber.submit(
        SubscribeMsg(expr=parse_xpath("/a"), subscriber_id="sub")
    )
    chain.settle(timeout=5.0)
    assert chain.nodes["b1"].broker.routing_table_size() == 1
    assert chain.nodes["b2"].broker.routing_table_size() == 1


class TestRobustness:
    def test_garbage_handshake_is_ignored(self, chain):
        """A peer that fails the handshake must not crash the node."""
        import socket

        node = chain.nodes["b2"]
        sock = socket.create_connection((node.host, node.port))
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
        sock.close()
        # The deployment still works end to end afterwards.
        publisher = chain.publisher("pub2", "b1")
        subscriber = chain.subscriber("sub2", "b3")
        publisher.submit(
            AdvertiseMsg(
                adv_id="adv9",
                advert=Advertisement.from_tests(("r", "s")),
                publisher_id="pub2",
            )
        )
        chain.settle(timeout=5.0)
        subscriber.submit(
            SubscribeMsg(expr=parse_xpath("/r"), subscriber_id="sub2")
        )
        chain.settle(timeout=5.0)
        publisher.submit(
            PublishMsg(
                publication=Publication(
                    doc_id="r-1", path_id=0, path=("r", "s")
                ),
                publisher_id="pub2",
            )
        )
        chain.settle(timeout=5.0)
        assert subscriber.delivered_documents() == {"r-1"}

    def test_half_open_connection_ignored(self, chain):
        import socket

        node = chain.nodes["b1"]
        sock = socket.create_connection((node.host, node.port))
        # Say nothing; just disconnect.
        sock.close()
        assert chain.settle(timeout=2.0)


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
        deployment = LocalDeployment(config=RoutingConfig.no_adv_no_cov())
        deployment.add_broker("b1")
        deployment.add_broker("b2")
        deployment.link("b1", "b2")
        deployment.start()
        try:
            subscriber = deployment.subscriber("sub", "b2")
            subscriber.submit(
                SubscribeMsg(expr=parse_xpath("/x"), subscriber_id="sub")
            )
            assert deployment.settle(timeout=2.5)
        finally:
            deployment.stop()


class TestLossyLinks:
    """The TCP layer's sequence/ack/retransmit protocol heals
    sender-side injected frame loss (the deployment-level twin of the
    simulator's FaultPlan)."""

    @pytest.fixture
    def lossy_chain(self):
        deployment = LocalDeployment(
            config=RoutingConfig.no_adv_no_cov(),
            loss_rate=0.25,
            loss_seed=7,
            rto=0.05,
        )
        for name in ("b1", "b2", "b3"):
            deployment.add_broker(name)
        deployment.link("b1", "b2")
        deployment.link("b2", "b3")
        deployment.start()
        yield deployment
        deployment.stop()

    def test_delivery_survives_injected_loss(self, lossy_chain):
        publisher = lossy_chain.publisher("pub", "b1")
        subscriber = lossy_chain.subscriber("sub", "b3")
        subscriber.submit(
            SubscribeMsg(expr=parse_xpath("/claims//amount"), subscriber_id="sub")
        )
        assert lossy_chain.settle(timeout=10.0)
        doc_ids = ["c-%d" % i for i in range(5)]
        for doc_id in doc_ids:
            publisher.submit(
                PublishMsg(
                    publication=Publication(
                        doc_id=doc_id,
                        path_id=0,
                        path=("claims", "claim", "amount"),
                    ),
                    publisher_id="pub",
                )
            )
        assert lossy_chain.settle(timeout=10.0)
        assert subscriber.delivered_documents() == set(doc_ids)
        stats = lossy_chain.transport_stats()
        assert stats["injected_drops"] > 0
        assert stats["retransmits"] > 0
        # loss was healed, never surfaced: every loss was retried and
        # each broker saw each message once (no dup delivered twice)
        assert stats["abandoned"] == 0


# -- the reliable connection: one Channel, driven over TCP --------------------


def _wait_until(condition, timeout=5.0):
    import time

    deadline = time.time() + scaled(timeout)
    while time.time() < deadline:
        if condition():
            return True
        time.sleep(0.005)
    return condition()


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
        assert _wait_until(lambda: sender.pending_count() == 0)
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
        from repro.broker.messages import UnsubscribeMsg

        deployment = LocalDeployment(
            config=RoutingConfig.no_adv_no_cov(),
            loss_rate=0.25, loss_seed=11, rto=0.02,
        )
        for name in ("b1", "b2", "b3"):
            deployment.add_broker(name)
        deployment.link("b1", "b2")
        deployment.link("b2", "b3")
        deployment.start()
        try:
            publisher = deployment.publisher("pub", "b1")
            subscriber = deployment.subscriber("sub", "b3")
            exprs = [parse_xpath("/claims/claim/f%d" % i) for i in range(12)]
            exprs.append(parse_xpath("/claims//amount"))
            for expr in exprs:
                subscriber.submit(SubscribeMsg(expr=expr, subscriber_id="sub"))
                subscriber.submit(
                    UnsubscribeMsg(expr=expr, subscriber_id="sub")
                )
            assert deployment.settle(timeout=20.0)
            publisher.submit(
                PublishMsg(
                    publication=Publication(
                        doc_id="c-1", path_id=0,
                        path=("claims", "claim", "amount"),
                    ),
                    publisher_id="pub",
                )
            )
            assert deployment.settle(timeout=20.0)
            assert deployment.transport_stats()["retransmits"] > 0
            assert subscriber.delivered_documents() == set()
            for name, node in deployment.nodes.items():
                assert node.broker.routing_table_size() == 0, name
                assert node.errors == [], name
        finally:
            deployment.stop()


class TestMergingOnSockets:
    def test_merge_sweeps_run_without_any_host_timer(self):
        """Merge sweeps are count-driven inside ``Broker.handle_subscribe``
        (every ``merge_interval`` subscriptions), not a host timer: a
        socket host, which has no timers at all, still merges — and the
        merger crosses the wire to the neighbour."""
        from repro.dtd.parser import parse_dtd
        from repro.merging.engine import PathUniverse

        from repro.adverts.generator import generate_advertisements

        dtd = parse_dtd(
            """
            <!ELEMENT r (a, b)>
            <!ELEMENT a (c | d | e)>
            <!ELEMENT b (c?)>
            <!ELEMENT c (#PCDATA)>
            <!ELEMENT d (#PCDATA)>
            <!ELEMENT e (#PCDATA)>
            """
        )
        universe = PathUniverse.from_dtd(dtd)
        deployment = LocalDeployment(
            config=RoutingConfig.with_adv_with_cov_ipm(merge_interval=3),
            universe=universe,
        )
        for name in ("b1", "b2", "b3"):
            deployment.add_broker(name)
        deployment.link("b1", "b2")
        deployment.link("b2", "b3")
        deployment.start()
        try:
            publisher = deployment.publisher("pub", "b1")
            subscriber = deployment.subscriber("sub", "b3")
            for i, advert in enumerate(generate_advertisements(dtd)):
                publisher.submit(
                    AdvertiseMsg(
                        adv_id="adv%d" % i, advert=advert, publisher_id="pub"
                    )
                )
            assert deployment.settle(timeout=5.0)
            # the full sibling set under /r/a: the third subscription
            # triggers b3's sweep, which rewrites it to /r/a/*
            for text in ("/r/a/c", "/r/a/d", "/r/a/e"):
                subscriber.submit(
                    SubscribeMsg(expr=parse_xpath(text), subscriber_id="sub")
                )
            assert deployment.settle(timeout=5.0)
            merger = parse_xpath("/r/a/*")
            edge = deployment.nodes["b3"].broker
            assert [event.merger for event in edge.merge_log] == [merger]
            neighbour = deployment.nodes["b2"].broker
            assert merger in neighbour.tree
            assert "b3" in neighbour.tree.node_of(merger).keys
            publisher.submit(
                PublishMsg(
                    publication=Publication(
                        doc_id="m-1", path_id=0, path=("r", "a", "d")
                    ),
                    publisher_id="pub",
                )
            )
            assert deployment.settle(timeout=5.0)
            assert subscriber.delivered_documents() == {"m-1"}
        finally:
            deployment.stop()
