"""Unit + property tests for the wire format."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adverts.model import Advertisement, Lit, Rep, simple_recursive
from repro.broker.messages import (
    AdvertiseMsg,
    PublishMsg,
    SubscribeMsg,
    UnadvertiseMsg,
    UnsubscribeMsg,
)
from repro.network.wire import (
    WireError,
    advert_from_obj,
    decode,
    decode_frame,
    encode,
    encode_ack_frame,
    encode_data_frame,
)
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


class TestRoundTrips:
    def test_subscribe(self):
        msg = SubscribeMsg(expr=parse_xpath("/a/*//b"), subscriber_id="s1")
        decoded = decode(encode(msg))
        assert decoded.expr == msg.expr
        assert decoded.subscriber_id == "s1"

    def test_unsubscribe(self):
        msg = UnsubscribeMsg(expr=parse_xpath("d/a"), subscriber_id="s2")
        decoded = decode(encode(msg))
        assert decoded.expr == msg.expr

    def test_advertise_non_recursive(self):
        msg = AdvertiseMsg(
            adv_id="a1",
            advert=Advertisement.from_tests(("x", "y")),
            publisher_id="p",
        )
        decoded = decode(encode(msg))
        assert decoded.adv_id == "a1"
        assert decoded.advert == msg.advert

    def test_advertise_recursive(self):
        advert = simple_recursive(("a",), ("b", "c"), ("d",))
        decoded = decode(encode(AdvertiseMsg(adv_id="a2", advert=advert)))
        assert decoded.advert == advert
        assert str(decoded.advert) == "/a(/b/c)+/d"

    def test_advertise_embedded_recursive(self):
        advert = Advertisement(
            (Lit(("r",)), Rep((Lit(("a",)), Rep((Lit(("b",)),)))), Lit(("z",)))
        )
        decoded = decode(encode(AdvertiseMsg(adv_id="a3", advert=advert)))
        assert decoded.advert == advert

    def test_unadvertise(self):
        decoded = decode(encode(UnadvertiseMsg(adv_id="gone")))
        assert decoded.adv_id == "gone"

    def test_publish(self):
        msg = PublishMsg(
            publication=Publication(doc_id="d9", path_id=3, path=("a", "b")),
            publisher_id="p",
            doc_size_bytes=2048,
            issued_at=1.25,
        )
        decoded = decode(encode(msg))
        assert decoded.publication == msg.publication
        assert decoded.doc_size_bytes == 2048
        assert decoded.issued_at == 1.25

    def test_encoding_is_newline_framed(self):
        data = encode(UnadvertiseMsg(adv_id="x"))
        assert data.endswith(b"\n")
        assert b"\n" not in data[:-1]


class TestErrors:
    def test_bad_json(self):
        with pytest.raises(WireError):
            decode(b"{nope")

    def test_non_object(self):
        with pytest.raises(WireError):
            decode(b"[1,2,3]")

    def test_unknown_kind(self):
        with pytest.raises(WireError):
            decode(b'{"kind":"teleport"}')

    def test_missing_field(self):
        with pytest.raises(WireError):
            decode(b'{"kind":"publish","doc_id":"d"}')

    def test_malformed_advert_node(self):
        with pytest.raises(WireError):
            advert_from_obj([{"zzz": []}])
        with pytest.raises(WireError):
            advert_from_obj([])
        with pytest.raises(WireError):
            advert_from_obj([{"lit": [1, 2]}])

    def test_a_bare_message_is_not_a_frame(self):
        # a valid message outside a data frame has no seq to ack, dedup
        # or release in order
        assert decode(encode(UnadvertiseMsg(adv_id="g"))).adv_id == "g"
        with pytest.raises(WireError):
            decode_frame(encode(UnadvertiseMsg(adv_id="g")))


def _sample_messages():
    return [
        SubscribeMsg(expr=parse_xpath("/a/*//b"), subscriber_id="s1"),
        UnsubscribeMsg(expr=parse_xpath("d/a"), subscriber_id="s2"),
        AdvertiseMsg(
            adv_id="a1",
            advert=Advertisement.from_tests(("x", "y")),
            publisher_id="p",
        ),
        UnadvertiseMsg(adv_id="gone"),
        PublishMsg(
            publication=Publication(doc_id="d9", path_id=3, path=("a", "b")),
            publisher_id="p",
        ),
    ]


class TestTraceContext:
    def test_stamped_message_round_trips_its_context(self):
        from repro.obs.tracing import TraceContext, stamp, trace_of

        for msg in _sample_messages():
            stamp(msg, TraceContext("t42", "s7"))
            decoded = decode(encode(msg))
            assert trace_of(decoded) == TraceContext("t42", "s7")

    def test_unstamped_message_stays_unstamped(self):
        from repro.obs.tracing import trace_of

        decoded = decode(encode(UnadvertiseMsg(adv_id="x")))
        assert trace_of(decoded) is None
        assert b"trace" not in encode(UnadvertiseMsg(adv_id="y"))

    def test_data_frame_carries_the_message_trace(self):
        from repro.obs.tracing import TraceContext, stamp, trace_of

        msg = stamp(
            SubscribeMsg(expr=parse_xpath("/a"), subscriber_id="s"),
            TraceContext("t9", "s4"),
        )
        frame = decode_frame(encode_data_frame(5, msg))
        assert frame.kind == "data" and frame.seq == 5
        assert frame.trace_id == "t9"
        assert trace_of(frame.message) == TraceContext("t9", "s4")

    def test_ack_frame_echoes_the_trace_id(self):
        frame = decode_frame(encode_ack_frame(3, trace_id="t9"))
        assert frame.kind == "ack" and frame.seq == 3
        assert frame.trace_id == "t9"
        bare = decode_frame(encode_ack_frame(4))
        assert bare.trace_id is None

    @pytest.mark.parametrize(
        "line",
        [
            b'{"kind":"unadvertise","adv_id":"x","trace":{"id":1,"span":"s"}}',
            b'{"kind":"unadvertise","adv_id":"x","trace":{"id":"t"}}',
            b'{"kind":"unadvertise","adv_id":"x","trace":"t1"}',
        ],
    )
    def test_malformed_trace_context_raises(self, line):
        with pytest.raises(WireError):
            decode(line)

    def test_malformed_ack_trace_raises(self):
        with pytest.raises(WireError):
            decode_frame(b'{"kind":"ack","seq":1,"trace":5}')


NAMES = st.sampled_from(["a", "b", "c", "meta", "*"])


@st.composite
def adverts(draw, depth=0):
    nodes = []
    for _ in range(draw(st.integers(1, 3))):
        if depth < 2 and draw(st.booleans()):
            nodes.append(Rep(tuple(draw(adverts(depth=depth + 1)).nodes)))
        else:
            tests = draw(st.lists(NAMES, min_size=1, max_size=3))
            nodes.append(Lit(tuple(tests)))
    return Advertisement(tuple(nodes))


class TestPropertyRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(advert=adverts())
    def test_advert_round_trip(self, advert):
        msg = AdvertiseMsg(adv_id="x", advert=advert)
        assert decode(encode(msg)).advert == advert

    @settings(max_examples=150, deadline=None)
    @given(
        names=st.lists(
            st.sampled_from(["a", "bb", "c-d", "*"]), min_size=1, max_size=6
        ),
        rooted=st.booleans(),
    )
    def test_subscribe_round_trip(self, names, rooted):
        text = ("/" if rooted else "") + "/".join(names)
        expr = parse_xpath(text)
        assert decode(encode(SubscribeMsg(expr=expr))).expr == expr
