"""Unit + property tests for the wire format."""

import json
import os

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
    Frame,
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

    def test_predicated_subscription_is_refused(self):
        frame = json.loads(encode(SubscribeMsg(expr=parse_xpath("/a"))))
        frame["expr"] = "/a[@k='1']"
        with pytest.raises(WireError, match="predicates"):
            decode(json.dumps(frame).encode())

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


# -- fuzzed frames ------------------------------------------------------------

#: Tier-1 draws a fixed, derandomised set; the CI chaos job
#: (``HYPOTHESIS_PROFILE=chaos``) draws ten times as many from a fresh seed.
FUZZ_EXAMPLES = (
    2000 if os.environ.get("HYPOTHESIS_PROFILE") == "chaos" else 200
)

#: Any JSON value: the wrong type for every field some of the time.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
#: Advertisement nodes, empty literals and groups included.
ADVERT_NODES = st.recursive(
    st.fixed_dictionaries({"lit": st.lists(NAMES, max_size=3)}),
    lambda children: st.fixed_dictionaries(
        {"rep": st.lists(children, max_size=3)}
    ),
    max_leaves=4,
)

#: Per field, a well-typed value, so decoding gets past it.
FIELDS = {
    "adv_id": st.sampled_from(["a1", "a2"]),
    "advert": st.lists(ADVERT_NODES, min_size=1, max_size=3),
    "publisher_id": st.sampled_from(["p", ""]),
    "expr": st.sampled_from(["/a", "a//b", "/a[@k='1']", "//*"])
    | st.text(max_size=8),
    "subscriber_id": st.sampled_from(["s", ""]),
    "doc_id": st.sampled_from(["d1", "d2"]),
    "path_id": st.integers(0, 9),
    "path": st.lists(NAMES, min_size=1, max_size=3),
    "attributes": st.lists(
        st.lists(st.lists(st.text(max_size=3), min_size=2, max_size=2),
                 max_size=2),
        max_size=2,
    ),
    "doc_size_bytes": st.integers(0, 4096),
    "issued_at": st.floats(allow_nan=False),
    "trace": st.fixed_dictionaries(
        {"id": st.text(max_size=3), "span": st.text(max_size=3)}
    ),
}
MESSAGE_KINDS = ["advertise", "unadvertise", "subscribe", "unsubscribe",
                 "publish"]


def _mostly(draw, good, bad=JSON):
    """Draw from *good* four times in five and from *bad* otherwise, so
    most objects get deep into the decoder before one field is wrong."""
    return draw(bad if draw(st.integers(0, 4)) == 0 else good)


@st.composite
def message_objs(draw):
    obj = {"kind": _mostly(draw, st.sampled_from(MESSAGE_KINDS))}
    for name, good in FIELDS.items():
        roll = draw(st.integers(0, 5))
        if roll < 4:
            obj[name] = draw(good)
        elif roll == 4:
            obj[name] = draw(JSON)
    return obj


@st.composite
def frame_objs(draw):
    obj = {
        "kind": _mostly(draw, st.sampled_from(["data", "data", "ack"])),
        "seq": _mostly(draw, st.integers(0, 9)),
    }
    if draw(st.integers(0, 9)):
        obj["msg"] = _mostly(draw, message_objs())
    if not draw(st.integers(0, 3)):
        obj["trace"] = _mostly(draw, st.text(max_size=3))
    return obj


class TestFuzzedFrames:
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(obj=frame_objs())
    def test_decode_frame_returns_a_frame_or_raises_wire_error(self, obj):
        """Whatever a peer writes as a JSON object, ``decode_frame``
        returns a frame or raises :class:`WireError` — the one error the
        connection reader counts and survives."""
        try:
            frame = decode_frame(json.dumps(obj))
        except WireError:
            return
        assert isinstance(frame, Frame)
        assert frame.kind in ("data", "ack")
        assert type(frame.seq) is int and frame.seq >= 0
        assert (frame.message is None) == (frame.kind == "ack")

    @pytest.mark.parametrize("line", [
        b'{"kind":"data","seq":true,"msg":{"kind":"unadvertise","adv_id":"x"}}',
        b'{"kind":"data","seq":0,"msg":{"kind":"publish","doc_id":"d",'
        b'"path_id":0,"path":"ab"}}',
        b'{"kind":"data","seq":0,"msg":{"kind":"publish","doc_id":"d",'
        b'"path_id":1.5,"path":["a"]}}',
        b'{"kind":"data","seq":0,"msg":{"kind":"publish","doc_id":5,'
        b'"path_id":0,"path":["a"]}}',
        b'{"kind":"data","seq":0,"msg":{"kind":"publish","doc_id":"d",'
        b'"path_id":0,"path":["a"],"doc_size_bytes":true}}',
        b'{"kind":"data","seq":0,"msg":{"kind":"advertise","adv_id":"a",'
        b'"advert":[{"lit":[]}]}}',
        b'{"kind":"data","seq":0,"msg":{"kind":"subscribe","expr":"/a[["}}',
    ])
    def test_wrong_types_are_not_coerced(self, line):
        """A field of the wrong type is refused, never coerced: a bool is
        not a seq or a size, a string is not a path, a float is not a
        path id."""
        with pytest.raises(WireError):
            decode_frame(line)
