"""Wire format: JSON encoding of every protocol message.

The simulator passes message objects by reference; a real deployment
(see :mod:`repro.network.sockets`) needs a byte encoding.  Messages are
encoded as one JSON object per line (newline-delimited JSON — easy to
frame over TCP and to inspect on the wire):

* XPEs serialise to their string form (the parser is the decoder),
* advertisements serialise to a small AST (``lit``/``rep`` nodes) so
  recursive patterns round-trip exactly,
* publications carry doc id, path id and the element path (a path id
  outside ``[0, PATH_ID_LIMIT)`` is refused by ``encode`` and
  ``decode`` alike).

``encode``/``decode`` are total inverses for every message kind; the
property-based tests round-trip randomly generated messages.

Reliable framing: the TCP deployment wraps messages in sequence-
numbered **data frames** acknowledged cumulatively by **ack frames**,
so lost or duplicated transmissions are retransmitted and suppressed
(the byte form of what :class:`repro.network.reliable.Channel`
exchanges)::

    {"kind":"data","seq":7,"msg":{"kind":"subscribe",...}}
    {"kind":"ack","seq":7}

There are no other frames: ``decode_frame`` rejects a bare message
object, so every message a peer hands in is sequenced, acknowledged
and deduplicated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from repro.adverts.model import Advertisement, AdvNode, Lit, Rep
from repro.broker.messages import (
    AdvertiseMsg,
    Message,
    PublishMsg,
    SubscribeMsg,
    UnadvertiseMsg,
    UnsubscribeMsg,
)
from repro.errors import ReproError, XPathSyntaxError
from repro.obs.tracing import TraceContext, stamp
from repro.xmldoc.document import Publication
from repro.xpath.parser import parse_xpath


class WireError(ReproError):
    """Raised for malformed wire data."""


#: A publication's ``path_id`` must lie in ``[0, PATH_ID_LIMIT)``.  A
#: subscriber client keeps one bit per delivered path id of a document
#: (:class:`~repro.network.clients.SubscriberClient`), so an id costs
#: memory in proportion to its value.  The generators number a
#: document's paths from 0 and stop at 500 (``generate_document``'s
#: ``max_paths``), far below the limit.
PATH_ID_LIMIT = 1 << 16


def _advert_node_to_obj(node: AdvNode):
    if isinstance(node, Lit):
        return {"lit": list(node.tests)}
    return {"rep": [_advert_node_to_obj(child) for child in node.body]}


def _advert_node_from_obj(obj) -> AdvNode:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise WireError("malformed advertisement node %r" % (obj,))
    if "lit" in obj:
        return Lit(_strings(obj["lit"], "literal tests"))
    if "rep" in obj:
        body = obj["rep"]
        if not isinstance(body, list) or not body:
            raise WireError("malformed recursion group %r" % (body,))
        return Rep(tuple(_advert_node_from_obj(c) for c in body))
    raise WireError("unknown advertisement node key in %r" % (obj,))


def advert_to_obj(advert: Advertisement):
    return [_advert_node_to_obj(node) for node in advert.nodes]


def advert_from_obj(obj) -> Advertisement:
    if not isinstance(obj, list) or not obj:
        raise WireError("malformed advertisement %r" % (obj,))
    try:
        return Advertisement(
            tuple(_advert_node_from_obj(node) for node in obj)
        )
    except ValueError as exc:  # an empty literal, or an invalid shape
        raise WireError("malformed advertisement %r: %s" % (obj, exc))


def message_to_obj(message: Message) -> dict:
    """The JSON-ready object form of one protocol message."""
    if isinstance(message, AdvertiseMsg):
        obj = {
            "kind": "advertise",
            "adv_id": message.adv_id,
            "advert": advert_to_obj(message.advert),
            "publisher_id": message.publisher_id,
        }
    elif isinstance(message, UnadvertiseMsg):
        obj = {"kind": "unadvertise", "adv_id": message.adv_id}
    elif isinstance(message, SubscribeMsg):
        obj = {
            "kind": "subscribe",
            "expr": str(message.expr),
            "subscriber_id": message.subscriber_id,
        }
    elif isinstance(message, UnsubscribeMsg):
        obj = {
            "kind": "unsubscribe",
            "expr": str(message.expr),
            "subscriber_id": message.subscriber_id,
        }
    elif isinstance(message, PublishMsg):
        obj = {
            "kind": "publish",
            "doc_id": message.publication.doc_id,
            "path_id": _checked_path_id(message.publication.path_id),
            "path": list(message.publication.path),
            "publisher_id": message.publisher_id,
            "doc_size_bytes": message.doc_size_bytes,
            "issued_at": message.issued_at,
        }
        if message.publication.attributes is not None:
            obj["attributes"] = [
                [[name, value] for name, value in pairs]
                for pairs in message.publication.attributes
            ]
    else:
        raise WireError("cannot encode message kind %r" % type(message).__name__)
    trace = getattr(message, "trace", None)
    if trace is not None:
        obj["trace"] = {"id": trace.trace_id, "span": trace.span_id}
    return obj


def encode(message: Message) -> bytes:
    """Encode one message as a JSON line (with trailing newline)."""
    return _as_line(message_to_obj(message))


def _as_line(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def _load_obj(line: Union[bytes, str]) -> dict:
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        obj = json.loads(line)
    # bad UTF-8 is a ValueError too; nesting past the parser's stack a
    # RecursionError
    except (ValueError, RecursionError) as exc:
        raise WireError("invalid JSON on the wire: %s" % exc)
    if not isinstance(obj, dict):
        raise WireError("wire object must be a JSON object")
    return obj


def decode(line: Union[bytes, str]) -> Message:
    """Decode one JSON line back into a message object."""
    return message_from_obj(_load_obj(line))


def message_from_obj(obj: dict) -> Message:
    """Rebuild a protocol message from its object form (the trace
    context, when present, is re-stamped so retransmissions and
    redeliveries stay in their original trace)."""
    return _apply_trace(obj, _decode_message(obj))


def _apply_trace(obj: dict, message: Message) -> Message:
    trace = obj.get("trace")
    if trace is None:
        return message
    if (
        not isinstance(trace, dict)
        or not isinstance(trace.get("id"), str)
        or not isinstance(trace.get("span"), str)
    ):
        raise WireError("malformed trace context %r" % (trace,))
    return stamp(message, TraceContext(trace["id"], trace["span"]))


_REQUIRED = object()


def _field(obj: dict, name: str, kinds, default=_REQUIRED):
    """``obj[name]``, which must be an instance of *kinds* — and never a
    bool, which JSON decodes to a subclass of int."""
    if name not in obj:
        if default is _REQUIRED:
            raise WireError("missing wire field %r" % name)
        return default
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise WireError("wire field %r has the wrong type: %r" % (name, value))
    return value


def _strings(value, what: str) -> tuple:
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise WireError("malformed %s %r" % (what, value))
    return tuple(value)


def _path(obj: dict) -> tuple:
    """A publication path: element names, none empty or holding ``/`` —
    no XML document carries such a name, and no matcher could route it."""
    path = _strings(_field(obj, "path", list), "path")
    for element in path:
        if not element or "/" in element:
            raise WireError("malformed path element %r" % (element,))
    return path


def _checked_path_id(path_id: int) -> int:
    """*path_id*, or ``WireError`` when it lies outside ``[0,
    PATH_ID_LIMIT)``: the encoder checks too, so such a publication
    fails at the sender instead of in a frame no peer acks."""
    if not 0 <= path_id < PATH_ID_LIMIT:
        raise WireError(
            "path id %d outside [0, %d)" % (path_id, PATH_ID_LIMIT)
        )
    return path_id


def _expr(obj: dict):
    text = _field(obj, "expr", str)
    try:
        return parse_xpath(text)
    except XPathSyntaxError as exc:
        raise WireError("malformed expression on the wire: %s" % exc)


def _attributes(obj: dict):
    """Per path step, the ``[name, value]`` pairs of its attributes."""
    steps = _field(obj, "attributes", list, None)
    if steps is None:
        return None
    decoded = []
    for pairs in steps:
        if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and isinstance(pair[0], str) and isinstance(pair[1], str)
            for pair in pairs
        ):
            raise WireError("malformed attributes %r" % (pairs,))
        decoded.append(tuple((name, value) for name, value in pairs))
    return tuple(decoded)


def _decode_message(obj: dict) -> Message:
    """One message from its object form; a missing or wrong-typed field
    is a :class:`WireError`, never a ``TypeError`` / ``ValueError``."""
    kind = obj.get("kind")
    if kind == "advertise":
        return AdvertiseMsg(
            adv_id=_field(obj, "adv_id", str),
            advert=advert_from_obj(_field(obj, "advert", list)),
            publisher_id=_field(obj, "publisher_id", str, ""),
        )
    if kind == "unadvertise":
        return UnadvertiseMsg(adv_id=_field(obj, "adv_id", str))
    if kind == "subscribe":
        return SubscribeMsg(
            expr=_expr(obj),
            subscriber_id=_field(obj, "subscriber_id", str, ""),
        )
    if kind == "unsubscribe":
        return UnsubscribeMsg(
            expr=_expr(obj),
            subscriber_id=_field(obj, "subscriber_id", str, ""),
        )
    if kind == "publish":
        return PublishMsg(
            publication=Publication(
                doc_id=_field(obj, "doc_id", str),
                path_id=_checked_path_id(_field(obj, "path_id", int)),
                path=_path(obj),
                attributes=_attributes(obj),
            ),
            publisher_id=_field(obj, "publisher_id", str, ""),
            doc_size_bytes=_field(obj, "doc_size_bytes", int, 0),
            issued_at=float(_field(obj, "issued_at", (int, float), 0.0)),
        )
    raise WireError("unknown wire message kind %r" % (kind,))


# -- reliable framing ------------------------------------------------------

@dataclass(frozen=True)
class Frame:
    """One decoded wire frame.

    ``kind`` is ``"data"`` (sequence-numbered message) or ``"ack"``
    (cumulative acknowledgement, ``message`` is None).  ``trace_id`` is
    the causal trace the frame belongs to: for a data frame it is the
    carried message's trace, for an ack frame the trace of the data
    frame being acknowledged (when the peer supplied one).
    """

    kind: str
    seq: int
    message: Optional[Message]
    trace_id: Optional[str] = None


def encode_data_frame(seq: int, message: Message) -> bytes:
    """A sequence-numbered data frame carrying one message."""
    if seq < 0:
        raise WireError("frame sequence numbers are non-negative")
    return _as_line({"kind": "data", "seq": seq, "msg": message_to_obj(message)})


def encode_ack_frame(seq: int, trace_id: Optional[str] = None) -> bytes:
    """A cumulative acknowledgement: every data frame numbered *seq*
    or lower was released in order at the sender of this frame (see
    :class:`repro.network.reliable.Channel`).  *trace_id* echoes the
    trace of the data frame that prompted it, so acks join the same
    causal trace on the wire."""
    obj = {"kind": "ack", "seq": seq}
    if trace_id is not None:
        obj["trace"] = trace_id
    return _as_line(obj)


def decode_frame(line: Union[bytes, str]) -> Frame:
    """Decode a data or ack frame line; anything else — a bare message
    included — is a :class:`WireError`."""
    obj = _load_obj(line)
    kind = obj.get("kind")
    if kind not in ("data", "ack"):
        raise WireError("not a data or ack frame: kind %r" % (kind,))
    seq = obj.get("seq")
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        raise WireError("frame %r carries no valid seq" % (kind,))
    if kind == "ack":
        trace_id = obj.get("trace")
        if trace_id is not None and not isinstance(trace_id, str):
            raise WireError("malformed ack trace %r" % (trace_id,))
        return Frame(kind="ack", seq=seq, message=None, trace_id=trace_id)
    payload = obj.get("msg")
    if not isinstance(payload, dict):
        raise WireError("data frame %d carries no message" % seq)
    message = message_from_obj(payload)
    trace = getattr(message, "trace", None)
    return Frame(
        kind="data", seq=seq, message=message,
        trace_id=trace.trace_id if trace is not None else None,
    )
