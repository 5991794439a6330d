"""The runtime-agnostic broker core: message in → frames out.

:class:`BrokerCore` is the pure state-machine face of a
:class:`~repro.broker.broker.Broker`.  It owns no clock, no queue and
no I/O: every host — the discrete-event simulator
(:class:`~repro.network.overlay.Overlay`), the asyncio event-loop
backend (:mod:`repro.runtime.asyncio_backend`) and the multiprocess
socket deployment (:mod:`repro.runtime.multiprocess`) — feeds it one
frame at a time (a control message, or a *group*: consecutive
publications of one document that crossed the link together; a lone
publication is a group of one) and moves the outbound :data:`Frame`
list it returns however its execution model requires.  A frame is
``(destination, messages, view)``: *destination* is a neighbouring
broker or a locally attached client, *messages* a tuple, and *view* is
``"replay"`` for a replay window delivered to a late subscriber (see
docs/views.md), None for everything the core routed.

The core never asks for time: merge sweeps are count-driven inside the
broker (and :meth:`BrokerCore.on_timer` lets a host force one), and
telemetry sampling cadence is the host's own business.  What a frame
means beyond its link — spans, audit, delivery records — lives once in
:mod:`repro.runtime.host`.

Determinism contract (pinned by tests/test_broker_core.py): for a fixed
message sequence the frame list is a pure function of the sequence —
no wall-clock reads, no iteration-order nondeterminism — and replaying
the suffix of a sequence on a core restored from a mid-sequence
snapshot yields byte-identical frames.  That contract is what lets the
three backends be differentially tested against each other
(tests/test_runtime_equivalence.py) and what makes crash recovery by
snapshot replay sound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.broker.broker import Broker
from repro.broker.messages import Message, PublishMsg
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError

#: The one timer name :meth:`BrokerCore.on_timer` accepts: a host (or a
#: test) forcing a merge sweep ahead of the broker's own count-driven one.
MERGE_SWEEP_TIMER = "merge-sweep"

#: One outbound frame: ``(destination, messages, view)``.  *view* is
#: "replay" for a replay window sent to a late subscriber — it labels
#: spans and the audit oracle's observation; None for the core route.
Frame = Tuple[object, Tuple[Message, ...], Optional[str]]


class BrokerCore:
    """One broker as a pure state machine.

    Wraps (or builds) a :class:`Broker` and hands its outbound traffic
    back as frames.  The wrapped broker is reachable as :attr:`broker` —
    the simulator's audit oracle and the test suites inspect its tables
    directly, and that stays true on every backend.
    """

    def __init__(
        self,
        broker_id: Optional[str] = None,
        config: Optional[RoutingConfig] = None,
        universe=None,
        broker: Optional[Broker] = None,
    ):
        if broker is None:
            if broker_id is None:
                raise RoutingError("BrokerCore needs a broker or a broker_id")
            broker = Broker(broker_id, config=config, universe=universe)
        self.broker = broker

    @property
    def broker_id(self):
        return self.broker.broker_id

    @property
    def config(self) -> RoutingConfig:
        return self.broker.config

    # -- wiring (delegated verbatim) --------------------------------------

    def connect(self, neighbor_id: object):
        self.broker.connect(neighbor_id)

    def attach_client(self, client_id: object):
        self.broker.attach_client(client_id)

    # -- the state machine -------------------------------------------------

    def on_message(self, message: Message, from_hop: object) -> List[Frame]:
        """Process one inbound message; returns the outbound frames."""
        if isinstance(message, PublishMsg):
            return self.broker.handle_publications((message,), from_hop)
        return self._control_frames(self.broker.handle(message, from_hop))

    def on_publications(
        self, messages: Sequence[PublishMsg], from_hop: object
    ) -> List[Frame]:
        """Process a group of publications that arrived from one hop as
        one frame (a lone publication is a group of one): one frame per
        destination, carrying that destination's messages.  A routing
        decision only ever names a neighbour or an attached client
        (``Broker._resolve``), so these frames need no check."""
        return self.broker.handle_publications(messages, from_hop)

    def on_timer(self, name: str) -> List[Frame]:
        """A host timer fired.  ``merge-sweep`` runs one merging sweep
        now; unknown timer names are a host bug and raise."""
        if name == MERGE_SWEEP_TIMER:
            return self._control_frames(self.broker.run_merge_sweep())
        raise RoutingError(
            "broker %r received unknown timer %r" % (self.broker_id, name)
        )

    def _control_frames(self, outbound) -> List[Frame]:
        """Control traffic: one single-message frame per outbound pair,
        in emission order, then any replay windows the step queued.  A
        destination that is neither a neighbour nor an attached client
        raises here, before any host sees it."""
        broker = self.broker
        neighbors, clients = broker.neighbors, broker.local_clients
        frames: List[Frame] = []
        for destination, message in outbound:
            if destination not in neighbors and destination not in clients:
                raise RoutingError(
                    "broker %r emitted message to unknown destination %r"
                    % (self.broker_id, destination)
                )
            frames.append((destination, (message,), None))
        frames.extend(broker._take_pending_replays())
        return frames

    # -- snapshot / replay -------------------------------------------------

    def snapshot(self) -> Dict:
        """Plain-data image of the routing state (see
        :mod:`repro.broker.persistence`)."""
        from repro.broker.persistence import snapshot

        return snapshot(self.broker)

    @classmethod
    def restore(
        cls,
        state: Dict,
        universe=None,
        matching_engine: Optional[str] = None,
    ) -> "BrokerCore":
        """Rebuild a core from :meth:`snapshot` output.  Replaying the
        message suffix recorded after the snapshot yields the same
        frames the original core produced (the determinism contract).
        ``matching_engine`` overrides the snapshot's value (see
        :func:`repro.broker.persistence.restore`)."""
        from repro.broker.persistence import restore

        return cls(
            broker=restore(
                state, universe=universe, matching_engine=matching_engine
            )
        )

    def fingerprint(self) -> str:
        """Stable digest of the routing tables (see
        :func:`repro.runtime.base.routing_fingerprint`)."""
        from repro.runtime.base import routing_fingerprint

        return routing_fingerprint(self.broker)

    def describe(self) -> Dict[str, object]:
        return self.broker.describe()

    def __repr__(self):
        return "BrokerCore(%r)" % (self.broker,)


def canonical_effects(frames: List[Frame]) -> List[tuple]:
    """A value-comparable form of a frame list: one
    ``(destination, view, message)`` row per message, in order.

    ``Message`` equality includes the process-unique ``msg_id``, so two
    semantically identical frame lists from two cores never compare
    equal directly.  This renders each message through the wire encoding
    (which, like a real network, carries no ``msg_id`` and no trace
    stamp), giving replay tests an exact-equality target.
    """
    from repro.network.wire import message_to_obj

    def message_key(message: Message):
        obj = message_to_obj(message)
        obj.pop("trace", None)
        return _freeze(obj)

    return [
        (str(destination), view, message_key(message))
        for destination, messages, view in frames
        for message in messages
    ]


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value
