"""The runtime-agnostic broker core: message in → effects out.

:class:`BrokerCore` is the pure state-machine face of a
:class:`~repro.broker.broker.Broker`.  It owns no clock, no queue and
no I/O: every host — the discrete-event simulator
(:class:`~repro.network.overlay.Overlay`), the asyncio event-loop
backend (:mod:`repro.runtime.asyncio_backend`) and the multiprocess
socket deployment (:mod:`repro.runtime.multiprocess`) — feeds it one
frame at a time (a control message, or a *group*: consecutive
publications of one document that crossed the link together; a lone
publication is a group of one) and moves what the returned
:class:`Effect` list names however its execution model requires:

* :class:`Send` — forward a frame to a neighbouring broker (over a
  simulated link, an asyncio queue, or a TCP connection),
* :class:`Deliver` — hand a frame to a locally attached client,
* :class:`ViewServe` — a Deliver satisfied from an edge materialized
  view (a subclass, so Deliver-handling hosts work unchanged),
* :class:`Replay` — deliver a view's retained publication window to a
  late subscriber (see docs/views.md).

The core never asks for time: merge sweeps are count-driven inside the
broker (and :meth:`BrokerCore.on_timer` lets a host force one), and
telemetry sampling cadence is the host's own business.  The one
interpreter of this vocabulary is :mod:`repro.runtime.host`.

Determinism contract (pinned by tests/test_broker_core.py): for a fixed
message sequence the effect list is a pure function of the sequence —
no wall-clock reads, no iteration-order nondeterminism — and replaying
the suffix of a sequence on a core restored from a mid-sequence
snapshot yields byte-identical effects.  That contract is what lets the
three backends be differentially tested against each other
(tests/test_runtime_equivalence.py) and what makes crash recovery by
snapshot replay sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

from repro.broker.broker import Broker
from repro.broker.messages import Message, PublishMsg
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError

#: The one timer name :meth:`BrokerCore.on_timer` accepts: a host (or a
#: test) forcing a merge sweep ahead of the broker's own count-driven one.
MERGE_SWEEP_TIMER = "merge-sweep"


@dataclass(frozen=True)
class Effect:
    """Base class for everything a core asks its host to do."""


@dataclass(frozen=True)
class Send(Effect):
    """Forward *messages* to the neighbouring broker *destination* as
    one frame: a group of publications (consecutive paths of one
    document, in arrival order) or a single control message."""

    destination: object
    messages: Tuple[Message, ...]


@dataclass(frozen=True)
class Deliver(Effect):
    """Hand *messages* (a group, as for :class:`Send`) to the locally
    attached client *client_id*."""

    client_id: object
    messages: Tuple[Message, ...]


@dataclass(frozen=True)
class ViewServe(Deliver):
    """A :class:`Deliver` satisfied from an edge materialized view
    (docs/views.md) instead of the matching core.  Subclassing keeps
    every host's ``isinstance(effect, Deliver)`` path working — the
    delivery is byte-identical to the core route; the subtype only
    lets hosts label spans/metrics and the audit oracle classify it."""


@dataclass(frozen=True)
class Replay(Effect):
    """Deliver a materialized view's retained publication window to the
    late subscriber *client_id* (one message at a time, over whatever
    transport the host uses for deliveries — client-side dedup on
    ``(doc_id, path_id)`` supplies the exactly-once semantics)."""

    client_id: object
    messages: tuple
    group: tuple  # the view's path, for tracing/debugging


class BrokerCore:
    """One broker as a pure state machine.

    Wraps (or builds) a :class:`Broker` and partitions its outbound
    ``(destination, message)`` pairs into typed effects, so hosts never
    need to know which destinations are neighbours and which are local
    clients.  The wrapped broker is reachable as :attr:`broker` — the
    simulator's audit oracle and the test suites inspect its tables
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

    def on_message(self, message: Message, from_hop: object) -> List[Effect]:
        """Process one inbound message; returns the resulting effects."""
        if isinstance(message, PublishMsg):
            return self.on_publications((message,), from_hop)
        return self._classify(self.broker.handle(message, from_hop))

    def on_publications(
        self, messages: Sequence[PublishMsg], from_hop: object
    ) -> List[Effect]:
        """Process a group of publications that arrived from one hop as
        one frame (a lone publication is a group of one): one effect
        per destination, carrying that destination's messages."""
        broker = self.broker
        routed = broker.handle_publications(messages, from_hop)
        served = broker._take_view_served()
        effects: List[Effect] = []
        for destination, group in routed.items():
            if destination in broker.neighbors:
                effects.append(Send(destination, tuple(group)))
            elif destination not in broker.local_clients:
                raise self._unknown_destination(destination)
            elif not served:
                effects.append(Deliver(destination, tuple(group)))
            else:
                # A client's group may mix view-served and core-routed
                # members: one effect per run, so arrival order holds.
                for is_served, run in groupby(
                    group, lambda m: (destination, m.msg_id) in served
                ):
                    kind = ViewServe if is_served else Deliver
                    effects.append(kind(destination, tuple(run)))
        return effects

    def on_timer(self, name: str) -> List[Effect]:
        """A host timer fired.  ``merge-sweep`` runs one merging sweep
        now; unknown timer names are a host bug and raise."""
        if name == MERGE_SWEEP_TIMER:
            return self._classify(self.broker.run_merge_sweep())
        raise RoutingError(
            "broker %r received unknown timer %r" % (self.broker_id, name)
        )

    def _classify(self, outbound) -> List[Effect]:
        """Control traffic: one single-message effect per outbound
        pair, in emission order."""
        broker = self.broker
        effects: List[Effect] = []
        for destination, message in outbound:
            if destination in broker.neighbors:
                effects.append(Send(destination, (message,)))
            elif destination in broker.local_clients:
                effects.append(Deliver(destination, (message,)))
            else:
                raise self._unknown_destination(destination)
        for client_id, messages, group in broker._take_pending_replays():
            effects.append(Replay(client_id, tuple(messages), tuple(group)))
        return effects

    def _unknown_destination(self, destination: object) -> RoutingError:
        return RoutingError(
            "broker %r emitted message to unknown destination %r"
            % (self.broker_id, destination)
        )

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
        effects the original core produced (the determinism contract).
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


def canonical_effects(effects: List[Effect]) -> List[tuple]:
    """A value-comparable form of an effect list.

    ``Message`` equality includes the process-unique ``msg_id``, so two
    semantically identical effect lists from two cores never compare
    equal directly.  This renders each effect through the wire encoding
    (which, like a real network, carries no ``msg_id`` and no trace
    stamp), giving replay tests an exact-equality target.
    """
    from repro.network.wire import message_to_obj

    def message_key(message: Message):
        obj = message_to_obj(message)
        obj.pop("trace", None)
        return _freeze(obj)

    rendered: List[tuple] = []
    for effect in effects:
        if isinstance(effect, Send):
            rendered.extend(
                ("send", str(effect.destination), message_key(message))
                for message in effect.messages
            )
        elif isinstance(effect, Deliver):
            # ViewServe renders as a plain delivery on purpose: a
            # view-served delivery must be byte-identical to the core
            # route, and replay tests compare through this form.
            rendered.extend(
                ("deliver", str(effect.client_id), message_key(message))
                for message in effect.messages
            )
        elif isinstance(effect, Replay):
            rendered.append(
                (
                    "replay",
                    str(effect.client_id),
                    tuple(message_key(m) for m in effect.messages),
                )
            )
        else:  # pragma: no cover - future effect kinds must opt in
            raise RoutingError("cannot canonicalise effect %r" % (effect,))
    return rendered


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value
