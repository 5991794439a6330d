"""Broker routing tables.

The *subscription routing table* (SRT) stores ``<advertisement,
last-hop>`` tuples and answers "toward which neighbours does this XPE
have intersecting advertisements?" — the advertisement-based
subscription forwarding decision of paper §3.

The *publication routing table* (PRT) stores ``<subscription,
last-hop>`` state; in this implementation it is embodied by either a
:class:`~repro.matching.engine.LinearMatcher` (non-covering strategies)
or a :class:`~repro.covering.subscription_tree.SubscriptionTree`
(covering strategies) inside :class:`~repro.broker.broker.Broker`, plus
the per-neighbour ``forwarded`` bookkeeping defined here.

Under ``matching_engine="shared"`` the PRT additionally has a
*matching* view: a :class:`~repro.matching.shared_automaton.
SharedAutomatonMatcher` mirrors the authoritative tree/flat table as
one shared-prefix automaton (see docs/matching.md).  The authoritative
table here is untouched by it — forwarding, covering, and merging
semantics do not depend on the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.adverts.model import Advertisement
from repro.adverts.recursive import expr_and_advertisement
from repro.xpath.ast import XPathExpr


@dataclass(frozen=True)
class SRTEntry:
    """One stored advertisement."""

    adv_id: str
    advert: Advertisement
    last_hop: object
    publisher_id: str


class SubscriptionRoutingTable:
    """The SRT: advertisements with the hop they arrived from."""

    def __init__(self):
        self._entries: Dict[str, SRTEntry] = {}

    def add(
        self,
        adv_id: str,
        advert: Advertisement,
        last_hop: object,
        publisher_id: str = "",
    ) -> bool:
        """Store an advertisement; returns False for duplicates (the
        flooding termination condition)."""
        if adv_id in self._entries:
            return False
        self._entries[adv_id] = SRTEntry(
            adv_id=adv_id,
            advert=advert,
            last_hop=last_hop,
            publisher_id=publisher_id,
        )
        return True

    def remove(self, adv_id: str) -> bool:
        return self._entries.pop(adv_id, None) is not None

    def __len__(self):
        return len(self._entries)

    def __contains__(self, adv_id):
        return adv_id in self._entries

    def entries(self) -> List[SRTEntry]:
        return list(self._entries.values())

    def matching_entries(self, expr: XPathExpr) -> List[SRTEntry]:
        """Entries whose advertisement intersects *expr*."""
        return [
            entry
            for entry in self._entries.values()
            if expr_and_advertisement(entry.advert, expr)
        ]

    def matching_last_hops(self, expr: XPathExpr) -> Set[object]:
        """The subscription forwarding targets for *expr*."""
        return {entry.last_hop for entry in self.matching_entries(expr)}

    def intersects_any(self, expr: XPathExpr) -> bool:
        return any(
            expr_and_advertisement(entry.advert, expr)
            for entry in self._entries.values()
        )


class ForwardedState:
    """Which neighbours each XPE has been forwarded to.

    Covering-based suppression must be per-neighbour to stay correct: a
    subscription covered by ``s'`` may skip exactly the neighbours that
    already received ``s'`` (see broker docstring for the failure mode
    of hop-agnostic suppression).
    """

    def __init__(self):
        self._sent: Dict[XPathExpr, Set[object]] = {}

    def neighbors_for(self, expr: XPathExpr) -> Set[object]:
        return self._sent.get(expr, set())

    def mark(self, expr: XPathExpr, neighbor: object):
        self._sent.setdefault(expr, set()).add(neighbor)

    def unmark(self, expr: XPathExpr, neighbor: object):
        sent = self._sent.get(expr)
        if sent is not None:
            sent.discard(neighbor)
            if not sent:
                del self._sent[expr]

    def drop(self, expr: XPathExpr) -> Set[object]:
        """Forget an XPE entirely, returning where it had been sent."""
        return self._sent.pop(expr, set())

    def was_sent(self, expr: XPathExpr, neighbor: object) -> bool:
        return neighbor in self._sent.get(expr, ())

    def exprs(self) -> Iterable[XPathExpr]:
        return list(self._sent)

    def __len__(self):
        return len(self._sent)
