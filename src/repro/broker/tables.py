"""Broker routing tables.

The *subscription routing table* (SRT) stores ``<advertisement,
last-hop>`` tuples and answers "toward which neighbours does this XPE
have intersecting advertisements?" — the advertisement-based
subscription forwarding decision of paper §3.

The *publication routing table* (PRT) stores ``<subscription,
last-hop>`` entries (paper §4.1).  A broker holds exactly one,
``Broker.table``, chosen at construction: a
:class:`~repro.covering.subscription_tree.SubscriptionTree` with
covering, otherwise a flat table — the
:class:`~repro.matching.shared_automaton.SharedAutomatonMatcher` under
``matching_engine="shared"``, else the
:class:`~repro.matching.engine.LinearMatcher`.  Every broker handler,
:mod:`repro.broker.persistence` and the audit oracle reach it through
one contract:

* ``add(expr, key)`` / ``remove(expr, key)`` — the latter returns a
  :class:`~repro.covering.subscription_tree.RemoveOutcome`: did *expr*
  leave the table, and which stored XPEs lost their last coverer with
  it (``promoted``);
* ``keys_of(expr)``, ``exprs()`` (coverers first — the order a broker
  forwards in), ``match(path)`` → keys, ``len`` and
  ``top_level_size()``;
* the covering steps ``coverers(expr)`` and ``descendants(expr)``.

A flat table's covering steps are empty: nothing covers an entry,
nothing is displaced, nothing is promoted.  A covering broker under
``matching_engine="shared"`` keeps a shared automaton beside its tree
(``Broker.mirror``), edited with it and matched instead of it; the
per-neighbour ``forwarded`` bookkeeping is defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Set, Tuple

from repro.adverts.model import Advertisement
from repro.adverts.recursive import expr_and_advertisement
from repro.sharing import SharedValues
from repro.xpath.ast import XPathExpr

#: Neighbour tuples, one per distinct value, shared by every
#: :class:`ForwardedState` (a broker has few neighbours, so its
#: thousands of forwarded XPEs hold a handful of distinct tuples).
NEIGHBOR_TUPLES = SharedValues(1024)


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

    def matching_last_hops(
        self, expr: XPathExpr, among: Collection
    ) -> Set[object]:
        """The subscription forwarding targets for *expr*: the hops in
        *among* with an intersecting advertisement.

        One pass in arrival order; a hop that is already a target, or
        not a candidate, costs no intersection check, so each candidate
        stops at its first intersecting advertisement."""
        found: Set[object] = set()
        for entry in self._entries.values():
            hop = entry.last_hop
            if hop in found or hop not in among:
                continue
            if expr_and_advertisement(entry.advert, expr):
                found.add(hop)
        return found


class ForwardedState:
    """Which neighbours each XPE has been forwarded to.

    Covering-based suppression must be per-neighbour to stay correct: a
    subscription covered by ``s'`` may skip exactly the neighbours that
    already received ``s'`` (see broker docstring for the failure mode
    of hop-agnostic suppression).

    Each XPE keeps the tuple of its neighbours in marking order, each
    once: a broker has few neighbours, and most XPEs go to one, so
    no XPE allocates a set of its own, and equal tuples are one object
    (:data:`NEIGHBOR_TUPLES`).
    """

    def __init__(self):
        self._sent: Dict[XPathExpr, Tuple[object, ...]] = {}

    def neighbors_for(self, expr: XPathExpr) -> Set[object]:
        return set(self._sent.get(expr, ()))

    def mark(self, expr: XPathExpr, neighbor: object):
        sent = self._sent.get(expr, ())
        if neighbor not in sent:
            self._sent[expr] = NEIGHBOR_TUPLES[sent + (neighbor,)]

    def unmark(self, expr: XPathExpr, neighbor: object):
        sent = self._sent.get(expr)
        if sent is not None and neighbor in sent:
            rest = tuple(other for other in sent if other != neighbor)
            if rest:
                self._sent[expr] = NEIGHBOR_TUPLES[rest]
            else:
                del self._sent[expr]

    def drop(self, expr: XPathExpr) -> Set[object]:
        """Forget an XPE entirely, returning where it had been sent."""
        return set(self._sent.pop(expr, ()))

    def was_sent(self, expr: XPathExpr, neighbor: object) -> bool:
        return neighbor in self._sent.get(expr, ())

    def exprs(self) -> Iterable[XPathExpr]:
        return list(self._sent)

    def __len__(self):
        return len(self._sent)
