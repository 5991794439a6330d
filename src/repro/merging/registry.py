"""Constituent bookkeeping for merged subscriptions.

Merging rewrites a broker's routing table in place: the constituents'
nodes disappear and the merger inherits their last-hop keys.  That is
exactly the information an UNSUBSCRIBE for a constituent later needs —
without it the unsubscription hits the "unknown expression" no-op path
and the merger (plus its upstream forwarding) leaks forever.

:class:`MergerRegistry` keeps, per live merger, which (constituent
expression, hop) pairs it absorbed and which hops subscribed the merger
expression itself ("direct" interest).  The broker maintains the
invariant that a merger node's key set equals its direct hops unioned
with all constituent hops; a key is retired exactly when the last
reason for it disappears.

Chained merges flatten: when a sweep replaces an expression that is
itself a registered merger, its constituent entries move under the new
merger (and its direct hops become a constituent entry of their own),
so lookups never have to walk merge chains.

The same pairs are indexed by hop (``hop -> constituent -> merger``):
"is anything of this hop's merged away?" is what an edge broker asks
per matched local client on every memo miss (:meth:`absorbs` — only an
absorbed client can be reached through an expression it never
subscribed), and what every SUB / UNSUB asks per expression
(:meth:`find_contribution`).  ``constituents`` and ``direct`` are read
freely (snapshots, the audit oracle); every write goes through a method
here so the index moves with them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.merging.engine import MergeEvent
from repro.xpath.ast import XPathExpr


class MergerRegistry:
    """Tracks why each merger key exists (constituents and direct subs)."""

    def __init__(self):
        #: merger -> constituent expression -> hops contributing via it
        self.constituents: Dict[XPathExpr, Dict[XPathExpr, Set[object]]] = {}
        #: merger -> hops that subscribed the merger expression itself
        self.direct: Dict[XPathExpr, Set[object]] = {}
        #: hop -> constituent expression -> the merger that absorbed it
        #: (``constituents`` by hop; a hop with nothing absorbed has no
        #: entry)
        self._absorbed: Dict[object, Dict[XPathExpr, XPathExpr]] = {}

    def __len__(self):
        return len(self.constituents)

    def is_merger(self, expr: XPathExpr) -> bool:
        return expr in self.constituents

    def mergers(self) -> Iterable[XPathExpr]:
        return list(self.constituents)

    def record(self, event: MergeEvent):
        """Fold one applied :class:`MergeEvent` into the registry."""
        merger = event.merger
        bucket = self.constituents.setdefault(merger, {})
        direct = self.direct.setdefault(merger, set())
        if event.merger_prior_keys and not bucket and not direct:
            # The merger expression pre-existed as a plain subscription:
            # its prior keys are direct interest in the merger itself.
            direct |= event.merger_prior_keys
        for expr, keys in zip(event.replaced, event.replaced_keys):
            if expr == merger:
                continue
            if expr in self.constituents:
                # Chained merge: flatten the absorbed merger's entries.
                for leaf, hops in self.constituents.pop(expr).items():
                    self._absorb(merger, leaf, hops)
                absorbed_direct = self.direct.pop(expr, set())
                if absorbed_direct:
                    self._absorb(merger, expr, absorbed_direct)
            else:
                self._absorb(merger, expr, keys)

    def install(
        self,
        merger: XPathExpr,
        direct: Iterable[object],
        constituents: Iterable,
    ):
        """Re-create one merger from a snapshot: its direct hops and its
        ``(constituent expression, hops)`` pairs."""
        self.constituents.setdefault(merger, {})
        self.direct.setdefault(merger, set()).update(direct)
        for expr, hops in constituents:
            self._absorb(merger, expr, hops)

    def _absorb(self, merger: XPathExpr, expr: XPathExpr, hops):
        """*merger* now carries *hops*' interest in constituent *expr*."""
        self.constituents[merger].setdefault(expr, set()).update(hops)
        for hop in hops:
            self._absorbed.setdefault(hop, {})[expr] = merger

    # -- queries -------------------------------------------------------------

    def absorbs(self, hop: object) -> bool:
        """Does some live merger stand in for a subscription of *hop*?"""
        return hop in self._absorbed

    def find_contribution(
        self, expr: XPathExpr, hop: object
    ) -> Optional[XPathExpr]:
        """The merger holding *hop*'s interest in constituent *expr*."""
        return self._absorbed.get(hop, {}).get(expr)

    def hop_needs(self, merger: XPathExpr, hop: object) -> bool:
        """Does *hop* still justify a key on *merger*?"""
        if hop in self.direct.get(merger, ()):
            return True
        return any(
            hop in hops
            for hops in self.constituents.get(merger, {}).values()
        )

    def constituents_absorbed_from(self, hop: object) -> Set[XPathExpr]:
        """Constituent expressions some merger absorbed for *hop* (the
        downstream half of the forwarded-mark agreement invariant)."""
        return set(self._absorbed.get(hop, ()))

    # -- mutation ------------------------------------------------------------

    def add_direct(self, merger: XPathExpr, hop: object):
        if merger in self.constituents:
            self.direct.setdefault(merger, set()).add(hop)

    def remove_direct(self, merger: XPathExpr, hop: object):
        self.direct.get(merger, set()).discard(hop)

    def remove_contribution(
        self, merger: XPathExpr, expr: XPathExpr, hop: object
    ):
        bucket = self.constituents.get(merger)
        if bucket is None:
            return
        hops = bucket.get(expr)
        if hops is None:
            return
        hops.discard(hop)
        if not hops:
            del bucket[expr]
        self._release(merger, expr, hop)

    def forget(self, merger: XPathExpr):
        """Drop all registry state for a fully retired merger."""
        for expr, hops in self.constituents.pop(merger, {}).items():
            for hop in hops:
                self._release(merger, expr, hop)
        self.direct.pop(merger, None)

    def _release(self, merger: XPathExpr, expr: XPathExpr, hop: object):
        absorbed = self._absorbed.get(hop)
        if absorbed is not None and absorbed.get(expr) == merger:
            del absorbed[expr]
            if not absorbed:
                del self._absorbed[hop]
