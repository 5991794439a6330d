"""The flat publication routing tables.

Table 1 of the paper compares publication routing time under four
configurations: no covering (a flat routing table, every XPE checked),
covering (the subscription tree prunes covered subtrees), and
covering+merging (a smaller tree still).  A broker without covering
keeps its subscriptions in one flat table: :class:`LinearMatcher`,
which scans every XPE per publication, or the shared automaton
(:mod:`repro.matching.shared_automaton`), which matches them all in
one document pass.  Both are flat tables (:class:`FlatTable`): the
covering steps of the table contract (:mod:`repro.broker.tables`) are
empty for them.  Matcher differentials check every table against
:func:`~repro.covering.pathmatch.matches_path_reference`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from repro import obs
from repro.covering.pathmatch import path_matcher
from repro.covering.subscription_tree import RemoveOutcome
from repro.xpath.ast import XPathExpr

#: What :meth:`FlatTable.remove` reports: an XPE that left a flat table
#: was top level (every entry is), and nothing is ever promoted.
REMOVED = RemoveOutcome(removed=True, was_top_level=True, promoted=())
KEPT = RemoveOutcome(removed=False, was_top_level=False, promoted=())


class FlatTable:
    """A table without covering: no stored XPE covers another, so no
    entry has coverers or descendants and every entry is top level."""

    def coverers(self, expr: XPathExpr):
        return ()

    def descendants(self, expr: XPathExpr):
        return ()

    def top_level_size(self) -> int:
        return len(self)


class LinearMatcher(FlatTable):
    """The non-covering baseline: a flat list scanned per publication."""

    def __init__(self):
        self._subs: Dict[XPathExpr, Set[object]] = {}

    def add(self, expr: XPathExpr, key: object = None):
        self._subs.setdefault(expr, set()).add(key)

    def remove(self, expr: XPathExpr, key: object = None) -> RemoveOutcome:
        keys = self._subs.get(expr)
        if keys is None or key not in keys:
            return KEPT
        keys.discard(key)
        if keys:
            return KEPT
        del self._subs[expr]
        return REMOVED

    def match(self, path: Sequence[str]) -> Set[object]:
        registry = obs.get_registry()
        if not registry.enabled:
            return self._match(path)
        with registry.timer("matching.linear.match"):
            matched = self._match(path)
        registry.counter("matching.linear.exprs_scanned").inc(len(self._subs))
        return matched

    def _match(self, path: Sequence[str]) -> Set[object]:
        wants = path_matcher(path)
        matched: Set[object] = set()
        for expr, keys in self._subs.items():
            if wants(expr):
                matched |= keys
        return matched

    def keys_of(self, expr: XPathExpr) -> Set[object]:
        return set(self._subs.get(expr, ()))

    def exprs(self):
        return list(self._subs)

    def __len__(self):
        return len(self._subs)
