"""The flat publication matcher.

Table 1 of the paper compares publication routing time under four
configurations: no covering (a flat routing table, every XPE checked),
covering (the subscription tree prunes covered subtrees), and
covering+merging (a smaller tree still).  :class:`LinearMatcher` is the
flat table: a broker without covering matches on it, and it is the
reference every matcher differential checks the covering tree
(:class:`~repro.covering.subscription_tree.SubscriptionTree`) and the
shared automaton (:mod:`repro.matching.shared_automaton`) against.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from repro import obs
from repro.covering.pathmatch import path_matcher
from repro.xpath.ast import XPathExpr


class LinearMatcher:
    """The non-covering baseline: a flat list scanned per publication."""

    def __init__(self):
        self._subs: Dict[XPathExpr, Set[object]] = {}

    def add(self, expr: XPathExpr, key: object = None):
        self._subs.setdefault(expr, set()).add(key)

    def remove(self, expr: XPathExpr, key: object = None):
        keys = self._subs.get(expr)
        if keys is None:
            return
        keys.discard(key)
        if not keys:
            del self._subs[expr]

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
