"""Publication-matching engines.

Table 1 of the paper compares publication routing time under four
configurations: no covering (a flat routing table, every XPE checked),
covering (the subscription tree prunes covered subtrees), and
covering+merging (a smaller tree still).  The two engines here implement
the flat baseline and the tree-based matcher behind one interface.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from repro import obs
from repro.covering.pathmatch import path_matcher
from repro.covering.subscription_tree import SubscriptionTree
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

    def match(self, path: Sequence[str], attributes=None) -> Set[object]:
        registry = obs.get_registry()
        if not registry.enabled:
            return self._match(path, attributes)
        with registry.timer("matching.linear.match"):
            matched = self._match(path, attributes)
        registry.counter("matching.linear.exprs_scanned").inc(len(self._subs))
        return matched

    def _match(self, path: Sequence[str], attributes=None) -> Set[object]:
        wants = path_matcher(path, attributes)
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


class TreeMatcher:
    """Covering-based matcher: a subscription tree with subtree pruning."""

    def __init__(self, tree: SubscriptionTree = None):
        self._tree = tree if tree is not None else SubscriptionTree()

    @property
    def tree(self) -> SubscriptionTree:
        return self._tree

    def add(self, expr: XPathExpr, key: object = None):
        self._tree.insert(expr, key)

    def remove(self, expr: XPathExpr, key: object = None):
        self._tree.remove(expr, key)

    def match(self, path: Sequence[str], attributes=None) -> Set[object]:
        # SubscriptionTree.match carries the covering.tree.* metrics;
        # this wrapper adds the engine-level timing for engine ablations.
        registry = obs.get_registry()
        if not registry.enabled:
            return self._tree.match_keys(path, attributes)
        with registry.timer("matching.tree.match"):
            return self._tree.match_keys(path, attributes)

    def exprs(self):
        return self._tree.exprs()

    def __len__(self):
        return len(self._tree)
