"""Merging engine: imperfection degrees and subscription-tree merging
(paper §4.3).

The *imperfect degree* of a merger ``s`` of ``s1..sn`` is::

    D_imperfect = |P(s) - ∪ P(si)| / |P(s)|

Computing it requires knowing the publication universe; the paper
assumes "each broker in the network knows the DTD relative to the XML
data producer".  :class:`PathUniverse` materialises the (depth-bounded)
set of root-to-leaf paths a DTD admits and counts matches against it.

:class:`MergingEngine` periodically sweeps a
:class:`~repro.covering.subscription_tree.SubscriptionTree`, merging
sibling groups whose merger stays within a configured imperfection
budget — ``max_degree=0`` is the paper's *perfect merging*,
``max_degree=0.1`` its headline *imperfect merging* configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.covering.algorithms import SiblingCoverageProbe, covers
from repro.covering.pathmatch import matches_path
from repro.covering.subscription_tree import SubNode, SubscriptionTree
from repro.dtd.model import DTD
from repro.dtd.paths import enumerate_paths
from repro.merging.rules import merge_one_difference, merge_pair
from repro.xpath.ast import WILDCARD, XPathExpr


class PathUniverse:
    """A finite stand-in for the publication universe of a DTD."""

    def __init__(self, paths: Sequence[Tuple[str, ...]]):
        if not paths:
            raise ValueError("a path universe cannot be empty")
        self._paths = list(paths)
        self._match_cache: Dict[XPathExpr, frozenset] = {}

    @classmethod
    def from_dtd(cls, dtd: DTD, max_depth: int = 10, max_paths: int = 20000):
        """Enumerate the DTD's bounded root-to-leaf paths.

        For heavily recursive DTDs the enumeration is truncated at
        *max_paths* (deterministically — depth-first order), which keeps
        degree computation affordable while preserving the relative
        ordering of merger imperfections.
        """
        paths = enumerate_paths(dtd, max_depth=max_depth)
        return cls(paths[:max_paths])

    def __len__(self):
        return len(self._paths)

    @property
    def paths(self):
        return list(self._paths)

    def matching_indices(self, expr: XPathExpr) -> frozenset:
        """Indices of universe paths matched by *expr* (cached)."""
        cached = self._match_cache.get(expr)
        if cached is None:
            cached = frozenset(
                i
                for i, path in enumerate(self._paths)
                if matches_path(expr, path)
            )
            self._match_cache[expr] = cached
        return cached

    def match_count(self, expr: XPathExpr) -> int:
        return len(self.matching_indices(expr))

    def imperfect_degree(
        self, merger: XPathExpr, parts: Sequence[XPathExpr]
    ) -> float:
        """``D_imperfect`` of *merger* with respect to *parts*.

        A merger that matches nothing in the universe has degree 0 by
        convention (it can introduce no false positives).
        """
        merged = self.matching_indices(merger)
        if not merged:
            return 0.0
        union: Set[int] = set()
        for part in parts:
            union |= self.matching_indices(part)
        return len(merged - union) / len(merged)


@dataclass(frozen=True)
class MergeEvent:
    """One applied merge: *merger* replaced *replaced* in the tree.

    ``replaced_keys`` carries the last-hop keys each replaced XPE held
    at the moment of the merge (aligned with ``replaced``), and
    ``merger_prior_keys`` the keys a pre-existing merger node already
    held (None when the merger node was created by this event).  Both
    exist so a broker can keep an exact constituent registry — the
    state needed to retire a merger once its last constituent
    unsubscribes (see :mod:`repro.merging.registry`)."""

    merger: XPathExpr
    replaced: Tuple[XPathExpr, ...]
    degree: float
    replaced_keys: Tuple[frozenset, ...] = ()
    merger_prior_keys: Optional[frozenset] = None


@dataclass
class MergeReport:
    """Everything a broker needs to propagate a merge sweep downstream:
    unsubscribe the replaced top-level XPEs, subscribe the mergers."""

    events: List[MergeEvent] = field(default_factory=list)

    @property
    def merged_away(self) -> int:
        return sum(len(e.replaced) - 1 for e in self.events)

    def __len__(self):
        return len(self.events)


class MergingEngine:
    """Sweeps a subscription tree, merging sibling groups.

    Args:
        universe: publication universe for degree computation.  Without
            one, only *structurally perfect* rule-1 mergers are applied
            (see :meth:`_degree`).
        max_degree: imperfection budget; 0 means perfect merging only.
        pairwise_limit: sibling-group size above which the quadratic
            rule-2/rule-3 pair search is skipped (rule-1 bucketing still
            runs — it is near-linear and does the bulk of the work).
    """

    def __init__(
        self,
        universe: Optional[PathUniverse] = None,
        max_degree: float = 0.0,
        pairwise_limit: int = 200,
    ):
        if max_degree < 0:
            raise ValueError("max_degree cannot be negative")
        self._universe = universe
        self._max_degree = max_degree
        self._pairwise_limit = pairwise_limit

    # -- degree -------------------------------------------------------------

    def _degree(
        self, merger: XPathExpr, parts: Sequence[XPathExpr]
    ) -> Optional[float]:
        """Imperfection degree, or None when it cannot be assessed.

        Without a universe only a structural criterion is available: a
        rule-1 merger is perfect iff its wildcard position ranges over
        every element the universe allows there — unknowable without the
        DTD — so we conservatively treat universe-less mergers as
        imperfect with unknown degree and only apply them when the
        caller allows any degree (max_degree >= 1).
        """
        if self._universe is not None:
            return self._universe.imperfect_degree(merger, parts)
        return None

    def _acceptable(self, merger, parts) -> Tuple[bool, float]:
        degree = self._degree(merger, parts)
        if degree is None:
            return self._max_degree >= 1.0, 1.0
        return degree <= self._max_degree, degree

    # -- tree sweep ----------------------------------------------------------

    def merge_tree(self, tree: SubscriptionTree) -> MergeReport:
        """One merging sweep over every sibling group of *tree*.

        Returns the applied :class:`MergeEvent` list; top-level events
        are the ones a covering-based router propagates (unsubscribe the
        replaced XPEs, forward the merger).
        """
        registry = obs.get_registry()
        if not registry.enabled:
            return self._merge_tree(tree)
        with registry.timer("merging.sweep"):
            report = self._merge_tree(tree)
        registry.counter("merging.events").inc(len(report.events))
        registry.counter("merging.merged_away").inc(report.merged_away)
        return report

    def _merge_tree(self, tree: SubscriptionTree) -> MergeReport:
        report = MergeReport()
        # Snapshot parents first: the sweep mutates children lists.
        parents = [tree.root] + [node for node in tree.iter_nodes()]
        for parent in parents:
            if not parent.children:
                continue
            if parent.expr is not None and tree.node_of(parent.expr) is not parent:
                # Merged away earlier in this sweep: its children hang
                # under the merger now (and wait for the next sweep).
                continue
            self._merge_siblings(tree, parent, report)
        return report

    def _merge_siblings(
        self, tree: SubscriptionTree, parent: SubNode, report: MergeReport
    ):
        changed = True
        while changed:
            changed = False
            event = self._find_rule1_merge(parent)
            if event is None and len(parent.children) <= self._pairwise_limit:
                event = self._find_pairwise_merge(parent)
            if event is None:
                break
            merger, group, degree = event
            existing = tree.node_of(merger)
            prior_keys = (
                frozenset(existing.keys) if existing is not None else None
            )
            replaced_keys = tuple(frozenset(node.keys) for node in group)
            self._apply(tree, parent, merger, group)
            report.events.append(
                MergeEvent(
                    merger=merger,
                    replaced=tuple(node.expr for node in group),
                    degree=degree,
                    replaced_keys=replaced_keys,
                    merger_prior_keys=prior_keys,
                )
            )
            changed = True

    def _find_rule1_merge(self, parent: SubNode):
        """Bucket siblings by shape-with-one-masked-position; any bucket
        holding two or more distinct element names is a rule-1 group."""
        buckets: Dict[tuple, List[SubNode]] = {}
        for node in parent.children:
            expr = node.expr
            axes = tuple(step.axis for step in expr.steps)
            tests = expr.tests
            for i, test in enumerate(tests):
                if test == WILDCARD:
                    continue
                key = (expr.rooted, axes, i, tests[:i], tests[i + 1:])
                buckets.setdefault(key, []).append(node)
        for key, nodes in buckets.items():
            if len(nodes) < 2:
                continue
            group = list({id(n): n for n in nodes}.values())
            if len(group) < 2:
                continue
            merger = merge_one_difference([n.expr for n in group])
            if merger is None:
                continue
            ok, degree = self._acceptable(merger, [n.expr for n in group])
            if ok:
                return merger, group, degree
        return None

    def _find_pairwise_merge(self, parent: SubNode):
        """Quadratic rule-2/rule-3 search over a bounded sibling group.

        The covering skip-check runs through a
        :class:`~repro.covering.algorithms.SiblingCoverageProbe` built
        once per group: each sibling's node-test string is rendered and
        its regex bound exactly once for the whole O(k²) scan, instead
        of per pair (differentially pinned against per-pair ``covers``
        in the merging tests)."""
        children = parent.children
        probe = SiblingCoverageProbe([node.expr for node in children])
        for i in range(len(children)):
            for j in range(i + 1, len(children)):
                if probe.either_covers(i, j):
                    continue
                s1, s2 = children[i].expr, children[j].expr
                merger = merge_pair(s1, s2)
                if merger is None or merger in (s1, s2):
                    continue
                ok, degree = self._acceptable(merger, [s1, s2])
                if ok:
                    return merger, [children[i], children[j]], degree
        return None

    def _apply(
        self,
        tree: SubscriptionTree,
        parent: SubNode,
        merger: XPathExpr,
        group: Sequence[SubNode],
    ):
        """Replace *group* under *parent* with a single merger node.

        The merged nodes' children become the merger's children (the
        merger covers them transitively), and the merged nodes' keys are
        unioned — a notification matching the merger must reach every
        last-hop the originals served.  Interior routers drop the
        originals entirely; edge brokers retain exact client
        subscriptions outside this tree (see repro.broker).
        """
        existing = tree.node_of(merger)
        merged_keys: Set[object] = set()
        merged_children: List[SubNode] = []
        for node in group:
            if node is existing:
                continue
            parent.children.remove(node)
            merged_keys |= node.keys
            merged_children.extend(node.children)
            tree._by_expr.pop(node.expr, None)
        if existing is not None:
            target = existing
        else:
            target = SubNode(expr=merger, parent=parent, keys=set())
            parent.children.append(target)
            tree._by_expr[merger] = target
        target.keys |= merged_keys
        for child in merged_children:
            child.parent = target
            target.children.append(child)
        # A general merger may cover further siblings; capture them so
        # the covering invariant (a node covers its subtree) extends to
        # sibling relations the sweep just created.
        captured = [
            sibling
            for sibling in parent.children
            if sibling is not target and covers(merger, sibling.expr)
        ]
        for sibling in captured:
            parent.children.remove(sibling)
            sibling.parent = target
            target.children.append(sibling)

    # -- flat sweep ----------------------------------------------------------

    def merge_flat(self, matcher) -> MergeReport:
        """One merging sweep over a flat :class:`LinearMatcher` table.

        Non-covering brokers keep their PRT in a flat table; merging
        still applies (the rules act on XPE shapes, not on tree
        structure) by treating the whole table as one sibling group.
        The matcher is rewritten through its ``add``/``remove`` API so
        its match epoch advances and memoised results version out.
        """
        registry = obs.get_registry()
        if not registry.enabled:
            return self._merge_flat(matcher)
        with registry.timer("merging.sweep"):
            report = self._merge_flat(matcher)
        registry.counter("merging.events").inc(len(report.events))
        registry.counter("merging.merged_away").inc(report.merged_away)
        return report

    def _merge_flat(self, matcher) -> MergeReport:
        report = MergeReport()
        # A detached sibling group mirroring the flat table lets the
        # rule-1 bucketing and bounded pairwise search run unchanged.
        parent = SubNode(expr=None)
        for expr in matcher.exprs():
            parent.children.append(
                SubNode(expr=expr, parent=parent, keys=matcher.keys_of(expr))
            )
        by_expr = {node.expr: node for node in parent.children}
        while True:
            event = self._find_rule1_merge(parent)
            if event is None and len(parent.children) <= self._pairwise_limit:
                event = self._find_pairwise_merge(parent)
            if event is None:
                break
            merger, group, degree = event
            existing = by_expr.get(merger)
            prior_keys = (
                frozenset(existing.keys) if existing is not None else None
            )
            merged_keys: Set[object] = set()
            replaced = []
            replaced_keys = []
            for node in group:
                if node is existing:
                    continue
                parent.children.remove(node)
                del by_expr[node.expr]
                merged_keys |= node.keys
                replaced.append(node.expr)
                replaced_keys.append(frozenset(node.keys))
                for key in node.keys:
                    matcher.remove(node.expr, key)
            if existing is None:
                existing = SubNode(expr=merger, parent=parent, keys=set())
                parent.children.append(existing)
                by_expr[merger] = existing
            existing.keys |= merged_keys
            for key in merged_keys:
                matcher.add(merger, key)
            report.events.append(
                MergeEvent(
                    merger=merger,
                    replaced=tuple(replaced),
                    degree=degree,
                    replaced_keys=tuple(replaced_keys),
                    merger_prior_keys=prior_keys,
                )
            )
        return report
