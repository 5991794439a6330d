"""A predicate-index (counting) matcher, after the paper's companion
matcher [16] ("Predicate-based filtering of XPath expressions", Hou &
Jacobsen, ICDE 2006).

The idea: decompose every XPE into *positional predicates* and match a
publication by looking up which predicates each path element satisfies,
counting per expression, and reporting the expressions whose predicate
counts are complete.  Against large workloads the per-publication cost
is driven by the number of *satisfied predicates*, not the number of
expressions — the same argument as [16].

Decomposition used here:

* an **absolute simple** XPE contributes one predicate per step:
  ``(position i, test)`` — satisfied when path[i] matches the test and
  the path is long enough;
* other shapes (relative XPEs, ``//`` operators, attribute predicates)
  are handled by a *candidate filter + verify* scheme, again following
  [16]: the expression registers its most selective concrete test as a
  filter predicate (any position), and candidates surviving the filter
  are verified with the exact path matcher.

The engine interface matches LinearMatcher / TreeMatcher /
YFilterMatcher, so it drops into brokers and ablation benchmarks.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Optional, Sequence, Set, Tuple

from repro import obs
from repro.covering.pathmatch import matches_path
from repro.xpath.ast import WILDCARD, XPathExpr


class PredicateIndexMatcher:
    """Counting-based bulk matcher over positional predicates."""

    def __init__(self):
        self._exprs: Dict[XPathExpr, Set[object]] = {}
        # (position, test) -> expressions holding that predicate.
        self._positional: Dict[Tuple[int, str], Set[XPathExpr]] = defaultdict(set)
        # Required predicate count per simple absolute expression.
        self._required: Dict[XPathExpr, int] = {}
        # Minimum path length per simple absolute expression.
        self._min_length: Dict[XPathExpr, int] = {}
        # element name -> complex expressions filtered by that name.
        self._filtered: Dict[str, Set[XPathExpr]] = defaultdict(set)
        # Complex expressions with no concrete test (all wildcards):
        # always candidates.
        self._unfiltered: Set[XPathExpr] = set()
        # Indexed expressions made solely of wildcards: only the length
        # gate applies to them (kept separate so matching never scans
        # the whole table).
        self._all_wildcard: Set[XPathExpr] = set()

    # -- maintenance -------------------------------------------------------

    def add(self, expr: XPathExpr, key: object = None):
        keys = self._exprs.get(expr)
        if keys is not None:
            keys.add(key)
            return
        self._exprs[expr] = {key}
        if self._is_indexable(expr):
            count = 0
            for position, step in enumerate(expr.steps):
                if step.test != WILDCARD:
                    self._positional[(position, step.test)].add(expr)
                    count += 1
            self._required[expr] = count
            self._min_length[expr] = len(expr.steps)
            if count == 0:
                self._all_wildcard.add(expr)
        else:
            anchor = self._anchor_of(expr)
            if anchor is None:
                self._unfiltered.add(expr)
            else:
                self._filtered[anchor].add(expr)

    def remove(self, expr: XPathExpr, key: object = None):
        keys = self._exprs.get(expr)
        if keys is None:
            return
        keys.discard(key)
        if keys:
            return
        del self._exprs[expr]
        if expr in self._required:
            del self._required[expr]
            del self._min_length[expr]
            self._all_wildcard.discard(expr)
            for position, step in enumerate(expr.steps):
                if step.test != WILDCARD:
                    bucket = self._positional.get((position, step.test))
                    if bucket is not None:
                        bucket.discard(expr)
                        if not bucket:
                            del self._positional[(position, step.test)]
        else:
            anchor = self._anchor_of(expr)
            if anchor is None:
                self._unfiltered.discard(expr)
            else:
                bucket = self._filtered.get(anchor)
                if bucket is not None:
                    bucket.discard(expr)
                    if not bucket:
                        del self._filtered[anchor]

    @staticmethod
    def _is_indexable(expr: XPathExpr) -> bool:
        """Absolute simple predicate-free XPEs get full positional
        decomposition; everything else goes through filter+verify."""
        return expr.is_absolute and expr.is_simple and not expr.has_predicates

    @staticmethod
    def _anchor_of(expr: XPathExpr) -> Optional[str]:
        """The rarest-is-best stand-in: the expression's first concrete
        element test, used as its candidate filter."""
        for step in expr.steps:
            if step.test != WILDCARD:
                return step.test
        return None

    # -- matching ------------------------------------------------------------

    @obs.timed("matching.predicate_index.match")
    def match_exprs(
        self, path: Sequence[str], attributes=None
    ) -> Set[XPathExpr]:
        matched: Set[XPathExpr] = set()

        # Counting phase for indexed (absolute simple) expressions.
        counts: Counter = Counter()
        for position, element in enumerate(path):
            for expr in self._positional.get((position, element), ()):
                counts[expr] += 1
        for expr, seen in counts.items():
            if (
                seen == self._required[expr]
                and len(path) >= self._min_length[expr]
            ):
                matched.add(expr)
        # All-wildcard indexed expressions never enter `counts`; only
        # the length gate applies.
        for expr in self._all_wildcard:
            if len(path) >= self._min_length[expr]:
                matched.add(expr)

        # Filter + verify phase for the complex shapes.
        candidates: Set[XPathExpr] = set(self._unfiltered)
        for element in set(path):
            candidates |= self._filtered.get(element, set())
        for expr in candidates:
            if matches_path(expr, path, attributes):
                matched.add(expr)
        return matched

    def match(self, path: Sequence[str], attributes=None) -> Set[object]:
        keys: Set[object] = set()
        for expr in self.match_exprs(path, attributes):
            keys |= self._exprs[expr]
        return keys

    def keys_of(self, expr: XPathExpr) -> Set[object]:
        return set(self._exprs.get(expr, ()))

    def exprs(self):
        return list(self._exprs)

    def __len__(self):
        return len(self._exprs)

    def index_stats(self) -> Dict[str, int]:
        """Sizes of the internal indexes (ablation reporting)."""
        return {
            "indexed_exprs": len(self._required),
            "positional_predicates": len(self._positional),
            "filtered_exprs": sum(len(v) for v in self._filtered.values()),
            "unfiltered_exprs": len(self._unfiltered),
        }
