"""Sharded mass-subscription matching (ROADMAP item 3).

One :class:`~repro.matching.shared_automaton.SharedAutomatonMatcher`
per broker stops scaling once churn enters the picture: every SUB or
UNSUB anywhere in the table invalidates the *entire* lazy-DFA fragment,
so under realistic subscriber churn each publication the broker's
route memo misses pays a full subset construction over a
100k-expression automaton.  :class:`ShardedMatcher` partitions the
mirror by **root element** (the first node test of an absolute
expression — the paper's path-prefix slicing, following the
partition/rebalance patterns of the cloud-distributed-systems
literature):

* every absolute XPE whose first test is concrete lives in exactly one
  **root shard**, chosen by a stable hash of its root element (CRC32 —
  process-independent, so the multiprocess backend shards identically);
* everything else (relative expressions, ``/*``-prefixed ones) lives in
  one **floating shard** that is probed on every match — a publication
  rooted at ``a`` can only match absolute expressions rooted at ``a``,
  so probing ``home(a)`` plus the floating shard is exhaustive.

Each shard is a full ``SharedAutomatonMatcher`` with its *own* DFA
fragment — a mutation in one shard discards that shard's automaton and
leaves every other shard's warm.  A probe touches at most two shards.
Match *results* are not cached here: the broker's route memo
(``Broker.match_cache``) fronts every engine and is exact per edit.

**Rebalancing.**  Root elements are Zipf-skewed in every workload this
repo ships, so one shard can end up hosting most of the table.  The
matcher tracks per-root residency; when one shard's population exceeds
``rebalance_factor`` times the mean, it is *split*: a new shard is
appended and the hottest roots are migrated (re-added expression by
expression through the ordinary ``add``/``remove`` API, so the
exactly-one-copy invariant holds at every step and the audit oracle's
replay-through-the-live-engine check stays valid mid-migration).  The
root→shard override map survives ``clear()``/rebuilds — a learned
balance is kept across merge sweeps.

The authoritative routing tables stay in the broker (tree/flat); this
is a mirror that only answers "which keys match this publication",
exactly like the single shared automaton it replaces.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro import obs
from repro.matching.shared_automaton import (
    DEFAULT_DFA_STATE_LIMIT,
    SharedAutomatonMatcher,
)
from repro.xpath.ast import WILDCARD, XPathExpr

#: Default number of root shards (the floating shard is extra).
DEFAULT_SHARD_COUNT = 4

#: Mutations between skew checks.
DEFAULT_REBALANCE_INTERVAL = 4096

#: A shard is "hot" when its population exceeds this multiple of the
#: mean root-shard population (and the minimum size below).
DEFAULT_REBALANCE_FACTOR = 2.0

#: Never split a shard smaller than this — skew over a tiny table is
#: noise, and migration has a real cost.
DEFAULT_MIN_SPLIT_SIZE = 512


def root_element(expr: XPathExpr) -> Optional[str]:
    """The shard key of *expr*: its concrete root element, or None when
    the expression can match paths under any root (relative, or a
    wildcard first step) and must live in the floating shard.

    Soundness: an absolute expression's first test constrains path
    position 0 (``XPathExpr.__post_init__`` forbids a rooted expression
    starting with a descendant axis), so an absolute XPE rooted at
    ``a`` can never match a publication whose path starts elsewhere.
    """
    if not expr.rooted:
        return None
    first = expr.tests[0]
    return None if first == WILDCARD else first


class _Shard:
    """One partition: an engine and its probe count."""

    __slots__ = ("index", "engine", "probes")

    def __init__(self, index: int, dfa_state_limit: int):
        self.index = index
        self.engine = SharedAutomatonMatcher(dfa_state_limit=dfa_state_limit)
        self.probes = 0

    def probe(self, path, attributes) -> Set[object]:
        self.probes += 1
        return self.engine.match(path, attributes)

    def stats(self) -> Dict[str, int]:
        return {
            "index": self.index,
            "exprs": len(self.engine),
            "nfa_states": self.engine.automaton_size(),
            "dfa_states": self.engine.dfa_size(),
            "dfa_flushes": self.engine.dfa_flushes,
            "probes": self.probes,
        }


class ShardedMatcher:
    """Root-element-sharded shared-automaton matcher.

    Engine contract (``add``/``remove``/``match``/``matching_exprs``/
    ``keys_of``/``exprs``/``__len__``/``clear``/``stats``/``version``)
    is identical to :class:`SharedAutomatonMatcher`, so a broker can
    hold either behind one attribute.
    """

    def __init__(
        self,
        shard_count: int = DEFAULT_SHARD_COUNT,
        dfa_state_limit: Optional[int] = None,
        rebalance_interval: int = DEFAULT_REBALANCE_INTERVAL,
        rebalance_factor: float = DEFAULT_REBALANCE_FACTOR,
        min_split_size: int = DEFAULT_MIN_SPLIT_SIZE,
        auto_rebalance: bool = True,
    ):
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        if rebalance_factor <= 1.0:
            raise ValueError("rebalance_factor must exceed 1.0")
        if dfa_state_limit is None:
            # Budget the global DFA bound across the partitions.
            dfa_state_limit = max(
                1024, DEFAULT_DFA_STATE_LIMIT // (shard_count + 1)
            )
        self.base_shard_count = shard_count
        self._dfa_state_limit = dfa_state_limit
        self.rebalance_interval = rebalance_interval
        self.rebalance_factor = rebalance_factor
        self.min_split_size = min_split_size
        self.auto_rebalance = auto_rebalance

        self._shards: List[_Shard] = [
            _Shard(i, dfa_state_limit) for i in range(shard_count)
        ]
        self.floating = _Shard(-1, dfa_state_limit)
        #: Explicit root→shard overrides written by rebalancing; roots
        #: not listed hash into the base shards.  Survives ``clear()``.
        self._assignment: Dict[str, int] = {}
        #: Where each resident expression lives (remove/migrate must
        #: find the copy even after its root was reassigned).
        self._expr_shard: Dict[XPathExpr, _Shard] = {}
        #: Resident expression count per concrete root element.
        self._root_load: Dict[str, int] = {}
        self.version = 0
        self.rebalances = 0
        self.migrated_exprs = 0
        #: Applied rebalance events (root moves), for tests/describe.
        self.rebalance_log: List[Dict[str, object]] = []
        self._mutations_since_check = 0
        #: The owning broker rewrote its table behind this mirror's
        #: back (merge sweep, restore) and a rebuild is pending: the
        #: resident expressions no longer reflect the routing state, so
        #: rebalancing must not migrate from them (see mark_stale).
        self.stale = False
        self._rebuild_hook: Optional[Callable[[], None]] = None
        self._rebuilding = False

    # -- placement -------------------------------------------------------

    @property
    def shard_count(self) -> int:
        """Live root-shard count (grows when a hot shard splits)."""
        return len(self._shards)

    def shard_index_for_root(self, root: str) -> int:
        index = self._assignment.get(root)
        if index is None:
            index = zlib.crc32(root.encode("utf-8")) % self.base_shard_count
        return index

    def _home(self, root: str) -> _Shard:
        return self._shards[self.shard_index_for_root(root)]

    def _shard_for(self, expr: XPathExpr) -> _Shard:
        root = root_element(expr)
        if root is None:
            return self.floating
        return self._home(root)

    def _probe_shards(self, path: Sequence[str]) -> List[_Shard]:
        if not path:
            return [self.floating]
        return [self._home(path[0]), self.floating]

    # -- maintenance -----------------------------------------------------

    def add(self, expr: XPathExpr, key: object = None):
        shard = self._expr_shard.get(expr)
        if shard is None:
            shard = self._shard_for(expr)
        engine = shard.engine
        before = engine.version
        engine.add(expr, key)
        if engine.version != before:
            self.version += 1
        if expr not in self._expr_shard:
            self._expr_shard[expr] = shard
            root = root_element(expr)
            if root is not None:
                self._root_load[root] = self._root_load.get(root, 0) + 1
        self._mutations_since_check += 1
        if (
            self.auto_rebalance
            and not self._rebuilding
            and not self.stale
            and self._mutations_since_check >= self.rebalance_interval
        ):
            # Never auto-rebalance mid-rebuild (the table is half
            # repopulated) or while stale (the table is about to be
            # discarded) — both would migrate from a wrong snapshot.
            self._mutations_since_check = 0
            self.maybe_rebalance()

    def remove(self, expr: XPathExpr, key: object = None):
        shard = self._expr_shard.get(expr)
        if shard is None:
            return
        engine = shard.engine
        before = engine.version
        engine.remove(expr, key)
        if engine.version != before:
            self.version += 1
        if not engine.keys_of(expr):
            del self._expr_shard[expr]
            root = root_element(expr)
            if root is not None:
                load = self._root_load.get(root, 0) - 1
                if load > 0:
                    self._root_load[root] = load
                else:
                    self._root_load.pop(root, None)

    def clear(self):
        """Drop every expression; the learned root→shard assignment
        (and the split shards) are kept for the rebuild."""
        for shard in self._all_shards():
            shard.engine.clear()
        self._expr_shard = {}
        self._root_load = {}
        self.version += 1

    # -- matching --------------------------------------------------------

    def match(self, path: Sequence[str], attributes=None) -> Set[object]:
        """Union of subscriber keys over the home and floating probes."""
        keys: Set[object] = set()
        for shard in self._probe_shards(path):
            keys |= shard.probe(path, attributes)
        return keys

    def match_exprs(self, path: Sequence[str], attributes=None):
        matched = set()
        for shard in self._probe_shards(path):
            matched |= shard.engine.match_exprs(path, attributes)
        return matched

    def matching_exprs(self, path: Sequence[str], attributes=None):
        return list(self.match_exprs(path, attributes))

    # -- views -----------------------------------------------------------

    def keys_of(self, expr: XPathExpr) -> Set[object]:
        shard = self._expr_shard.get(expr)
        return shard.engine.keys_of(expr) if shard is not None else set()

    def exprs(self):
        return list(self._expr_shard)

    def __len__(self):
        return len(self._expr_shard)

    def automaton_size(self) -> int:
        return sum(s.engine.automaton_size() for s in self._all_shards())

    def dfa_size(self) -> int:
        return sum(s.engine.dfa_size() for s in self._all_shards())

    def _all_shards(self) -> List[_Shard]:
        return self._shards + [self.floating]

    def stats(self) -> Dict[str, object]:
        """Per-shard internals for ``Broker.describe()`` and the
        ``matching.shard.*`` benchmark gauges."""
        shard_stats = [s.stats() for s in self._all_shards()]
        populations = [s["exprs"] for s in shard_stats[:-1]]
        return {
            "exprs": len(self._expr_shard),
            "shard_count": len(self._shards),
            "floating_exprs": len(self.floating.engine),
            "max_shard_exprs": max(populations) if populations else 0,
            "rebalances": self.rebalances,
            "migrated_exprs": self.migrated_exprs,
            "version": self.version,
            "stale": self.stale,
            "shards": shard_stats,
        }

    # -- rebalancing -----------------------------------------------------

    def _hot_shard(self) -> Optional[_Shard]:
        """The shard whose population trips the skew trigger, if any."""
        populations = [len(shard.engine) for shard in self._shards]
        total = sum(populations)
        if not total:
            return None
        mean = total / len(self._shards)
        hottest = max(self._shards, key=lambda s: len(s.engine))
        threshold = self.rebalance_factor * max(
            mean, float(self.min_split_size)
        )
        if len(hottest.engine) <= threshold:
            return None
        return hottest

    def mark_stale(self):
        """The authoritative table was bulk-rewritten and a rebuild is
        pending: resident expressions are a stale snapshot.  Matching
        still answers (the owning broker rebuilds before it matches),
        but rebalancing refuses to migrate until the rebuild ran."""
        self.stale = True

    def set_rebuild_hook(self, hook: Optional[Callable[[], None]]):
        """Install the owner's rebuild callback, used by
        :meth:`maybe_rebalance` to refresh a stale table first."""
        self._rebuild_hook = hook

    def _ensure_fresh(self) -> bool:
        """Rebuild a stale table through the owner's hook; returns True
        when the table is usable for migration decisions."""
        if not self.stale:
            return True
        if self._rebuild_hook is None:
            return False
        self._rebuilding = True
        try:
            self._rebuild_hook()
        finally:
            self._rebuilding = False
        self.stale = False
        return True

    def maybe_rebalance(self) -> bool:
        """Split the hottest shard if the skew trigger fires.

        A pending dirty-rebuild is honoured first: rebalancing over a
        stale table would migrate expressions out of shards the rebuild
        is about to clear, leaving ``_assignment`` pointing hot roots
        at a shard chosen from data that no longer exists."""
        if not self._ensure_fresh():
            return False
        hot = self._hot_shard()
        if hot is None:
            return False
        return self.split_shard(hot)

    def split_shard(self, hot: _Shard) -> bool:
        """Split *hot*: append a fresh shard and migrate its heaviest
        roots there until roughly half its population has moved.

        A shard hosting a single root cannot split (root granularity is
        the partition floor); returns False.  Migration re-routes each
        expression through ``remove``+``add`` on the engines, so every
        intermediate state keeps the exactly-one-copy invariant and
        match results are unchanged throughout (the audit oracle's
        replay probes stay correct mid-split).
        """
        if not self._ensure_fresh():
            return False
        roots = sorted(
            (
                root
                for root, load in self._root_load.items()
                if self._home(root) is hot
            ),
            key=lambda root: (-self._root_load[root], root),
        )
        if len(roots) < 2:
            return False
        target_index = len(self._shards)
        target = _Shard(target_index, self._dfa_state_limit)
        self._shards.append(target)
        hot_population = len(hot.engine)
        moved_load = 0
        moved_roots: List[str] = []
        # Heaviest-first, but always leave the single heaviest root
        # behind: moving it would usually just relocate the hot spot.
        for root in roots[1:]:
            if moved_load * 2 >= hot_population:
                break
            moved_roots.append(root)
            moved_load += self._root_load[root]
        if not moved_roots:
            self._shards.pop()
            return False
        moving = set(moved_roots)
        migrated = 0
        for expr in list(hot.engine.exprs()):
            root = root_element(expr)
            if root not in moving:
                continue
            for key in hot.engine.keys_of(expr):
                hot.engine.remove(expr, key)
                target.engine.add(expr, key)
            self._expr_shard[expr] = target
            migrated += 1
        for root in moved_roots:
            self._assignment[root] = target_index
        self.version += 1
        self.rebalances += 1
        self.migrated_exprs += migrated
        self.rebalance_log.append({
            "from": hot.index,
            "to": target_index,
            "roots": moved_roots,
            "exprs": migrated,
        })
        registry = obs.get_registry()
        if registry.enabled:
            registry.counter("matching.shard.rebalances").inc()
            registry.counter("matching.shard.migrated_exprs").inc(migrated)
            registry.set_gauge("matching.shard.count", len(self._shards))
        return True

    # -- invariants ------------------------------------------------------

    def check_invariants(self):
        """Raise AssertionError unless the partition is consistent:
        every resident expression lives in exactly one shard, in the
        shard its root currently maps to; the floating shard holds
        exactly the root-less expressions; per-root loads add up."""
        seen: Dict[XPathExpr, int] = {}
        for shard in self._all_shards():
            for expr in shard.engine.exprs():
                assert expr not in seen, (
                    "expression %s present in shards %d and %d"
                    % (expr, seen[expr], shard.index)
                )
                seen[expr] = shard.index
                assert self._expr_shard.get(expr) is shard, (
                    "placement map disagrees for %s" % (expr,)
                )
                root = root_element(expr)
                if root is None:
                    assert shard is self.floating, (
                        "root-less %s outside the floating shard" % (expr,)
                    )
                else:
                    assert shard.index == self.shard_index_for_root(root), (
                        "%s homed in shard %d, root %r maps to %d"
                        % (expr, shard.index, root,
                           self.shard_index_for_root(root))
                    )
        assert set(seen) == set(self._expr_shard)
        loads: Dict[str, int] = {}
        for expr in seen:
            root = root_element(expr)
            if root is not None:
                loads[root] = loads.get(root, 0) + 1
        assert loads == self._root_load, (loads, self._root_load)
