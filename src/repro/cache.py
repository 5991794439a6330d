"""Bounded caches for routing hot paths.

:class:`LRUCache` backs the :func:`repro.covering.algorithms.covers`
memo.  Deliberately minimal: hashable keys, ``get``/``put``/``clear``,
bounded size with least-recently-used eviction.  Hit/miss/eviction
counts are plain integer attributes — the hot path never touches the
metrics registry; counters surface at snapshot time instead.

:class:`RouteMemo` is each broker's publication memo: routing decisions
indexed by path and *maintained* under
subscription churn instead of versioned out (see its docstring).  A hit
is a pure read; the memo evicts in insertion order.

Pass ``metric_prefix`` to join a named **cache group**: a single
registered collector sums every live member's counters into
``<prefix>.hits`` / ``.misses`` / ``.evictions`` / ``.size`` gauges
whenever any registry snapshot or export runs (groups hold weak
references, so short-lived caches — e.g. those of restarted brokers —
drop out rather than leak).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict

from repro import obs
from repro.sharing import SharedValues
from repro.xpath import compiled as _compiled

#: metric prefix -> weak set of live caches publishing under it.
_GROUPS: Dict[str, "weakref.WeakSet"] = {}


@obs.register_collector
def _collect_cache_groups(registry):
    for prefix, group in _GROUPS.items():
        hits = misses = evictions = size = 0
        for cache in group:
            hits += cache.hits
            misses += cache.misses
            evictions += cache.evictions
            size += len(cache)
        registry.gauge(prefix + ".hits").set(hits)
        registry.gauge(prefix + ".misses").set(misses)
        registry.gauge(prefix + ".evictions").set(evictions)
        registry.gauge(prefix + ".size").set(size)


class LRUCache:
    """Bounded mapping with least-recently-used eviction."""

    __slots__ = (
        "maxsize",
        "hits",
        "misses",
        "evictions",
        "_data",
        "__weakref__",
    )

    def __init__(self, maxsize: int, metric_prefix: str = None):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict = OrderedDict()
        if metric_prefix is not None:
            _GROUPS.setdefault(metric_prefix, weakref.WeakSet()).add(self)

    def get(self, key, default=None):
        """The cached value (refreshing its recency), or *default*."""
        data = self._data
        try:
            value = data[key]
        except KeyError:
            self.misses += 1
            return default
        data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value):
        """Insert/replace *key*, evicting the oldest entry when full."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)
            self.evictions += 1

    def clear(self):
        """Drop every entry (lifetime counters are kept)."""
        self._data.clear()

    def __len__(self):
        return len(self._data)

    def __contains__(self, key):
        return key in self._data

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus current size (for describe()/tests)."""
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self):
        return "LRUCache(%d/%d, hits=%d, misses=%d)" % (
            len(self._data),
            self.maxsize,
            self.hits,
            self.misses,
        )


#: What recomputing one memoised decision costs, in maintenance probes.
#: A probe is one structural match of an XPE against a cached path,
#: ~0.5 µs.  The cheapest recomputation is a walk of a small covering
#: tree and nothing else (the edge recheck only runs for clients a
#: merger absorbs): 2.5 µs for a one-node tree, 6 µs for ten nodes,
#: 5–12 probes — so 16 sits at the generous end for tiny tables.  It
#: was set on ``churn7_sim`` (the workload that pays maintenance), which
#: reads the same with and without the recheck: 1,979 vs 2,004 docs/s
#: over six alternated pairs.
_REBUILD_PROBES = 16


class RouteMemo:
    """A broker's routing decisions, ``path -> (keys, hops)``, kept
    exact by incremental maintenance.

    A decision is the frozen set of matched subscriber ``keys`` and the
    tuple of ``hops`` they resolve to — neighbours plus the local
    clients whose exact subscriptions match, in emission order.  A
    publication's attributes never enter it: the routing language has
    no predicates, so one decision serves every publication of a path.

    A subscription edit of ``(expr, key)`` can only change the decisions
    of paths *expr* matches, so :meth:`subscribe` inserts the key into
    exactly those entries and :meth:`retire` drops exactly those — one
    structural probe per cached path.  Anything that is not a
    single-key edit calls :meth:`clear`.  So does maintenance itself
    once it stops paying: when the probes spent since the memo last
    served a hit exceed what recomputing its entries would cost (a
    subscription burst with no traffic in between, or a memo of paths
    that never recur), it is dropped instead of scanned again.

    Bounded at *maxsize* paths; the oldest-inserted path goes first.
    A hit does not reorder the memo: on a cache-hot overlay reordering
    cost as much as the read it followed, and the one benchmark
    workload that reaches the bound does so with fresh paths, where
    recency buys nothing (docs/performance.md §2).  Equal decisions
    share one tuple (most paths of a document route alike), from a
    :class:`~repro.sharing.SharedValues` table bounded like the memo.
    """

    __slots__ = (
        "maxsize", "hits", "misses", "evictions", "probes",
        "_paths", "_routes", "_hits_seen", "_unpaid",
    )

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Maintenance probes (structural matches) spent so far.
        self.probes = 0
        #: Insertion order is eviction order.  An OrderedDict, not a
        #: dict: ``popitem(last=False)`` is O(1), while a dict's
        #: ``next(iter(d))`` rescans the slots earlier evictions left.
        self._paths: OrderedDict = OrderedDict()
        self._routes = SharedValues(maxsize)
        #: ``hits`` at the last maintenance, and probes spent since a hit.
        self._hits_seen = 0
        self._unpaid = 0

    def get(self, path):
        """The memoised ``(keys, hops)``, or None (a miss to recompute)."""
        route = self._paths.get(path)
        if route is not None:
            self.hits += 1
            return route
        self.misses += 1
        return None

    def put(self, path, keys: frozenset, hops: tuple) -> tuple:
        """Memoise a freshly computed decision; returns ``(keys, hops)``."""
        route = self._routes[keys, hops]
        paths = self._paths
        paths[path] = route
        while len(paths) > self.maxsize:
            paths.popitem(last=False)
            self.evictions += 1
        return route

    def subscribe(self, expr, key, deliverable: bool):
        """*expr* gained *key* in the routing table: add it to every
        decision *expr* matches (to ``hops`` too when *deliverable* —
        the key is a neighbour, or a local client whose exact
        subscriptions now include *expr*)."""
        paths = self._paths
        for path in self._matching(expr):
            keys, hops = paths[path]
            if deliverable and key not in hops:
                hops = tuple(sorted(hops + (key,), key=str))
            elif key in keys:
                continue
            paths[path] = self._routes[keys | {key}, hops]

    def retire(self, expr) -> int:
        """*expr* lost a key: drop every decision it matches (another
        expression may still contribute the key, so they are recomputed
        on next use).  Returns the number of entries dropped."""
        matching = self._matching(expr)
        for path in matching:
            del self._paths[path]
        return len(matching)

    def clear(self):
        """Drop every decision (lifetime counters are kept)."""
        self._paths.clear()
        self._routes.clear()
        self._unpaid = 0

    def _matching(self, expr) -> list:
        """Every cached path *expr* matches."""
        paths = self._paths
        if not paths:
            return []
        cost = len(paths)
        if self.hits != self._hits_seen:  # it served since the last edit
            self._hits_seen = self.hits
            self._unpaid = 0
        self._unpaid += cost
        if self._unpaid > _REBUILD_PROBES * cost:
            self.clear()
            return []
        self.probes += cost
        regex = _compiled.compile_xpe(expr).regex
        path_string = _compiled.path_string
        return [path for path in paths if regex(path_string(path)) is not None]

    def __len__(self):
        return len(self._paths)

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus current size (for describe()/tests)."""
        return {
            "size": len(self._paths),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "probes": self.probes,
        }
