"""Bounded caches for routing hot paths.

:class:`LRUCache` backs the :func:`repro.covering.algorithms.covers`
memo.  Deliberately minimal: hashable keys, ``get``/``put``/``clear``,
bounded size with least-recently-used eviction.  Hit/miss/eviction
counts are plain integer attributes — the hot path never touches the
metrics registry; counters surface at snapshot time instead.

:class:`RouteMemo` is each broker's publication memo: routing decisions
indexed by path, then attribute fingerprint, and *maintained* under
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
    """A broker's routing decisions, ``path -> attribute fingerprint ->
    (keys, hops)``, kept exact by incremental maintenance.

    A decision is the frozen set of matched subscriber ``keys`` and the
    tuple of ``hops`` they resolve to — neighbours plus the local
    clients whose exact subscriptions match, in emission order.

    A subscription edit of ``(expr, key)`` can only change the decisions
    of publications *expr* matches, so :meth:`subscribe` inserts the key
    into exactly those entries and :meth:`retire` drops exactly those —
    one structural probe per cached path for a predicate-free
    expression, one evaluation per entry for a predicated one.  Anything
    that is not a single-key edit calls :meth:`clear`.  So does
    maintenance itself once it stops paying: when the probes spent since
    the memo last served a hit exceed what recomputing its entries would
    cost (a subscription burst with no traffic in between, or a memo of
    paths that never recur), it is dropped instead of scanned again.

    Bounded at *maxsize* entries; the oldest-inserted path goes first,
    with all its attribute variants.  A hit does not reorder the memo:
    on a cache-hot overlay reordering cost as much as the read it
    followed, and the one benchmark workload that reaches the bound
    does so with fresh paths, where recency buys nothing
    (docs/performance.md §2).  Equal decisions share one interned tuple (most attribute
    variants of a path, and most paths of a document, route alike).
    """

    __slots__ = (
        "maxsize", "hits", "misses", "evictions", "probes",
        "_paths", "_size", "_routes", "_hits_seen", "_unpaid",
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
        self._size = 0
        self._routes: Dict[tuple, tuple] = {}
        #: ``hits`` at the last maintenance, and probes spent since a hit.
        self._hits_seen = 0
        self._unpaid = 0

    def get(self, path, attrs):
        """The memoised ``(keys, hops)``, or None (a miss to recompute)."""
        inner = self._paths.get(path)
        if inner is not None:
            route = inner.get(attrs)
            if route is not None:
                self.hits += 1
                return route
        self.misses += 1
        return None

    def put(self, path, attrs, keys: frozenset, hops: tuple) -> tuple:
        """Memoise a freshly computed decision; returns ``(keys, hops)``."""
        route = self._intern(keys, hops)
        paths = self._paths
        inner = paths.get(path)
        if inner is None:
            inner = paths[path] = {}
        if attrs not in inner:
            self._size += 1
        inner[attrs] = route
        while self._size > self.maxsize:
            _, evicted = paths.popitem(last=False)
            self._size -= len(evicted)
            self.evictions += len(evicted)
        return route

    def subscribe(self, expr, key, deliverable: bool):
        """*expr* gained *key* in the routing table: add it to every
        decision *expr* matches (to ``hops`` too when *deliverable* —
        the key is a neighbour, or a local client whose exact
        subscriptions now include *expr*)."""
        for _, inner, attrs in self._matching(expr):
            keys, hops = inner[attrs]
            if deliverable and key not in hops:
                hops = tuple(sorted(hops + (key,), key=str))
            elif key in keys:
                continue
            inner[attrs] = self._intern(keys | {key}, hops)

    def retire(self, expr) -> int:
        """*expr* lost a key: drop every decision it matches (another
        expression may still contribute the key, so they are recomputed
        on next use).  Returns the number of entries dropped."""
        matching = self._matching(expr)
        for path, inner, attrs in matching:
            del inner[attrs]
            if not inner:
                del self._paths[path]
        self._size -= len(matching)
        return len(matching)

    def clear(self):
        """Drop every decision (lifetime counters are kept)."""
        self._paths.clear()
        self._routes.clear()
        self._size = 0
        self._unpaid = 0

    def _matching(self, expr) -> list:
        """``(path, inner, attrs)`` of every entry *expr* matches."""
        if not self._paths:
            return []
        # covering.algorithms imports this module: import at use.
        from repro.covering.pathmatch import matches_path

        predicated = expr.has_predicates
        cost = self._size if predicated else len(self._paths)
        if self.hits != self._hits_seen:  # it served since the last edit
            self._hits_seen = self.hits
            self._unpaid = 0
        self._unpaid += cost
        if self._unpaid > _REBUILD_PROBES * self._size:
            self.clear()
            return []
        self.probes += cost
        found = []
        if predicated:
            for path, inner in self._paths.items():
                for attrs in inner:
                    maps = attrs and tuple(map(dict, attrs))
                    if matches_path(expr, path, maps):
                        found.append((path, inner, attrs))
        else:
            # One compiled pattern for the whole scan; ``matches_path``
            # only where the XPE has no regex form or a path no string
            # form (an element containing the separator).
            regex = None
            if _compiled.ENABLED:
                regex = _compiled.compile_xpe(expr).regex
            path_string = _compiled.path_string
            for path, inner in self._paths.items():
                text = path_string(path) if regex is not None else None
                if text is None:
                    matched = matches_path(expr, path)
                else:
                    matched = regex(text) is not None
                if matched:
                    found.extend((path, inner, attrs) for attrs in inner)
        return found

    def _intern(self, keys: frozenset, hops: tuple) -> tuple:
        routes = self._routes
        if len(routes) >= self.maxsize:
            # Forget rather than track liveness: entries keep the tuple
            # they hold, later equal ones share a new one.
            routes.clear()
        route = (keys, hops)
        return routes.setdefault(route, route)

    def __len__(self):
        return self._size

    def stats(self) -> Dict[str, int]:
        """Lifetime counters plus current size (for describe()/tests)."""
        return {
            "size": self._size,
            "maxsize": self.maxsize,
            "paths": len(self._paths),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "probes": self.probes,
        }
