"""The mass-subscription matching engine: a lazy DFA cached over the
shared-prefix NFA.

At 10^5–10^6 resident subscriptions per broker, anything per-XPE is
linear death: even PR 3's compiled regexes pay one probe per stored
expression per publication.  Following YFilter [Diao et al., TODS 2003]
and the FPGA XML-filtering line (arXiv 0909.1781), this engine merges
every predicate-free XPE into one :class:`~repro.matching.yfilter.
SharedPathNFA` and matches a publication with a single document pass —
cost bounded by automaton size, not subscription count.

Three layers on top of the plain NFA simulation:

* **Lazy DFA.**  The active-state-set of the NFA simulation is
  deterministic given the input path, so each distinct set becomes one
  cached DFA state and a ``(state, element)`` transition, once built
  via the subset construction, is replayed as a single dict lookup ever
  after.  A transition is built at its **second** sighting: the first
  miss on ``(state, element)`` only records that it happened and the
  walk finishes as a plain NFA simulation from that state's subset —
  no subset key, no state, no accepting set allocated — so a path that
  never recurs costs one NFA pass and leaves nothing behind, while a
  recurring trail of depth *d* is fully cached after *d* + 1 walks
  (each cached state justified by its own evidence; what reaches the
  engine twice behind the broker's route memo is shared prefixes, and
  those are what get cached).  Publication workloads touch a tiny, hot
  fragment of the full (exponential) subset space — the cache is
  bounded by
  ``dfa_state_limit``; on overflow the *cold half* is evicted (states
  are stamped with a per-walk clock, so recently-walked states survive)
  instead of the classic wholesale flush, which used to discard the
  entire hot fragment because one publication wandered somewhere new.
  Correctness never depends on the cache; ``dfa_flushes`` counts
  wholesale discards (``clear()`` only), ``dfa_evictions`` the bounded
  overflow evictions.
* **Predicate post-filtering.**  Attribute predicates are invisible to
  the structural automaton.  Predicated expressions live in a
  :class:`~repro.matching.predicate_index.PredicateIndexMatcher` side
  index (the paper's companion matcher [16]): the automaton handles the
  structural mass, the predicate index the value-constrained minority,
  and a match is the union of the two.
* **Selective invalidation.**  Prefix sharing means an added or
  removed XPE touches only its own suffix of the NFA, and
  :class:`SharedPathNFA` reports exactly what: the edit repairs the
  cached DFA states whose subset contains a touched NFA state
  (:meth:`SharedAutomatonMatcher._repair_dfa`) and leaves every other
  walk warm.  The rules are spelled out in docs/matching.md.

Incremental ``add``/``remove`` (including real NFA state pruning on
unsubscribe) comes from the underlying :class:`SharedPathNFA`;
``automaton_size()`` returns to baseline after any churn cycle.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

from repro import obs
from repro.matching.predicate_index import PredicateIndexMatcher
from repro.matching.yfilter import (
    ACCEPT_ONLY,
    SharedPathNFA,
    _State,
    simulate,
    subset_step,
)
from repro.xpath.ast import WILDCARD, XPathExpr

#: Default bound on cached DFA states before the cold half is evicted.
DEFAULT_DFA_STATE_LIMIT = 50_000


class _DFAState:
    """One lazily-built DFA state: a canonicalised NFA subset."""

    __slots__ = ("nfa_states", "accepting", "transitions", "stamp", "dead")

    def __init__(self, nfa_states: Tuple[_State, ...]):
        self.nfa_states = nfa_states
        self.refresh_accepting()
        self.transitions: Dict[str, "_DFAState"] = {}
        #: Last walk (matcher ``_clock`` value) that visited this state;
        #: eviction keeps the highest stamps.
        self.stamp = 0
        #: Dropped from the cache (evicted, or invalidated by an edit).
        #: Survivors' transitions may still point here; a walk treats a
        #: dead target as a miss and re-derives it.
        self.dead = False

    def refresh_accepting(self):
        accepting: Set[XPathExpr] = set()
        for state in self.nfa_states:
            if state.accepting:
                accepting |= state.accepting
        self.accepting: FrozenSet[XPathExpr] = frozenset(accepting)


#: The unique sink state: empty subset, no way back.
_SINK = _DFAState(())

#: A transition value, never a cached state: this ``(state, symbol)``
#: pair missed once and was walked on the NFA (see the admission rule
#: in the module docstring).  Dead, so the walk's one ``dead`` test
#: sends the second sighting down the path that builds the target, and
#: whatever forgets a transition forgets its sighting with it.
_SIGHTED = _DFAState(())
_SIGHTED.dead = True


class SharedAutomatonMatcher:
    """Shared-automaton bulk matcher with lazy-DFA state caching.

    Engine contract (same as ``LinearMatcher``/``TreeMatcher``/
    ``YFilterMatcher``/``PredicateIndexMatcher``): ``add(expr, key)``,
    ``remove(expr, key)``, ``match(path, attributes) -> set of keys``,
    plus the expression-level views.  Duplicate XPEs under distinct
    keys share one automaton trail and one key set.
    """

    def __init__(self, dfa_state_limit: int = DEFAULT_DFA_STATE_LIMIT):
        self._nfa = SharedPathNFA()
        self._predicated = PredicateIndexMatcher()
        self._keys: Dict[XPathExpr, Set[object]] = {}
        self.dfa_state_limit = dfa_state_limit
        #: Wholesale discards — ``clear()`` only: an edit repairs the
        #: states it touches, overflow evicts the cold half.
        self.dfa_flushes = 0
        #: Bounded cold-half evictions on cache overflow.
        self.dfa_evictions = 0
        #: Walks that left the DFA at a first-sighted transition and
        #: finished on the NFA.
        self.cold_walks = 0
        self._dfa_cache: Dict[FrozenSet[int], _DFAState] = {}
        self._dfa_start: Optional[_DFAState] = None
        #: Walk counter; every structural match stamps the states it
        #: visits so overflow eviction can rank hotness.
        self._clock = 0

    # -- maintenance -----------------------------------------------------

    def add(self, expr: XPathExpr, key: object = None):
        keys = self._keys.setdefault(expr, set())
        if key in keys:
            return
        if expr.has_predicates:
            self._predicated.add(expr, key)
        elif not keys:
            self._repair_dfa(*self._nfa.add(expr))
        keys.add(key)

    def remove(self, expr: XPathExpr, key: object = None):
        keys = self._keys.get(expr)
        if keys is None or key not in keys:
            return
        keys.discard(key)
        if expr.has_predicates:
            self._predicated.remove(expr, key)
        if not keys:
            del self._keys[expr]
            if not expr.has_predicates:
                self._repair_dfa(*self._nfa.remove(expr))

    def clear(self):
        """Drop every expression (used by full rebuilds)."""
        self._nfa = SharedPathNFA()
        self._predicated = PredicateIndexMatcher()
        self._keys = {}
        self._invalidate_dfa()

    # -- the lazy DFA ----------------------------------------------------

    def _invalidate_dfa(self):
        """The NFA itself was replaced: discard the whole DFA."""
        if self._dfa_cache or self._dfa_start is not None:
            self._dfa_cache = {}
            self._dfa_start = None
            self.dfa_flushes += 1
            obs.inc("matching.shared.dfa_flushes")

    def _repair_dfa(self, anchor: _State, label, pruned: Tuple[_State, ...]):
        """One NFA edit (a :data:`~repro.matching.yfilter.Touched`
        report): repair exactly the cached states whose subset holds a
        touched NFA state.  A scan of the cache keys — O(cached states)
        per edit, nothing on the read path.

        States holding a pruned NFA state are dropped, here, while
        *pruned* still pins the ids their keys are made of.  States
        holding the anchor are dropped too when a // link appeared or
        went under it (they are no longer ε-closed); otherwise they
        forget the transition on the created or cut edge's label —
        every transition for ``*`` — or, when no edge changed, re-read
        their accepting set.
        """
        if not self._dfa_cache:
            return  # cold (bulk load, rebuild): nothing to repair
        anchor_id = id(anchor)
        gone = {id(state) for state in pruned}
        if label is None:
            gone.add(anchor_id)
        dropped = []
        for key, state in self._dfa_cache.items():
            if not gone.isdisjoint(key):
                state.dead = True
                dropped.append(key)
            elif anchor_id in key:
                if label is ACCEPT_ONLY:
                    state.refresh_accepting()
                elif label == WILDCARD:
                    state.transitions.clear()
                else:
                    state.transitions.pop(label, None)
        for key in dropped:
            del self._dfa_cache[key]

    def _dfa_state_for(self, nfa_states: Dict[int, _State]) -> _DFAState:
        key = frozenset(nfa_states)
        state = self._dfa_cache.get(key)
        if state is None:
            if len(self._dfa_cache) >= self.dfa_state_limit:
                self._evict_cold()
            state = self._dfa_cache[key] = _DFAState(
                tuple(nfa_states.values())
            )
            state.stamp = self._clock
        return state

    def _evict_cold(self):
        """Overflow: drop the cold half of the DFA cache, keeping the
        most recently walked states.

        States held by an in-flight walk stay valid (the NFA is
        unchanged); evicted ones are marked dead, so a walk that
        reaches one through a survivor re-derives the subset and
        resolves back to the single cached ``_DFAState`` per key."""
        keep = max(1, self.dfa_state_limit // 2)
        ranked = sorted(
            self._dfa_cache.items(),
            key=lambda item: item[1].stamp,
            reverse=True,
        )
        for _, state in ranked[keep:]:
            state.dead = True
        self._dfa_cache = dict(ranked[:keep])
        self.dfa_evictions += 1
        obs.inc("matching.shared.dfa_evictions")

    def _start_state(self) -> _DFAState:
        start = self._dfa_start
        if start is None or start.dead:
            start = self._dfa_start = self._dfa_state_for(
                self._nfa.initial_states()
            )
        return start

    def _transition(self, state: _DFAState, symbol: str) -> _DFAState:
        nxt = subset_step(state.nfa_states, symbol)
        target_state = self._dfa_state_for(nxt) if nxt else _SINK
        state.transitions[symbol] = target_state
        return target_state

    def _match_structural(self, path: Sequence[str]) -> Set[XPathExpr]:
        matched: Set[XPathExpr] = set()
        self._clock += 1
        clock = self._clock
        state = self._start_state()
        state.stamp = clock
        symbols = iter(path)
        for symbol in symbols:
            nxt = state.transitions.get(symbol)
            if nxt is None or nxt.dead:
                if nxt is None:
                    # First sighting: note it, finish on the NFA.
                    state.transitions[symbol] = _SIGHTED
                    simulate(
                        state.nfa_states, chain((symbol,), symbols), matched
                    )
                    self.cold_walks += 1
                    registry = obs.get_registry()
                    if registry.enabled:
                        registry.counter("matching.shared.cold_walks").inc()
                    break
                # Sighted before, or dropped since: (re)build it.
                nxt = self._transition(state, symbol)
            if nxt is _SINK:
                break
            state = nxt
            state.stamp = clock
            if state.accepting:
                matched |= state.accepting
        return matched

    # -- matching --------------------------------------------------------

    @obs.timed("matching.shared.match")
    def match_exprs(
        self, path: Sequence[str], attributes=None
    ) -> Set[XPathExpr]:
        """All stored XPEs matching the publication *path* (one
        automaton pass plus the predicate-index side lookup)."""
        matched = self._match_structural(path)
        if len(self._predicated):
            matched |= self._predicated.match_exprs(path, attributes)
        return matched

    def match(self, path: Sequence[str], attributes=None) -> Set[object]:
        """Union of subscriber keys of the matching XPEs (engine API)."""
        keys: Set[object] = set()
        expr_keys = self._keys
        for expr in self.match_exprs(path, attributes):
            keys |= expr_keys[expr]
        return keys

    # -- views -----------------------------------------------------------

    def keys_of(self, expr: XPathExpr) -> Set[object]:
        return set(self._keys.get(expr, ()))

    def exprs(self):
        return list(self._keys)

    def __len__(self):
        return len(self._keys)

    def automaton_size(self) -> int:
        """Live NFA state count (pruning returns this to baseline
        after churn — asserted by the churn tests)."""
        return self._nfa.state_count()

    def dfa_size(self) -> int:
        """Cached DFA states (the lazily-explored hot fragment)."""
        return len(self._dfa_cache)

    def stats(self) -> Dict[str, int]:
        """Engine internals for ``Broker.describe()``/ablations."""
        return {
            "exprs": len(self._keys),
            "structural_exprs": len(self._nfa),
            "predicated_exprs": len(self._predicated),
            "nfa_states": self.automaton_size(),
            "dfa_states": self.dfa_size(),
            "dfa_flushes": self.dfa_flushes,
            "dfa_evictions": self.dfa_evictions,
            "cold_walks": self.cold_walks,
        }
