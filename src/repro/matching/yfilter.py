"""The shared-prefix NFA over XPE path structure, and the YFilter
baseline matcher built on it.

The paper's evaluation (§5, "Publication Routing Time") references a
comparison of its covering-tree router against **YFilter** [Diao et
al., TODS 2003]: YFilter compiles all XPEs into one NFA whose common
prefixes are shared, then matches each incoming document against the
combined automaton.  :class:`SharedPathNFA` implements that automaton
for the path-publication model used here; :class:`YFilterMatcher` wraps
it with the common engine interface
(:class:`~repro.matching.engine.LinearMatcher` /
:class:`~repro.matching.engine.TreeMatcher` /
:class:`~repro.matching.predicate_index.PredicateIndexMatcher`) so the
engines are interchangeable in brokers and benchmarks.  The
production-scale engine — a lazy DFA cached over this same NFA — lives
in :mod:`repro.matching.shared_automaton`.

Construction: one trie-like NFA over location steps.  A ``/t`` step is
an edge labelled ``t``; ``/*`` an edge labelled ``*`` (matches any
element); ``//`` introduces a state with a self-loop on any element
before the next step's edge.  A relative XPE starts behind a ``//``
state, and acceptance may fire at any path position (an XPE selects a
node *on* the path, not necessarily the leaf).

Matching runs the active-state-set simulation once per publication
path; its cost is bounded by the automaton size, not the number of
XPEs — prefix sharing is exactly what makes YFilter fast on large
overlapping workloads.

Removal really prunes: every state carries a reference count of the
expression trails traversing it, and when an expression's last key is
gone the shallowest dead state on its trail is unlinked, releasing the
whole dead subtree.  ``state_count()`` therefore returns to its old
value after any add/remove churn cycle — dead automaton branches would
otherwise accumulate without bound under subscriber churn (the classic
YFilter "prune lazily" stance, which this module used to take, is
untenable at routing-table scale).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.covering.pathmatch import matches_path
from repro.errors import RoutingError
from repro.xpath.ast import WILDCARD, Axis, XPathExpr


class _State:
    """One NFA state.

    ``edges`` maps an element name (or ``*``) to the next state;
    ``descendant`` points to the //-state child (which self-loops);
    ``accepting`` holds the XPEs that end here; ``refs`` counts the
    expression trails that traverse this state (pruning drops a state
    when it reaches zero).
    """

    __slots__ = ("edges", "descendant", "accepting", "self_loop", "refs")

    def __init__(self, self_loop: bool = False):
        self.edges: Dict[str, "_State"] = {}
        self.descendant: Optional["_State"] = None
        self.accepting: Set[XPathExpr] = set()
        self.self_loop = self_loop
        self.refs = 0


#: One trail entry: (parent state, edge label or None for the
#: descendant link, reached state).
_TrailEntry = Tuple[_State, Optional[str], _State]

#: Edit-report label: no edge changed, only *anchor*'s accepting set.
ACCEPT_ONLY = object()

#: What one ``add``/``remove`` touched, for caches keyed on NFA states
#: (the lazy DFA): ``(anchor, label, pruned)``.  *anchor* is the deepest
#: state on the trail that existed before the edit and survives it,
#: *label* the first edge created — or the one cut — under it (a
#: trail-entry label: an element name, ``*``, or None for the //
#: link; :data:`ACCEPT_ONLY` when the trail's shape did not change),
#: *pruned* the chain of states a cut released.
Touched = Tuple[_State, object, Tuple[_State, ...]]


class SharedPathNFA:
    """A shared-prefix NFA over a set of structural XPE skeletons.

    Predicates are invisible to the automaton — callers that admit
    predicated expressions must verify predicates on the structural
    matches (YFilter's value-based predicates are likewise evaluated
    outside the structural NFA).
    """

    def __init__(self):
        self._root = _State()
        self._trails: Dict[XPathExpr, List[_TrailEntry]] = {}

    def __len__(self):
        return len(self._trails)

    def __contains__(self, expr: XPathExpr) -> bool:
        return expr in self._trails

    def exprs(self) -> Iterator[XPathExpr]:
        return iter(self._trails)

    # -- maintenance -----------------------------------------------------

    def add(self, expr: XPathExpr) -> Optional[Touched]:
        """Insert *expr*'s structural trail (idempotent: None when
        already present) and report what the insertion touched."""
        if expr in self._trails:
            return None
        trail: List[_TrailEntry] = []
        state = self._root
        if expr.is_relative:
            state = self._descendant_of(state, trail)
        for index, step in enumerate(expr.steps):
            if step.axis is Axis.DESCENDANT and not (
                index == 0 and expr.is_relative
            ):
                state = self._descendant_of(state, trail)
            state = self._edge_of(state, step.test, trail)
        state.accepting.add(expr)
        # Every pre-existing state is on a live trail (refs >= 1), so
        # the first unreferenced one is the first this call created.
        touched = None
        for parent, label, reached in trail:
            if touched is None and not reached.refs:
                touched = (parent, label, ())
            reached.refs += 1
        self._trails[expr] = trail
        return touched or (state, ACCEPT_ONLY, ())

    def remove(self, expr: XPathExpr) -> Optional[Touched]:
        """Remove *expr*, prune every state its departure orphans and
        report what was touched (None when *expr* is not stored).

        The trail's states form a root-to-leaf chain; a state's
        reference count bounds its children's, so unlinking the
        *shallowest* state that reached zero releases the entire dead
        subtree — the rest of this trail — in one cut.
        """
        trail = self._trails.pop(expr, None)
        if trail is None:
            return None
        trail[-1][2].accepting.discard(expr)
        for _, _, reached in trail:
            reached.refs -= 1
        for index, (parent, label, reached) in enumerate(trail):
            if reached.refs == 0:
                if label is None:
                    parent.descendant = None
                else:
                    del parent.edges[label]
                return parent, label, tuple(e[2] for e in trail[index:])
        return trail[-1][2], ACCEPT_ONLY, ()

    def _descendant_of(self, state: _State, trail: List[_TrailEntry]) -> _State:
        child = state.descendant
        if child is None:
            child = state.descendant = _State(self_loop=True)
        trail.append((state, None, child))
        return child

    def _edge_of(
        self, state: _State, test: str, trail: List[_TrailEntry]
    ) -> _State:
        nxt = state.edges.get(test)
        if nxt is None:
            nxt = state.edges[test] = _State()
        trail.append((state, test, nxt))
        return nxt

    # -- simulation ------------------------------------------------------

    def initial_states(self) -> Dict[int, _State]:
        """The ε-closed start set (root plus its //-descendants)."""
        active = {id(self._root): self._root}
        _absorb_descendants(active)
        return active

    @staticmethod
    def step_states(
        active: Dict[int, _State], symbol: str
    ) -> Dict[int, _State]:
        """One symbol of the active-state-set simulation (ε-closed)."""
        return subset_step(active.values(), symbol)

    def match_set(self, path: Sequence[str]) -> Set[XPathExpr]:
        """All stored XPEs whose structural skeleton matches *path*."""
        matched: Set[XPathExpr] = set()
        simulate(self.initial_states().values(), path, matched)
        return matched

    def state_count(self) -> int:
        """Size of the shared automaton (ablation/pruning metric)."""
        seen = set()
        stack = [self._root]
        while stack:
            state = stack.pop()
            if id(state) in seen:
                continue
            seen.add(id(state))
            stack.extend(state.edges.values())
            if state.descendant is not None:
                stack.append(state.descendant)
        return len(seen)

    def check_refcounts(self):
        """Audit helper: every reachable non-root state must be
        referenced by at least one live trail (raises on a leak)."""
        reachable = -1 + self.state_count()
        referenced = set()
        for trail in self._trails.values():
            for _, _, reached in trail:
                referenced.add(id(reached))
        if len(referenced) != reachable:
            raise RoutingError(
                "shared NFA leak: %d states reachable, %d referenced"
                % (reachable, len(referenced))
            )


class YFilterMatcher:
    """Shared-prefix NFA engine over a set of XPEs (the baseline)."""

    def __init__(self):
        self._nfa = SharedPathNFA()
        self._exprs: Dict[XPathExpr, Set[object]] = {}

    # -- maintenance -----------------------------------------------------

    def add(self, expr: XPathExpr, key: object = None):
        keys = self._exprs.get(expr)
        if keys is not None:
            keys.add(key)
            return
        self._exprs[expr] = {key}
        self._nfa.add(expr)

    def remove(self, expr: XPathExpr, key: object = None):
        keys = self._exprs.get(expr)
        if keys is None:
            return
        keys.discard(key)
        if keys:
            return
        del self._exprs[expr]
        self._nfa.remove(expr)

    # -- matching ----------------------------------------------------------

    @obs.timed("matching.yfilter.match")
    def match_exprs(
        self, path: Sequence[str], attributes=None
    ) -> Set[XPathExpr]:
        """All stored XPEs matching the publication *path*.

        The shared automaton tracks element structure; expressions with
        attribute predicates are verified with a final predicate-aware
        recheck.
        """
        verified = set()
        for expr in self._nfa.match_set(path):
            if not expr.has_predicates or matches_path(
                expr, path, attributes
            ):
                verified.add(expr)
        return verified

    def match(self, path: Sequence[str], attributes=None) -> Set[object]:
        """Union of subscriber keys of the matching XPEs (engine API)."""
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

    def state_count(self) -> int:
        """Size of the shared automaton (for ablation reporting)."""
        return self._nfa.state_count()

    def automaton_size(self) -> int:
        """Alias of :meth:`state_count` (the engine-reporting name)."""
        return self._nfa.state_count()


def subset_step(
    states: Iterable[_State], symbol: str
) -> Dict[int, _State]:
    """The one subset step: the ε-closed set *states* reaches on
    *symbol*, by ``id``.  The NFA simulation below, the lazy DFA's
    transition and its cold finish (:mod:`repro.matching.
    shared_automaton`) all take their steps here."""
    nxt: Dict[int, _State] = {}
    for state in states:
        edges = state.edges
        if edges:
            target = edges.get(symbol)
            if target is not None:
                nxt[id(target)] = target
            star = edges.get(WILDCARD)
            if star is not None:
                nxt[id(star)] = star
        if state.self_loop:
            nxt[id(state)] = state
    _absorb_descendants(nxt)
    return nxt


def simulate(
    states: Iterable[_State], path: Iterable[str], matched: Set[XPathExpr]
):
    """Run the active-state-set simulation over *path* from the
    ε-closed set *states*, adding every XPE accepted on the way to
    *matched* (acceptance may fire at any position)."""
    for symbol in path:
        states = subset_step(states, symbol).values()
        if not states:
            return
        for state in states:
            if state.accepting:
                matched |= state.accepting


def _absorb_descendants(active: Dict[int, "_State"]):
    """ε-closure: every active state's //-child becomes active too."""
    stack = list(active.values())
    while stack:
        state = stack.pop()
        child = state.descendant
        if child is not None and id(child) not in active:
            active[id(child)] = child
            stack.append(child)
