"""The shared-prefix NFA over XPE path structure.

The paper's evaluation (§5, "Publication Routing Time") references a
comparison of its covering-tree router against **YFilter** [Diao et
al., TODS 2003]: YFilter compiles all XPEs into one NFA whose common
prefixes are shared, then matches each incoming document against the
combined automaton.  :class:`SharedPathNFA` implements that automaton
for the path-publication model used here, and
:meth:`SharedPathNFA.match_set` is the YFilter baseline itself (the
matching-engine ablation times it).  The production engine — a lazy
DFA cached over this same NFA — lives in
:mod:`repro.matching.shared_automaton`.

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

from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import RoutingError
from repro.xpath.ast import WILDCARD, Axis, XPathExpr


#: The accepting set of every state no XPE ends at: one shared empty
#: ``frozenset``, so the many interior states allocate no set of their
#: own (``add`` gives a state a real set when an XPE ends there,
#: ``remove`` puts this one back when the last one leaves).
_NO_XPES: FrozenSet[XPathExpr] = frozenset()


class _State:
    """One NFA state.

    ``edges`` maps an element name (or ``*``) to the next state;
    ``descendant`` points to the //-state child (which self-loops);
    ``accepting`` holds the XPEs that end here (:data:`_NO_XPES` when
    none does); ``refs`` counts the expression trails that traverse
    this state (pruning drops a state when it reaches zero).

    Two shape facts hold by construction and the subset step relies on
    them (``check_refcounts`` audits both): a //-state never has a
    //-child, and it never accepts — every XPE ends on an edge.
    """

    __slots__ = ("edges", "descendant", "accepting", "self_loop", "refs")

    def __init__(self, self_loop: bool = False):
        self.edges: Dict[str, "_State"] = {}
        self.descendant: Optional["_State"] = None
        self.accepting: AbstractSet[XPathExpr] = _NO_XPES
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
    """A shared-prefix NFA over a set of XPEs."""

    def __init__(self):
        self._root = _State()
        self._trails: Dict[XPathExpr, List[_TrailEntry]] = {}

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
        if state.accepting:
            state.accepting.add(expr)
        else:
            state.accepting = {expr}
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
        final = trail[-1][2]
        final.accepting.discard(expr)
        if not final.accepting:
            final.accepting = _NO_XPES
        for _, _, reached in trail:
            reached.refs -= 1
        for index, (parent, label, reached) in enumerate(trail):
            if reached.refs == 0:
                if label is None:
                    parent.descendant = None
                else:
                    del parent.edges[label]
                return parent, label, tuple(e[2] for e in trail[index:])
        return final, ACCEPT_ONLY, ()

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

    def initial_states(self) -> Set[_State]:
        """The ε-closed start set (the root plus its //-state)."""
        root = self._root
        if root.descendant is None:
            return {root}
        return {root, root.descendant}

    @staticmethod
    def step_states(active: Iterable[_State], symbol: str) -> Set[_State]:
        """One symbol of the active-state-set simulation (ε-closed)."""
        return subset_step(active, symbol, set())

    def match_set(self, path: Sequence[str]) -> Set[XPathExpr]:
        """All stored XPEs matching *path*."""
        matched: Set[XPathExpr] = set()
        simulate(self.initial_states(), path, matched)
        return matched

    def _states(self) -> Set[_State]:
        """Every reachable state, the root included."""
        seen: Set[_State] = set()
        stack = [self._root]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            stack.extend(state.edges.values())
            if state.descendant is not None:
                stack.append(state.descendant)
        return seen

    def state_count(self) -> int:
        """Size of the shared automaton (ablation/pruning metric)."""
        return len(self._states())

    def check_refcounts(self):
        """Audit helper (raises on a violation): every reachable
        non-root state is referenced by at least one live trail, and the
        shape the subset step relies on holds — no //-state has a
        //-child or accepts, and no state holds an empty set of its own
        instead of the shared :data:`_NO_XPES`."""
        states = self._states()
        for state in states:
            if state.self_loop and state.descendant is not None:
                raise RoutingError("shared NFA: a //-state has a //-child")
            if state.self_loop and state.accepting:
                raise RoutingError("shared NFA: a //-state accepts")
            if not state.accepting and state.accepting is not _NO_XPES:
                raise RoutingError(
                    "shared NFA: a state holds an empty accepting set"
                )
        referenced = set()
        for trail in self._trails.values():
            for _, _, reached in trail:
                referenced.add(reached)
        if len(referenced) != len(states) - 1:
            raise RoutingError(
                "shared NFA leak: %d states reachable, %d referenced"
                % (len(states) - 1, len(referenced))
            )


def subset_step(
    states: Iterable[_State], symbol: str, matched: Set[XPathExpr]
) -> Set[_State]:
    """The one subset step: the ε-closed set *states* reaches on
    *symbol*, ε-closed, with every XPE it accepts added to *matched*.
    The NFA simulation below, the lazy DFA's transition and its cold
    finish (:mod:`repro.matching.shared_automaton`) all take their
    steps here.

    The closure and acceptance fold into the one loop because of the
    shape ``add`` builds: a //-state never has a //-child and never
    accepts, so a //-state steps to itself alone, and an edge target's
    closure is the target plus its //-state.  (The two edge lookups
    are spelled out: looping over them costs a fifth more a step.)
    """
    nxt: Set[_State] = set()
    add = nxt.add
    for state in states:
        if state.self_loop:
            add(state)
        edges = state.edges
        if edges:
            target = edges.get(symbol)
            if target is not None:
                add(target)
                if target.descendant is not None:
                    add(target.descendant)
                if target.accepting:
                    matched |= target.accepting
            target = edges.get(WILDCARD)
            if target is not None:
                add(target)
                if target.descendant is not None:
                    add(target.descendant)
                if target.accepting:
                    matched |= target.accepting
    return nxt


def simulate(
    states: Iterable[_State], path: Iterable[str], matched: Set[XPathExpr]
):
    """Run the active-state-set simulation over *path* from the
    ε-closed set *states*, adding every XPE accepted on the way to
    *matched* (acceptance may fire at any position)."""
    for symbol in path:
        states = subset_step(states, symbol, matched)
        if not states:
            return
