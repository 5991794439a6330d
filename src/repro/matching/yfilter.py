"""The shared-prefix NFA over XPE path structure.

The paper's evaluation (§5, "Publication Routing Time") references a
comparison of its covering-tree router against **YFilter** [Diao et
al., TODS 2003]: YFilter compiles all XPEs into one NFA whose common
prefixes are shared, then matches each incoming document against the
combined automaton.  :class:`SharedPathNFA` implements that automaton
for the path-publication model used here, and
:meth:`SharedPathNFA.match_set` is the YFilter walk itself.  The
production engine, :mod:`repro.matching.shared_automaton`, keeps its
subscribers' keys beside this automaton and matches with that walk.

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

A stored XPE is its states and nothing else: the one ``accepting``
tuple entry at its final state, and one reference counted on each
state of its *trail* (the root-to-final chain of links it walks).  The
trail itself is not stored — ``remove`` re-walks it from the root by
the rules ``add`` builds it with, which also tells whether the XPE is
stored at all.

The edges are not stored on the states either: the automaton keeps one
table per label, ``parent state -> child state``, that exists only
while some edge carries the label.  A state no edge leaves costs no
mapping at all, and a subset step reads the symbol's table and the
``*`` table once, then probes each active state by its identity hash.

Removal really prunes: when an expression's last key is gone the
shallowest state on its re-walked trail whose count reached zero is
unlinked and every edge below it on the trail is deleted, releasing
the whole dead subtree.  ``state_count()`` therefore returns to its
old value after any add/remove churn cycle — dead automaton branches
would otherwise accumulate without bound under subscriber churn (the
classic YFilter "prune lazily" stance is untenable at routing-table
scale).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import RoutingError
from repro.xpath.ast import WILDCARD, Axis, XPathExpr


#: The accepting tuple of every state no XPE ends at: the one shared
#: empty tuple (``add`` extends a state's tuple when an XPE ends there,
#: ``remove`` puts this one back when the last one leaves).  A tuple,
#: not a set: at most a relative XPE and its ``//`` twin (``a`` and
#: ``//a``) end at one state, so the tuple is exact and small.
_NO_XPES: Tuple[XPathExpr, ...] = ()


class _State:
    """One NFA state.

    ``descendant`` points to the //-state child (which self-loops);
    ``accepting`` is the tuple of XPEs that end here (:data:`_NO_XPES`
    when none does); ``refs`` counts the stored XPEs whose trail
    traverses this state (pruning drops a state when it reaches zero).
    The labelled edges leaving a state live in the automaton's per-label
    tables (:attr:`SharedPathNFA._edges`), keyed by the state itself.

    Two shape facts hold by construction and the subset step relies on
    them (``check_refcounts`` audits both): a //-state never has a
    //-child, and it never accepts — every XPE ends on an edge.
    """

    __slots__ = ("descendant", "accepting", "self_loop", "refs")

    def __init__(self, self_loop: bool = False):
        self.descendant: Optional["_State"] = None
        self.accepting: Tuple[XPathExpr, ...] = _NO_XPES
        self.self_loop = self_loop
        self.refs = 0


#: One link of a trail: (parent state, edge label or None for the
#: descendant link, reached state).
_TrailEntry = Tuple[_State, Optional[str], _State]


class SharedPathNFA:
    """A shared-prefix NFA over a set of XPEs."""

    def __init__(self):
        self._root = _State()
        #: Every labelled edge: label -> {parent state: child state}.
        #: A label's table exists only while some edge carries it.
        self._edges: Dict[str, Dict[_State, _State]] = {}

    # -- maintenance -----------------------------------------------------

    def add(self, expr: XPathExpr) -> bool:
        """Insert *expr*'s structural trail; False (and nothing
        changed) when it is already stored."""
        trail = self._walk(expr, create=True)
        final = trail[-1][2]
        if expr in final.accepting:
            return False  # present, so the walk created nothing
        final.accepting += (expr,)
        for _, _, reached in trail:
            reached.refs += 1
        return True

    def remove(self, expr: XPathExpr) -> bool:
        """Remove *expr* and prune every state its departure orphans;
        False (and nothing changed) when *expr* is not stored.

        The trail's states form a root-to-leaf chain; a state's
        reference count bounds its children's, so the states that
        reached zero are the rest of this trail below the *shallowest*
        of them.  Cutting its link and deleting every edge below it
        releases the entire dead subtree; a label table left empty
        goes with its last edge.
        """
        trail = self._walk(expr, create=False)
        if trail is None:
            return False
        final = trail[-1][2]
        if expr not in final.accepting:
            return False
        final.accepting = (
            tuple(other for other in final.accepting if other != expr)
            or _NO_XPES
        )
        for _, _, reached in trail:
            reached.refs -= 1
        for index, (_, _, reached) in enumerate(trail):
            if reached.refs == 0:
                edges = self._edges
                for dead_parent, dead_label, _ in trail[index:]:
                    if dead_label is None:
                        dead_parent.descendant = None
                    else:
                        table = edges[dead_label]
                        del table[dead_parent]
                        if not table:
                            del edges[dead_label]
                break
        return True

    def _walk(
        self, expr: XPathExpr, create: bool
    ) -> Optional[List[_TrailEntry]]:
        """*expr*'s trail from the root: a ``//`` link before a relative
        XPE's first step and before every later descendant step, then
        the step's edge.  With *create* a missing state is made;
        without, a missing one ends the walk with None."""
        trail: List[_TrailEntry] = []
        edges = self._edges
        state = self._root
        relative = expr.is_relative
        for index, step in enumerate(expr.steps):
            if step.axis is Axis.DESCENDANT or (index == 0 and relative):
                nxt = state.descendant
                if nxt is None:
                    if not create:
                        return None
                    nxt = state.descendant = _State(self_loop=True)
                trail.append((state, None, nxt))
                state = nxt
            test = step.test
            table = edges.get(test)
            nxt = None if table is None else table.get(state)
            if nxt is None:
                if not create:
                    return None
                if table is None:
                    table = edges[test] = {}
                nxt = table[state] = _State()
            trail.append((state, test, nxt))
            state = nxt
        return trail

    def child(self, state: _State, label: str) -> Optional[_State]:
        """The state *state*'s edge labelled *label* leads to, if any."""
        table = self._edges.get(label)
        return None if table is None else table.get(state)

    # -- simulation ------------------------------------------------------

    def initial_states(self) -> Set[_State]:
        """The ε-closed start set (the root plus its //-state)."""
        root = self._root
        if root.descendant is None:
            return {root}
        return {root, root.descendant}

    def step(
        self, states: Iterable[_State], symbol: str, matched: Set[XPathExpr]
    ) -> Set[_State]:
        """The one subset step: the ε-closed set *states* reaches on
        *symbol*, ε-closed, with every XPE it accepts added to
        *matched*.  The NFA simulation (:meth:`match_set`) takes its
        steps here.

        The symbol's table and the ``*`` table are read once; each
        active state is then probed by identity hash (no probe at all
        for a label no edge carries).  The closure and acceptance fold
        into the one loop because of the shape ``add`` builds: a
        //-state never has a //-child and never accepts, so a //-state
        steps to itself alone, and an edge target's closure is the
        target plus its //-state.  (The two probes are spelled out:
        looping over them costs a fifth more a step.)
        """
        named = self._edges.get(symbol)
        wild = self._edges.get(WILDCARD)
        nxt: Set[_State] = set()
        add = nxt.add
        for state in states:
            if state.self_loop:
                add(state)
            if named is not None:
                target = named.get(state)
                if target is not None:
                    add(target)
                    if target.descendant is not None:
                        add(target.descendant)
                    if target.accepting:
                        matched.update(target.accepting)
            if wild is not None:
                target = wild.get(state)
                if target is not None:
                    add(target)
                    if target.descendant is not None:
                        add(target.descendant)
                    if target.accepting:
                        matched.update(target.accepting)
        return nxt

    def match_set(self, path: Sequence[str]) -> Set[XPathExpr]:
        """All stored XPEs matching *path* (acceptance may fire at any
        position)."""
        matched: Set[XPathExpr] = set()
        step = self.step
        states = self.initial_states()
        for symbol in path:
            states = step(states, symbol, matched)
            if not states:
                break
        return matched

    def _states(self) -> Set[_State]:
        """Every reachable state, the root included."""
        children: Dict[_State, List[_State]] = {}
        for table in self._edges.values():
            for parent, child in table.items():
                children.setdefault(parent, []).append(child)
        seen: Set[_State] = set()
        stack = [self._root]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            stack.extend(children.get(state, ()))
            if state.descendant is not None:
                stack.append(state.descendant)
        return seen

    def state_count(self) -> int:
        """Size of the shared automaton (ablation/pruning metric)."""
        return len(self._states())

    def check_refcounts(self):
        """Audit helper (raises on a violation): re-walking every
        accepted XPE ends at the state that accepts it and counts, on
        each reachable non-root state, exactly its ``refs`` and at
        least one (an unreferenced state is a leak), and the shape the
        subset step relies on holds — no //-state has a //-child or
        accepts, and no state holds an empty tuple of its own instead
        of the shared :data:`_NO_XPES`.  The edge tables hold no empty
        table and no edge leaving an unreachable state (such an edge is
        a leak the reachability walk cannot see)."""
        states = self._states()
        for label, table in self._edges.items():
            if not table:
                raise RoutingError(
                    "shared NFA: the edge table for %r is empty" % label
                )
            for parent in table:
                if parent not in states:
                    raise RoutingError(
                        "shared NFA: an edge labelled %r leaves an unreachable state"
                        % label
                    )
        counted = dict.fromkeys(states, 0)
        for state in states:
            if state.self_loop and state.descendant is not None:
                raise RoutingError("shared NFA: a //-state has a //-child")
            if state.self_loop and state.accepting:
                raise RoutingError("shared NFA: a //-state accepts")
            if not state.accepting and state.accepting is not _NO_XPES:
                raise RoutingError(
                    "shared NFA: a state holds an empty accepting set"
                )
            for expr in state.accepting:
                trail = self._walk(expr, create=False)
                if trail is None or trail[-1][2] is not state:
                    raise RoutingError(
                        "shared NFA: %s is accepted off its trail" % expr
                    )
                for _, _, reached in trail:
                    counted[reached] += 1
        del counted[self._root]
        for state, count in counted.items():
            if state.refs != count or not count:
                raise RoutingError(
                    "shared NFA: a state counts %d references, its trails %d"
                    % (state.refs, count)
                )
