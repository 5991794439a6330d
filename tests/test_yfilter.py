"""The shared-prefix NFA (the YFilter automaton) and the engine built
on it: structural matching and pruning, checked through
:class:`SharedAutomatonMatcher` and on :class:`SharedPathNFA` itself."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.covering.pathmatch import matches_path
from repro.errors import RoutingError
from repro.matching import LinearMatcher, SharedAutomatonMatcher
from repro.matching.yfilter import SharedPathNFA, _State
from repro.xpath import parse_xpath
from repro.xpath.ast import Axis, Step, XPathExpr


def x(text):
    return parse_xpath(text)


def build(*texts):
    matcher = SharedAutomatonMatcher()
    for t in texts:
        matcher.add(x(t), t)
    return matcher


class TestBasicMatching:
    def test_absolute_prefix(self):
        m = build("/a/b")
        assert m.match(("a", "b")) == {"/a/b"}
        assert m.match(("a", "b", "c")) == {"/a/b"}
        assert m.match(("b", "a")) == set()

    def test_relative_infix(self):
        m = build("b/c")
        assert m.match(("a", "b", "c", "d")) == {"b/c"}
        assert m.match(("c", "b")) == set()

    def test_wildcards(self):
        m = build("/*/b", "/a/*")
        assert m.match(("a", "b")) == {"/*/b", "/a/*"}
        assert m.match(("q", "b")) == {"/*/b"}

    def test_descendant(self):
        m = build("/a//d")
        assert m.match(("a", "b", "c", "d")) == {"/a//d"}
        assert m.match(("a", "d")) == {"/a//d"}
        assert m.match(("q", "d")) == set()

    def test_leading_descendant(self):
        m = build("//c/d")
        assert m.match(("a", "b", "c", "d")) == {"//c/d"}

    def test_prefix_sharing(self):
        m = build("/a/b/c", "/a/b/d", "/a/b")
        # /a, /a/b shared: expect a compact automaton.
        assert m.automaton_size() <= 6
        assert m.match(("a", "b", "c")) == {"/a/b/c", "/a/b"}


class TestMaintenance:
    def test_remove(self):
        m = SharedAutomatonMatcher()
        m.add(x("/a/b"), "k1")
        m.add(x("/a/b"), "k2")
        m.remove(x("/a/b"), "k1")
        assert m.match(("a", "b")) == {"k2"}
        m.remove(x("/a/b"), "k2")
        assert m.match(("a", "b")) == set()
        assert len(m) == 0

    def test_remove_absent_is_noop(self):
        m = build("/a")
        m.remove(x("/zzz"), "nobody")
        assert len(m) == 1

    def test_keys_of(self):
        m = SharedAutomatonMatcher()
        m.add(x("/a"), "k1")
        m.add(x("/a"), "k2")
        assert m.keys_of(x("/a")) == {"k1", "k2"}


class TestPruning:
    """Removal must actually shrink the automaton: dead NFA branches
    accumulating under subscriber churn was the state leak this class
    pins down."""

    def test_churn_returns_state_count_to_baseline(self):
        m = build("/a/b", "/a//c")
        baseline = m.automaton_size()
        extra = ["/a/b/c/d%d" % i for i in range(8)] + [
            "//x%d//y" % i for i in range(8)
        ]
        for text in extra:
            m.add(x(text), text)
        grown = m.automaton_size()
        assert grown > baseline
        for text in extra:
            m.remove(x(text), text)
        assert m.automaton_size() == baseline
        m._nfa.check_refcounts()

    def test_shared_prefix_survives_partial_removal(self):
        m = build("/a/b/c", "/a/b/d")
        size_both = m.automaton_size()
        m.remove(x("/a/b/c"), "/a/b/c")
        # Only the unshared tail ("c" edge) is released; /a/b stays.
        assert m.automaton_size() == size_both - 1
        assert m.match(("a", "b", "d")) == {"/a/b/d"}
        assert m.match(("a", "b", "c")) == set()
        m._nfa.check_refcounts()

    def test_descendant_state_pruned_with_last_user(self):
        m = build("/a/b")
        baseline = m.automaton_size()
        m.add(x("/a//z"), "desc")
        assert m.automaton_size() > baseline
        m.remove(x("/a//z"), "desc")
        assert m.automaton_size() == baseline
        assert m.match(("a", "q", "z")) == set()
        m._nfa.check_refcounts()

    def test_duplicate_keys_keep_trail_alive(self):
        m = SharedAutomatonMatcher()
        m.add(x("/a/b"), "k1")
        m.add(x("/a/b"), "k2")
        size = m.automaton_size()
        m.remove(x("/a/b"), "k1")
        assert m.automaton_size() == size  # k2 still needs the trail
        m.remove(x("/a/b"), "k2")
        assert m.automaton_size() == 1  # root only
        m._nfa.check_refcounts()


def test_a_state_no_xpe_ends_at_holds_no_set():
    """Accepting tuples are allocated only where an XPE ends: once the
    last one leaves, the state shares the one empty tuple again."""
    nfa = SharedPathNFA()
    nfa.add(x("/a/b/c"))
    shared = nfa._root.accepting  # no XPE ends at the root
    assert isinstance(shared, tuple) and not shared
    at_b = nfa.child(nfa.child(nfa._root, "a"), "b")
    assert at_b.accepting is shared
    nfa.add(x("/a/b"))
    assert at_b.accepting == (x("/a/b"),)
    nfa.remove(x("/a/b"))
    assert at_b.accepting is shared
    assert nfa.match_set(("a", "b", "c")) == {x("/a/b/c")}
    nfa.check_refcounts()


NAMES = st.sampled_from(["a", "b", "c", "*"])


@st.composite
def exprs(draw):
    n = draw(st.integers(1, 5))
    rooted = draw(st.booleans())
    steps = []
    for i in range(n):
        if i == 0 and rooted:
            axis = Axis.CHILD
        else:
            axis = draw(st.sampled_from([Axis.CHILD, Axis.DESCENDANT]))
        steps.append(Step(axis, draw(NAMES)))
    return XPathExpr(steps=tuple(steps), rooted=rooted)


class TestEquivalenceWithLinear:
    @settings(max_examples=200, deadline=None)
    @given(
        workload=st.lists(exprs(), min_size=1, max_size=8),
        path=st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=7),
    )
    def test_same_matches_as_linear_scan(self, workload, path):
        linear = LinearMatcher()
        shared = SharedAutomatonMatcher()
        for i, expr in enumerate(workload):
            linear.add(expr, i)
            shared.add(expr, i)
        assert shared.match(tuple(path)) == linear.match(tuple(path))

    @settings(max_examples=200, deadline=None)
    @given(
        expr=exprs(),
        path=st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=7),
    )
    def test_single_expr_agrees_with_matches_path(self, expr, path):
        m = SharedAutomatonMatcher()
        m.add(expr, "k")
        expected = {"k"} if matches_path(expr, tuple(path)) else set()
        assert m.match(tuple(path)) == expected


class TestShapeAudit:
    """``check_refcounts`` also audits the shape the fused subset step
    relies on; each case breaks one fact by hand."""

    def _nfa(self):
        nfa = SharedPathNFA()
        nfa.add(x("//a"))
        nfa.check_refcounts()
        return nfa, nfa._root.descendant

    def test_a_descendant_state_under_a_descendant_state(self):
        nfa, gap = self._nfa()
        gap.descendant = _State(self_loop=True)
        with pytest.raises(RoutingError, match="has a //-child"):
            nfa.check_refcounts()

    def test_an_accepting_descendant_state(self):
        nfa, gap = self._nfa()
        gap.accepting = (x("//a"),)
        with pytest.raises(RoutingError, match="accepts"):
            nfa.check_refcounts()

    def test_an_empty_set_of_its_own(self):
        nfa, gap = self._nfa()
        nfa.child(gap, "a").accepting = set()
        with pytest.raises(RoutingError, match="empty accepting set"):
            nfa.check_refcounts()

    def test_a_miscounted_or_unreferenced_state(self):
        nfa, gap = self._nfa()
        gap.refs += 1
        with pytest.raises(RoutingError, match="counts 2 references"):
            nfa.check_refcounts()
        gap.refs -= 1
        nfa._edges["z"] = {gap: _State()}  # reachable, on no XPE's trail
        with pytest.raises(RoutingError, match="its trails 0"):
            nfa.check_refcounts()

    def test_an_empty_edge_table(self):
        nfa, _ = self._nfa()
        nfa.add(x("/b/*"))
        assert set(nfa._edges) == {"a", "b", "*"}
        nfa.remove(x("/b/*"))  # a table goes with its last edge
        assert set(nfa._edges) == {"a"}
        nfa.check_refcounts()
        nfa._edges["q"] = {}
        with pytest.raises(RoutingError, match="table for 'q' is empty"):
            nfa.check_refcounts()

    def test_an_edge_leaving_an_unreachable_state(self):
        nfa, gap = self._nfa()
        nfa.add(x("/a/b/c"))
        nfa.remove(x("/a/b/c"))  # the cut deletes every edge below it
        assert nfa._edges == {"a": {gap: nfa.child(gap, "a")}}
        nfa.check_refcounts()
        nfa._edges["a"][_State()] = _State()  # invisible from the root
        with pytest.raises(RoutingError, match="labelled 'a' leaves an unreach"):
            nfa.check_refcounts()

    def test_an_xpe_accepted_off_its_trail(self):
        nfa, gap = self._nfa()
        nfa._edges["a"][nfa._root] = stray = _State()
        stray.refs, stray.accepting = 1, (x("//a"),)
        with pytest.raises(RoutingError, match="off its trail"):
            nfa.check_refcounts()


class _TrailNFA:
    """Reference: the NFA that stores each XPE's trail at ``add`` and
    replays it at ``remove``; what it stores is ``trails``.  Its edges
    are one ``(parent, label) -> child`` dict of its own."""

    def __init__(self):
        self.root = _State()
        self.edges = {}
        self.trails = {}

    def add(self, expr):
        if expr in self.trails:
            return False
        trail, state = [], self.root
        for index, step in enumerate(expr.steps):
            if (expr.is_relative and index == 0) or step.axis is Axis.DESCENDANT:
                if state.descendant is None:
                    state.descendant = _State(self_loop=True)
                trail.append((state, None, state.descendant))
                state = state.descendant
            nxt = self.edges.setdefault((state, step.test), _State())
            trail.append((state, step.test, nxt))
            state = nxt
        for _, _, reached in trail:
            reached.refs += 1
        state.accepting += (expr,)
        self.trails[expr] = trail
        return True

    def remove(self, expr):
        trail = self.trails.pop(expr, None)
        if trail is None:
            return False
        final = trail[-1][2]
        final.accepting = tuple(e for e in final.accepting if e != expr)
        for _, _, reached in trail:
            reached.refs -= 1
        for parent, label, reached in trail:
            if not reached.refs:
                if label is None:
                    parent.descendant = None
                else:
                    del self.edges[parent, label]
                break
        return True


def _graph(automaton):
    """``(root, {(parent, label): child})`` of either automaton."""
    if isinstance(automaton, _TrailNFA):
        return automaton.root, automaton.edges
    return automaton._root, {
        (parent, label): child
        for label, table in automaton._edges.items()
        for parent, child in table.items()
    }


def _addresses(automaton):
    """Every reachable state → its labels from the root (None for a //
    link): the one name a state has in both automata."""
    root, edges = _graph(automaton)
    children = {}
    for (parent, label), child in edges.items():
        children.setdefault(parent, []).append((label, child))
    found, stack = {}, [(root, ())]
    while stack:
        state, address = stack.pop()
        found[state] = address
        stack.extend((s, address + (t,)) for t, s in children.get(state, ()))
        if state.descendant is not None:
            stack.append((state.descendant, address + (None,)))
    return found


def _shape(automaton):
    """Address → (refs, accepting) of every reachable state."""
    return {
        address: (state.refs, state.accepting)
        for state, address in _addresses(automaton).items()
    }


#: Twins (``a`` / ``//a`` and ``a/b`` / ``//a/b`` share a final state),
#: wildcards, descendant steps and prefixes of one another, so random
#: removals hit XPEs that were never added but whose trail exists.
_POOL = [x(text) for text in (
    "a", "//a", "/a", "/a/b", "a/b", "//a/b", "/a/b/c", "/a//b",
    "*", "//*", "/*", "/a/*", "/a//*", "*//b", "//b//c", "/a/*/b",
)]
_PATHS = [("a",), ("a", "b"), ("a", "b", "c"), ("b", "a", "b"), ("c", "b", "c")]


class TestRewalkDifferential:
    """``SharedPathNFA`` re-walks a trail where the reference stores it:
    both must report the same edits (whether the XPE was stored or
    removed) and keep the same automaton."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(st.booleans(), st.integers(0, len(_POOL) - 1)),
        max_size=40,
    ))
    def test_same_reports_and_automaton_as_stored_trails(self, ops):
        nfa, ref = SharedPathNFA(), _TrailNFA()
        for is_add, index in ops:
            expr = _POOL[index]
            shape = _shape(nfa)
            got = nfa.add(expr) if is_add else nfa.remove(expr)
            want = ref.add(expr) if is_add else ref.remove(expr)
            assert got is want
            if not want:
                assert _shape(nfa) == shape  # unchanged
            assert _shape(nfa) == _shape(ref)
            assert nfa.state_count() == len(_addresses(ref))
            for path in _PATHS:
                assert nfa.match_set(path) == {
                    e for e in ref.trails if matches_path(e, path)
                }
            nfa.check_refcounts()

    def test_removing_a_twin_never_added_changes_nothing(self):
        nfa = SharedPathNFA()
        nfa.add(x("a/b"))
        nfa.add(x("/a/b/c"))
        shape = _shape(nfa)
        for absent in ("//a/b", "/a/b", "/a/b/c/d", "/a//b"):
            assert nfa.remove(x(absent)) is False
        assert _shape(nfa) == shape
        assert nfa.add(x("a/b")) is False  # present: idempotent
        assert _shape(nfa) == shape
