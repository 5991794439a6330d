"""The shared-prefix NFA (the YFilter automaton) and the engine built
on it: structural matching, pruning and edit reports, checked through
:class:`SharedAutomatonMatcher` and on :class:`SharedPathNFA` itself."""

from hypothesis import given, settings, strategies as st

from repro.covering.pathmatch import matches_path
from repro.matching import LinearMatcher, SharedAutomatonMatcher
from repro.matching.yfilter import ACCEPT_ONLY, SharedPathNFA
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


class TestEditReports:
    """``add``/``remove`` report what they touched — the contract the
    lazy DFA's selective invalidation (docs/matching.md) repairs from."""

    def test_new_suffix_reports_anchor_and_first_created_label(self):
        nfa = SharedPathNFA()
        assert nfa.add(x("/a/b")) == (nfa._root, "a", ())
        at_a = nfa._root.edges["a"]
        assert nfa.add(x("/a/c/d")) == (at_a, "c", ())
        assert nfa.add(x("/a/*")) == (at_a, "*", ())
        assert nfa.add(x("/a//z")) == (at_a, None, ())  # the // link
        assert nfa.add(x("/a/b")) is None  # idempotent

    def test_existing_trail_reports_the_accepting_state_only(self):
        nfa = SharedPathNFA()
        nfa.add(x("/a/b/c"))
        at_b = nfa._root.edges["a"].edges["b"]
        assert nfa.add(x("/a/b")) == (at_b, ACCEPT_ONLY, ())
        assert nfa.remove(x("/a/b")) == (at_b, ACCEPT_ONLY, ())
        assert nfa.remove(x("/a/b")) is None

    def test_prune_reports_the_cut_and_the_dead_chain(self):
        nfa = SharedPathNFA()
        nfa.add(x("/a/b"))
        nfa.add(x("/a//c/d"))
        at_a = nfa._root.edges["a"]
        gap = at_a.descendant
        chain = (gap, gap.edges["c"], gap.edges["c"].edges["d"])
        assert nfa.remove(x("/a//c/d")) == (at_a, None, chain)
        assert at_a.descendant is None
        at_b = at_a.edges["b"]
        assert nfa.remove(x("/a/b")) == (nfa._root, "a", (at_a, at_b))
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
