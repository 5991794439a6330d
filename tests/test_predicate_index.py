"""XPE shapes on the shared engine.

:class:`SharedAutomatonMatcher` matches every XPE in one automaton, and
an XPE the walk accepts is a match (the routing language has no
predicates to verify afterwards).  These cases pin the shapes a
counting index would split apart — absolute simple paths, all-wildcard
paths and the length they need, relative and ``//`` expressions —
against :class:`LinearMatcher`.
"""

from hypothesis import given, settings, strategies as st

from repro.matching import LinearMatcher, SharedAutomatonMatcher
from repro.xpath import parse_xpath
from repro.xpath.ast import Axis, Step, XPathExpr


def x(text):
    return parse_xpath(text)


def build(*texts):
    matcher = SharedAutomatonMatcher()
    for t in texts:
        matcher.add(x(t), t)
    return matcher


class TestIndexedPath:
    def test_absolute_simple_counting(self):
        m = build("/a/b", "/a/c", "/a/*")
        assert m.match(("a", "b")) == {"/a/b", "/a/*"}
        assert m.match(("a", "c", "z")) == {"/a/c", "/a/*"}
        assert m.match(("a",)) == set()

    def test_all_wildcard_expressions(self):
        m = build("/*/*", "/*")
        assert m.match(("q",)) == {"/*"}
        assert m.match(("q", "r")) == {"/*", "/*/*"}

    def test_length_gate(self):
        m = build("/a/b/c")
        assert m.match(("a", "b")) == set()
        assert m.match(("a", "b", "c")) == {"/a/b/c"}

    def test_index_stats(self):
        m = build("/a/b", "b/c", "//q", "/a/*")
        assert m.stats()["exprs"] == 4
        m.remove(x("/a/*"), "/a/*")
        assert m.stats()["exprs"] == 3


class TestFilterVerify:
    def test_relative(self):
        m = build("b/c")
        assert m.match(("a", "b", "c")) == {"b/c"}
        assert m.match(("a", "c", "b")) == set()

    def test_descendant(self):
        m = build("/a//z")
        assert m.match(("a", "m", "z")) == {"/a//z"}
        assert m.match(("z", "m", "a")) == set()

    def test_all_wildcard_relative_always_candidate(self):
        m = build("*/*")
        assert m.match(("p", "q")) == {"*/*"}

    def test_predicates_via_verify(self):
        # No verify step: what the walk accepts is the match.  The same
        # XPE under a second key shares the first one's trail.
        m = build("/a/b")
        size = m.automaton_size()
        m.add(x("/a/b"), "plain")
        assert m.automaton_size() == size
        assert m.match(("a", "b")) == {"/a/b", "plain"}
        assert m.match_exprs(("a", "b", "c")) == {x("/a/b")}


class TestMaintenance:
    def test_remove_indexed(self):
        m = build("/a/b")
        m.remove(x("/a/b"), "/a/b")
        assert m.match(("a", "b")) == set()
        assert len(m) == 0
        assert m.automaton_size() == 1

    def test_remove_filtered(self):
        m = build("b//c")
        m.remove(x("b//c"), "b//c")
        assert m.match(("b", "q", "c")) == set()

    def test_shared_keys(self):
        m = SharedAutomatonMatcher()
        m.add(x("/a"), "k1")
        m.add(x("/a"), "k2")
        m.remove(x("/a"), "k1")
        assert m.match(("a",)) == {"k2"}


NAMES = st.sampled_from(["a", "b", "c", "*"])


@st.composite
def exprs(draw):
    n = draw(st.integers(1, 5))
    rooted = draw(st.booleans())
    steps = []
    for i in range(n):
        axis = (
            Axis.CHILD
            if (i == 0 and rooted)
            else draw(st.sampled_from([Axis.CHILD, Axis.DESCENDANT]))
        )
        steps.append(Step(axis, draw(NAMES)))
    return XPathExpr(steps=tuple(steps), rooted=rooted)


class TestEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(
        workload=st.lists(exprs(), min_size=1, max_size=10),
        path=st.lists(
            st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=7
        ),
    )
    def test_matches_like_linear_scan(self, workload, path):
        linear = LinearMatcher()
        shared = SharedAutomatonMatcher()
        for i, expr in enumerate(workload):
            linear.add(expr, i)
            shared.add(expr, i)
        assert shared.match(tuple(path)) == linear.match(tuple(path))

    @settings(max_examples=100, deadline=None)
    @given(
        workload=st.lists(exprs(), min_size=2, max_size=8),
        path=st.lists(
            st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6
        ),
        data=st.data(),
    )
    def test_removal_keeps_engines_in_sync(self, workload, path, data):
        linear = LinearMatcher()
        shared = SharedAutomatonMatcher()
        for i, expr in enumerate(workload):
            linear.add(expr, i)
            shared.add(expr, i)
        victim = data.draw(st.integers(0, len(workload) - 1))
        linear.remove(workload[victim], victim)
        shared.remove(workload[victim], victim)
        assert shared.match(tuple(path)) == linear.match(tuple(path))
