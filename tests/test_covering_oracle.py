"""Property-based soundness checks for covering and matching.

Covering-based routing loses messages if ``covers`` ever answers True
incorrectly, so soundness is model-checked here: whenever
``covers(s1, s2)`` holds, every publication of a generated family of
paths matching ``s2`` must also match ``s1``.  The path family
instantiates wildcards and descendant gaps adversarially (fresh element
names unknown to ``s1``).

Also cross-checks the KMP-optimised matchers against their naive
references and the paper-faithful recursive-advertisement algorithm
against the NFA matcher (``expr_and_advert_nfa``).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.adverts.matching import (
    rel_expr_and_adv,
    rel_expr_and_adv_naive,
)
from repro.adverts.model import simple_recursive
from repro.adverts.nfa import expr_and_advert_nfa
from repro.adverts.recursive import abs_expr_and_sim_rec_adv
from repro.covering.algorithms import covers, covers_uncached, rel_sim_cov
from repro.covering.pathmatch import matches_path, matches_path_reference
from repro.covering.subscription_tree import SubscriptionTree
from repro.xpath import parse_xpath
from repro.xpath.ast import Axis, Step, XPathExpr

ALPHABET = ["a", "b", "c"]
TESTS = ALPHABET + ["*"]


@st.composite
def xpath_exprs(draw, max_steps=5, allow_descendant=True):
    n = draw(st.integers(1, max_steps))
    rooted = draw(st.booleans())
    steps = []
    for i in range(n):
        if i == 0:
            axis = (
                Axis.CHILD
                if rooted
                else draw(st.sampled_from([Axis.CHILD, Axis.DESCENDANT]))
            )
        elif allow_descendant:
            axis = draw(st.sampled_from([Axis.CHILD, Axis.DESCENDANT]))
        else:
            axis = Axis.CHILD
        steps.append(Step(axis, draw(st.sampled_from(TESTS))))
    return XPathExpr(steps=tuple(steps), rooted=rooted)


def paths_matching(expr, max_gap=2, fresh="zz"):
    """A finite adversarial family of concrete paths matching *expr*.

    Wildcards become fresh symbols; every ``//`` (and the relative
    prefix/suffix) is instantiated with gaps of 0..max_gap fresh
    elements.  Every returned path is checked to match *expr*.
    """
    segments = [
        tuple(fresh if t == "*" else t for t in segment)
        for segment in expr.segments
    ]
    gap_slots = len(segments) - 1
    pre_options = [0] if expr.anchored else [0, 1, max_gap]
    results = []
    for pre in pre_options:
        for gaps in itertools.product(range(max_gap + 1), repeat=gap_slots):
            for post in (0, 1):
                path = [fresh + str(i) for i in range(pre)]
                for index, segment in enumerate(segments):
                    path.extend(segment)
                    if index < gap_slots:
                        path.extend(
                            fresh + "g%d%d" % (index, g)
                            for g in range(gaps[index])
                        )
                path.extend(fresh + "p%d" % i for i in range(post))
                path = tuple(path)
                if matches_path(expr, path):
                    results.append(path)
    return results


class TestCoversSoundness:
    @settings(max_examples=400, deadline=None)
    @given(s1=xpath_exprs(), s2=xpath_exprs())
    def test_covers_true_implies_match_containment(self, s1, s2):
        if not covers(s1, s2):
            return
        for path in paths_matching(s2):
            assert matches_path(s1, path), (
                "covers(%s, %s) claimed but path %r matches s2 only"
                % (s1, s2, path)
            )

    @settings(max_examples=400, deadline=None)
    @given(s1=xpath_exprs(), s2=xpath_exprs())
    def test_a_name_missing_from_s2_has_a_witness_path(self, s1, s2):
        """The name precheck of ``covers`` is sound: when ``s1`` names
        an element ``s2`` does not, the zero-gap instance of ``s2``
        (fresh names for its wildcards) matches ``s2`` and not ``s1``.
        On every pair, ``covers`` answers as the algorithms do."""
        assert covers(s1, s2) == covers_uncached(s1, s2), (s1, s2)
        if s1.names <= s2.names:
            return
        witness = paths_matching(s2)[0]  # pre, gaps and post all 0
        assert len(witness) == len(s2.steps), (s2, witness)
        assert matches_path_reference(s2, witness), (s2, witness)
        assert not matches_path_reference(s1, witness), (s1, s2, witness)
        assert not covers_uncached(s1, s2), (s1, s2)

    @settings(max_examples=300, deadline=None)
    @given(s=xpath_exprs())
    def test_covers_is_reflexive(self, s):
        assert covers(s, s)

    @settings(max_examples=200, deadline=None)
    @given(s1=xpath_exprs(max_steps=4), s2=xpath_exprs(max_steps=4),
           s3=xpath_exprs(max_steps=4))
    def test_covers_is_transitive(self, s1, s2, s3):
        if covers(s1, s2) and covers(s2, s3):
            assert covers(s1, s3)

    @settings(max_examples=300, deadline=None)
    @given(
        s1=xpath_exprs(allow_descendant=False),
        s2=xpath_exprs(allow_descendant=False),
    )
    def test_simple_covering_completeness(self, s1, s2):
        """For //-free pairs the algorithms are complete as well: if
        every adversarial path matching s2 matches s1, covers must say
        True."""
        family = paths_matching(s2)
        semantically_covered = bool(family) and all(
            matches_path(s1, path) for path in family
        )
        if semantically_covered and len(s1) <= len(s2):
            assert covers(s1, s2), (s1, s2)


def _tree_shape(*texts):
    """Each XPE of a tree built in *texts* order, mapped to its parent
    (None at top level)."""
    tree = SubscriptionTree()
    for text in texts:
        tree.add(parse_xpath(text), text)
    return {
        str(node.expr): str(node.parent.expr)
        if node.parent.expr is not None else None
        for node in tree.iter_nodes()
    }


class TestKnownCounterexamples:
    """Two known defects of the paper's covering algorithms, pinned
    by name rather than left to sampling (the random transitivity
    property above draws the known chain in about 0.3 % of triples).
    When ``covers`` becomes exact inclusion the xfails pass, and their
    markers go."""

    def test_the_chain_and_the_pair_cover_link_by_link(self):
        assert covers(parse_xpath("/*//*"), parse_xpath("/*/*"))
        assert covers(parse_xpath("/*/*"), parse_xpath("c//a"))
        assert covers(parse_xpath("//*"), parse_xpath("/*"))
        assert covers(parse_xpath("/*"), parse_xpath("//*"))

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 17: covers is not transitive on "
        "/*//* ⊒ /*/* ⊒ c//a",
    )
    def test_covers_is_transitive_on_the_known_chain(self):
        assert covers(parse_xpath("/*//*"), parse_xpath("c//a"))

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 3(a): the subscription tree nests the "
        "mutually covering //* and /* in arrival order",
    )
    def test_tree_shape_of_a_mutually_covering_pair_ignores_order(self):
        """``//*`` then ``/*`` nests ``/*`` under ``//*``; the reverse
        order nests ``//*`` under ``/*``."""
        assert _tree_shape("//*", "/*") == _tree_shape("/*", "//*")


class TestMatchersAgree:
    @settings(max_examples=300, deadline=None)
    @given(
        adv=st.lists(st.sampled_from(TESTS), min_size=1, max_size=8),
        sub=xpath_exprs(allow_descendant=False),
    )
    def test_kmp_equals_naive(self, adv, sub):
        if sub.is_absolute:
            sub = sub.with_rooted(False)
        assert rel_expr_and_adv(tuple(adv), sub) == rel_expr_and_adv_naive(
            tuple(adv), sub
        )

    @settings(max_examples=300, deadline=None)
    @given(
        a1=st.lists(st.sampled_from(TESTS), min_size=0, max_size=3),
        a2=st.lists(st.sampled_from(TESTS), min_size=1, max_size=3),
        a3=st.lists(st.sampled_from(TESTS), min_size=0, max_size=3),
        data=st.data(),
    )
    def test_paper_recursive_algorithm_equals_nfa(
        self, a1, a2, a3, data
    ):
        sub = data.draw(xpath_exprs(max_steps=7, allow_descendant=False))
        if not sub.is_absolute:
            steps = (Step(Axis.CHILD, sub.steps[0].test),) + sub.steps[1:]
            sub = XPathExpr(steps=steps, rooted=True)
        advert = simple_recursive(tuple(a1), tuple(a2), tuple(a3))
        fast = abs_expr_and_sim_rec_adv(tuple(a1), tuple(a2), tuple(a3), sub)
        nfa = expr_and_advert_nfa(advert, sub)
        assert fast == nfa, (a1, a2, a3, str(sub))


class TestRelSimCovStringMatching:
    @settings(max_examples=300, deadline=None)
    @given(
        s1=xpath_exprs(allow_descendant=False),
        s2=xpath_exprs(allow_descendant=False),
    )
    def test_rel_sim_cov_sound(self, s1, s2):
        if s1.is_absolute:
            s1 = s1.with_rooted(False)
        if rel_sim_cov(s1, s2):
            for path in paths_matching(s2):
                assert matches_path(s1, path)
