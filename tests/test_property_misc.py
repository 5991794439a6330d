"""Additional property-based tests across subsystems.

* merging rules always produce coverers of their inputs,
* document round-trips (paths -> XML -> paths),
* parser round-trips on randomly assembled expressions,
* NFA matcher agrees with direct matching on sampled advert words,
* NFA matcher equals the bounded-expansion oracle.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.adverts.model import Advertisement, Lit, Rep
from repro.adverts.nfa import expr_and_advert_nfa
from repro.covering.algorithms import covers
from repro.covering.pathmatch import matches_path
from repro.merging.rules import merge_pair
from repro.xmldoc import XMLDocument
from repro.xpath import parse_xpath
from repro.xpath.ast import Axis, Step, XPathExpr
from tests.oracles import (
    expansion_bound,
    expr_and_rec_adv_expansion,
    prefixes,
)

NAMES = st.sampled_from(["a", "b", "c", "*"])
CONCRETE = st.sampled_from(["a", "b", "c"])


@st.composite
def exprs(draw, max_steps=5):
    n = draw(st.integers(1, max_steps))
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


@st.composite
def adverts(draw, depth=0):
    nodes = []
    for _ in range(draw(st.integers(1, 2))):
        if depth < 2 and draw(st.booleans()):
            nodes.append(Rep(tuple(draw(adverts(depth=depth + 1)).nodes)))
        else:
            nodes.append(
                Lit(tuple(draw(st.lists(CONCRETE, min_size=1, max_size=2))))
            )
    return Advertisement(tuple(nodes))


class TestMergingProperties:
    @settings(max_examples=400, deadline=None)
    @given(s1=exprs(), s2=exprs())
    def test_merger_covers_both_inputs(self, s1, s2):
        merger = merge_pair(s1, s2)
        if merger is None:
            return
        assert covers(merger, s1), (merger, s1)
        assert covers(merger, s2), (merger, s2)

    @settings(max_examples=200, deadline=None)
    @given(s1=exprs(), s2=exprs())
    def test_merge_is_symmetric_under_rule_one(self, s1, s2):
        from repro.merging.rules import merge_one_difference

        first = merge_one_difference([s1, s2])
        second = merge_one_difference([s2, s1])
        assert first == second


class TestDocumentRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(
        suffixes=st.lists(
            st.lists(CONCRETE, min_size=1, max_size=4),
            min_size=1,
            max_size=6,
            unique_by=tuple,
        )
    )
    def test_paths_survive_document_construction(self, suffixes):
        paths = sorted({("root",) + tuple(s) for s in suffixes})
        # Drop paths that are prefixes of other paths — they cannot be
        # leaves of the same document tree.
        paths = [
            p
            for p in paths
            if not any(
                q != p and q[: len(p)] == p for q in paths
            )
        ]
        doc = XMLDocument.from_paths(paths, doc_id="d")
        assert sorted(doc.paths()) == sorted(paths)
        reparsed = XMLDocument.parse(doc.serialize(), doc_id="d2")
        assert sorted(reparsed.paths()) == sorted(paths)


class TestParserRoundTrips:
    @settings(max_examples=300, deadline=None)
    @given(expr=exprs())
    def test_str_parse_identity(self, expr):
        assert parse_xpath(str(expr)) == expr


class TestNfaAgainstDirectMatching:
    @settings(max_examples=200, deadline=None)
    @given(advert=adverts(), expr=exprs(max_steps=4))
    def test_nfa_positive_implies_witness_or_prefix(self, advert, expr):
        """When the NFA claims intersection, some word (bounded) must
        match — or, for absolute expressions, have the expression as a
        matching prefix of a longer word (witnessed by prefixes())."""
        if not expr_and_advert_nfa(advert, expr):
            return
        words = advert.words_up_to(16)
        if any(matches_path(expr, word) for word in words):
            return
        assert expr.is_absolute
        assert any(
            matches_path(expr.with_rooted(True), prefix)
            for prefix in prefixes(advert, len(expr))
        ), (advert, expr)


#: Largest word length the expansion oracle enumerates in one draw.
#: It walks every derivation, so nested ``(…)+`` groups make it
#: exponential in the bound: draws up to 16 take milliseconds, some
#: above 20 take seconds.
ORACLE_WORD_BOUND = 16


class TestNfaAgainstExpansionOracle:
    @settings(max_examples=300, deadline=None)
    @given(advert=adverts(), expr=exprs(max_steps=4))
    def test_nfa_equals_expansion(self, advert, expr):
        """Both directions: an NFA false negative would drop a
        subscription's route, a false positive would add one."""
        if not (expr.is_simple and expr.is_absolute):
            # the oracle enumerates words up to this bound; absolute
            # simple XPEs only need prefixes of their own length
            assume(expansion_bound(advert, len(expr)) <= ORACLE_WORD_BOUND)
        assert expr_and_advert_nfa(advert, expr) == (
            expr_and_rec_adv_expansion(advert, expr)
        ), (advert, expr)
