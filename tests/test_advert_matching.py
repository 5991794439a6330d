"""Unit tests for subscription/advertisement matching (paper §3.2–3.3)."""

import pytest

from repro.adverts import (
    Advertisement,
    abs_expr_and_adv,
    abs_expr_and_sim_rec_adv,
    des_expr_and_adv,
    expr_and_advert_nfa,
    expr_and_advertisement,
    generate_advertisements,
    rel_expr_and_adv,
    rel_expr_and_adv_naive,
    simple_recursive,
    node_tests_overlap,
)
from repro.adverts.model import Lit, Rep
from repro.dtd.samples import nitf_dtd
from repro.workloads.datasets import nitf_queries
from repro.xpath import parse_xpath
from tests import oracles


class TestOverlapRules:
    """Figure 2(b)."""

    def test_wildcard_overlaps_everything(self):
        assert node_tests_overlap("*", "*")
        assert node_tests_overlap("*", "t")
        assert node_tests_overlap("t", "*")

    def test_equal_names_overlap(self):
        assert node_tests_overlap("t", "t")

    def test_distinct_names_do_not(self):
        assert not node_tests_overlap("t1", "t2")


class TestAbsExprAndAdv:
    def test_paper_example_rejects(self):
        """Paper §3.2: a=/b/*/*/c/c/d, s=/*/c/*/b/c fails at i=4."""
        adv = ("b", "*", "*", "c", "c", "d")
        assert not abs_expr_and_adv(adv, parse_xpath("/*/c/*/b/c"))

    def test_longer_sub_never_matches(self):
        assert not abs_expr_and_adv(("a", "b"), parse_xpath("/a/b/c"))

    def test_equal_length_overlap(self):
        assert abs_expr_and_adv(("a", "*"), parse_xpath("/a/b"))
        assert abs_expr_and_adv(("a", "b"), parse_xpath("/a/*"))

    def test_shorter_sub_prefix(self):
        assert abs_expr_and_adv(("a", "b", "c"), parse_xpath("/a/b"))

    def test_mismatch_rejected(self):
        assert not abs_expr_and_adv(("a", "b"), parse_xpath("/b"))


class TestRelExprAndAdv:
    def test_matches_anywhere(self):
        assert rel_expr_and_adv(("x", "a", "b", "y"), parse_xpath("a/b"))

    def test_rejects_absent(self):
        assert not rel_expr_and_adv(("x", "a", "b"), parse_xpath("b/a"))

    def test_wildcards_both_sides(self):
        assert rel_expr_and_adv(("x", "*", "b"), parse_xpath("a/b"))
        assert rel_expr_and_adv(("x", "a", "b"), parse_xpath("*/b"))

    def test_too_long_rejected(self):
        assert not rel_expr_and_adv(("a",), parse_xpath("a/b"))

    def test_suffix_match(self):
        assert rel_expr_and_adv(("x", "y", "a", "b"), parse_xpath("a/b"))

    @pytest.mark.parametrize(
        "adv,sub",
        [
            (("a", "a", "b", "a", "a", "a", "b"), "a/a/a/b"),
            (("a", "b", "a", "b", "a", "c"), "a/b/a/c"),
            (("x", "x", "x"), "x/x/x"),
            (("a", "b", "c"), "c/a"),
        ],
    )
    def test_kmp_agrees_with_naive(self, adv, sub):
        expr = parse_xpath(sub)
        assert rel_expr_and_adv(adv, expr) == rel_expr_and_adv_naive(adv, expr)


class TestDesExprAndAdv:
    def test_paper_example(self):
        """Paper §3.2: a=/a/*/e/*/d/*/c/b and s=*/a//d/*/c//b match."""
        adv = ("a", "*", "e", "*", "d", "*", "c", "b")
        assert des_expr_and_adv(adv, parse_xpath("*/a//d/*/c//b"))

    def test_absolute_with_descendant(self):
        adv = ("a", "x", "y", "b")
        assert des_expr_and_adv(adv, parse_xpath("/a//b"))
        assert not des_expr_and_adv(adv, parse_xpath("/b//a"))

    def test_segments_must_be_ordered(self):
        adv = ("a", "b", "c")
        assert des_expr_and_adv(adv, parse_xpath("/a//c"))
        assert not des_expr_and_adv(adv, parse_xpath("/c//a"))

    def test_segments_must_not_overlap(self):
        adv = ("a", "b")
        # //a//b fits, //b//b does not (only one b).
        assert des_expr_and_adv(adv, parse_xpath("//a//b"))
        assert not des_expr_and_adv(adv, parse_xpath("//b//b"))

    def test_total_length_bound(self):
        assert not des_expr_and_adv(("a", "b"), parse_xpath("/a//b/c"))


class TestSimpleRecursive:
    def test_paper_example(self):
        """Paper §3.3: a=/a/*/c(/e/d)+/*/c/e, s=/*/a/c/*/d/e/d/* match."""
        sub = parse_xpath("/*/a/c/*/d/e/d/*")
        assert abs_expr_and_sim_rec_adv(
            ("a", "*", "c"), ("e", "d"), ("*", "c", "e"), sub
        )

    def test_short_sub_checked_against_head(self):
        assert abs_expr_and_sim_rec_adv(("a",), ("b",), ("z",), parse_xpath("/a/b"))
        assert not abs_expr_and_sim_rec_adv(("a",), ("b",), ("z",), parse_xpath("/a/c"))

    def test_single_repetition_with_tail(self):
        # a = /x(/b)+/z ; s = /x/b/z matches with one repetition.
        assert abs_expr_and_sim_rec_adv(("x",), ("b",), ("z",), parse_xpath("/x/b/z"))

    def test_double_repetition(self):
        assert abs_expr_and_sim_rec_adv(("x",), ("b",), ("z",), parse_xpath("/x/b/b/z"))

    def test_erratum_blocks_before_q_are_verified(self):
        # a = /x(/b)+/z/z/z ; s = /x/b/c/z/z/z — position 3 violates the
        # repetition and no expansion matches.
        assert not abs_expr_and_sim_rec_adv(
            ("x",), ("b",), ("z", "z", "z"), parse_xpath("/x/b/c/z/z/z")
        )

    def test_erratum_empty_a3(self):
        # a = /x(/b)+ ; trailing elements must still overlap b's.
        assert abs_expr_and_sim_rec_adv(("x",), ("b",), (), parse_xpath("/x/b/b/b"))
        assert not abs_expr_and_sim_rec_adv(("x",), ("b",), (), parse_xpath("/x/b/c"))

    def test_sub_ends_inside_repetition(self):
        # s shorter than any complete expansion still matches as prefix.
        assert abs_expr_and_sim_rec_adv(
            ("x",), ("b", "c"), ("z",), parse_xpath("/x/b/c/b")
        )

    def test_requires_nonempty_pattern(self):
        with pytest.raises(ValueError):
            abs_expr_and_sim_rec_adv(("x",), (), ("z",), parse_xpath("/x"))


class TestAdvertisementModel:
    def test_kind_classification(self):
        non = Advertisement.from_tests(("a", "b"))
        assert non.kind == "non-recursive"
        simple = simple_recursive(("a",), ("b",), ("c",))
        assert simple.kind == "simple-recursive"
        series = Advertisement(
            (Lit(("a",)), Rep((Lit(("b",)),)), Lit(("c",)), Rep((Lit(("d",)),)))
        )
        assert series.kind == "series-recursive"
        embedded = Advertisement(
            (Lit(("a",)), Rep((Lit(("b",)), Rep((Lit(("c",)),)))),)
        )
        assert embedded.kind == "embedded-recursive"

    def test_min_length(self):
        adv = simple_recursive(("a",), ("b", "c"), ("d",))
        assert adv.min_length() == 4

    def test_words_up_to(self):
        adv = simple_recursive(("a",), ("b",), ("c",))
        words = adv.words_up_to(4)
        assert ("a", "b", "c") in words
        assert ("a", "b", "b", "c") in words
        assert all(len(w) <= 4 for w in words)

    def test_prefixes(self):
        adv = simple_recursive(("a",), ("b",), ("c",))
        prefixes = oracles.prefixes(adv, 3)
        assert ("a", "b", "c") in prefixes
        assert ("a", "b", "b") in prefixes
        assert len(prefixes) == 2

    def test_str_rendering(self):
        adv = simple_recursive(("a",), ("b", "c"), ("d",))
        assert str(adv) == "/a(/b/c)+/d"

    def test_tests_rejected_for_recursive(self):
        with pytest.raises(ValueError):
            simple_recursive(("a",), ("b",), ()).tests

    def test_from_xpath(self):
        adv = Advertisement.from_xpath(parse_xpath("/a/*/b"))
        assert adv.tests == ("a", "*", "b")
        with pytest.raises(ValueError):
            Advertisement.from_xpath(parse_xpath("a/b"))
        with pytest.raises(ValueError):
            Advertisement.from_xpath(parse_xpath("/a//b"))


#: XPEs per shape (absolute/relative × simple/``//``) in the NITF table.
NITF_XPES_PER_SHAPE = 4


class TestExprAndAdvertisement:
    """The top-level dispatch across all advertisement kinds."""

    def test_non_recursive(self):
        adv = Advertisement.from_tests(("a", "b", "c"))
        assert expr_and_advertisement(adv, parse_xpath("/a/b"))
        assert expr_and_advertisement(adv, parse_xpath("b/c"))
        assert expr_and_advertisement(adv, parse_xpath("/a//c"))
        assert not expr_and_advertisement(adv, parse_xpath("/b"))

    def test_simple_recursive_relative_sub(self):
        adv = simple_recursive(("a",), ("b",), ("c",))
        assert expr_and_advertisement(adv, parse_xpath("b/b"))
        assert expr_and_advertisement(adv, parse_xpath("b/c"))
        assert not expr_and_advertisement(adv, parse_xpath("c/b"))

    def test_simple_recursive_descendant_sub(self):
        adv = simple_recursive(("a",), ("b",), ("c",))
        assert expr_and_advertisement(adv, parse_xpath("/a//c"))
        assert expr_and_advertisement(adv, parse_xpath("/a//b/b//c"))
        assert not expr_and_advertisement(adv, parse_xpath("/c//a"))

    def test_series_recursive(self):
        adv = Advertisement(
            (
                Lit(("r",)),
                Rep((Lit(("a",)),)),
                Lit(("m",)),
                Rep((Lit(("b",)),)),
                Lit(("z",)),
            )
        )
        assert expr_and_advertisement(adv, parse_xpath("/r/a/a/m/b/z"))
        assert expr_and_advertisement(adv, parse_xpath("a/m/b"))
        assert not expr_and_advertisement(adv, parse_xpath("/r/b"))
        assert not expr_and_advertisement(adv, parse_xpath("b/a"))

    def test_embedded_recursive(self):
        adv = Advertisement(
            (
                Lit(("r",)),
                Rep((Lit(("a",)), Rep((Lit(("b",)),)))),
                Lit(("z",)),
            )
        )
        assert expr_and_advertisement(adv, parse_xpath("/r/a/b/z"))
        assert expr_and_advertisement(adv, parse_xpath("/r/a/b/b/a/b/z"))
        assert not expr_and_advertisement(adv, parse_xpath("/r/b"))

    def test_wildcard_subscription_matches_everything_short_enough(self):
        adv = Advertisement.from_tests(("a", "b", "c"))
        assert expr_and_advertisement(adv, parse_xpath("/*/*"))
        assert expr_and_advertisement(adv, parse_xpath("*"))
        assert not expr_and_advertisement(adv, parse_xpath("/*/*/*/*"))

    def test_decision_table_equals_nfa_on_nitf(self):
        """Every NITF advertisement (all four kinds) against a few generated
        NITF XPEs of each shape: the production dispatch answers what the
        exact NFA product answers, prescreen included."""
        adverts = generate_advertisements(nitf_dtd())
        assert {advert.kind for advert in adverts} == {
            "non-recursive",
            "simple-recursive",
            "series-recursive",
            "embedded-recursive",
        }
        by_shape = {}
        for expr in nitf_queries(200).exprs:
            by_shape.setdefault((expr.is_absolute, expr.is_simple), []).append(expr)
        assert len(by_shape) == 4
        # The longest XPEs of a shape: a short one ends inside an
        # advertisement's literal head and never reaches a group or a3.
        picked = [
            expr
            for exprs in by_shape.values()
            for expr in sorted(exprs, key=len, reverse=True)[:NITF_XPES_PER_SHAPE]
        ]
        disagreements = [
            (str(advert), str(expr))
            for expr in picked
            for advert in adverts
            if expr_and_advertisement(advert, expr)
            != expr_and_advert_nfa(advert, expr)
        ]
        assert not disagreements, disagreements[:5]


class TestSeriesAndEmbeddedRecursive:
    """Fixed answers of the production dispatch on recursive advertisements."""

    def setup_method(self):
        self.series = Advertisement(
            (
                Lit(("r",)),
                Rep((Lit(("a",)),)),
                Lit(("m",)),
                Rep((Lit(("b",)),)),
                Lit(("z",)),
            )
        )
        self.embedded = Advertisement(
            (
                Lit(("r",)),
                Rep((Lit(("a",)), Rep((Lit(("b",)),)))),
                Lit(("z",)),
            )
        )

    def test_series_matches_expansions(self):
        assert expr_and_advertisement(self.series, parse_xpath("/r/a/m/b/z"))
        assert expr_and_advertisement(
            self.series, parse_xpath("/r/a/a/a/m/b/b")
        )
        assert not expr_and_advertisement(self.series, parse_xpath("/r/m"))

    def test_embedded_matches_expansions(self):
        assert expr_and_advertisement(self.embedded, parse_xpath("/r/a/b/z"))
        assert expr_and_advertisement(
            self.embedded, parse_xpath("/r/a/b/b/a/b")
        )
        assert not expr_and_advertisement(self.embedded, parse_xpath("/r/b"))

    def test_prefix_longer_than_sub(self):
        advert = Advertisement((Lit(("c", "c")), Rep((Lit(("a",)),))))
        assert expr_and_advertisement(advert, parse_xpath("/*"))
        assert not expr_and_advertisement(advert, parse_xpath("/a"))
