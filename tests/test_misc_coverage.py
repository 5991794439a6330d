"""Assorted coverage: TreeMatcher, xpath helpers, the experiments
entry point (``python -m repro.experiments``)."""

import pytest

from repro.matching.engine import TreeMatcher
from repro.xpath import parse_xpath, steps_from_tests, try_parse_xpath
from repro.xpath.ast import Axis, XPathExpr


class TestTreeMatcher:
    def test_add_match_remove(self):
        matcher = TreeMatcher()
        matcher.add(parse_xpath("/a"), "k1")
        matcher.add(parse_xpath("/a/b"), "k2")
        assert matcher.match(("a", "b")) == {"k1", "k2"}
        matcher.remove(parse_xpath("/a"), "k1")
        assert matcher.match(("a", "b")) == {"k2"}
        assert len(matcher) == 1

    def test_wraps_existing_tree(self):
        from repro.covering.subscription_tree import SubscriptionTree

        tree = SubscriptionTree()
        tree.insert(parse_xpath("/q"), "k")
        matcher = TreeMatcher(tree)
        assert matcher.tree is tree
        assert matcher.match(("q",)) == {"k"}

    def test_exprs_listing(self):
        matcher = TreeMatcher()
        matcher.add(parse_xpath("/a"), 1)
        assert matcher.exprs() == [parse_xpath("/a")]


class TestXPathHelpers:
    def test_steps_from_tests(self):
        steps = steps_from_tests(["a", "b"], axis=Axis.DESCENDANT)
        assert all(s.axis is Axis.DESCENDANT for s in steps)
        expr = XPathExpr(
            steps=steps_from_tests(["a", "b"]), rooted=False
        )
        assert str(expr) == "a/b"

    def test_try_parse(self):
        assert try_parse_xpath("/ok/fine") is not None
        assert try_parse_xpath("!!") is None

    def test_prefix_suffix_bounds(self):
        expr = parse_xpath("/a/b")
        with pytest.raises(ValueError):
            expr.prefix(0)
        with pytest.raises(ValueError):
            expr.prefix(3)
        with pytest.raises(ValueError):
            expr.suffix(2)

    def test_with_rooted_rejects_leading_descendant(self):
        expr = parse_xpath("//a")
        with pytest.raises(ValueError):
            expr.with_rooted(True)


class TestCliExperiments:
    def test_experiments_subcommand_runs(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--only", "tableprofile"]) == 0
        out = capsys.readouterr().out
        assert "Routing-table profile" in out
