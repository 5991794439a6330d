"""Assorted coverage: xpath helpers, the experiments
entry point (``python -m repro.experiments``)."""

import pytest

from repro.xpath import parse_xpath, steps_from_tests, try_parse_xpath
from repro.xpath.ast import Axis, XPathExpr


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
