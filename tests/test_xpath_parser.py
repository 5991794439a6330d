"""Unit tests for the XPE parser and AST."""

import pytest

from repro.errors import XPathSyntaxError
from repro.xpath import Axis, Step, XPathExpr, parse_xpath, try_parse_xpath


class TestParseAbsolute:
    def test_single_step(self):
        expr = parse_xpath("/a")
        assert expr.is_absolute
        assert expr.tests == ("a",)

    def test_multi_step(self):
        expr = parse_xpath("/a/b/c")
        assert expr.tests == ("a", "b", "c")
        assert all(step.axis is Axis.CHILD for step in expr.steps)

    def test_wildcards(self):
        expr = parse_xpath("/*/b/*")
        assert expr.tests == ("*", "b", "*")
        assert expr.has_wildcard

    def test_descendant_axis(self):
        expr = parse_xpath("/a//b")
        assert expr.is_absolute
        assert not expr.is_simple
        assert expr.steps[1].axis is Axis.DESCENDANT

    def test_absolute_is_anchored(self):
        assert parse_xpath("/a/b").anchored


class TestParseRelative:
    def test_bare_name(self):
        expr = parse_xpath("d/a")
        assert expr.is_relative
        assert expr.tests == ("d", "a")

    def test_leading_descendant(self):
        expr = parse_xpath("//x/y")
        assert expr.is_relative
        assert not expr.anchored
        assert expr.steps[0].axis is Axis.DESCENDANT

    def test_leading_wildcard(self):
        expr = parse_xpath("*/a//d")
        assert expr.is_relative
        assert expr.tests == ("*", "a", "d")


class TestSegments:
    def test_simple_expression_single_segment(self):
        assert parse_xpath("/a/b/c").segments == (("a", "b", "c"),)

    def test_descendant_splits(self):
        assert parse_xpath("/a/*//b/c").segments == (("a", "*"), ("b", "c"))

    def test_multiple_descendants(self):
        expr = parse_xpath("*/a//d/*/c//b")
        assert expr.segments == (("*", "a"), ("d", "*", "c"), ("b",))

    def test_leading_descendant_single_segment(self):
        assert parse_xpath("//a/b").segments == (("a", "b"),)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "/a",
            "/a/b/c",
            "/*/b/*",
            "/a//b",
            "d/a",
            "//x/y",
            "*/a//d/*/c//b",
            "/a/*//*/d",
            "a//b//c",
        ],
    )
    def test_str_round_trips(self, text):
        assert str(parse_xpath(text)) == text
        assert parse_xpath(str(parse_xpath(text))) == parse_xpath(text)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["", "/", "//", "/a/", "a//", "/a//", "///a", "/a b", "/a/&", "/9a"]
        # Predicates, well-formed or not, are not in the language.
        + ["/a[@k='1']", "/a[@k]", "//b[text()='v']", "/a[", "/a[]",
           "/a[@n=v]", "/a[n]", "/a[@n='v'"],
    )
    def test_rejects(self, text):
        with pytest.raises(XPathSyntaxError) as info:
            parse_xpath(text)
        if "[" in text:
            assert "predicates are not in the routing language" in str(
                info.value
            )

    def test_try_parse_returns_none(self):
        assert try_parse_xpath("///") is None
        assert try_parse_xpath("/ok") is not None

    def test_type_error_for_non_string(self):
        with pytest.raises(TypeError):
            parse_xpath(42)


class TestExprHelpers:
    def test_hashable_and_equal(self):
        assert parse_xpath("/a/b") == parse_xpath("/a/b")
        assert hash(parse_xpath("/a/b")) == hash(parse_xpath("/a/b"))
        assert parse_xpath("/a/b") != parse_xpath("a/b")

    def test_from_tests(self):
        expr = XPathExpr.from_tests(["a", "*", "b"])
        assert str(expr) == "/a/*/b"

    def test_prefix_and_suffix(self):
        expr = parse_xpath("/a/b/c")
        assert str(expr.prefix(2)) == "/a/b"
        assert str(expr.suffix(1)) == "b/c"
        assert expr.suffix(1).is_relative

    def test_concat(self):
        left, right = parse_xpath("/a/b"), parse_xpath("c/d")
        assert str(left.concat(right)) == "/a/b/c/d"

    def test_len(self):
        assert len(parse_xpath("/a/*//b")) == 3

    def test_rooted_rejects_descendant_start(self):
        with pytest.raises(ValueError):
            XPathExpr(steps=(Step(Axis.DESCENDANT, "a"),), rooted=True)

    def test_empty_steps_rejected(self):
        with pytest.raises(ValueError):
            XPathExpr(steps=(), rooted=True)

    def test_with_rooted(self):
        rel = parse_xpath("a/b")
        assert rel.with_rooted(True) == parse_xpath("/a/b")
