"""Shared small values: the bounded tables, the XPE hash and equality
they must not change, and what a clear at a cap may and may not cost."""

import re

import pytest

from repro.broker import Broker, RoutingConfig, SubscribeMsg
from repro.broker.persistence import restore_json, snapshot_json
from repro.broker.tables import NEIGHBOR_TUPLES, ForwardedState
from repro.cache import RouteMemo
from repro.covering.pathmatch import matches_path_reference
from repro.matching.shared_automaton import KEY_TUPLES, SharedAutomatonMatcher
from repro.merging.rules import merge_general, merge_one_difference
from repro.network import wire
from repro.sharing import SharedValues
from repro.xmldoc import XMLDocument
from repro.xpath import parse_xpath
from repro.xpath.ast import NAMES, STEPS, WILDCARD, Axis, Step, XPathExpr

TEXTS = (
    "/a",
    "/a/b",
    "/a//b",
    "/a/*/c",
    "/a/b//c/*",
    "/cat/item//price/*",
    "//a",
    "//a/b//c",
    "a",
    "a/b",
    "a//*/b",
    "*",
    "/e001/e002/e003/e004/e005/e006",
)

_TOKEN = re.compile(r"(//|/)?([^/]+)")


def _old_hash(text):
    """The XPE hash as it was when each XPE stored its key tuple,
    computed from the text without the parser."""
    rooted = text.startswith("/") and not text.startswith("//")
    pairs = tuple(
        (axis == "//", test) for axis, test in _TOKEN.findall(text)
    )
    return hash((rooted, pairs))


def _replaced(expr, index, test):
    steps = list(expr.steps)
    steps[index] = Step(steps[index].axis, test)
    return XPathExpr(tuple(steps), expr.rooted)


def _every_build(text):
    """*text*'s XPE built every way this package builds one."""
    expr = parse_xpath(text)
    copies = [
        parse_xpath(text),
        XPathExpr(expr.steps, expr.rooted),
        XPathExpr(tuple(Step(s.axis, s.test) for s in expr.steps), expr.rooted),
        XPathExpr(list(expr.steps), expr.rooted),
        expr.with_rooted(expr.rooted),
        parse_xpath(text + "/pad").prefix(len(expr)),
        wire.decode(wire.encode(SubscribeMsg(expr=expr, subscriber_id="s"))).expr,
    ]
    if expr.is_simple:
        copies.append(XPathExpr.from_tests(expr.tests, rooted=expr.rooted))
    if not expr.rooted and expr.steps[0].axis is Axis.CHILD:
        copies.append(parse_xpath("/pad/" + text).suffix(1))
    if len(expr) > 1 and expr.steps[1].axis is Axis.CHILD:
        head = XPathExpr(expr.steps[:1], expr.rooted)
        copies.append(head.concat(XPathExpr(expr.steps[1:], rooted=False)))
    wildcards = [i for i, s in enumerate(expr.steps) if s.test == WILDCARD]
    if wildcards and wildcards[-1] > 0:
        i = wildcards[-1]
        copies.append(
            merge_one_difference([_replaced(expr, i, "m1"), _replaced(expr, i, "m2")])
        )
    descendants = [
        i for i, s in enumerate(expr.steps) if i and s.axis is Axis.DESCENDANT
    ]
    if descendants:
        j = descendants[0]
        steps = list(expr.steps)
        steps[j] = Step(Axis.CHILD, steps[j].test)

        def padded(name):
            return XPathExpr(
                tuple(steps[:j] + [Step(Axis.CHILD, name)] + steps[j:]),
                expr.rooted,
            )

        copies.append(merge_general(padded("m1"), padded("m2")))
    return expr, copies


class TestHashAndEquality:
    """The hash is the old key tuple's, so set and dict iteration
    order, and with it the work the router does, stay as they were."""

    @pytest.mark.parametrize("text", TEXTS)
    def test_every_build_is_equal_and_hashes_as_before(self, text):
        expr, copies = _every_build(text)
        assert hash(expr) == _old_hash(text)
        assert str(expr) == text
        for copy in copies:
            assert copy == expr and expr == copy
            assert hash(copy) == _old_hash(text)
            assert copy.steps == expr.steps
            for step, shared in zip(copy.steps, expr.steps):
                assert step is shared

    def test_a_restored_broker_holds_equal_xpes(self):
        broker = Broker("b1", config=RoutingConfig.full())
        broker.attach_client("c1")
        for text in TEXTS:
            broker.handle(
                SubscribeMsg(expr=parse_xpath(text), subscriber_id="c1"), "c1"
            )
        restored = restore_json(snapshot_json(broker))
        exprs = {str(expr): expr for expr in restored.table.exprs()}
        assert sorted(exprs) == sorted(TEXTS)
        for text, expr in exprs.items():
            assert expr == parse_xpath(text)
            assert hash(expr) == _old_hash(text)

    def test_unequal_xpes(self):
        exprs = [parse_xpath(text) for text in TEXTS]
        for i, one in enumerate(exprs):
            for j, other in enumerate(exprs):
                assert (one == other) == (i == j)
        assert parse_xpath("a/b") != parse_xpath("/a/b")
        assert parse_xpath("/a//b") != parse_xpath("/a/b")
        assert parse_xpath("/a") != "/a"


class TestBoundedTables:
    def test_caps(self):
        assert NAMES.limit == 4096
        assert STEPS.limit == 8192
        assert KEY_TUPLES.limit == 4096
        assert NEIGHBOR_TUPLES.limit == 1024
        assert RouteMemo(maxsize=7)._routes.limit == 7

    def test_a_full_table_clears_before_its_next_value(self):
        table = SharedValues(3)
        values = [("v%d" % i,) for i in range(7)]
        for value in values:
            assert table[value] is value
            assert len(table) <= 3
        again = ("v6",)
        assert table[again] is values[6]
        assert SharedValues(2, make=str.upper)["ab"] == "AB"
        with pytest.raises(ValueError):
            SharedValues(0)

    def test_an_invalid_test_is_refused_and_not_stored(self):
        for test in ("", "a/b"):
            with pytest.raises(ValueError):
                XPathExpr.from_tests(["ok", test])
            with pytest.raises(ValueError):
                XPathExpr((Step(Axis.CHILD, test),))
            assert (False, test) not in STEPS

    def test_twice_the_cap_of_names_through_documents(self):
        """An adversarial vocabulary: the name table never holds more
        than its cap, and every document still decomposes exactly."""
        limit = NAMES.limit
        per_doc = 256
        for start in range(0, 2 * limit, per_doc):
            names = ["n%05d" % i for i in range(start, start + per_doc)]
            text = "<root>%s</root>" % "".join("<%s/>" % n for n in names)
            paths = XMLDocument.parse(text, "d%d" % start).paths()
            assert paths == [("root", name) for name in names]
            assert len(NAMES) <= limit

    def test_a_clear_mid_run_loses_sharing_not_correctness(self):
        texts = TEXTS + ("/a/b/c", "//b/c", "/cat//item")
        paths = [
            ("a", "b", "c"),
            ("a", "x", "b", "c", "q"),
            ("cat", "item", "price", "z"),
            ("q", "a"),
            ("e001", "e002", "e003", "e004", "e005", "e006"),
        ]
        before = [parse_xpath(text) for text in texts]
        matcher = SharedAutomatonMatcher()
        forwarded = ForwardedState()
        for i, expr in enumerate(before):
            matcher.add(expr, "k%d" % (i % 3))
            forwarded.mark(expr, "n%d" % (i % 2))
        for path in paths:  # walk the automaton on pre-clear symbols
            matcher.match(path)
        for table in (NAMES, STEPS, KEY_TUPLES, NEIGHBOR_TUPLES):
            table.clear()

        after = [parse_xpath(text) for text in texts]
        for old, new in zip(before, after):
            assert old == new and new == old
            assert hash(old) == hash(new)
            assert old.steps[0] is not new.steps[0]  # sharing was lost
            assert old.steps == new.steps
        # Edit with the post-clear copies: new key tuples, the same
        # automaton trails.
        live = {}
        for i, (old, new) in enumerate(zip(before, after)):
            live[old] = {"k%d" % (i % 3)}
            matcher.add(new, "k%d" % ((i + 1) % 3))
            live[old].add("k%d" % ((i + 1) % 3))
            forwarded.mark(new, "n%d" % ((i + 1) % 2))
        for i, new in enumerate(after[::2]):
            matcher.remove(new, "k%d" % ((2 * i) % 3))
            live[new].discard("k%d" % ((2 * i) % 3))
            forwarded.unmark(new, "n0")
        matcher._nfa.check_refcounts()
        fresh = XMLDocument.parse(
            "<cat><item><price><z/></price></item></cat>", "d"
        ).paths()
        for path in paths + fresh:
            expected = set()
            for expr, keys in live.items():
                if keys and matches_path_reference(expr, path):
                    expected |= keys
            assert matcher.match(path) == expected
        for i, old in enumerate(before):
            assert matcher.keys_of(old) == live[old]
            assert forwarded.was_sent(old, "n%d" % ((i + 1) % 2))
            if i % 2 == 0:
                assert not forwarded.was_sent(old, "n0")
