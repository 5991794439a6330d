"""Predicates are not in the routing language.

The routing language is the paper's §3.2 fragment: ``/``, ``//`` and
``*``.  Attribute and text predicates (``[@a]``, ``[@a='v']``,
``[@a!='v']``, ``[text()='v']``) are the value-comparison extension the
paper defers to its companion matcher [16].  They are rejected by name
wherever an XPE enters (parser, wire, snapshot), while a publication's
attribute and text annotation stays document payload that no routing
decision reads.  Each test pins one predicate form to that contract, or
checks the structural fact it would have qualified.
"""

import dataclasses
import json

import pytest

from repro.broker import Broker, RoutingConfig
from repro.broker.messages import PublishMsg, SubscribeMsg
from repro.covering import SubscriptionTree, covers, matches_path
from repro.covering.pathmatch import matches_path_reference
from repro.errors import XPathSyntaxError
from repro.network.wire import WireError, decode, encode
from repro.xmldoc import XMLDocument
from repro.xpath import parse_xpath

NOT_IN_LANGUAGE = "predicates are not in the routing language"


def x(text):
    return parse_xpath(text)


def rejected(text):
    """*text* fails to parse, and the error names predicates."""
    with pytest.raises(XPathSyntaxError, match=NOT_IN_LANGUAGE) as info:
        x(text)
    return info.value


def sub_frame_rejected(text):
    """A wire SUB carrying *text* decodes to a WireError."""
    frame = json.loads(encode(SubscribeMsg(expr=x("/claims/claim"))))
    frame["expr"] = text
    with pytest.raises(WireError):
        decode(json.dumps(frame).encode())


class TestParsing:
    def test_exists_predicate(self):
        rejected("/claims/claim[@urgent]")

    def test_equality_predicate(self):
        # The error points at the '['.
        assert rejected("/claim[@lang='de']").position == 6

    def test_inequality_predicate(self):
        rejected("/claim[@lang!='en']")

    def test_double_quotes(self):
        rejected('/claim[@lang="de"]')

    def test_multiple_predicates_one_step(self):
        assert rejected("/claim[@lang='de'][@urgent]").position == 6

    def test_round_trip(self):
        for text in ("/claims/claim", "/claim/amount", "//bid", "claim//*"):
            assert str(x(text)) == text
            assert x(str(x(text))) == x(text)

    def test_predicates_affect_equality(self):
        # A step is an axis and a node test, nothing else.
        step = x("/a").steps[0]
        assert [f.name for f in dataclasses.fields(step)] == ["axis", "test"]

    @pytest.mark.parametrize(
        "bad",
        [
            "/a[",
            "/a[]",
            "/a[@]",
            "/a[@n",
            "/a[@n='v'",
            "/a[@n=v]",
            "/a[@n!'v']",
            "/a[n]",
        ],
    )
    def test_malformed_predicates_rejected(self, bad):
        rejected(bad)


class TestPathMatching:
    """A publication's attributes never change a match."""

    PATH = ("claims", "claim", "amount")
    ATTRS = ({}, {"lang": "de", "urgent": "1"}, {})

    def blind(self, text):
        expr = x(text)
        verdict = matches_path(expr, self.PATH)
        assert matches_path_reference(expr, self.PATH, self.ATTRS) == verdict
        assert matches_path_reference(expr, self.PATH) == verdict
        return verdict

    def test_exists(self):
        rejected("/claims/claim[@urgent]")
        assert self.blind("/claims/claim")

    def test_equality(self):
        assert self.blind("/claims/claim/amount")
        assert not self.blind("/claims/amount")

    def test_inequality(self):
        assert not self.blind("/claim")

    def test_missing_attribute_annotation_fails_predicates(self):
        assert self.blind("/claims/claim")

    def test_relative_with_predicates(self):
        assert self.blind("claim/amount")

    def test_wildcard_with_predicate(self):
        assert self.blind("/claims/*")
        assert self.blind("//*/amount")


class TestCovering:
    """Covering is decided on structure alone."""

    def test_unconstrained_covers_predicated(self):
        assert covers(x("/a/*"), x("/a/b"))

    def test_predicated_does_not_cover_unconstrained(self):
        assert not covers(x("/a/b"), x("/a/*"))

    def test_exists_covers_equality(self):
        assert covers(x("//b"), x("/a/b"))
        assert not covers(x("/a/b"), x("//b"))

    def test_equal_predicates_cover(self):
        assert covers(x("/a/b"), x("/a/b"))

    def test_different_values_do_not_cover(self):
        assert not covers(x("/a/b"), x("/a/c"))

    def test_ne_covered_by_different_eq(self):
        assert covers(x("/a/*"), x("/a/*"))
        assert not covers(x("/a/b"), x("/a/*"))

    def test_prefix_covering_with_predicates(self):
        assert covers(x("/a"), x("/a/b/c"))

    def test_relative_predicated_covering(self):
        assert covers(x("b"), x("/a/b/c"))

    def test_conservative_for_descendant_shapes(self):
        assert covers(x("/a//b"), x("/a/x/b"))
        assert not covers(x("/a/x/b"), x("/a//b"))

    def test_tree_insertion_with_predicates(self):
        tree = SubscriptionTree()
        tree.insert(x("/a/b"), 1)
        assert tree.insert(x("/a/b/c"), 2).covered
        tree.validate()


class TestEndToEnd:
    DOC = """
    <claims>
      <claim lang="de" urgent="1"><amount>100</amount></claim>
      <claim lang="en"><amount>200</amount></claim>
    </claims>
    """

    def test_document_attributes_decomposed(self):
        doc = XMLDocument.parse(self.DOC, doc_id="d")
        pubs = doc.publications()
        assert pubs[0].attribute_maps()[1] == {"lang": "de", "urgent": "1"}
        assert pubs[1].attribute_maps()[1] == {"lang": "en"}

    def test_broker_routes_on_predicates(self):
        # One path under two attribute variants: both reach the
        # subscriber, through one memo entry.
        broker = Broker("b1", config=RoutingConfig.no_adv_no_cov())
        broker.attach_client("all")
        broker.handle(
            SubscribeMsg(expr=x("/claims/claim"), subscriber_id="all"), "all"
        )
        doc = XMLDocument.parse(self.DOC, doc_id="d")
        for pub in doc.publications():
            out = broker.handle(
                PublishMsg(publication=pub, publisher_id="p"), "upstream"
            )
            assert [dest for dest, _ in out] == ["all"]
        assert len(broker.match_cache) == 1

    def test_wire_round_trip_with_attributes(self):
        doc = XMLDocument.parse(self.DOC, doc_id="d")
        pub = doc.publications()[0]
        msg = PublishMsg(publication=pub, publisher_id="p")
        decoded = decode(encode(msg))
        assert decoded.publication == pub

    def test_wire_round_trip_predicated_subscription(self):
        sub_frame_rejected("/claims/claim[@lang='de']")


class TestTextPredicates:
    """The text() half of the extension."""

    DOC = """
    <claims>
      <claim><amount currency="EUR">2400000</amount></claim>
      <claim><amount currency="USD">1200</amount></claim>
    </claims>
    """

    def test_parse_and_round_trip(self):
        for text in (
            "/claims/claim/amount[text()='100']",
            "//amount[text()!='0']",
            "/a/b[@p='1'][text()='v']",
        ):
            rejected(text)

    def test_text_exists_rejected(self):
        rejected("/a[text()]")

    def test_match_on_text_content(self):
        pubs = XMLDocument.parse(self.DOC, doc_id="d").publications()
        assert pubs[0].attribute_maps()[2]["#text"] == "2400000"
        assert all(matches_path(x("//amount"), pub.path) for pub in pubs)

    def test_text_and_attribute_combined(self):
        pubs = XMLDocument.parse(self.DOC, doc_id="d").publications()
        assert pubs[0].path == pubs[1].path
        assert pubs[0].attributes != pubs[1].attributes

    def test_text_covering(self):
        assert covers(x("//amount"), x("/claims/claim/amount"))

    def test_wire_round_trip(self):
        sub_frame_rejected("//amount[text()='5']")

    def test_whitespace_stripped_from_text(self):
        doc = XMLDocument.parse("<a><b>  padded  </b></a>", doc_id="d")
        pub = doc.publications()[0]
        assert pub.attribute_maps()[1] == {"#text": "padded"}
