"""Unit tests for the XML document model and path decomposition."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, strategies as st

from repro.errors import XMLSyntaxError
from repro.xmldoc import Publication, XMLDocument
from repro.xmldoc.document import TEXT_KEY

SAMPLE = """
<root>
  <a><b>text</b><c/></a>
  <a><b>more</b></a>
  <d/>
</root>
"""


class TestParsing:
    def test_parse_and_paths(self):
        doc = XMLDocument.parse(SAMPLE, doc_id="d1")
        assert doc.paths() == [
            ("root", "a", "b"),
            ("root", "a", "c"),
            ("root", "a", "b"),
            ("root", "d"),
        ]

    def test_invalid_xml_rejected(self):
        with pytest.raises(XMLSyntaxError):
            XMLDocument.parse("<root><a></root>", doc_id="bad")

    def test_depth(self):
        doc = XMLDocument.parse(SAMPLE, doc_id="d1")
        assert doc.depth() == 3

    def test_size_bytes_counts_source(self):
        doc = XMLDocument.parse(SAMPLE, doc_id="d1")
        assert doc.size_bytes() == len(SAMPLE.encode("utf-8"))


class TestPublications:
    def test_publication_annotation(self):
        doc = XMLDocument.parse(SAMPLE, doc_id="d1")
        pubs = doc.publications()
        assert all(isinstance(p, Publication) for p in pubs)
        assert [p.path_id for p in pubs] == [0, 1, 2, 3]
        assert all(p.doc_id == "d1" for p in pubs)

    def test_publication_str(self):
        pub = Publication(doc_id="d", path_id=2, path=("a", "b"))
        assert str(pub) == "d#2:/a/b"


class TestFromPaths:
    def test_round_trip(self):
        paths = [("r", "a", "x"), ("r", "a", "y"), ("r", "b")]
        doc = XMLDocument.from_paths(paths, doc_id="d2")
        assert doc.paths() == paths

    def test_shares_prefixes(self):
        doc = XMLDocument.from_paths(
            [("r", "a", "x"), ("r", "a", "y")], doc_id="d3"
        )
        # One <a> element shared by both leaves.
        assert len(doc.root) == 1

    def test_repeated_siblings_stay_distinct(self):
        doc = XMLDocument.from_paths(
            [("r", "a", "x"), ("r", "b"), ("r", "a", "y")], doc_id="d4"
        )
        assert ("r", "a", "x") in doc.paths()
        assert ("r", "a", "y") in doc.paths()

    def test_text_filler_controls_size(self):
        small = XMLDocument.from_paths([("r", "a")], doc_id="s")
        big = XMLDocument.from_paths(
            [("r", "a")], doc_id="b", text_filler="x" * 500
        )
        assert big.size_bytes() > small.size_bytes() + 400

    def test_requires_shared_root(self):
        with pytest.raises(ValueError):
            XMLDocument.from_paths([("r", "a"), ("q", "b")], doc_id="bad")

    def test_requires_paths(self):
        with pytest.raises(ValueError):
            XMLDocument.from_paths([], doc_id="bad")

    def test_serialize_parses_back(self):
        paths = [("r", "a", "x"), ("r", "b")]
        doc = XMLDocument.from_paths(paths, doc_id="d5", text_filler="t")
        again = XMLDocument.parse(doc.serialize(), doc_id="d5b")
        assert again.paths() == paths


def _reference_publications(root, doc_id):
    """The decomposition as it was before the one-pass walker: a walk
    yielding per-path attribute dicts, each element's pairs sorted
    again for every path through it."""

    def annotations_of(element):
        annotations = dict(element.attrib)
        text = (element.text or "").strip()
        if text:
            annotations[TEXT_KEY] = text
        return annotations

    walked = []
    stack = [(root, (root.tag,), (annotations_of(root),))]
    while stack:
        node, trail, attrs = stack.pop()
        children = list(node)
        if not children:
            walked.append((trail, attrs))
            continue
        for child in reversed(children):
            stack.append(
                (child, trail + (child.tag,), attrs + (annotations_of(child),))
            )
    result = []
    for i, (path, attrs) in enumerate(walked):
        attributes = None
        if any(attrs):
            attributes = tuple(tuple(sorted(m.items())) for m in attrs)
        result.append(
            Publication(doc_id=doc_id, path_id=i, path=path, attributes=attributes)
        )
    return result


_NAMES = st.sampled_from(["r", "a", "b", "item", "price"])
_TEXT = st.one_of(st.none(), st.text(alphabet="ab <&\t\n ", max_size=4))


@st.composite
def _trees(draw, depth=0):
    element = ET.Element(draw(_NAMES))
    for name in draw(st.lists(st.sampled_from(["id", "k", "z"]), max_size=3, unique=True)):
        element.set(name, draw(st.text(alphabet="xy 1", max_size=3)))
    element.text = draw(_TEXT)
    element.tail = draw(_TEXT)
    if depth < 4:
        for child in draw(st.lists(_trees(depth + 1), max_size=3)):
            element.append(child)
    return element


class TestOnePassDecomposition:
    @given(_trees())
    def test_same_publications_as_the_per_path_walk(self, root):
        root.tail = None  # text after the root element is not XML
        text = ET.tostring(root, encoding="unicode")
        for doc in (XMLDocument.parse(text, "d"), XMLDocument(root, "d")):
            expected = _reference_publications(doc.root, "d")
            got = doc.publications()
            assert got == expected
            assert [repr(p) for p in got] == [repr(p) for p in expected]
            assert doc.paths() == [p.path for p in expected]
            assert doc.publications() == got

    def test_an_element_on_many_paths_shares_its_pairs(self):
        doc = XMLDocument.parse(
            '<r k="1"><a z="2" id="3">t<b/><c/></a></r>', "d"
        )
        first, second = doc.publications()
        assert first.attributes == (
            (("k", "1"),),
            ((TEXT_KEY, "t"), ("id", "3"), ("z", "2")),
            (),
        )
        assert first.attributes[1] is second.attributes[1]
