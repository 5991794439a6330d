"""XML documents and their root-to-leaf path decomposition (paper §3.1).

Publishers submit entire XML documents; the edge broker decomposes each
document into its root-to-leaf element paths and routes those paths as
*publications*, each annotated with a ``doc_id`` and ``path_id``.  The
decomposition is transparent to clients — subscribers receive whole
documents.

Parsing uses the standard library's :mod:`xml.etree.ElementTree`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import XMLSyntaxError

#: Reserved pseudo-attribute carrying an element's text content.
TEXT_KEY = "#text"


@dataclass(frozen=True)
class Publication:
    """One routed unit: a root-to-leaf path of a document.

    ``attributes`` optionally carries one attribute mapping per path
    element (as tuples of ``(name, value)`` pairs, keeping the
    publication hashable); ``None`` means the document carried no
    attributes on this path.  It is document payload only: the routing
    language has no predicates, so no matcher reads it.  It stays
    because the wire carries it and the end-to-end benchmark's oracle
    reads it (with :meth:`attribute_maps`).
    """

    doc_id: str
    path_id: int
    path: Tuple[str, ...]
    attributes: Optional[Tuple[Tuple[Tuple[str, str], ...], ...]] = None

    def attribute_maps(self) -> Optional[Tuple[dict, ...]]:
        """The attributes as dicts aligned with :attr:`path`."""
        if self.attributes is None:
            return None
        return tuple(dict(pairs) for pairs in self.attributes)

    def __str__(self):
        return "%s#%d:/%s" % (self.doc_id, self.path_id, "/".join(self.path))


class XMLDocument:
    """A parsed XML document plus its path decomposition."""

    def __init__(self, root: ET.Element, doc_id: str, source: Optional[str] = None):
        self._root = root
        self.doc_id = doc_id
        self._source = source
        self._paths: Optional[List[Tuple[str, ...]]] = None
        self._annotated = None

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str, doc_id: str) -> "XMLDocument":
        """Parse XML *text*; raises :class:`XMLSyntaxError` on bad input."""
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise XMLSyntaxError("cannot parse document %r: %s" % (doc_id, exc))
        return cls(root=root, doc_id=doc_id, source=text)

    @classmethod
    def from_paths(
        cls, paths: Sequence[Sequence[str]], doc_id: str, text_filler: str = ""
    ) -> "XMLDocument":
        """Build a document whose decomposition is exactly *paths*.

        Paths sharing a prefix share elements (the natural tree merge);
        all paths must agree on the root element.  *text_filler* is
        placed in every leaf, which lets workload generators control the
        serialised size.
        """
        if not paths:
            raise ValueError("a document needs at least one path")
        roots = {path[0] for path in paths}
        if len(roots) != 1:
            raise ValueError("all paths must share the root element")
        root = ET.Element(paths[0][0])
        for path in paths:
            node = root
            for name in path[1:]:
                # Reuse the last child when it continues this path's
                # prefix; otherwise open a new branch.  Using the last
                # child (not "any child") keeps repeated path suffixes
                # distinct when a path occurs twice.
                last = node[-1] if len(node) else None
                if last is not None and last.tag == name:
                    node = last
                else:
                    node = ET.SubElement(node, name)
            if text_filler and not len(node):
                node.text = text_filler
        return cls(root=root, doc_id=doc_id)

    # -- views ---------------------------------------------------------------

    @property
    def root(self) -> ET.Element:
        return self._root

    def serialize(self) -> str:
        if self._source is not None:
            return self._source
        return ET.tostring(self._root, encoding="unicode")

    def size_bytes(self) -> int:
        return len(self.serialize().encode("utf-8"))

    def depth(self) -> int:
        return max(len(path) for path in self.paths())

    def paths(self) -> List[Tuple[str, ...]]:
        """The root-to-leaf element-name paths, in document order."""
        if self._paths is None:
            self._paths = [path for path, _attrs in self.annotated_paths()]
        return self._paths

    def annotated_paths(self):
        """Root-to-leaf paths with per-element attribute dicts."""
        if getattr(self, "_annotated", None) is None:
            self._annotated = list(_walk_annotated_paths(self._root))
        return self._annotated

    def publications(self) -> List[Publication]:
        """Decompose into annotated publications (paper §3.1).

        Attribute annotations are attached only when the path actually
        carries attributes, so attribute-free documents stay light.
        """
        result = []
        for i, (path, attrs) in enumerate(self.annotated_paths()):
            attributes = None
            if any(attrs):
                attributes = tuple(
                    tuple(sorted(mapping.items())) for mapping in attrs
                )
            result.append(
                Publication(
                    doc_id=self.doc_id,
                    path_id=i,
                    path=path,
                    attributes=attributes,
                )
            )
        return result

    def __repr__(self):
        return "XMLDocument(%r, %d paths, %d bytes)" % (
            self.doc_id,
            len(self.paths()),
            self.size_bytes(),
        )


def _annotations_of(element: ET.Element) -> dict:
    """Attributes plus the TEXT_KEY pseudo attribute for text content."""
    annotations = dict(element.attrib)
    text = (element.text or "").strip()
    if text:
        annotations[TEXT_KEY] = text
    return annotations


def _walk_annotated_paths(element: ET.Element):
    """Depth-first root-to-leaf (tag path, attribute dicts) pairs."""
    stack = [(element, (element.tag,), (_annotations_of(element),))]
    while stack:
        node, trail, attrs = stack.pop()
        children = list(node)
        if not children:
            yield trail, attrs
            continue
        for child in reversed(children):
            stack.append(
                (
                    child,
                    trail + (child.tag,),
                    attrs + (_annotations_of(child),),
                )
            )
