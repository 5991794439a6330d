"""Parser for the paper's single-path XPath fragment.

Grammar::

    expr      := rooted | relative
    rooted    := '/' step ('/' step | '//' step)*
    relative  := ('//')? step ('/' step | '//' step)*
    step      := NAME | '*'
    NAME      := [A-Za-z_][A-Za-z0-9_.:-]*

This is exactly the paper's §3.2 routing language: element steps with
``/``, ``//`` and ``*``.  Attribute and text predicates (``[@a='v']``,
``[text()='v']``) are the extension the paper defers to its companion
matcher [16]; they are not part of the language, and the parser rejects
them by name.  The parser is a simple hand-written scanner; XPEs are
short (the paper caps them at 10 steps) so there is no need for
anything heavier.
"""

from __future__ import annotations

import re

from repro.errors import XPathSyntaxError
from repro.xpath.ast import Axis, Step, XPathExpr

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.:\-]*")


def parse_xpath(text):
    """Parse *text* into an :class:`~repro.xpath.ast.XPathExpr`.

    Raises:
        XPathSyntaxError: when *text* is not a valid expression in the
            supported fragment.
    """
    if not isinstance(text, str):
        raise TypeError("expected str, got %r" % type(text).__name__)
    source = text.strip()
    if not source:
        raise XPathSyntaxError(text, 0, "empty expression")

    pos = 0
    rooted = False
    first_axis = Axis.CHILD
    if source.startswith("//"):
        first_axis = Axis.DESCENDANT
        pos = 2
    elif source.startswith("/"):
        rooted = True
        pos = 1

    steps = []
    axis = first_axis
    while True:
        test, pos = _scan_test(source, pos)
        steps.append(Step(axis, test))
        if pos == len(source):
            break
        if source[pos] == "[":
            raise XPathSyntaxError(
                text,
                pos,
                "predicates are not in the routing language "
                "(only '/', '//' and '*' steps)",
            )
        if source.startswith("//", pos):
            axis = Axis.DESCENDANT
            pos += 2
        elif source.startswith("/", pos):
            axis = Axis.CHILD
            pos += 1
        else:
            raise XPathSyntaxError(
                text, pos, "expected '/' or '//' between steps"
            )
        if pos == len(source):
            raise XPathSyntaxError(text, pos, "trailing path operator")

    return XPathExpr(steps=tuple(steps), rooted=rooted)


def _scan_test(source, pos):
    """Scan one node test (a name or ``*``) starting at *pos*."""
    if pos >= len(source):
        raise XPathSyntaxError(source, pos, "expected a node test")
    if source[pos] == "*":
        return "*", pos + 1
    match = _NAME_RE.match(source, pos)
    if match is None:
        raise XPathSyntaxError(
            source, pos, "expected an element name or '*'"
        )
    return match.group(0), match.end()


def try_parse_xpath(text):
    """Like :func:`parse_xpath` but returns ``None`` on syntax errors."""
    try:
        return parse_xpath(text)
    except XPathSyntaxError:
        return None
