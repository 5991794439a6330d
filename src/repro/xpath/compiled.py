"""Compiled XPE matching: the one production path matcher.

This module compiles each expression **once** into a
:class:`CompiledXPE`, so a publication match runs inside CPython's
regex engine instead of walking :class:`~repro.xpath.ast.XPathExpr`
segments in Python — the per-step interpretation overhead that compiled
filter indexes (YFilter [Diao et al., TODS 2003], XTrie) were designed
to eliminate.

Each expression becomes one regular expression over a sentinel-joined
path string.  A publication path ``(a, b, c)`` is rendered as
``"/a/b/c/"``; each ``//``-free segment compiles to its element names
joined by ``/`` (wildcards become ``[^/]+``), segments are connected by
``(?:[^/]+/)*`` (zero or more whole skipped elements — exactly the
descendant gap), and absolute expressions anchor with ``re.match``
while relative ones ``re.search`` from any element boundary.

The rendering is exact only for element names that are non-empty and
free of the separator.  No XML document carries any other name, and the
two places such a name could enter refuse it: the wire decoder
(:func:`repro.network.wire.decode`) and :class:`XPathExpr` itself.
:func:`path_string` and :func:`compile_xpe` raise ``ValueError`` on one
rather than route around it.  The interpreter
:func:`repro.covering.pathmatch.matches_path_reference` is the test
oracle the compiled form is checked against.

Compilation results are interned on the expression instance (safe:
expressions are immutable, and the :mod:`~repro.xpath.ast` hash/eq
memos already use the same idiom), so each distinct XPE pays the regex
build exactly once per process.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Sequence

from repro import obs
from repro.xpath.ast import WILDCARD, XPathExpr

#: Path-element separator in the compiled string representation.  XML
#: element names can never contain ``/``.
SEP = "/"

#: Regex fragment for one wildcard element.
_ANY_ELEMENT = "[^/]+"
#: Regex fragment for a ``//`` gap: zero or more whole skipped elements.
_GAP = "(?:[^/]+/)*"


@lru_cache(maxsize=8192)
def path_string(path: tuple) -> str:
    """The sentinel-joined string form of a path tuple, LRU-cached.

    Raises ``ValueError`` on an element that is empty or contains the
    separator: the string form could not tell it apart from a longer or
    shorter path.
    """
    for element in path:
        if not element or SEP in element:
            raise ValueError("unrenderable path element %r" % (element,))
    return SEP + SEP.join(path) + SEP


def _segment_pattern(tests: Sequence[str]) -> str:
    """Regex for one ``//``-free run of node tests (with trailing SEP)."""
    parts = []
    for test in tests:
        if test == WILDCARD:
            parts.append(_ANY_ELEMENT)
        elif SEP in test:
            raise ValueError("unrenderable node test %r" % (test,))
        else:
            parts.append(re.escape(test))
        parts.append(SEP)
    return "".join(parts)


def _build_regex(expr: XPathExpr):
    """The bound ``match``/``search`` callable of *expr*'s compiled
    pattern, so the hot path holds a single C function."""
    parts = [SEP]
    for index, segment in enumerate(expr.segments):
        if index:
            parts.append(_GAP)
        parts.append(_segment_pattern(segment))
    pattern = re.compile("".join(parts))
    # An anchored (absolute) expression must place its first segment at
    # path position 0 — regex ``match``; a relative one may start at any
    # element boundary, and every boundary is a SEP — regex ``search``.
    return pattern.match if expr.anchored else pattern.search


class CompiledXPE:
    """One expression, compiled for repeated matching.

    Use :func:`compile_xpe` rather than constructing directly — the
    factory interns instances on the expression.
    """

    __slots__ = ("expr", "min_length", "regex")

    def __init__(self, expr: XPathExpr):
        self.expr = expr
        self.min_length = len(expr.steps)
        #: Bound ``match``/``search`` of the compiled pattern.
        self.regex = _build_regex(expr)

    def matches(self, path: Sequence[str]) -> bool:
        """Does the expression match the publication *path*?"""
        if self.min_length > len(path):
            return False
        text = path_string(path if type(path) is tuple else tuple(path))
        return self.regex(text) is not None

    def __repr__(self):
        return "CompiledXPE(%r)" % str(self.expr)


#: Lifetime compilation tally, published as the
#: ``matching.compiled.compilations`` gauge at every registry snapshot
#: (a plain int here: compilation is already a once-per-expression cold
#: path, and snapshot-time export also captures compilations that
#: happened before metrics were enabled).
_STATS = {"compilations": 0}


@obs.register_collector
def _collect_compile_stats(registry):
    for name, value in _STATS.items():
        registry.gauge("matching.compiled." + name).set(value)


def compile_stats() -> dict:
    """Lifetime compilation count (``compilations``)."""
    return dict(_STATS)


def compile_xpe(expr: XPathExpr) -> CompiledXPE:
    """The interned compiled form of *expr* (compiled on first use)."""
    try:
        return expr._compiled_cache
    except AttributeError:
        pass
    compiled = CompiledXPE(expr)
    object.__setattr__(expr, "_compiled_cache", compiled)
    _STATS["compilations"] += 1
    return compiled
