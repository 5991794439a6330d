"""Publication-path vs. XPE matching.

A publication is a root-to-leaf path of concrete element names (paper
§3.1).  An XPE matches a publication when it selects a node on the
path:

* an absolute XPE must cover a *prefix* of the path,
* a relative XPE must cover some contiguous *infix*,
* ``//`` splits the XPE into segments that must cover disjoint infixes
  in order (the first anchored at position 0 for absolute XPEs).

Greedy earliest placement is exact (path elements are concrete, so
segment feasibility is monotone in the start position).  A
publication's attribute annotation never enters a match: the routing
language has no predicates.

:func:`matches_path` dispatches through the compiled fast path
(:mod:`repro.xpath.compiled`) by default; the interpreter below is kept
verbatim as :func:`matches_path_reference`, the differential oracle the
compiled forms are tested against (and the runtime fallback while
``set_compiled_enabled(False)`` is in force).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.xpath import compiled as _compiled
from repro.xpath.ast import WILDCARD, XPathExpr

def _tests_at(segment, path, offset):
    """Does the segment of bare tests match *path* at *offset*?"""
    if offset + len(segment) > len(path):
        return False
    for i, test in enumerate(segment):
        if test != WILDCARD and test != path[offset + i]:
            return False
    return True


def matches_path(expr: XPathExpr, path: Sequence[str]) -> bool:
    """True when *expr* matches the publication *path*.

    Dispatches through the compiled form of *expr* unless the compiled
    fast path is disabled (``set_compiled_enabled(False)``), in which
    case the reference interpreter runs.

    Args:
        expr: the XPE.
        path: root-to-leaf element names.
    """
    if _compiled.ENABLED:
        return _compiled.compile_xpe(expr).matches(path)
    return matches_path_reference(expr, path)


def path_matcher(path: Sequence[str]):
    """A ``expr -> bool`` callable specialised to one publication path.

    Bulk matchers (linear scan, subscription tree, edge-delivery
    recheck) probe many expressions against the same path; this renders
    the compiled path string **once** and hands every probe the
    precomputed text, instead of re-deriving it per expression.
    """
    if _compiled.ENABLED:
        text = _compiled.path_string(
            path if type(path) is tuple else tuple(path)
        )
        compile_xpe = _compiled.compile_xpe

        def check(expr: XPathExpr) -> bool:
            compiled = getattr(expr, "_compiled_cache", None)
            if compiled is None:
                compiled = compile_xpe(expr)
            # Inline the regex common case: a pattern needing more
            # elements than the path holds simply fails to match, so
            # the min-length precheck is redundant here.
            regex = compiled.regex
            if regex is not None and text is not None:
                return regex(text) is not None
            return compiled.matches_text(text, path)

        return check

    def check_reference(expr: XPathExpr) -> bool:
        return matches_path_reference(expr, path)

    return check_reference


def matches_path_reference(
    expr: XPathExpr,
    path: Sequence[str],
    attributes: Optional[Sequence] = None,
) -> bool:
    """The interpreted matcher (differential oracle for the compiled
    fast path; semantics documented on :func:`matches_path`).

    *attributes* is accepted and never read: the routing language has
    no predicates, but the end-to-end benchmark's oracle still passes a
    publication's attribute maps here.
    """
    if len(expr) > len(path):
        return False
    position = 0
    for index, segment in enumerate(expr.segments):
        if index == 0 and expr.anchored:
            if not _tests_at(segment, path, 0):
                return False
            position = len(segment)
            continue
        placed = False
        for offset in range(position, len(path) - len(segment) + 1):
            if _tests_at(segment, path, offset):
                position = offset + len(segment)
                placed = True
                break
        if not placed:
            return False
    return True


def matches_document_paths(expr: XPathExpr, paths) -> bool:
    """True when *expr* matches at least one root-to-leaf path of a
    document given as an iterable of paths."""
    return any(matches_path(expr, path) for path in paths)
