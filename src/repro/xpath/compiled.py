"""Compiled XPE matching (the interpretation-free fast path).

Every publication match used to walk :class:`~repro.xpath.ast.XPathExpr`
segments in Python — the per-step interpretation overhead that compiled
filter indexes (YFilter [Diao et al., TODS 2003], XTrie) were designed
to eliminate.  This module compiles each expression **once** into a
:class:`CompiledXPE`:

Each expression becomes one anchored regular expression over a
sentinel-joined path string.  A publication path ``(a, b, c)`` is
rendered as ``"/a/b/c/"``; each ``//``-free segment compiles to its
element names joined by ``/`` (wildcards become ``[^/]+``), segments
are connected by ``(?:[^/]+/)*`` (zero or more whole skipped elements —
exactly the descendant gap), and absolute expressions anchor with
``re.match`` while relative ones ``re.search`` from any element
boundary.  Matching then runs entirely inside CPython's regex engine.
The one input a regex cannot represent — an element name containing
the separator, possible only through hand-built expressions or paths —
goes to the reference interpreter
(:func:`repro.covering.pathmatch.matches_path_reference`).

Compilation results are interned on the expression instance (safe:
expressions are immutable, and the :mod:`~repro.xpath.ast` hash/eq
memos already use the same idiom), so each distinct XPE pays the regex
build exactly once per process.

The same compiled regexes double as **covering** accelerators: for two
simple (``//``-free) expressions, ``s1 ⊒ s2`` is the regex of ``s1``
run over the sentinel-joined *node tests* of ``s2`` — a wildcard test
in ``s2`` is just another symbol, which only ``s1``'s wildcard pattern
can absorb, reproducing ``covers_test`` exactly.

The fast path is always on; :func:`set_compiled_enabled` switches it
off so the differential tests can reach the reference interpreter and
assert both modes agree on every engine and workload.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional, Sequence

from repro import obs
from repro.xpath.ast import WILDCARD, XPathExpr

#: Path-element separator in the compiled string representation.  XML
#: element names can never contain ``/``; inputs that do (possible only
#: through hand-built expressions) fall back to the reference interpreter.
SEP = "/"

#: Module-level switch read by every dispatch site.  Mutate through
#: :func:`set_compiled_enabled` only.
ENABLED = True

#: Regex fragment for one wildcard element.
_ANY_ELEMENT = "[^/]+"
#: Regex fragment for a ``//`` gap: zero or more whole skipped elements.
_GAP = "(?:[^/]+/)*"


def compiled_enabled() -> bool:
    """Is the compiled fast path currently active?"""
    return ENABLED


def set_compiled_enabled(flag: bool) -> bool:
    """Toggle the compiled fast path at runtime (returns the new value).

    The reference interpreter in :mod:`repro.covering.pathmatch` and the
    interpreted covering algorithms take over while disabled; compiled
    objects already interned on expressions are kept (they are inert).
    """
    global ENABLED
    ENABLED = bool(flag)
    return ENABLED


@lru_cache(maxsize=8192)
def path_string(path: tuple) -> Optional[str]:
    """The sentinel-joined string form of a path tuple, LRU-cached.

    Returns None when an element contains the separator (cannot be
    represented; callers fall back to the interpreted matcher).
    """
    for element in path:
        if SEP in element:
            return None
    return SEP + SEP.join(path) + SEP


def _segment_pattern(tests: Sequence[str]) -> Optional[str]:
    """Regex for one ``//``-free run of node tests (with trailing SEP)."""
    parts = []
    for test in tests:
        if test == WILDCARD:
            parts.append(_ANY_ELEMENT)
        elif SEP in test:
            return None
        else:
            parts.append(re.escape(test))
        parts.append(SEP)
    return "".join(parts)


def _build_regex(expr: XPathExpr):
    """The compiled pattern for *expr*, or None on a separator
    collision.  Returns the bound ``match``/``search`` callable so the
    hot path holds a single C function."""
    parts = [SEP]
    for index, segment in enumerate(expr.segments):
        if index:
            parts.append(_GAP)
        segment_pattern = _segment_pattern(segment)
        if segment_pattern is None:
            return None
        parts.append(segment_pattern)
    pattern = re.compile("".join(parts))
    # An anchored (absolute) expression must place its first segment at
    # path position 0 — regex ``match``; a relative one may start at any
    # element boundary, and every boundary is a SEP — regex ``search``.
    return pattern.match if expr.anchored else pattern.search


def _reference(expr: XPathExpr, path) -> bool:
    """The separator-collision fallback: the reference interpreter
    (imported here because :mod:`repro.covering.pathmatch` imports
    this module)."""
    from repro.covering.pathmatch import matches_path_reference

    return matches_path_reference(expr, path)


class CompiledXPE:
    """One expression, compiled for repeated matching.

    Use :func:`compile_xpe` rather than constructing directly — the
    factory interns instances on the expression.
    """

    __slots__ = ("expr", "min_length", "regex")

    def __init__(self, expr: XPathExpr):
        self.expr = expr
        self.min_length = len(expr.steps)
        #: Bound ``match``/``search`` of the compiled pattern, or None
        #: on a separator collision.
        self.regex = _build_regex(expr)

    def matches(self, path: Sequence[str]) -> bool:
        """Equivalent of :func:`repro.covering.pathmatch.matches_path`."""
        if self.min_length > len(path):
            return False
        if self.regex is not None:
            text = path_string(path if type(path) is tuple else tuple(path))
            if text is not None:
                return self.regex(text) is not None
        return _reference(self.expr, path)

    def matches_text(self, text: Optional[str], path) -> bool:
        """Like :meth:`matches` with the path string precomputed — bulk
        matchers render the path once and probe many expressions."""
        if self.min_length > len(path):
            return False
        if self.regex is not None and text is not None:
            return self.regex(text) is not None
        return _reference(self.expr, path)

    def __repr__(self):
        return "CompiledXPE(%r)" % str(self.expr)


#: Lifetime compilation tallies, published as ``matching.compiled.*``
#: gauges at every registry snapshot (plain ints here: compilation is
#: already a once-per-expression cold path, and snapshot-time export
#: also captures compilations that happened before metrics were
#: enabled).
_STATS = {"compilations": 0, "regex": 0}


@obs.register_collector
def _collect_compile_stats(registry):
    for name, value in _STATS.items():
        registry.gauge("matching.compiled." + name).set(value)


def compile_stats() -> dict:
    """Lifetime compilation counts (``compilations``/``regex``)."""
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
    if compiled.regex is not None:
        _STATS["regex"] += 1
    return compiled


def covers_simple(s1: XPathExpr, tests2: tuple) -> Optional[bool]:
    """Compiled covering check for simple shapes: does simple *s1*
    cover the expression whose node tests are *tests2*?

    Runs ``s1``'s compiled regex over the sentinel-joined *tests2*
    string — node tests of the covered side are treated as concrete
    symbols, so a wildcard there is absorbed only by a wildcard in
    ``s1``, which is exactly ``covers_test``.  Returns None when the
    compiled form does not apply (separator collision) and
    the caller must use the interpreted algorithm.
    """
    compiled = compile_xpe(s1)
    if compiled.regex is None:
        return None
    text = path_string(tests2)
    if text is None:
        return None
    return compiled.regex(text) is not None
