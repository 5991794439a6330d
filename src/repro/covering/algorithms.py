"""Covering (containment) detection between XPEs (paper §4.2).

``s1`` covers ``s2`` iff ``P(s1) ⊇ P(s2)`` — every publication path
matched by ``s2`` is also matched by ``s1``.  Covering-based routing
*requires soundness*: a wrong "covers" answer drops subscriptions and
loses messages, while a missed one merely costs routing-table size.  The
implementations below are sound; :func:`des_cov` is additionally
conservative in rare wildcard-crossing corner cases (documented inline)
and its soundness is model-checked against a brute-force oracle in the
test suite.

Algorithms, named as in the paper:

* :func:`abs_sim_cov` — two absolute simple XPEs,
* :func:`rel_sim_cov` — relative simple ``s1`` against simple ``s2``
  (the string-matching formulation, KMP-optimised when wildcard-free),
* :func:`des_cov`     — the general case with ``//`` operators.

:func:`covers` dispatches by shape after cheap prechecks (identity,
length, element names, equality), which decide most of the pairs that
subscription-tree descents and merge scans ask.  Nothing is
memoised: the algorithms above are the only covering implementation,
and every pair that passes the prechecks runs one of them.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.covering.rules import covers_block, covers_test
from repro.xpath.ast import WILDCARD, XPathExpr


def abs_sim_cov(s1: XPathExpr, s2: XPathExpr) -> bool:
    """``AbsSimCov``: absolute simple ``s1`` covers absolute simple ``s2``.

    ``s1`` must be no longer than ``s2`` (a shorter XPE constrains fewer
    positions, hence has the larger publication set) and each of its
    tests must cover the corresponding test of ``s2``.
    """
    t1, t2 = s1.tests, s2.tests
    if len(t1) > len(t2):
        return False
    return covers_block(t1, t2)


def rel_sim_cov(s1: XPathExpr, s2: XPathExpr) -> bool:
    """``RelSimCov``: relative simple ``s1`` covers simple ``s2``
    (absolute or relative).

    ``s1`` covers ``s2`` iff ``s1``'s tests cover a contiguous slice of
    ``s2``'s tests: the adversarial publication instantiates every
    wildcard and every surrounding position of ``s2`` with fresh element
    names, so ``s1`` can only rely on positions constrained by ``s2``.
    The paper notes this is again a string-matching problem: KMP when
    both sides are wildcard-free, the naive O(k·n) scan otherwise.
    """
    t1, t2 = s1.tests, s2.tests
    if len(t1) > len(t2):
        return False
    if WILDCARD not in t1 and WILDCARD not in t2:
        return _kmp_contains(t2, t1)
    return any(
        covers_block(t1, t2, offset) for offset in range(len(t2) - len(t1) + 1)
    )


def _kmp_contains(text: Sequence[str], pattern: Sequence[str]) -> bool:
    """KMP substring search (exact symbols, no wildcards)."""
    failure = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k > 0 and pattern[i] != pattern[k]:
            k = failure[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        failure[i] = k
    k = 0
    for symbol in text:
        while k > 0 and symbol != pattern[k]:
            k = failure[k - 1]
        if symbol == pattern[k]:
            k += 1
        if k == len(pattern):
            return True
    return False


def des_cov(s1: XPathExpr, s2: XPathExpr) -> bool:
    """``DesCov``: the general covering test for XPEs with ``//``.

    ``s1``'s ``//``-free segments must embed, in order, into ``s2``'s
    segments.  A segment must normally fit inside a single ``s2``
    segment — an ``s1`` segment cannot straddle a ``//`` of ``s2``
    because the descendant gap may contain arbitrarily many arbitrary
    elements.  The one exception is the paper's special case: a *suffix
    of wildcards* may spill across the boundary, since a wildcard covers
    whatever the gap or the following segment holds.  After spilling
    ``k`` wildcards, the next segment's search resumes ``k`` positions
    into the following ``s2`` segment — the worst case of a zero-length
    gap — which keeps the answer sound for every gap length.

    Placements never extend past ``s2``'s final segment: a publication
    may end exactly where ``s2``'s match ends.
    """
    if s1.is_absolute and s2.is_relative:
        return False
    if len(s1) > len(s2):
        return False
    segments1 = s1.segments
    segments2 = s2.segments

    j, o = 0, 0
    for index, segment in enumerate(segments1):
        anchored = index == 0 and s1.anchored
        if anchored:
            placed = _place_segment(segment, segments2, 0, 0)
        else:
            placed = _search_segment(segment, segments2, j, o)
        if placed is None:
            return False
        j, o = placed
    return True


def _search_segment(
    segment: Sequence[str],
    segments2: Sequence[Sequence[str]],
    j: int,
    o: int,
) -> Optional[Tuple[int, int]]:
    """Earliest placement of *segment* at or after position ``(j, o)``.

    Earliest placement is optimal: it leaves maximal room for the
    remaining segments, and placements are monotone in the start
    position.
    """
    for jj in range(j, len(segments2)):
        start = o if jj == j else 0
        for oo in range(start, len(segments2[jj]) + 1):
            placed = _place_segment(segment, segments2, jj, oo)
            if placed is not None:
                return placed
    return None


def _place_segment(
    segment: Sequence[str],
    segments2: Sequence[Sequence[str]],
    jj: int,
    oo: int,
) -> Optional[Tuple[int, int]]:
    """Try to place *segment* starting exactly at ``(jj, oo)``.

    Returns the position just past the placement, or None.  Once the
    placement crosses a ``//`` boundary only wildcards are accepted
    (see :func:`des_cov`).
    """
    crossed = False
    for test in segment:
        if oo == len(segments2[jj]):
            jj += 1
            oo = 0
            crossed = True
            if jj == len(segments2):
                return None
        if crossed:
            if test != WILDCARD:
                return None
        elif not covers_test(test, segments2[jj][oo]):
            return None
        oo += 1
    return jj, oo


def covers(s1: XPathExpr, s2: XPathExpr) -> bool:
    """``s1 ⊒ s2``: cheap prechecks, then the shape-appropriate
    algorithm (:func:`covers_uncached`).

    The prechecks reject or accept without running an algorithm:

    * identity;
    * length — a coverer is never longer than the covered expression,
      because the adversarial publication instantiates exactly
      ``len(s2)`` elements, leaving a longer ``s1`` nothing to match;
    * names — every concrete element name of ``s1`` occurs in ``s2``.
      The witness: instantiate ``s2`` with a fresh name for each ``*``
      and a zero gap for each ``//``.  That path matches ``s2``, and an
      ``s1`` naming an element absent from it cannot match it;
    * equality, last: a pair the names reject is never equal.
    """
    if s1 is s2:
        return True
    if len(s1.steps) > len(s2.steps):
        return False
    if not s1.names <= s2.names:
        return False
    if s1 == s2:
        return True
    return covers_uncached(s1, s2)


def covers_uncached(s1: XPathExpr, s2: XPathExpr) -> bool:
    """``s1 ⊒ s2``: dispatch to the shape-appropriate algorithm.

    The two subscription-tree search properties of paper §4.1 (an
    absolute XPE is never covered by a longer one; a relative XPE is
    never covered by an absolute one) fall out of the length and
    anchoring prechecks here.
    """
    if s1 == s2:
        return True
    if s1.is_simple and s1.is_absolute and s2.is_relative:
        # The paper's rule "an absolute XPE cannot cover a relative one"
        # has one exception: an all-wildcard absolute prefix /*/.../*
        # matches every path of sufficient length, hence covers any XPE
        # with at least as many steps.
        return len(s1.steps) <= len(s2.steps) and not s1.names
    if s1.is_simple and s2.is_simple:
        if s1.is_absolute:
            return abs_sim_cov(s1, s2)
        return rel_sim_cov(s1, s2)
    return des_cov(s1, s2)
