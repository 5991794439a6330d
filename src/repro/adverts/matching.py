"""Subscription/advertisement intersection for non-recursive
advertisements (paper §3.2).

An advertisement ``a`` matches a subscription ``s`` when their
publication sets overlap: ``P(a) ∩ P(s) ≠ ∅``.  Publications in ``P(a)``
are paths of exactly the advertisement's length whose elements pairwise
overlap with the advertisement's tests; a subscription matches a
publication when it selects a node on the path (a prefix for absolute
XPEs, an infix for relative ones, ordered infix segments when ``//``
operators are present).

Three algorithms, named as in the paper:

* :func:`abs_expr_and_adv`  — absolute simple XPEs,
* :func:`rel_expr_and_adv`  — relative simple XPEs (KMP-optimised when
  both sides are wildcard-free),
* :func:`des_expr_and_adv`  — XPEs with descendant operators.

:func:`repro.adverts.recursive.expr_and_advertisement` dispatches on
the XPE's shape.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.xpath.ast import WILDCARD, XPathExpr


def node_tests_overlap(advert_test: str, sub_test: str) -> bool:
    """The overlap rules of Figure 2(b): wildcards overlap everything;
    two element names overlap only when equal."""
    return (
        advert_test == WILDCARD
        or sub_test == WILDCARD
        or advert_test == sub_test
    )


def abs_expr_and_adv(advert_tests: Sequence[str], sub: XPathExpr) -> bool:
    """``AbsExprAndAdv``: absolute simple XPE vs. advertisement tests.

    Publications of ``P(a)`` have exactly ``len(advert_tests)`` elements,
    so an XPE longer than the advertisement cannot match (paper §3.2).
    Otherwise every (advert, sub) test pair up to the XPE length must
    overlap.
    """
    sub_tests = sub.tests
    if len(sub_tests) > len(advert_tests):
        return False
    return all(
        node_tests_overlap(advert_tests[i], sub_tests[i])
        for i in range(len(sub_tests))
    )


def _prefix_overlaps(advert_tests, sub_tests, offset) -> bool:
    """Pairwise overlap of *sub_tests* against *advert_tests* at *offset*."""
    return all(
        node_tests_overlap(advert_tests[offset + i], sub_tests[i])
        for i in range(len(sub_tests))
    )


def rel_expr_and_adv_naive(
    advert_tests: Sequence[str], sub: XPathExpr
) -> bool:
    """The naive O(n·k) algorithm for relative simple XPEs: try every
    start offset in the advertisement."""
    sub_tests = sub.tests
    k, n = len(sub_tests), len(advert_tests)
    if k > n:
        return False
    return any(
        _prefix_overlaps(advert_tests, sub_tests, offset)
        for offset in range(n - k + 1)
    )


def _kmp_failure(pattern: Sequence[str]) -> Tuple[int, ...]:
    """Classic KMP failure function for a wildcard-free pattern."""
    failure = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k > 0 and pattern[i] != pattern[k]:
            k = failure[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        failure[i] = k
    return tuple(failure)


def _kmp_search(text: Sequence[str], pattern: Sequence[str]) -> bool:
    """KMP substring search over element-name sequences (no wildcards)."""
    failure = _kmp_failure(pattern)
    k = 0
    for symbol in text:
        while k > 0 and symbol != pattern[k]:
            k = failure[k - 1]
        if symbol == pattern[k]:
            k += 1
        if k == len(pattern):
            return True
    return False


def rel_expr_and_adv(advert_tests: Sequence[str], sub: XPathExpr) -> bool:
    """``RelExprAndAdv``: relative simple XPE vs. advertisement tests.

    The paper notes this is a string-matching problem and applies KMP
    (§3.2).  A wildcard on either side breaks the transitivity the KMP
    failure function relies on, so KMP runs only in the wildcard-free
    case; otherwise the naive scan is used.  A property-based test
    checks both paths agree.
    """
    sub_tests = sub.tests
    if len(sub_tests) > len(advert_tests):
        return False
    if WILDCARD in sub_tests or WILDCARD in advert_tests:
        return rel_expr_and_adv_naive(advert_tests, sub)
    return _kmp_search(advert_tests, sub_tests)


def des_expr_and_adv(advert_tests: Sequence[str], sub: XPathExpr) -> bool:
    """``DesExprAndAdv``: XPEs containing ``//`` vs. advertisement tests.

    The XPE is split at ``//`` operators into maximal simple segments;
    the segments must overlap disjoint regions of the advertisement in
    order.  The first segment is anchored at position 0 when the XPE is
    absolute.  The greedy earliest-placement strategy is optimal here:
    placing a segment at its earliest feasible position maximises the
    room left for the remaining segments.
    """
    segments = sub.segments
    total = sum(len(segment) for segment in segments)
    if total > len(advert_tests):
        return False

    position = 0
    for index, segment in enumerate(segments):
        if index == 0 and sub.anchored:
            if not _prefix_overlaps(advert_tests, segment, 0):
                return False
            position = len(segment)
            continue
        placed = False
        last_start = len(advert_tests) - len(segment)
        for offset in range(position, last_start + 1):
            if _prefix_overlaps(advert_tests, segment, offset):
                position = offset + len(segment)
                placed = True
                break
        if not placed:
            return False
    return True
