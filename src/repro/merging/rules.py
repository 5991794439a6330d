"""The XPE merging rules (paper §4.3).

When subscriptions are not in a covering relation they may still be
*merged* into a more general XPE whose publication set contains the
union of theirs.  Three rules, in increasing generality:

1. **one element difference** — ``a/*/c/d`` and ``a/*/c/e`` merge to
   ``a/*/c/*`` (any number of candidates);
2. **two differences** — an element difference plus a ``/`` vs. ``//``
   operator difference: ``/a/c/*/*`` and ``/a//c/*/c`` merge to
   ``/a//c/*/*``;
3. **general** — equal prefix and suffix with arbitrary differing
   middles: the middles are replaced by a single ``//``.

Every rule returns a merger that *covers* each input (checked by an
assertion in debug builds, and by the property-based test suite); the
merger may be perfect (``P(s) = ∪ P(si)``) or imperfect, which
:mod:`repro.merging.engine` quantifies against a DTD path universe.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.xpath.ast import Axis, Step, WILDCARD, XPathExpr


def _same_shape(exprs: Sequence[XPathExpr]) -> bool:
    """Same anchoring, length and axis sequence."""
    first = exprs[0]
    return all(
        e.rooted == first.rooted
        and len(e.steps) == len(first.steps)
        and all(
            e.steps[i].axis is first.steps[i].axis
            for i in range(len(e.steps))
        )
        for e in exprs[1:]
    )


def merge_one_difference(exprs: Sequence[XPathExpr]) -> Optional[XPathExpr]:
    """Rule 1: same shape, tests equal everywhere except one position
    where all candidates carry (distinct) element names.

    Returns the merger with a wildcard at the differing position, or
    None when the rule does not apply.  Two or more candidates allowed.
    """
    if len(exprs) < 2 or not _same_shape(exprs):
        return None
    first = exprs[0]
    diff_position = None
    for i in range(len(first.steps)):
        tests = {e.steps[i].test for e in exprs}
        if len(tests) == 1:
            continue
        if diff_position is not None:
            return None  # more than one differing position
        if WILDCARD in tests:
            # A wildcard at the differing position means a covering
            # relation, which the subscription tree already handles.
            return None
        diff_position = i
    if diff_position is None:
        return None  # identical expressions
    steps = list(first.steps)
    steps[diff_position] = Step(steps[diff_position].axis, WILDCARD)
    return XPathExpr(steps=tuple(steps), rooted=first.rooted)


def merge_two_differences(s1: XPathExpr, s2: XPathExpr) -> Optional[XPathExpr]:
    """Rule 2: one element difference plus one ``/`` vs. ``//`` operator
    difference.  The merger takes ``*`` and ``//`` at those positions.

    When only the operator differs the expressions are in a covering
    relation (the ``//`` one covers the other) and the rule does not
    apply — covering handles it.
    """
    if s1.rooted != s2.rooted or len(s1.steps) != len(s2.steps):
        return None
    element_diffs: List[int] = []
    operator_diffs: List[int] = []
    for i in range(len(s1.steps)):
        if s1.steps[i].test != s2.steps[i].test:
            element_diffs.append(i)
        if s1.steps[i].axis is not s2.steps[i].axis:
            operator_diffs.append(i)
    if len(element_diffs) != 1 or len(operator_diffs) != 1:
        return None
    # Unlike rule 1, a wildcard on one side of the element difference is
    # fine here (the paper's own example merges /a/c/*/* with /a//c/*/c):
    # the operator difference prevents a covering relation.
    i = element_diffs[0]
    j = operator_diffs[0]
    if j == 0 and s1.rooted:
        return None  # a rooted expression cannot start with //
    steps = list(s1.steps)
    steps[i] = Step(steps[i].axis, WILDCARD)
    steps[j] = Step(Axis.DESCENDANT, steps[j].test)
    if i == j:
        steps[i] = Step(Axis.DESCENDANT, WILDCARD)
    return XPathExpr(steps=tuple(steps), rooted=s1.rooted)


def merge_general(s1: XPathExpr, s2: XPathExpr) -> Optional[XPathExpr]:
    """Rule 3: equal (axis+test) prefix and suffix, arbitrary differing
    middles replaced by a ``//`` operator.

    Applied only when both prefix and suffix are non-empty — the paper
    warns the rule "is applied if most parts in two subscriptions are
    equal, otherwise more false positives will be introduced"; callers
    additionally gate on the imperfection degree.
    """
    if s1.rooted != s2.rooted:
        return None
    steps1, steps2 = s1.steps, s2.steps
    if steps1 == steps2:
        return None
    prefix = 0
    limit = min(len(steps1), len(steps2))
    while prefix < limit and steps1[prefix] == steps2[prefix]:
        prefix += 1
    suffix = 0
    while (
        suffix < limit - prefix
        and steps1[len(steps1) - 1 - suffix] == steps2[len(steps2) - 1 - suffix]
    ):
        suffix += 1
    if prefix == 0 or suffix == 0:
        return None
    # Both expressions must actually have a differing middle; when one
    # middle is empty the other expression inserts steps between prefix
    # and suffix, and // still covers the empty middle? No: // requires
    # the suffix strictly below the prefix, which an empty middle only
    # satisfies when the suffix directly follows — that is exactly a
    # child step, covered by //. Empty middles are therefore fine.
    merged_steps = list(steps1[:prefix])
    tail = list(steps1[len(steps1) - suffix:])
    tail[0] = Step(Axis.DESCENDANT, tail[0].test)
    merged_steps.extend(tail)
    return XPathExpr(steps=tuple(merged_steps), rooted=s1.rooted)


def merge_pair(s1: XPathExpr, s2: XPathExpr) -> Optional[XPathExpr]:
    """Try the rules in order of precision: 1, then 2, then 3."""
    merger = merge_one_difference([s1, s2])
    if merger is not None:
        return merger
    merger = merge_two_differences(s1, s2)
    if merger is not None:
        return merger
    return merge_general(s1, s2)
