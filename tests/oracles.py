"""Reference matchers the tests check production code against.

:func:`expr_and_rec_adv_expansion` decides XPE/advertisement
intersection by enumerating bounded fragments of the advertisement's
path language ``P(a)``.  It is exponential in the worst case, and
independent of the NFA product (:mod:`repro.adverts.nfa`) that the
brokers run, which is why the property tests compare the two.
"""

from typing import FrozenSet, Tuple

from repro.adverts.matching import (
    abs_expr_and_adv,
    des_expr_and_adv,
    rel_expr_and_adv,
)
from repro.adverts.model import Advertisement, Lit, Rep, _all_nodes, _min_length
from repro.xpath.ast import XPathExpr


def prefixes(advert: Advertisement, length: int) -> FrozenSet[Tuple[str, ...]]:
    """All length-*length* prefixes of words of ``P(a)``.

    A word shorter than *length* contributes nothing — an absolute XPE
    of *length* steps cannot match a shorter publication.  The result is
    exact: every returned prefix extends to at least one full word, and
    every word of length >= *length* is represented.
    """
    if length <= 0:
        raise ValueError("prefix length must be positive")
    results = set()

    def walk(nodes, prefix):
        if len(prefix) >= length:
            results.add(tuple(prefix[:length]))
            return
        if not nodes:
            return
        head, rest = nodes[0], nodes[1:]
        if isinstance(head, Lit):
            walk(rest, prefix + list(head.tests))
        else:
            # Unroll the group once, then either leave it or repeat.
            walk((*head.body, head) + rest, prefix)
            walk((*head.body,) + rest, prefix)

    walk(advert.nodes, [])
    return frozenset(results)


def _all_reps(nodes):
    for node in _all_nodes(nodes):
        if isinstance(node, Rep):
            yield node


def expansion_bound(advert: Advertisement, xpe_length: int) -> int:
    """A word-length bound sufficient for matching an XPE of
    *xpe_length* steps against *advert*.

    Any infix or prefix match of an XPE with ``k`` steps touches at most
    ``k`` consecutive path positions; pumping each ``(...)+`` group
    beyond ``k + 1`` repetitions cannot create new matches, so words of
    length ``min_length + groups * (k + 1) * max_unit`` are enough to
    witness every possible match.
    """
    groups = sum(1 for _ in _all_reps(advert.nodes))
    if groups == 0:
        return advert.min_length()
    max_unit = max(_min_length(rep.body) for rep in _all_reps(advert.nodes))
    return advert.min_length() + groups * (xpe_length + 1) * max_unit


def expr_and_rec_adv_expansion(advert: Advertisement, sub: XPathExpr) -> bool:
    """Bounded-expansion reference matcher.

    Enumerates the finitely many relevant expansions of the
    advertisement:

    * absolute simple XPE — the advertisement's length-``|s|`` word
      prefixes (a shorter word cannot match an absolute XPE; a longer
      word matches iff its prefix overlaps the XPE),
    * relative / descendant XPE — every complete word up to the pumping
      bound of :func:`expansion_bound`.
    """
    if sub.is_simple and sub.is_absolute:
        # Each prefix has exactly |s| tests, so AbsExprAndAdv is the
        # pairwise overlap of prefix and XPE.
        return any(
            abs_expr_and_adv(prefix, sub) for prefix in prefixes(advert, len(sub))
        )

    bound = expansion_bound(advert, len(sub))
    words = advert.words_up_to(bound)
    if sub.is_simple:
        return any(rel_expr_and_adv(word, sub) for word in words)
    return any(des_expr_and_adv(word, sub) for word in words)
