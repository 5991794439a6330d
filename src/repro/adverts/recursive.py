"""The intersection decision for any advertisement (paper §3.2–3.3).

:func:`expr_and_advertisement` is the one entry brokers call.  Each
(advertisement kind × XPE shape) cell goes to exactly one function:

* non-recursive — the paper's ``AbsExprAndAdv`` / ``RelExprAndAdv`` /
  ``DesExprAndAdv`` (:mod:`repro.adverts.matching`) by XPE shape;
* simple-recursive × absolute simple XPE —
  :func:`abs_expr_and_sim_rec_adv`, the paper's Figure 3 algorithm
  for ``a = a1(a2)+a3`` with two errata fixed (documented on the
  function);
* every other recursive cell (simple-recursive × relative or ``//``
  XPE, series- and embedded-recursive × any XPE) — the exact NFA
  product of :mod:`repro.adverts.nfa`.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.adverts.matching import (
    abs_expr_and_adv,
    des_expr_and_adv,
    node_tests_overlap,
    rel_expr_and_adv,
)
from repro.adverts.model import Advertisement, Lit, Rep
from repro.adverts.nfa import expr_and_advert_nfa
from repro.xpath.ast import XPathExpr


def _block_overlaps(block: Sequence[str], sub_tests: Sequence[str]) -> bool:
    """Pairwise overlap of a test block against a same-or-shorter slice."""
    if len(sub_tests) > len(block):
        return False
    return all(
        node_tests_overlap(block[i], sub_tests[i]) for i in range(len(sub_tests))
    )


def abs_expr_and_sim_rec_adv(a1, a2, a3, sub: XPathExpr) -> bool:
    """``AbsExprAndSimRecAdv`` (paper Figure 3): absolute simple XPE vs.
    ``a = a1(a2)+a3``.

    ``a1``/``a2``/``a3`` are test sequences; ``a1`` and ``a3`` may be
    empty, ``a2`` must not be.

    Two errata relative to the printed pseudo-code are fixed (the test
    suite cross-checks against the exact NFA matcher):

    * Line 5's ``q = Int((|s|-|a1a2a3|)/|a2|) + 1`` overshoots by one
      when the difference divides evenly (the intended value is a
      ceiling), and the loop starting at ``c = q`` leaves the repetition
      blocks before ``q`` unverified.  Here every block is verified,
      and the ``a3``-fit test simply skips counts where the remainder
      of ``s`` is still longer than ``a3``.
    * When all trailing blocks of ``s`` overlap repetitions of ``a2``
      (including a final partial block), a sufficiently deep expansion
      matches ``s`` as a path prefix regardless of ``a3``, so the
      algorithm must answer 1 — including when ``a3`` is empty, a case
      the printed loop can skip entirely.
    """
    if not a2:
        raise ValueError("the recursive pattern a2 cannot be empty")
    s = sub.tests
    a2 = tuple(a2)
    a3 = tuple(a3)
    head = tuple(a1) + a2
    if len(s) <= len(head):
        return _block_overlaps(head, s)
    if not _block_overlaps(head, s[: len(head)]):
        return False

    tail_len = len(s) - len(head)  # steps of s beyond a1 a2
    # p: the number of complete extra a2-repetitions that fit in the tail.
    p = tail_len // len(a2)
    for c in range(p + 1):
        rest = s[len(head) + c * len(a2):]
        # Try to finish the match in a3 after c extra repetitions; the
        # length check inside _block_overlaps subsumes the paper's q.
        if len(rest) <= len(a3) and _block_overlaps(a3, rest):
            return True
        if c == p:
            # The final (possibly partial, possibly empty) block: if it
            # overlaps a prefix of a2, a deeper expansion matches s.
            return _block_overlaps(a2, rest)
        block = s[len(head) + c * len(a2): len(head) + (c + 1) * len(a2)]
        if not _block_overlaps(a2, block):
            return False
    raise AssertionError("unreachable: the c == p branch always returns")


def expr_and_advertisement(advert: Advertisement, sub: XPathExpr) -> bool:
    """Top-level intersection test used by brokers: any supported XPE
    shape against any advertisement (recursive or not).

    A symbol-set prescreen rejects most non-matches cheaply: with no
    wildcards on the advertisement side, every concrete subscription
    test must pair with an equal advertisement symbol, so a
    subscription naming a foreign element can never overlap.
    """
    registry = obs.get_registry()
    if not registry.enabled:
        return _expr_and_advertisement(advert, sub)
    with registry.timer("adverts.intersect"):
        result = _expr_and_advertisement(advert, sub)
    registry.counter(
        "adverts.intersect.hit" if result else "adverts.intersect.miss"
    ).inc()
    return result


def _expr_and_advertisement(advert: Advertisement, sub: XPathExpr) -> bool:
    if not advert.has_wildcard:
        symbols = advert.symbols()
        for test in sub.tests:
            if test != "*" and test not in symbols:
                return False
    if not advert.is_recursive:
        tests = advert.tests
        if sub.is_simple and sub.is_absolute:
            return abs_expr_and_adv(tests, sub)
        if sub.is_simple:
            return rel_expr_and_adv(tests, sub)
        return des_expr_and_adv(tests, sub)
    if (
        advert.kind == "simple-recursive"
        and sub.is_simple
        and sub.is_absolute
    ):
        a1, a2, a3 = _decompose_simple(advert)
        return abs_expr_and_sim_rec_adv(a1, a2, a3, sub)
    return expr_and_advert_nfa(advert, sub)


def _decompose_simple(advert: Advertisement):
    """Split a simple-recursive advertisement into ``(a1, a2, a3)``."""
    a1, a2, a3 = (), (), ()
    seen_rep = False
    for node in advert.nodes:
        if isinstance(node, Rep):
            if seen_rep or not all(
                isinstance(inner, Lit) for inner in node.body
            ):
                raise ValueError("not a simple-recursive advertisement")
            for inner in node.body:
                a2 = a2 + inner.tests
            seen_rep = True
        elif not seen_rep:
            a1 = a1 + node.tests
        else:
            a3 = a3 + node.tests
    return a1, a2, a3
