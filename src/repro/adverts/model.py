"""Advertisement model (paper §3.1).

An advertisement is an absolute XPath-like expression without ``//``,
written ``a = /t1/t2/.../tn`` where every ``ti`` is an element name or a
wildcard.  Advertisements derived from *recursive* DTDs additionally use
the (system-internal) ``(...)+`` operator: ``a = a1(a2)+a3`` means the
group ``a2`` occurs one or more times.  The paper distinguishes
*simple-recursive* (one group), *series-recursive* (groups in sequence)
and *embedded-recursive* (groups inside groups) advertisements.

Here an advertisement is a sequence of nodes; a node is either a
:class:`Lit` (a run of node tests) or a :class:`Rep` (a ``(...)+`` group
whose body is again a sequence of nodes).  ``P(a)`` — the set of
publication paths an advertisement stands for — is the language obtained
by expanding every group one-or-more times.  Intersection with an XPE
never enumerates it (:mod:`repro.adverts.recursive` names the function
each case goes to); :meth:`Advertisement.words_up_to` lists its words
up to a length for the audit oracle, which asks whether one publication
path is a word of ``P(a)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Tuple, Union

from repro.xpath.ast import WILDCARD, XPathExpr


@dataclass(frozen=True)
class Lit:
    """A literal run of node tests (names or wildcards)."""

    tests: Tuple[str, ...]

    def __post_init__(self):
        if not self.tests:
            raise ValueError("a literal advertisement segment cannot be empty")

    def __str__(self):
        return "".join("/%s" % t for t in self.tests)


@dataclass(frozen=True)
class Rep:
    """A ``(...)+`` group: the body repeats one or more times."""

    body: Tuple["AdvNode", ...]

    def __post_init__(self):
        if not self.body:
            raise ValueError("a recursion group cannot be empty")

    def __str__(self):
        return "(%s)+" % "".join(str(node) for node in self.body)


AdvNode = Union[Lit, Rep]


class AdvertisementKind:
    """Classification labels from paper §3.1."""

    NON_RECURSIVE = "non-recursive"
    SIMPLE_RECURSIVE = "simple-recursive"
    SERIES_RECURSIVE = "series-recursive"
    EMBEDDED_RECURSIVE = "embedded-recursive"


@dataclass(frozen=True)
class Advertisement:
    """An advertisement: a sequence of literal runs and recursion groups."""

    nodes: Tuple[AdvNode, ...]

    def __post_init__(self):
        if not self.nodes:
            raise ValueError("an advertisement cannot be empty")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_tests(cls, tests: Sequence[str]):
        """A non-recursive advertisement from plain node tests."""
        return cls(nodes=(Lit(tuple(tests)),))

    @classmethod
    def from_xpath(cls, expr: XPathExpr):
        """Build from an absolute, ``//``-free :class:`XPathExpr`."""
        if not expr.is_absolute or not expr.is_simple:
            raise ValueError(
                "advertisements are absolute //-free expressions, got %s"
                % expr
            )
        return cls.from_tests(expr.tests)

    # -- classification ---------------------------------------------------

    @property
    def is_recursive(self):
        try:
            return self._recursive_cache
        except AttributeError:
            value = any(
                isinstance(node, Rep) for node in _all_nodes(self.nodes)
            )
            object.__setattr__(self, "_recursive_cache", value)
            return value

    @property
    def kind(self):
        """The paper's classification of this advertisement."""
        reps = [node for node in self.nodes if isinstance(node, Rep)]
        if not reps:
            return AdvertisementKind.NON_RECURSIVE
        nested = any(
            isinstance(inner, Rep)
            for rep in reps
            for inner in _all_nodes(rep.body)
        )
        if nested:
            return AdvertisementKind.EMBEDDED_RECURSIVE
        if len(reps) == 1:
            return AdvertisementKind.SIMPLE_RECURSIVE
        return AdvertisementKind.SERIES_RECURSIVE

    # -- language views ----------------------------------------------------

    @property
    def tests(self):
        """The node tests of a non-recursive advertisement.

        Raises ValueError for recursive advertisements, whose length is
        unbounded.
        """
        if self.is_recursive:
            raise ValueError("recursive advertisements have no fixed tests")
        try:
            return self._tests_cache
        except AttributeError:
            value = tuple(test for node in self.nodes for test in node.tests)
            object.__setattr__(self, "_tests_cache", value)
            return value

    def min_length(self):
        """Length of the shortest word of ``P(a)`` (each group once)."""
        return _min_length(self.nodes)

    def symbols(self) -> FrozenSet[str]:
        """Every node test appearing anywhere in the advertisement
        (memoised).  Used for fast subscription rejection: a wildcard-
        free advertisement cannot overlap a subscription that names an
        element outside this set."""
        try:
            return self._symbols_cache
        except AttributeError:
            value = frozenset(
                test
                for node in _all_nodes(self.nodes)
                if isinstance(node, Lit)
                for test in node.tests
            )
            object.__setattr__(self, "_symbols_cache", value)
            return value

    @property
    def has_wildcard(self):
        """Does any node test match every element (memoised: every
        intersection check reads it before its symbol prescreen)?"""
        try:
            return self._wildcard_cache
        except AttributeError:
            value = WILDCARD in self.symbols()
            object.__setattr__(self, "_wildcard_cache", value)
            return value

    @property
    def _expansion_cache(self):
        try:
            return self._expansions
        except AttributeError:
            cache = {}
            object.__setattr__(self, "_expansions", cache)
            return cache

    def words_up_to(self, max_length: int) -> FrozenSet[Tuple[str, ...]]:
        """All complete words of ``P(a)`` of length at most *max_length*
        (memoised per bound — advertisements are matched against many
        subscriptions)."""
        cache = self._expansion_cache
        cached = cache.get(("words", max_length))
        if cached is not None:
            return cached
        results = set()

        def walk(nodes, prefix):
            if len(prefix) > max_length:
                return
            if not nodes:
                results.add(tuple(prefix))
                return
            head, rest = nodes[0], nodes[1:]
            if isinstance(head, Lit):
                walk(rest, prefix + list(head.tests))
            else:
                walk((*head.body, head) + rest, prefix)
                walk((*head.body,) + rest, prefix)

        walk(self.nodes, [])
        value = frozenset(results)
        cache[("words", max_length)] = value
        return value

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return "".join(str(node) for node in self.nodes)

    def __repr__(self):
        return "Advertisement(%r)" % str(self)


def _all_nodes(nodes: Iterable[AdvNode]):
    """Every node in the forest, depth first."""
    for node in nodes:
        yield node
        if isinstance(node, Rep):
            yield from _all_nodes(node.body)


def _min_length(nodes: Sequence[AdvNode]) -> int:
    total = 0
    for node in nodes:
        if isinstance(node, Lit):
            total += len(node.tests)
        else:
            total += _min_length(node.body)
    return total


def simple_recursive(a1, a2, a3) -> Advertisement:
    """Convenience constructor for ``a = a1(a2)+a3`` (paper §3.3).

    ``a1`` and ``a3`` may be empty sequences; ``a2`` must not be.
    """
    nodes: List[AdvNode] = []
    if a1:
        nodes.append(Lit(tuple(a1)))
    nodes.append(Rep((Lit(tuple(a2)),)))
    if a3:
        nodes.append(Lit(tuple(a3)))
    return Advertisement(tuple(nodes))
