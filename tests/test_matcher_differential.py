"""Differential test: every matching engine agrees on every workload.

A broker matches publications on one of three structures with one
contract — add an XPE under a key, remove it, and match a publication
path to a set of keys: the flat :class:`LinearMatcher`, the covering
:class:`SubscriptionTree` and the shared-NFA
:class:`SharedAutomatonMatcher`.  Hypothesis drives DTD-derived XPE
workloads with interleaved add and remove operations through all three
side by side, against a brute-force oracle: the keys
of every active XPE that the reference interpreter
(:func:`matches_path_reference`) accepts.  Any disagreement on any
publication path is a bug in at least one engine.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.covering.pathmatch import (
    matches_path,
    matches_path_reference,
    path_matcher,
)
from repro.covering.subscription_tree import SubscriptionTree
from repro.dtd.paths import enumerate_paths
from repro.dtd.samples import nitf_dtd, psd_dtd
from repro.matching import LinearMatcher, SharedAutomatonMatcher
from repro.workloads.xpath_generator import XPathWorkloadParams, generate_queries
from repro.xpath import XPathExpr, parse_xpath
from repro.xpath.compiled import compile_xpe, path_string


def _brute_force():
    """Brute force: every active ``(expr, key)`` the reference
    interpreter accepts contributes its key."""
    active = {}

    def add(expr, key):
        active[expr, key] = None

    def remove(expr, key):
        active.pop((expr, key), None)

    def match(path):
        return {
            key for expr, key in active
            if matches_path_reference(expr, path)
        }

    return add, remove, match


def _linear():
    matcher = LinearMatcher()
    return matcher.add, matcher.remove, matcher.match


def _tree():
    tree = SubscriptionTree()
    return tree.add, tree.remove, tree.match


def _shared():
    matcher = SharedAutomatonMatcher()
    return matcher.add, matcher.remove, matcher.match


#: ``name -> factory`` of ``(add, remove, match)``; the first is the
#: oracle every other engine is checked against.
ENGINES = {
    "reference": _brute_force,
    "LinearMatcher": _linear,
    "SubscriptionTree": _tree,
    "SharedAutomatonMatcher": _shared,
}

DTD = psd_dtd()
PATHS = enumerate_paths(DTD, max_depth=10)
QUERY_POOL = generate_queries(
    DTD,
    80,
    params=XPathWorkloadParams(
        wildcard_prob=0.3,
        descendant_prob=0.3,
        relative_prob=0.3,
        wildcard_min_position=0,
    ),
    seed=1234,
)


def run_differential(ops, paths, pool):
    """Apply one interleaved add/remove schedule to every engine and
    assert identical match sets on every probe path."""
    engines = {name: factory() for name, factory in ENGINES.items()}
    active = set()
    for add, index in ops:
        expr, key = pool[index]
        if add and index not in active:
            active.add(index)
            for insert, _, _ in engines.values():
                insert(expr, key)
        elif not add and index in active:
            active.discard(index)
            for _, remove, _ in engines.values():
                remove(expr, key)
    (reference, (_, _, expect)), *others = engines.items()
    for path in paths:
        expected = expect(path)
        for name, (_, _, match) in others:
            got = match(path)
            assert got == expected, (
                "%s disagrees with %s on %r: %r != %r (active: %s)"
                % (
                    name,
                    reference,
                    path,
                    sorted(map(str, got)),
                    sorted(map(str, expected)),
                    sorted(str(pool[i][0]) for i in active),
                )
            )


STRUCTURAL_POOL = [
    (expr, "q%d" % i) for i, expr in enumerate(QUERY_POOL)
]


@settings(max_examples=200)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, len(STRUCTURAL_POOL) - 1)),
        min_size=1,
        max_size=40,
    ),
    path_indices=st.lists(
        st.integers(0, len(PATHS) - 1), min_size=1, max_size=8
    ),
)
def test_engines_agree_on_dtd_workloads(ops, path_indices):
    run_differential(
        ops, [PATHS[i] for i in path_indices], STRUCTURAL_POOL
    )


# -- attribute-annotated publications -------------------------------------

CLAIMS_POOL = [
    (parse_xpath(text), text)
    for text in (
        "/claims/claim",
        "//claim/amount",
        "//amount",
        "/claims//amount",
        "claim/amount",
        "/claims/*",
        "//claim",
        "/claims/claim/amount",
    )
]

CLAIMS_PATHS = (
    ("claims", "claim", "amount"),
    ("claims", "claim"),
    ("claims", "claim", "policy"),
    ("archive", "claims", "claim", "amount"),
)


@settings(max_examples=200)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, len(CLAIMS_POOL) - 1)),
        min_size=1,
        max_size=20,
    ),
    path_index=st.integers(0, len(CLAIMS_PATHS) - 1),
    langs=st.lists(
        st.sampled_from(["de", "en", None]), min_size=4, max_size=4
    ),
    urgent=st.booleans(),
    currency=st.sampled_from(["EUR", "USD", None]),
)
def test_engines_agree_on_attribute_predicates(
    ops, path_index, langs, urgent, currency
):
    """The engines agree, and a publication's attributes never change a
    match: the routing language has no predicates to read them."""
    path = CLAIMS_PATHS[path_index]
    attributes = []
    for element, lang in zip(path, langs):
        attrs = {}
        if lang is not None:
            attrs["lang"] = lang
        if element == "claim" and urgent:
            attrs["urgent"] = "1"
        if element == "amount" and currency is not None:
            attrs["currency"] = currency
        attributes.append(attrs)
    for expr, _ in CLAIMS_POOL:
        assert matches_path_reference(expr, path, attributes) == (
            matches_path(expr, path)
        )
    run_differential(ops, [path], CLAIMS_POOL)


def test_second_dtd_smoke():
    """The differential harness holds on a second, recursive DTD."""
    dtd = nitf_dtd()
    paths = enumerate_paths(dtd, max_depth=8)[:40]
    pool = [
        (expr, "n%d" % i)
        for i, expr in enumerate(
            generate_queries(
                dtd,
                40,
                params=XPathWorkloadParams(
                    wildcard_prob=0.25, descendant_prob=0.35
                ),
                seed=77,
            )
        )
    ]
    ops = [(True, i) for i in range(len(pool))] + [
        (False, i) for i in range(0, len(pool), 3)
    ]
    run_differential(ops, paths, pool)


def test_engines_agree_under_reference_interpreter():
    """The oracle every run checks against is the reference interpreter
    itself, not one of the engines: on the second DTD each engine's
    match set equals the brute-force reference match set."""
    assert next(iter(ENGINES)) == "reference"
    test_second_dtd_smoke()


# -- compiled XPE vs. reference interpreter --------------------------------

_ELEMENT_NAMES = ("a", "b", "c", "d")
#: Path element names holding regex metacharacters: a path string must
#: carry them as plain text.
_METACHAR_NAMES = ("a.b", "a+", "(c)", "$")

_step = st.tuples(
    st.sampled_from(("/", "//", "")),  # "" = relative start (first step only)
    st.sampled_from(_ELEMENT_NAMES + ("*",)),
)


@st.composite
def xpe_texts(draw):
    steps = draw(st.lists(_step, min_size=1, max_size=5))
    parts = []
    for index, (sep, test) in enumerate(steps):
        if index == 0:
            sep = sep or ""  # "a/..." is a relative expression
        else:
            sep = sep or "/"
        parts.append(sep + test)
    return "".join(parts)


#: Path elements include a literal "*" — a legal (if perverse) element
#: name that only a wildcard test may match — and names with regex
#: metacharacters.
publication_paths = st.lists(
    st.sampled_from(_ELEMENT_NAMES + _METACHAR_NAMES + ("*", "e")),
    min_size=0,
    max_size=7,
).map(tuple)


@settings(max_examples=400)
@given(text=xpe_texts(), path=publication_paths)
def test_compiled_matches_equals_reference(text, path):
    """`CompiledXPE.matches` ≡ the reference interpreter for random
    XPEs and paths."""
    expr = parse_xpath(text)
    expected = matches_path_reference(expr, path)
    assert compile_xpe(expr).matches(path) == expected
    # The bulk-matcher variant (precomputed path string) agrees too.
    assert path_matcher(path)(expr) == expected
    # And so does the public dispatch.
    assert matches_path(expr, path) == expected


def test_unrenderable_names_are_refused():
    """An empty element name, or one holding the separator, has no
    string form: the expression and the path string refuse it."""
    for tests in (("a", "x/y"), ("a", "")):
        with pytest.raises(ValueError):
            XPathExpr.from_tests(tests)
    for path in (("a", ""), ("a", "x/y")):
        with pytest.raises(ValueError):
            path_string(path)


#: Deterministic `//`/`*` edge cases: wildcard-only segments, a
#: relative infix that must land at the very end of the path, gaps of
#: length zero, anchored-vs-relative boundary alignment, and paths
#: shorter than the expression.
_EDGE_EXPRS = (
    "/a",
    "a",
    "*",
    "*/*",
    "//*",
    "/*/*",
    "//*/*",
    "/a//*",
    "a//*",
    "//a//b",
    "/a//a//a",
    "b/c",
    "//b/c",
    "a/*/c",
    "//c",
    "/a/b/c",
    "*//c",
    "//*//c",
)

_EDGE_PATHS = (
    (),
    ("a",),
    ("b",),
    ("*",),
    ("a", "b"),
    ("a", "b", "c"),
    ("a", "a", "a"),
    ("a", "x", "b", "c"),
    ("b", "c"),
    ("c", "b"),
    ("a", "b", "c", "d"),
    ("x", "a", "b", "c"),
    ("a", "a"),
)


def test_compiled_edge_cases_match_reference():
    for text in _EDGE_EXPRS:
        expr = parse_xpath(text)
        compiled = compile_xpe(expr)
        for path in _EDGE_PATHS:
            expected = matches_path_reference(expr, path)
            assert compiled.matches(path) == expected, (
                "%r vs %r: compiled %r, reference %r"
                % (text, path, compiled.matches(path), expected)
            )
