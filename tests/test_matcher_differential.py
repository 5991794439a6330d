"""Differential test: every matching engine agrees on every workload.

The repo carries five matching engines with one contract —
``add(expr, key)`` / ``remove(expr, key)`` / ``match(path, attributes)
-> set of keys`` — implemented five very different ways (linear scan,
covering-tree pruning, counting predicate index, YFilter-style NFA,
lazy-DFA shared automaton).  Hypothesis drives DTD-derived XPE
workloads with interleaved add and remove operations through all five
side by side; any disagreement on any publication path is a bug in at
least one engine.
"""

from hypothesis import given, settings, strategies as st

from repro.covering.pathmatch import (
    matches_path,
    matches_path_reference,
    path_matcher,
)
from repro.dtd.paths import enumerate_paths
from repro.dtd.samples import nitf_dtd, psd_dtd
from repro.matching import (
    LinearMatcher,
    PredicateIndexMatcher,
    SharedAutomatonMatcher,
    TreeMatcher,
    YFilterMatcher,
)
from repro.workloads.xpath_generator import XPathWorkloadParams, generate_queries
from repro.xpath import parse_xpath
from repro.xpath.compiled import compile_xpe, set_compiled_enabled

ENGINES = (
    LinearMatcher,
    TreeMatcher,
    PredicateIndexMatcher,
    YFilterMatcher,
    SharedAutomatonMatcher,
)

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


def run_differential(ops, paths, pool, attributes=None):
    """Apply one interleaved add/remove schedule to every engine and
    assert identical match sets on every probe path."""
    engines = [cls() for cls in ENGINES]
    active = set()
    for add, index in ops:
        expr, key = pool[index]
        if add and index not in active:
            active.add(index)
            for engine in engines:
                engine.add(expr, key)
        elif not add and index in active:
            active.discard(index)
            for engine in engines:
                engine.remove(expr, key)
    reference = engines[0]
    for path in paths:
        expected = reference.match(path, attributes)
        for engine in engines[1:]:
            got = engine.match(path, attributes)
            assert got == expected, (
                "%s disagrees with %s on %r: %r != %r (active: %s)"
                % (
                    type(engine).__name__,
                    type(reference).__name__,
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


# -- predicate workloads ---------------------------------------------------

PREDICATE_POOL = [
    (parse_xpath(text), text)
    for text in (
        "/claims/claim[@urgent]",
        "/claims/claim[@lang='de']",
        "/claims/claim[@lang!='de']",
        "//claim[@urgent]/amount",
        "//amount",
        "/claims//amount[@currency='EUR']",
        "claim/amount",
        "/claims/*[@lang='en']",
        "//claim[@lang='de'][@urgent]",
        "/claims/claim/amount",
    )
]

PREDICATE_PATHS = (
    ("claims", "claim", "amount"),
    ("claims", "claim"),
    ("claims", "claim", "policy"),
    ("archive", "claims", "claim", "amount"),
)


@settings(max_examples=200)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, len(PREDICATE_POOL) - 1)),
        min_size=1,
        max_size=20,
    ),
    path_index=st.integers(0, len(PREDICATE_PATHS) - 1),
    langs=st.lists(
        st.sampled_from(["de", "en", None]), min_size=4, max_size=4
    ),
    urgent=st.booleans(),
    currency=st.sampled_from(["EUR", "USD", None]),
)
def test_engines_agree_on_attribute_predicates(
    ops, path_index, langs, urgent, currency
):
    path = PREDICATE_PATHS[path_index]
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
    run_differential(ops, [path], PREDICATE_POOL, attributes=attributes)


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
    """The four-engine differential holds with the compiled fast path
    disabled (``set_compiled_enabled(False)``) — every engine falls back to
    the reference interpreter and still agrees."""
    set_compiled_enabled(False)
    try:
        test_second_dtd_smoke()
    finally:
        set_compiled_enabled(True)


# -- compiled XPE vs. reference interpreter --------------------------------

_ELEMENT_NAMES = ("a", "b", "c", "d")
_ATTR_CHOICES = (
    None,
    {},
    {"k": "1"},
    {"k": "2"},
    {"j": "2"},
    {"k": "1", "j": "2"},
)

_step = st.tuples(
    st.sampled_from(("/", "//", "")),  # "" = relative start (first step only)
    st.sampled_from(_ELEMENT_NAMES + ("*",)),
    st.sampled_from(("", "[@k]", "[@k='1']", "[@k!='1']", "[@j='2']")),
)


@st.composite
def xpe_texts(draw):
    steps = draw(st.lists(_step, min_size=1, max_size=5))
    parts = []
    for index, (sep, test, predicate) in enumerate(steps):
        if index == 0:
            sep = sep or ""  # "a/..." is a relative expression
        else:
            sep = sep or "/"
        parts.append(sep + test + predicate)
    return "".join(parts)


@st.composite
def publication_paths(draw):
    # Path elements include a literal "*" — a legal (if perverse)
    # element name that only a wildcard test may match.
    elements = draw(
        st.lists(
            st.sampled_from(_ELEMENT_NAMES + ("*", "e")),
            min_size=0,
            max_size=7,
        )
    )
    attributes = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from(_ATTR_CHOICES[1:]),
                min_size=len(elements),
                max_size=len(elements),
            ).map(tuple),
        )
    )
    return tuple(elements), attributes


@settings(max_examples=400)
@given(text=xpe_texts(), probe=publication_paths())
def test_compiled_matches_equals_reference(text, probe):
    """`CompiledXPE.matches` ≡ the reference interpreter for random
    XPEs and paths, attribute predicates included."""
    path, attributes = probe
    expr = parse_xpath(text)
    expected = matches_path_reference(expr, path, attributes)
    assert compile_xpe(expr).matches(path, attributes) == expected
    # The bulk-matcher variant (precomputed path string) agrees too.
    assert path_matcher(path, attributes)(expr) == expected
    # And the public dispatch agrees in both flag modes.
    assert matches_path(expr, path, attributes) == expected
    set_compiled_enabled(False)
    try:
        assert matches_path(expr, path, attributes) == expected
    finally:
        set_compiled_enabled(True)


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
