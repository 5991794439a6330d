"""Compiled XPE fast path vs. the reference interpreter.

The same matching workload — a PSD query pool probed with every
DTD-derived publication path — timed twice: once through the compiled
dispatch (``repro.xpath.compiled``, the default) and once with the
fast path disabled (``set_compiled_enabled(False)``).  Both tests
assert the identical match count, so the pair doubles as a coarse
differential check; ``tests/test_matcher_differential.py`` carries the
exhaustive one.

The covering benchmark exercises the other compiled consumer:
``covers()`` between simple expressions reduces to one anchored-regex
search (plus the LRU memo on repeat pairs).
"""

import pytest

from repro.covering.algorithms import covers_uncached
from repro.covering.pathmatch import path_matcher
from repro.dtd.paths import enumerate_paths
from repro.dtd.samples import psd_dtd
from repro.workloads.datasets import psd_queries
from repro.xpath.compiled import compile_xpe, set_compiled_enabled


@pytest.fixture(scope="module")
def match_workload():
    exprs = list(psd_queries(300, seed=23).exprs)
    paths = enumerate_paths(psd_dtd(), max_depth=10)
    return exprs, paths


@pytest.fixture
def reference_mode():
    """Run the enclosed benchmark with the compiled fast path off."""
    set_compiled_enabled(False)
    try:
        yield
    finally:
        set_compiled_enabled(True)


def _match_all(exprs, paths):
    total = 0
    for path in paths:
        wants = path_matcher(path, None)
        for expr in exprs:
            if wants(expr):
                total += 1
    return total


def _expected_matches(exprs, paths):
    """Ground truth via the reference interpreter, computed once."""
    set_compiled_enabled(False)
    try:
        return _match_all(exprs, paths)
    finally:
        set_compiled_enabled(True)


def test_match_throughput_compiled(benchmark, match_workload):
    exprs, paths = match_workload
    expected = _expected_matches(exprs, paths)
    for expr in exprs:
        compile_xpe(expr)  # price compilation outside the timed region
    total = benchmark(_match_all, exprs, paths)
    assert total == expected


def test_match_throughput_reference(benchmark, match_workload, reference_mode):
    exprs, paths = match_workload
    total = benchmark(_match_all, exprs, paths)
    assert total == _expected_matches(exprs, paths)


def _covers_all_pairs(exprs):
    hits = 0
    for s1 in exprs:
        for s2 in exprs:
            if covers_uncached(s1, s2):
                hits += 1
    return hits


def test_covers_throughput_compiled(benchmark):
    # covers_uncached keeps the memo out of the loop, so this times the
    # compiled simple-pair fast path (plus the structural fallbacks).
    exprs = list(psd_queries(120, seed=29).exprs)
    hits = benchmark.pedantic(_covers_all_pairs, args=(exprs,), rounds=1, iterations=1)
    assert hits >= len(exprs)  # reflexivity


def test_covers_throughput_reference(benchmark, reference_mode):
    exprs = list(psd_queries(120, seed=29).exprs)
    hits = benchmark.pedantic(_covers_all_pairs, args=(exprs,), rounds=1, iterations=1)
    assert hits >= len(exprs)
