"""Compiled XPE matching vs. the reference interpreter, and covering.

The same matching workload — a PSD query pool probed with every
DTD-derived publication path — timed twice: once through
``path_matcher`` (the compiled regex of ``repro.xpath.compiled``, the
one production matcher) and once through ``matches_path_reference``
called directly.  Both tests assert the identical match count, so the
pair doubles as a coarse differential check;
``tests/test_matcher_differential.py`` carries the exhaustive one.

The covering benchmark times ``covers_uncached`` over every ordered
pair of a query pool: the paper's ``AbsSimCov`` / ``RelSimCov`` /
``DesCov`` with the prechecks of ``covers`` kept out of the loop.
"""

import pytest

from repro.covering.algorithms import covers_uncached
from repro.covering.pathmatch import matches_path_reference, path_matcher
from repro.dtd.paths import enumerate_paths
from repro.dtd.samples import psd_dtd
from repro.workloads.datasets import psd_queries
from repro.xpath.compiled import compile_xpe


@pytest.fixture(scope="module")
def match_workload():
    exprs = list(psd_queries(300, seed=23).exprs)
    paths = enumerate_paths(psd_dtd(), max_depth=10)
    return exprs, paths


def _match_all(exprs, paths):
    total = 0
    for path in paths:
        wants = path_matcher(path)
        for expr in exprs:
            if wants(expr):
                total += 1
    return total


def _match_all_reference(exprs, paths):
    total = 0
    for path in paths:
        for expr in exprs:
            if matches_path_reference(expr, path):
                total += 1
    return total


def test_match_throughput_compiled(benchmark, match_workload):
    exprs, paths = match_workload
    expected = _match_all_reference(exprs, paths)
    for expr in exprs:
        compile_xpe(expr)  # price compilation outside the timed region
    total = benchmark(_match_all, exprs, paths)
    assert total == expected


def test_match_throughput_reference(benchmark, match_workload):
    exprs, paths = match_workload
    total = benchmark(_match_all_reference, exprs, paths)
    assert total == _match_all(exprs, paths)


def _covers_all_pairs(exprs):
    hits = 0
    for s1 in exprs:
        for s2 in exprs:
            if covers_uncached(s1, s2):
                hits += 1
    return hits


def test_covers_throughput(benchmark):
    exprs = list(psd_queries(120, seed=29).exprs)
    hits = benchmark.pedantic(_covers_all_pairs, args=(exprs,), rounds=1, iterations=1)
    assert hits >= len(exprs)  # reflexivity
