"""Ablations of individual algorithm choices called out in DESIGN.md.

* KMP vs. the naive scan in relative-XPE/advertisement matching (§3.2's
  claimed optimisation),
* the paper's Figure 3 algorithm vs. the exact NFA product matcher for
  simple-recursive advertisements,
* eager vs. lazy super-pointer maintenance in the subscription tree
  (the cost the paper warns about in §4.1),
* merge-interval sensitivity of the merging engine.
"""

import random

import pytest

from repro.adverts.generator import generate_advertisements
from repro.adverts.matching import rel_expr_and_adv, rel_expr_and_adv_naive
from repro.adverts.nfa import expr_and_advert_nfa
from repro.adverts.recursive import (
    _decompose_simple,
    abs_expr_and_sim_rec_adv,
)
from repro.covering.subscription_tree import SubscriptionTree
from repro.dtd.samples import nitf_dtd
from repro.merging.engine import MergingEngine
from repro.workloads.xpath_generator import (
    XPathWorkloadParams,
    generate_queries,
)


@pytest.fixture(scope="module")
def nitf_queries_abs():
    params = XPathWorkloadParams(
        wildcard_prob=0.0, descendant_prob=0.0, relative_prob=0.0, min_length=3
    )
    return generate_queries(nitf_dtd(), 200, params=params, seed=31)


@pytest.fixture(scope="module")
def simple_recursive_adverts():
    return [
        advert
        for advert in generate_advertisements(nitf_dtd())
        if advert.kind == "simple-recursive"
    ]


@pytest.mark.paper
def test_kmp_vs_naive(benchmark):
    """KMP only engages on wildcard-free inputs; measure that case."""
    rng = random.Random(7)
    alphabet = ["a", "b", "c"]
    adverts = [
        tuple(rng.choice(alphabet) for _ in range(12)) for _ in range(300)
    ]
    params = XPathWorkloadParams(
        wildcard_prob=0.0, descendant_prob=0.0, relative_prob=1.0, min_length=2
    )
    queries = generate_queries(nitf_dtd(), 50, params=params, seed=8)

    def run(matcher):
        hits = 0
        for sub in queries:
            for advert in adverts:
                if matcher(advert, sub):
                    hits += 1
        return hits

    fast = benchmark.pedantic(
        lambda: run(rel_expr_and_adv), rounds=1, iterations=1
    )
    assert fast == run(rel_expr_and_adv_naive)


@pytest.mark.paper
def test_fig3_vs_nfa(
    benchmark, nitf_queries_abs, simple_recursive_adverts
):
    """The paper-faithful Figure 3 algorithm against the generic NFA on
    the same (absolute XPE, simple-recursive advert) pairs; both answers
    must agree."""
    adverts = simple_recursive_adverts[:150]
    decomposed = [(a, _decompose_simple(a)) for a in adverts]

    def run_fig3():
        return sum(
            abs_expr_and_sim_rec_adv(a1, a2, a3, sub)
            for sub in nitf_queries_abs
            for _a, (a1, a2, a3) in decomposed
        )

    def run_nfa():
        return sum(
            expr_and_advert_nfa(advert, sub)
            for sub in nitf_queries_abs
            for advert, _parts in decomposed
        )

    fig3_hits = benchmark.pedantic(run_fig3, rounds=1, iterations=1)
    assert fig3_hits == run_nfa()


@pytest.mark.paper
def test_super_pointer_cost(benchmark, paper_sets):
    """Eager super-pointer maintenance is the O(n)-per-insert cost the
    paper postpones; quantify it against the lazy default."""
    _, dataset_b = paper_sets
    exprs = dataset_b.exprs[:300]

    def build(eager):
        tree = SubscriptionTree(eager_super_pointers=eager)
        for index, expr in enumerate(exprs):
            tree.add(expr, index)
        return tree

    eager_tree = benchmark.pedantic(
        lambda: build(True), rounds=1, iterations=1
    )
    lazy_tree = build(False)
    assert len(eager_tree) == len(lazy_tree)
    assert eager_tree.top_level_size() == lazy_tree.top_level_size()


@pytest.mark.paper
@pytest.mark.parametrize("interval", [50, 200, 800])
def test_merge_interval_sweep(benchmark, paper_sets, nitf_universe, interval):
    """Merging more often finds the same final table — the sweep is
    idempotent — but costs proportionally more sweeps."""
    _, dataset_b = paper_sets
    exprs = dataset_b.exprs[:800]

    def run():
        tree = SubscriptionTree()
        engine = MergingEngine(universe=nitf_universe, max_degree=0.1)
        for index, expr in enumerate(exprs):
            tree.add(expr, index)
            if (index + 1) % interval == 0:
                engine.merge_tree(tree)
        engine.merge_tree(tree)
        return tree.top_level_size()

    benchmark.pedantic(run, rounds=1, iterations=1)
