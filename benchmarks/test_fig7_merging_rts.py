"""Figure 7 benchmark: routing-table size under covering + merging."""

import pytest

from repro.covering.subscription_tree import SubscriptionTree
from repro.experiments.fig7 import run_fig7
from repro.merging.engine import MergingEngine


@pytest.mark.paper
def test_fig7_merging_rts(benchmark, paper_sets, nitf_universe, report_sink):
    _, dataset_b = paper_sets
    scale = len(dataset_b) / 100_000.0
    result = benchmark.pedantic(
        lambda: run_fig7(
            scale=scale, dataset=dataset_b, universe=nitf_universe
        ),
        rounds=1,
        iterations=1,
    )
    report_sink.append(result.format())

    covering = result.column("covering")[-1]
    perfect = result.column("perfect_merging")[-1]
    imperfect = result.column("imperfect_merging")[-1]
    # Paper shape: perfect merging compacts the covering table (~87%),
    # imperfect merging compacts it further (~67%).
    assert perfect <= covering
    assert imperfect <= perfect
    assert imperfect < covering


@pytest.mark.paper
def test_fig7_merge_sweep_cost(benchmark, paper_sets, nitf_universe):
    """Microbenchmark: one merging sweep over a populated tree."""
    _, dataset_b = paper_sets
    tree = SubscriptionTree()
    for index, expr in enumerate(dataset_b.exprs[:800]):
        tree.add(expr, index)
    engine = MergingEngine(universe=nitf_universe, max_degree=0.1)

    benchmark.pedantic(
        lambda: engine.merge_tree(tree), rounds=1, iterations=1
    )
