"""Figure 6 benchmark: routing-table size vs. number of XPEs.

Times the covering-tree insertion workload and regenerates the figure's
series (no-covering vs. covering on Sets A and B).
"""

import pytest

from repro.covering.subscription_tree import SubscriptionTree
from repro.experiments.fig6 import run_fig6


@pytest.mark.paper
def test_fig6_routing_table_size(benchmark, paper_sets, report_sink):
    dataset_a, dataset_b = paper_sets
    scale = len(dataset_a) / 100_000.0

    result = benchmark.pedantic(
        lambda: run_fig6(
            scale=scale, dataset_a=dataset_a, dataset_b=dataset_b
        ),
        rounds=1,
        iterations=1,
    )
    report_sink.append(result.format())

    sizes_a = result.column("covering_set_a")
    sizes_b = result.column("covering_set_b")
    totals = result.column("no_covering")
    # Paper shape: covering shrinks the table dramatically; Set A (90%
    # covering) ends far smaller than Set B (50%).
    assert sizes_a[-1] < sizes_b[-1] < totals[-1]
    assert sizes_a[-1] <= 0.2 * totals[-1]
    assert 0.4 * totals[-1] <= sizes_b[-1] <= 0.6 * totals[-1]


@pytest.mark.paper
def test_fig6_insert_throughput(benchmark, paper_sets):
    """Microbenchmark: covering-tree insertion cost on Set B."""
    _, dataset_b = paper_sets
    exprs = dataset_b.exprs[:500]

    def insert_all():
        tree = SubscriptionTree()
        for index, expr in enumerate(exprs):
            tree.add(expr, index)
        return tree

    tree = benchmark(insert_all)
    assert len(tree) == len(exprs)
