"""Figure 6 — routing table size vs. number of XPath queries.

The paper inserts 100,000 NITF XPEs from two data sets (Set A: 90%
covering rate, Set B: 50%) and plots the routing table size with and
without the covering optimisation.  Without covering the table grows
linearly (every distinct XPE is stored and forwarded); with covering
only the non-covered XPEs remain — ~10% for Set A, ~50% for Set B.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.covering.subscription_tree import SubscriptionTree
from repro.experiments.common import ExperimentResult, scaled
from repro.workloads.datasets import Dataset, set_a, set_b


def run_fig6(
    scale: float = 0.1,
    checkpoints: int = 5,
    dataset_a: Optional[Dataset] = None,
    dataset_b: Optional[Dataset] = None,
) -> ExperimentResult:
    """Reproduce Figure 6.

    Args:
        scale: fraction of the paper's 100,000 XPEs to use.
        checkpoints: number of x-axis points.
        dataset_a / dataset_b: pre-built workloads (generated at the
            right size when omitted).
    """
    total = scaled(100_000, scale, minimum=checkpoints)
    if dataset_a is None:
        dataset_a = set_a(total)
    if dataset_b is None:
        dataset_b = set_b(total)

    result = ExperimentResult(
        name="Figure 6 — Routing Table Size (RTS)",
        columns=(
            "queries",
            "no_covering",
            "covering_set_a",
            "covering_set_b",
        ),
        notes=(
            "Set A covering rate %.2f, Set B %.2f (paper: 0.90 / 0.50). "
            "no_covering applies to both sets (table = all queries)."
            % (dataset_a.target_covering_rate, dataset_b.target_covering_rate)
        ),
    )

    marks = [
        max(1, (i + 1) * total // checkpoints) for i in range(checkpoints)
    ]
    sizes_a = _progressive_sizes(dataset_a.exprs, marks)
    sizes_b = _progressive_sizes(dataset_b.exprs, marks)
    for mark, size_a, size_b in zip(marks, sizes_a, sizes_b):
        result.add_row(
            queries=mark,
            no_covering=mark,
            covering_set_a=size_a,
            covering_set_b=size_b,
        )
    return result


def _progressive_sizes(exprs: Sequence, marks) -> list:
    """Top-level table size after each checkpoint's worth of inserts."""
    tree = SubscriptionTree()
    sizes = []
    mark_iter = iter(marks)
    next_mark = next(mark_iter)
    for index, expr in enumerate(exprs, start=1):
        tree.add(expr, index)
        if index == next_mark:
            sizes.append(tree.top_level_size())
            try:
                next_mark = next(mark_iter)
            except StopIteration:
                break
    while len(sizes) < len(marks):
        sizes.append(tree.top_level_size())
    return sizes
