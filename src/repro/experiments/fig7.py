"""Figure 7 — routing table size under covering + merging (Set B).

The paper applies the merging rules on top of covering for Set B:
perfect merging compacts the table to ~87% of the covering-only size,
imperfect merging with ``D_imperfect = 0.1`` to ~67%.
"""

from __future__ import annotations

from typing import Optional

from repro.covering.subscription_tree import SubscriptionTree
from repro.dtd.samples import nitf_dtd
from repro.experiments.common import ExperimentResult, scaled
from repro.merging.engine import MergingEngine, PathUniverse
from repro.workloads.datasets import Dataset, set_b


def run_fig7(
    scale: float = 0.05,
    checkpoints: int = 5,
    imperfect_degree: float = 0.1,
    merge_every: int = 200,
    dataset: Optional[Dataset] = None,
    universe: Optional[PathUniverse] = None,
) -> ExperimentResult:
    """Reproduce Figure 7 (Set B, NITF)."""
    total = scaled(100_000, scale, minimum=checkpoints)
    if dataset is None:
        dataset = set_b(total)
    if universe is None:
        universe = PathUniverse.from_dtd(nitf_dtd(), max_depth=8)

    marks = [
        max(1, (i + 1) * total // checkpoints) for i in range(checkpoints)
    ]
    covering = _run(dataset, marks, merger=None, merge_every=merge_every)
    perfect = _run(
        dataset,
        marks,
        merger=MergingEngine(universe=universe, max_degree=0.0),
        merge_every=merge_every,
    )
    imperfect = _run(
        dataset,
        marks,
        merger=MergingEngine(universe=universe, max_degree=imperfect_degree),
        merge_every=merge_every,
    )

    result = ExperimentResult(
        name="Figure 7 — RTS with merging (Set B)",
        columns=(
            "subscriptions",
            "covering",
            "perfect_merging",
            "imperfect_merging",
        ),
        notes=(
            "imperfect merging degree <= %.2f; paper reports perfect "
            "merging ~87%% and D=0.1 ~67%% of the covering-only table."
            % imperfect_degree
        ),
    )
    for mark, c, p, i in zip(marks, covering, perfect, imperfect):
        result.add_row(
            subscriptions=mark,
            covering=c,
            perfect_merging=p,
            imperfect_merging=i,
        )
    return result


def _run(dataset, marks, merger, merge_every):
    tree = SubscriptionTree()
    sizes = []
    mark_iter = iter(marks)
    next_mark = next(mark_iter)
    for index, expr in enumerate(dataset.exprs, start=1):
        tree.add(expr, index)
        if merger is not None and index % merge_every == 0:
            merger.merge_tree(tree)
        if index == next_mark:
            if merger is not None:
                merger.merge_tree(tree)
            sizes.append(tree.top_level_size())
            try:
                next_mark = next(mark_iter)
            except StopIteration:
                break
    while len(sizes) < len(marks):
        sizes.append(tree.top_level_size())
    return sizes
