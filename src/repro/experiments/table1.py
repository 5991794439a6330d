"""Table 1 — publication routing time per message.

The paper routes 23,098 publication paths (from 500 XML documents)
against 100,000 NITF XPEs and reports the mean routing time per
publication under four configurations::

    Method              Set A (ms)   Set B (ms)
    No Covering         13.96        14.23
    Covering             2.15         7.47
    Perfect Merging      1.87         6.88
    Imperfect Merging    1.27         6.38

Covering helps Set A (90% covered → a tiny tree) far more than Set B;
merging compacts the table further.  The shape — ordering of the four
methods and a much larger win on Set A — is the reproduction target.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.covering.subscription_tree import SubscriptionTree
from repro.dtd.samples import nitf_dtd
from repro.experiments.common import ExperimentResult, scaled
from repro.matching.engine import LinearMatcher
from repro.merging.engine import MergingEngine, PathUniverse
from repro.workloads.datasets import Dataset, set_a, set_b
from repro.workloads.document_generator import generate_documents


def run_table1(
    scale: float = 0.02,
    documents: int = 20,
    imperfect_degree: float = 0.1,
    dataset_a: Optional[Dataset] = None,
    dataset_b: Optional[Dataset] = None,
    universe: Optional[PathUniverse] = None,
) -> ExperimentResult:
    """Reproduce Table 1.

    Args:
        scale: fraction of the paper's 100,000 XPEs.
        documents: NITF documents to decompose into publications
            (paper: 500).
    """
    total = scaled(100_000, scale)
    if dataset_a is None:
        dataset_a = set_a(total)
    if dataset_b is None:
        dataset_b = set_b(total)
    if universe is None:
        universe = PathUniverse.from_dtd(nitf_dtd(), max_depth=8)

    docs = generate_documents(
        nitf_dtd(), documents, seed=11, target_bytes=2048
    )
    paths = [
        publication.path
        for doc in docs
        for publication in doc.publications()
    ]

    result = ExperimentResult(
        name="Table 1 — Publication Routing Performance",
        columns=("method", "set_a_ms", "set_b_ms"),
        notes=(
            "%d XPEs per set, %d publication paths from %d documents. "
            "Paper (100k XPEs, C++): 13.96/14.23 -> 2.15/7.47 -> "
            "1.87/6.88 -> 1.27/6.38 ms." % (total, len(paths), documents)
        ),
    )

    rows = {
        "No Covering": (_no_covering, {}),
        "Covering": (_covering, {}),
        "Perfect Merging": (
            _covering,
            {"merger": MergingEngine(universe=universe, max_degree=0.0)},
        ),
        "Imperfect Merging": (
            _covering,
            {
                "merger": MergingEngine(
                    universe=universe, max_degree=imperfect_degree
                )
            },
        ),
    }
    for method, (runner, kwargs) in rows.items():
        ms_a = runner(dataset_a.exprs, paths, **kwargs)
        ms_b = runner(dataset_b.exprs, paths, **kwargs)
        result.add_row(method=method, set_a_ms=ms_a, set_b_ms=ms_b)
    return result


def _route_all(matcher_match, paths) -> float:
    """Mean milliseconds to match one publication path."""
    start = time.perf_counter()
    for path in paths:
        matcher_match(path)
    return 1e3 * (time.perf_counter() - start) / max(1, len(paths))


def _no_covering(exprs: Sequence, paths: Sequence) -> float:
    table = LinearMatcher()
    for index, expr in enumerate(exprs):
        table.add(expr, index)
    return _route_all(table.match, paths)


def _covering(
    exprs: Sequence,
    paths: Sequence,
    merger: Optional[MergingEngine] = None,
    merge_every: int = 500,
) -> float:
    tree = SubscriptionTree()
    for index, expr in enumerate(exprs):
        tree.add(expr, index)
        if merger is not None and (index + 1) % merge_every == 0:
            merger.merge_tree(tree)
    if merger is not None:
        merger.merge_tree(tree)
    return _route_all(tree.match, paths)
