"""Figure 8 — XPE processing time with and without covering.

Processing an incoming XPE means deciding where to forward it.  Without
covering every XPE is matched against all stored advertisements; with
covering an XPE that is covered by an existing one skips advertisement
matching entirely.  The gain is larger for NITF than for PSD because
the NITF DTD yields ~35x more advertisements (§5).

The runner reports the cumulative-average processing time per XPE at
each 10%-of-workload checkpoint, mirroring the paper's per-500-XPE data
points.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.adverts.generator import generate_advertisements
from repro.adverts.recursive import expr_and_advertisement
from repro.covering.subscription_tree import SubscriptionTree
from repro.dtd.samples import nitf_dtd, psd_dtd
from repro.experiments.common import ExperimentResult, scaled
from repro.workloads.xpath_generator import (
    XPathWorkloadParams,
    generate_queries,
)


def run_fig8(
    scale: float = 0.2,
    checkpoints: int = 10,
    seed: int = 7,
) -> ExperimentResult:
    """Reproduce Figure 8.

    The paper issues 5000 XPEs per DTD; organically generated query
    sets reach high covering fractions on both DTDs (the paper reports
    90% covered for PSD).
    """
    total = scaled(5000, scale, minimum=checkpoints)
    result = ExperimentResult(
        name="Figure 8 — XPE processing time",
        columns=(
            "xpes",
            "nitf_with_cov_ms",
            "nitf_without_cov_ms",
            "psd_with_cov_ms",
            "psd_without_cov_ms",
        ),
        notes=(
            "Cumulative mean milliseconds per processed XPE. NITF "
            "benefits more: its advertisement set is ~35x larger."
        ),
    )

    params = XPathWorkloadParams(
        wildcard_prob=0.2,
        descendant_prob=0.15,
        relative_prob=0.2,
        min_length=2,
    )
    runs = {}
    for label, dtd in (("nitf", nitf_dtd()), ("psd", psd_dtd())):
        adverts = generate_advertisements(dtd)
        queries = generate_queries(dtd, total, params=params, seed=seed)
        runs["%s_with_cov_ms" % label] = _with_covering(
            queries, adverts, checkpoints
        )
        runs["%s_without_cov_ms" % label] = _without_covering(
            queries, adverts, checkpoints
        )

    marks = [
        max(1, (i + 1) * total // checkpoints) for i in range(checkpoints)
    ]
    for index, mark in enumerate(marks):
        result.add_row(
            xpes=mark,
            nitf_with_cov_ms=runs["nitf_with_cov_ms"][index],
            nitf_without_cov_ms=runs["nitf_without_cov_ms"][index],
            psd_with_cov_ms=runs["psd_with_cov_ms"][index],
            psd_without_cov_ms=runs["psd_without_cov_ms"][index],
        )
    return result


def _checkpoint_means(elapsed: List[float], checkpoints: int) -> List[float]:
    """Cumulative mean (ms) at each checkpoint."""
    marks = [
        max(1, (i + 1) * len(elapsed) // checkpoints)
        for i in range(checkpoints)
    ]
    means = []
    running = 0.0
    position = 0
    for mark in marks:
        while position < mark:
            running += elapsed[position]
            position += 1
        means.append(1e3 * running / mark)
    return means


def _with_covering(
    queries: Sequence, adverts: Sequence, checkpoints: int
) -> List[float]:
    """Covering-based processing: covered XPEs skip advert matching."""
    tree = SubscriptionTree()
    elapsed = []
    for index, expr in enumerate(queries):
        start = time.perf_counter()
        outcome = tree.add(expr, index)
        if not outcome.covered:
            for advert in adverts:
                expr_and_advertisement(advert, expr)
        elapsed.append(time.perf_counter() - start)
    return _checkpoint_means(elapsed, checkpoints)


def _without_covering(
    queries: Sequence, adverts: Sequence, checkpoints: int
) -> List[float]:
    """Every XPE is matched against every advertisement."""
    elapsed = []
    for expr in queries:
        start = time.perf_counter()
        for advert in adverts:
            expr_and_advertisement(advert, expr)
        elapsed.append(time.perf_counter() - start)
    return _checkpoint_means(elapsed, checkpoints)
