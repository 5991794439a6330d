"""Figure 9 — false positives vs. imperfect-merging degree.

Raising the allowed imperfection degree merges more XPEs, so the
routing table matches more publications than the original subscription
set did — those extra matches are in-network false positives (never
delivered to clients).  The paper reports the false-positive percentage
staying under ~2% for ``D_imperfect < 0.1`` and growing with D.

Workload: subscriptions are a random subset of the PSD DTD's exact
root-to-leaf paths.  Rule-1 merging then faces sibling groups with a
few members missing — exactly the situation that creates *imperfect*
mergers whose degree is the missing fraction of the group, and whose
false positives are publications on the unsubscribed sibling paths.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.covering.subscription_tree import SubscriptionTree
from repro.dtd.paths import enumerate_paths
from repro.dtd.samples import psd_dtd
from repro.experiments.common import ExperimentResult, scaled
from repro.matching.engine import LinearMatcher
from repro.merging.engine import MergingEngine, PathUniverse
from repro.workloads.document_generator import generate_documents
from repro.xpath.ast import XPathExpr


def run_fig9(
    scale: float = 1.0,
    degrees: Sequence[float] = (0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40),
    documents: int = 25,
    subscribed_fraction: float = 0.75,
    seed: int = 9,
) -> ExperimentResult:
    """Reproduce Figure 9 (PSD workload)."""
    dtd = psd_dtd()
    universe = PathUniverse.from_dtd(dtd, max_depth=10)
    all_paths = enumerate_paths(dtd, max_depth=10)
    rng = random.Random(seed)
    subscribed = sorted(
        rng.sample(
            all_paths, max(2, int(len(all_paths) * subscribed_fraction))
        )
    )
    exprs: List[XPathExpr] = [
        XPathExpr.from_tests(path) for path in subscribed
    ]

    docs = generate_documents(
        dtd, scaled(documents, scale), seed=seed, target_bytes=2048
    )
    paths = [p.path for doc in docs for p in doc.publications()]

    exact = LinearMatcher()
    for index, expr in enumerate(exprs):
        exact.add(expr, index)

    result = ExperimentResult(
        name="Figure 9 — False positives from imperfect merging",
        columns=("imperfect_degree", "false_positive_pct", "table_size"),
        notes=(
            "%d of the PSD DTD's %d root-to-leaf paths subscribed "
            "exactly; %d publication paths routed.  False positives = "
            "publications matched by the merged table but by no exact "
            "subscription (%% of matched publications)."
            % (len(exprs), len(all_paths), len(paths))
        ),
    )

    for degree in degrees:
        tree = SubscriptionTree()
        for index, expr in enumerate(exprs):
            tree.add(expr, index)
        merger = MergingEngine(universe=universe, max_degree=degree)
        merger.merge_tree(tree)

        matched = 0
        false_positives = 0
        for path in paths:
            if tree.matches_any(path):
                matched += 1
                if not exact.match(path):
                    false_positives += 1
        pct = 100.0 * false_positives / matched if matched else 0.0
        result.add_row(
            imperfect_degree=degree,
            false_positive_pct=pct,
            table_size=tree.top_level_size(),
        )
    return result
