"""The paper's named workloads.

Section 5 builds two NITF query sets by varying ``W`` (wildcard
probability) and ``DO`` (descendant probability) to reach two *covering
rates* — the fraction of queries covered by other queries of the set:

* **Set A** — high overlap, ~90% of the queries covered,
* **Set B** — lower overlap, ~50% covered.

Our NITF stand-in has a much smaller path space than the real News
Industry Text Format DTD, so organically generated workloads drift to
very high covering rates as the query count grows.  The sets are
therefore built *constructively*: a base of mutually incomparable
queries (truncated, lightly wildcarded DTD paths) plus, per base query,
covered companions — deeper extensions along the same (possibly pumped)
DTD path, optionally wildcarded in the extension region, which the base
query provably covers.  The companion fraction *is* the covering rate,
so the sets land on the paper's bands by construction; tests assert the
measured rates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.covering.subscription_tree import SubscriptionTree
from repro.dtd.model import DTD
from repro.dtd.samples import nitf_dtd, psd_dtd
from repro.errors import WorkloadError
from repro.workloads.sampling import pump_path, sample_dtd_path
from repro.workloads.xpath_generator import (
    XPathWorkloadParams,
    generate_queries,
)
from repro.xpath.ast import Axis, Step, WILDCARD, XPathExpr


@dataclass(frozen=True)
class Dataset:
    """A named query workload with its target covering rate."""

    name: str
    exprs: Tuple[XPathExpr, ...]
    target_covering_rate: float

    def __len__(self):
        return len(self.exprs)


def covering_rate(exprs: List[XPathExpr]) -> float:
    """Fraction of queries covered by some other query in the set —
    one minus the fraction that stays in a covering router's table."""
    if not exprs:
        return 0.0
    tree = SubscriptionTree()
    for i, expr in enumerate(exprs):
        tree.add(expr, i)
    return 1.0 - tree.top_level_size() / len(exprs)


def _steps_from(path, start, length, wildcard_positions):
    steps = []
    for offset in range(length):
        test = path[start + offset]
        if start + offset in wildcard_positions:
            test = WILDCARD
        steps.append(Step(Axis.CHILD, test))
    return XPathExpr(steps=tuple(steps), rooted=(start == 0))


def _extend_prefix(dtd, graph, prefix, rng, max_length):
    """Random legal continuation of *prefix* through the DTD child
    graph: at least one extra step, at most *max_length* total, each
    element at most twice on the whole path."""
    if len(prefix) >= max_length:
        return None
    counts = {}
    for name in prefix:
        counts[name] = counts.get(name, 0) + 1
    path = list(prefix)
    target = rng.randint(len(prefix) + 1, max_length)
    while len(path) < target:
        children = [
            child
            for child in graph.get(path[-1], ())
            if counts.get(child, 0) < 2
        ]
        if not children:
            break
        child = rng.choice(children)
        path.append(child)
        counts[child] = counts.get(child, 0) + 1
    if len(path) <= len(prefix):
        return None
    return tuple(path)


def covering_workload(
    dtd: DTD,
    count: int,
    target_rate: float,
    seed: int = 0,
    base_min: int = 4,
    base_max: int = 6,
    max_length: int = 10,
    wildcard_prob: float = 0.3,
    pump_prob: float = 0.5,
    leaf_prob: float = 0.05,
    name: str = "workload",
) -> Dataset:
    """Build *count* distinct queries with ≈ *target_rate* covering.

    ``round(count * (1-target_rate))`` mutually incomparable base
    queries are drawn first; the remainder are covered companions.
    """
    if not 0.0 <= target_rate < 1.0:
        raise WorkloadError("target_rate must be in [0, 1)")
    rng = random.Random(seed)
    base_count = max(1, round(count * (1.0 - target_rate)))

    # Bases are truncated paths with a sparse wildcard mask.  Distinct
    # wildcard patterns over the same trie level are mutually
    # incomparable, which multiplies the antichain supply; a
    # SubscriptionTree serves as the incomparability filter (accepted
    # bases are exactly its top level, inserting and reverting on
    # conflict).
    bases: List[Tuple[XPathExpr, Tuple[str, ...], int, frozenset]] = []
    base_tree = SubscriptionTree()
    seen = set()
    # A rejected candidate stays rejected (bases are only added, so what
    # covered it or what it covered stays top level): it is not retried.
    rejected = set()
    attempts = 0
    while len(bases) < base_count:
        attempts += 1
        if attempts > count * 400:
            if len(bases) >= base_count * 0.8:
                # The DTD's antichain is nearly exhausted; proceed with
                # the bases found — the extra companions nudge the
                # measured covering rate marginally above the target,
                # which the calibration tests tolerate.
                break
            raise WorkloadError(
                "cannot assemble %d incomparable base queries (got %d)"
                % (base_count, len(bases))
            )
        path = pump_path(
            sample_dtd_path(
                dtd, rng, max_depth=max_length, leaf_prob=leaf_prob
            ),
            rng,
            max_depth=max_length,
            pump_prob=pump_prob,
        )
        if len(path) < base_min:
            continue
        # Take the longest truncation the knobs allow: bases then sit on
        # one (wide) level of the path trie instead of scattering across
        # levels, where a short base would block its whole subtree and
        # starve the antichain.  Bases stay strictly shorter than their
        # path whenever possible so companions can extend them.
        length = min(base_max, len(path) - 1)
        if length < base_min:
            length = min(base_max, len(path))
        mask = frozenset(
            i for i in range(1, length) if rng.random() < 0.15
        )
        expr = _steps_from(path, 0, length, mask)
        if expr in seen or expr in rejected:
            continue
        outcome = base_tree.add(expr, len(bases))
        if not outcome.is_new or outcome.covered or outcome.displaced:
            base_tree.remove(expr, len(bases))
            rejected.add(expr)
            continue
        seen.add(expr)
        bases.append((expr, path, length, mask))

    graph = dtd.child_map()
    exprs: List[XPathExpr] = [b[0] for b in bases]
    attempts = 0
    while len(exprs) < count:
        attempts += 1
        if attempts > count * 400:
            raise WorkloadError(
                "cannot generate %d covered companions (got %d)"
                % (count - base_count, len(exprs) - base_count)
            )
        base_expr, path, base_len, mask = bases[rng.randrange(len(bases))]
        extended = _extend_prefix(
            dtd, graph, path[:base_len], rng, max_length
        )
        if extended is None:
            continue
        # Covered-by-base construction: within the base prefix a
        # companion may keep any subset of the base's wildcards (or
        # instantiate them with the concrete path element); beyond it,
        # wildcards are free.
        wildcards = {i for i in mask if rng.random() < 0.5}
        wildcards |= {
            i
            for i in range(base_len, len(extended))
            if rng.random() < wildcard_prob
        }
        companion = _steps_from(extended, 0, len(extended), wildcards)
        if companion in seen:
            continue
        seen.add(companion)
        exprs.append(companion)

    rng.shuffle(exprs)
    return Dataset(
        name=name, exprs=tuple(exprs), target_covering_rate=target_rate
    )


def set_a(count: int = 1000, dtd: Optional[DTD] = None, seed: int = 1) -> Dataset:
    """The high-overlap workload (~90% covering, paper's Set A)."""
    dtd = dtd if dtd is not None else nitf_dtd()
    return covering_workload(
        dtd,
        count,
        target_rate=0.9,
        seed=seed,
        base_min=4,
        base_max=8,
        wildcard_prob=0.3,
        pump_prob=0.6,
        name="Set A",
    )


def set_b(count: int = 1000, dtd: Optional[DTD] = None, seed: int = 2) -> Dataset:
    """The lower-overlap workload (~50% covering, paper's Set B)."""
    dtd = dtd if dtd is not None else nitf_dtd()
    return covering_workload(
        dtd,
        count,
        target_rate=0.5,
        seed=seed,
        base_min=5,
        base_max=10,
        wildcard_prob=0.3,
        pump_prob=0.7,
        name="Set B",
    )


def psd_queries(
    count: int = 1000,
    seed: int = 3,
    params: Optional[XPathWorkloadParams] = None,
) -> Dataset:
    """PSD query workload (used by the traffic and delay experiments)."""
    params = params if params is not None else XPathWorkloadParams(
        wildcard_prob=0.2,
        descendant_prob=0.15,
        relative_prob=0.2,
        min_length=2,
    )
    exprs = generate_queries(psd_dtd(), count, params=params, seed=seed)
    return Dataset(name="PSD", exprs=tuple(exprs), target_covering_rate=-1.0)


def nitf_queries(
    count: int = 1000,
    seed: int = 4,
    params: Optional[XPathWorkloadParams] = None,
) -> Dataset:
    """NITF query workload with generic generator parameters."""
    params = params if params is not None else XPathWorkloadParams(
        wildcard_prob=0.2,
        descendant_prob=0.15,
        relative_prob=0.2,
        min_length=2,
    )
    exprs = generate_queries(nitf_dtd(), count, params=params, seed=seed)
    return Dataset(name="NITF", exprs=tuple(exprs), target_covering_rate=-1.0)
