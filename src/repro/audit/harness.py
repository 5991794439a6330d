"""Audited chaos workloads: the scenario matrix behind ``repro audit``.

:func:`run_audited_workload` runs the Tables-2-style workload on the
paper's 7-broker binary tree — advertise, subscribe, publish, forced
merge sweeps, a deterministic unsubscribe wave, and a second publish
round — with an :class:`~repro.audit.oracle.AuditOracle` attached from
the first message.  Every phase drains the overlay, so the oracle's
submit-time delivery snapshots are exact.  :func:`audit_scenarios`
parameterizes the chaos matrix (fault-free plus the five fault classes
of tests/test_chaos_convergence.py) on one seed, which is how the CI
audit job explores fresh schedules while keeping failures replayable.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.audit.oracle import AuditOracle, AuditReport
from repro.broker.strategies import RoutingConfig
from repro.dtd.samples import psd_dtd
from repro.merging.engine import PathUniverse
from repro.network.faults import CrashEvent, FaultPlan, LinkFaults, Partition
from repro.network.latency import ConstantLatency
from repro.network.overlay import Overlay
from repro.workloads.datasets import psd_queries
from repro.workloads.document_generator import generate_documents


def audit_scenarios(seed: int = 0) -> Dict[str, Optional[FaultPlan]]:
    """The chaos matrix, keyed by scenario name (None = fault-free)."""
    return {
        "fault-free": None,
        "drop-only": FaultPlan(
            seed=seed + 11, default=LinkFaults(drop=0.2), rto=0.01
        ),
        "duplicate-only": FaultPlan(
            seed=seed + 12, default=LinkFaults(duplicate=0.2), rto=0.01
        ),
        "reorder-only": FaultPlan(
            seed=seed + 13,
            default=LinkFaults(reorder=0.3, reorder_window=0.01),
            rto=0.05,
        ),
        "partition-heals": FaultPlan(
            seed=seed + 14,
            partitions=(Partition("b1", "b3", 0.0, 0.5),),
            rto=0.01,
        ),
        "crash-restart": FaultPlan(
            seed=seed + 15,
            default=LinkFaults(drop=0.1),
            crashes=(CrashEvent("b2", at=0.002, restart_at=0.2),),
            rto=0.01,
        ),
    }


def run_audited_workload(
    plan: Optional[FaultPlan] = None,
    levels: int = 3,
    xpes_per_leaf: int = 12,
    documents: int = 5,
    max_degree: float = 0.1,
    merge_interval: int = 4,
    seed: int = 3,
    config: Optional[RoutingConfig] = None,
    metrics=None,
    check: bool = True,
    tracing: bool = False,
    flight_dir: Optional[str] = None,
    matching_engine: str = "auto",
):
    """Run the audited workload; returns ``(overlay, oracle, report)``.

    ``report`` is None when *check* is False (callers that want to keep
    mutating the overlay before auditing, e.g. the stateful suite).
    With *tracing* the overlay stamps every operation with a causal
    trace context before any traffic flows (``flight_dir`` is where
    automatic flight-recorder dumps land; see :mod:`repro.obs.flight`).
    ``matching_engine`` selects every broker's publication-matching
    backend, auditing the overlay's seven invariants against it.
    """
    dtd = psd_dtd()
    universe = PathUniverse.from_dtd(dtd, max_depth=10)
    if config is None:
        config = RoutingConfig.with_adv_with_cov_ipm(
            max_imperfect_degree=max_degree, merge_interval=merge_interval
        )
    if config.matching_engine != matching_engine:
        config = replace(config, matching_engine=matching_engine)
    overlay = Overlay.binary_tree(
        levels,
        config=config,
        latency_model=ConstantLatency(0.001),
        universe=universe,
        processing_scale=0.0,
        metrics=metrics,
        faults=plan,
    )
    if tracing:
        overlay.enable_tracing(flight_dir=flight_dir)
    oracle = overlay.attach_auditor(AuditOracle())

    publisher = overlay.attach_publisher("pub", "b1")
    publisher.advertise_dtd(dtd)
    overlay.run()

    subscribers = []
    for index, leaf in enumerate(overlay.leaf_brokers()):
        subscriber = overlay.attach_subscriber("sub%d" % index, leaf)
        for expr in psd_queries(xpes_per_leaf, seed=100 + index).exprs:
            subscriber.subscribe(expr)
        subscribers.append(subscriber)
    overlay.run()

    for document in generate_documents(
        dtd, documents, seed=seed, target_bytes=800
    ):
        publisher.publish_document(document)
    overlay.run()

    # Force a sweep everywhere so mergers exist regardless of whether the
    # subscription count tripped the periodic cadence on a given broker.
    for broker_id in sorted(overlay.brokers):
        if not overlay.is_down(broker_id):
            overlay.trigger_merge_sweep(broker_id)
        overlay.run()

    # The unsubscribe wave: retract every other subscription (sorted, so
    # the same seed always retracts the same half) — the churn that
    # exposed the unsubscribe/merge leak.
    for subscriber in subscribers:
        for expr in sorted(subscriber.subscriptions, key=str)[::2]:
            subscriber.unsubscribe(expr)
    overlay.run()

    # Second publish round under the post-churn, post-merge tables.
    for document in generate_documents(
        dtd, documents, seed=seed + 1, target_bytes=800, doc_prefix="doc2"
    ):
        publisher.publish_document(document)
    overlay.run()

    report = oracle.check() if check else None
    return overlay, oracle, report


def run_audit_matrix(
    seed: int = 0, scenarios=None, **kwargs
) -> Dict[str, AuditReport]:
    """Run :func:`run_audited_workload` over the scenario matrix."""
    matrix = audit_scenarios(seed)
    if scenarios:
        matrix = {name: matrix[name] for name in scenarios}
    reports = {}
    for name, plan in matrix.items():
        _, _, report = run_audited_workload(plan=plan, **kwargs)
        reports[name] = report
    return reports
