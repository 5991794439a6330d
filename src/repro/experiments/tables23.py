"""Tables 2 and 3 — network traffic and notification delay in the
7-broker and 127-broker overlays.

The paper builds complete binary trees of brokers (3 levels = 7 brokers,
7 levels = 127 brokers), attaches one subscriber per leaf broker (1000
distinct PSD XPEs each), one publisher at a random broker (50 documents,
4,182 publication paths) and measures, for each of six routing
strategies, the total number of messages received by brokers and the
mean notification delay::

    7 brokers:   no-Adv-no-Cov 58,138 msgs / 29.02 ms ...
                 with-Adv-with-CovIPM 26,146 / 3.92
    127 brokers: no-Adv-no-Cov 654,871 / 97.82 ...
                 with-Adv-with-CovIPM 257,567 / 12.24

The reproduction target is the ordering and the rough reduction factors
(advertisements cut subscription flooding; covering cuts both traffic
and delay; merging cuts further, with imperfect merging trading a little
extra traffic for the shortest delays).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional, Sequence

from repro.broker.strategies import RoutingConfig
from repro.dtd.samples import psd_dtd
from repro.experiments.common import ExperimentResult, scaled
from repro.merging.engine import PathUniverse
from repro.network.latency import ClusterLatency
from repro.network.overlay import Overlay
from repro.workloads.datasets import psd_queries
from repro.workloads.document_generator import generate_documents


def run_traffic_experiment(
    levels: int,
    xpes_per_subscriber: int = 100,
    documents: int = 10,
    strategies: Optional[Sequence[str]] = None,
    seed: int = 5,
    merge_interval: int = 50,
    check_delivery_equivalence: bool = True,
    faults=None,
    matching_engine: str = "auto",
    telemetry_interval: Optional[float] = None,
) -> ExperimentResult:
    """Run the Tables 2/3 experiment on a ``levels``-deep broker tree.

    ``faults`` optionally installs a
    :class:`~repro.network.faults.FaultPlan` on every overlay (the plan
    is stateless and shareable), running the experiment over degraded
    links with the reliability layer engaged — the PlanetLab-style
    condition.  Delivery equivalence continues to hold: reliable
    links plus idempotent handlers mask the faults.

    ``matching_engine`` selects the publication-matching backend on
    every broker (``auto`` or ``shared``); routing decisions and
    delivered document sets are identical across engines.

    ``telemetry_interval`` (virtual seconds) turns on the live
    telemetry plane per strategy; each strategy's timeline document
    lands in ``result.telemetry[name]`` (see docs/telemetry.md).
    """
    if strategies is None:
        strategies = RoutingConfig.ALL_NAMES
    dtd = psd_dtd()
    universe = PathUniverse.from_dtd(dtd, max_depth=10)
    docs = generate_documents(
        dtd, documents, seed=seed, target_bytes=2048
    )

    broker_count = 2 ** levels - 1
    result = ExperimentResult(
        name="Table %s — %d Broker Network"
        % ("2" if levels == 3 else "3" if levels == 7 else "2/3-style",
           broker_count),
        columns=("method", "network_traffic", "delay_ms"),
        notes=(
            "%d XPEs per leaf subscriber (PSD), %d documents from one "
            "publisher." % (xpes_per_subscriber, documents)
        ),
    )

    result.telemetry = {}
    baseline_deliveries = None
    for name in strategies:
        config = _configure(name, merge_interval, matching_engine)
        overlay = Overlay.binary_tree(
            levels,
            config=config,
            latency_model=ClusterLatency(seed=seed),
            universe=universe,
            processing_scale=1.0,
            faults=faults,
        )
        if telemetry_interval is not None:
            overlay.enable_telemetry(interval=telemetry_interval)
        rng = random.Random(seed)
        leaves = overlay.leaf_brokers()
        subscribers = []
        for index, leaf in enumerate(leaves):
            sub = overlay.attach_subscriber("sub%d" % index, leaf)
            subscribers.append((sub, index))
        publisher_home = rng.choice(sorted(overlay.brokers))
        publisher = overlay.attach_publisher("pub0", publisher_home)

        if config.advertisements:
            publisher.advertise_dtd(dtd)
            overlay.run()
        for sub, index in subscribers:
            queries = psd_queries(
                xpes_per_subscriber, seed=seed * 1000 + index
            )
            for expr in queries.exprs:
                sub.subscribe(expr)
        overlay.run()
        for doc in docs:
            publisher.publish_document(doc)
        overlay.run()

        delivered = overlay.delivered_map()
        if check_delivery_equivalence:
            if baseline_deliveries is None:
                baseline_deliveries = delivered
            elif delivered != baseline_deliveries:
                raise AssertionError(
                    "strategy %s delivered a different document set than "
                    "the baseline — routing correctness violated" % name
                )

        if telemetry_interval is not None:
            result.telemetry[name] = overlay.telemetry.timeline_document(
                meta={"strategy": name, "levels": levels}
            )
        mean_delay = overlay.stats.mean_notification_delay()
        result.add_row(
            method=name,
            network_traffic=overlay.stats.network_traffic,
            delay_ms=None if mean_delay is None else mean_delay * 1e3,
        )
    return result


def _configure(
    name: str,
    merge_interval: int,
    matching_engine: str = "auto",
) -> RoutingConfig:
    config = RoutingConfig.by_name(name)
    if config.merging.value != "off" and config.merge_interval != merge_interval:
        config = replace(config, merge_interval=merge_interval)
    if config.matching_engine != matching_engine:
        config = replace(config, matching_engine=matching_engine)
    return config


def run_table2(scale: float = 1.0, **kwargs) -> ExperimentResult:
    """Table 2: the 7-broker overlay."""
    return run_traffic_experiment(
        levels=3,
        xpes_per_subscriber=scaled(1000, scale * 0.1),
        documents=scaled(50, scale * 0.2),
        **kwargs,
    )


def run_table3(scale: float = 1.0, **kwargs) -> ExperimentResult:
    """Table 3: the 127-broker overlay."""
    return run_traffic_experiment(
        levels=7,
        xpes_per_subscriber=scaled(1000, scale * 0.02),
        documents=scaled(50, scale * 0.1),
        **kwargs,
    )
