"""One seeded workload, three execution backends.

The backend-equivalence battery (tests/test_runtime_equivalence.py and
``repro deploy --compare``) needs the *same* message stream pushed
through the discrete-event simulator, the asyncio runtime and the
multiprocess deployment, and the observations read back in the same
shape.  This module owns that: :func:`build_plan` derives a
deterministic workload from a seed (PSD advertisements, per-leaf Set A
query subsets, generated documents), and :func:`run_workload` drives it
through any backend adapter in three drained phases — advertise,
subscribe, publish — returning the delivered
``(client, doc_id, path)`` set and per-broker routing fingerprints at
quiescence.

The default strategy keeps **merging off**: imperfect merging is
arrival-order-dependent by design, so merged routing tables are not
comparable across execution models (see
:func:`repro.runtime.base.routing_fingerprint`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.adverts.generator import generate_advertisements
from repro.broker.messages import AdvertiseMsg, PublishMsg, SubscribeMsg
from repro.broker.strategies import RoutingConfig
from repro.runtime.base import binary_tree_topology, tree_leaves
from repro.workloads.datasets import psd_dtd, psd_queries
from repro.workloads.document_generator import generate_documents

#: Client id of the single publisher (attached at the tree root).
PUBLISHER = "pub"


@dataclass(frozen=True)
class WorkloadSpec:
    """A deterministic workload: same spec, same message stream."""

    levels: int = 3
    queries_per_leaf: int = 4
    documents: int = 4
    seed: int = 7
    strategy: str = "with-Adv-with-Cov"
    matching_engine: str = "auto"
    target_bytes: int = 600
    #: Quiesce between per-leaf subscription batches.  Covering
    #: decisions depend on the order concurrent subscriptions from
    #: different leaves reach a shared ancestor — all resulting tables
    #: are correct and deliver identically, but only a serialized
    #: subscription phase makes the *fingerprints* backend-independent.
    serialize_subscriptions: bool = True

    def config(self) -> RoutingConfig:
        config = RoutingConfig.by_name(self.strategy)
        if self.matching_engine != config.matching_engine:
            config = dataclasses.replace(
                config, matching_engine=self.matching_engine
            )
        return config


@dataclass
class WorkloadPlan:
    """The concrete message material derived from a spec."""

    spec: WorkloadSpec
    broker_ids: List[str]
    links: List[Tuple[str, str]]
    adverts: List[Tuple[str, object]]
    #: leaf broker id -> the XPEs its subscriber registers.
    subscriptions: Dict[str, List[object]]
    documents: List[object]

    @property
    def subscriber_ids(self) -> List[str]:
        return ["sub-%s" % leaf for leaf in sorted(self.subscriptions)]


@dataclass
class WorkloadResult:
    """Everything the equivalence battery compares."""

    backend: str
    delivered: Set[Tuple[str, str, Tuple[str, ...]]]
    fingerprints: Dict[str, str]
    audit_problems: List[str] = field(default_factory=list)
    trace_problems: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)


def build_plan(spec: WorkloadSpec) -> WorkloadPlan:
    """Derive the deterministic message material of *spec*."""
    dtd = psd_dtd()
    broker_ids, links = binary_tree_topology(spec.levels)
    adverts = [
        ("%s/adv%d" % (PUBLISHER, i), advert)
        for i, advert in enumerate(generate_advertisements(dtd))
    ]
    subscriptions: Dict[str, List[object]] = {}
    for index, leaf in enumerate(tree_leaves(spec.levels)):
        dataset = psd_queries(
            count=spec.queries_per_leaf, seed=spec.seed * 100 + index
        )
        subscriptions[leaf] = list(dataset.exprs)
    documents = generate_documents(
        dtd, spec.documents, seed=spec.seed, target_bytes=spec.target_bytes
    )
    return WorkloadPlan(
        spec=spec,
        broker_ids=broker_ids,
        links=links,
        adverts=adverts,
        subscriptions=subscriptions,
        documents=documents,
    )


def run_workload(
    adapter, spec: WorkloadSpec, plan: Optional[WorkloadPlan] = None,
    auditor=None,
) -> WorkloadResult:
    """Drive *spec* through *adapter* (a backend adapter below).

    Phases are drained individually — advertisements settle before any
    subscription is issued, subscriptions settle before any document is
    published — so the routing tables every backend converges to are
    phase-equivalent even though intra-phase arrival orders differ.
    """
    if plan is None:
        plan = build_plan(spec)
    adapter.setup(spec, plan)
    try:
        if auditor is not None:
            adapter.attach_auditor(auditor)
        for adv_id, advert in plan.adverts:
            adapter.submit(
                PUBLISHER,
                AdvertiseMsg(
                    adv_id=adv_id, advert=advert, publisher_id=PUBLISHER
                ),
            )
        adapter.quiesce()
        for leaf in sorted(plan.subscriptions):
            client_id = "sub-%s" % leaf
            for expr in plan.subscriptions[leaf]:
                adapter.submit(
                    client_id,
                    SubscribeMsg(expr=expr, subscriber_id=client_id),
                )
            if spec.serialize_subscriptions:
                adapter.quiesce()
        adapter.quiesce()
        for document in plan.documents:
            size = document.size_bytes()
            issued_at = adapter.now()
            for publication in document.publications():
                adapter.submit(
                    PUBLISHER,
                    PublishMsg(
                        publication=publication,
                        publisher_id=PUBLISHER,
                        doc_size_bytes=size,
                        issued_at=issued_at,
                    ),
                )
        adapter.quiesce()
        audit_problems: List[str] = []
        if auditor is not None:
            # drain=True routes through the backend's own quiescence
            # hook (the multiprocess facade refreshes its snapshot-
            # restored broker replicas there).
            report = auditor.check(drain=True)
            audit_problems = [
                str(v) for v in report.soundness + report.unexplained_fp
            ]
        return WorkloadResult(
            backend=adapter.name,
            delivered=adapter.delivered(),
            fingerprints=adapter.fingerprints(),
            audit_problems=audit_problems,
            trace_problems=adapter.trace_problems(),
            extras=adapter.extras(),
        )
    finally:
        adapter.close()


class _Adapter:
    """What the backend adapters share.  Every host presents the host
    kernel's surface — ``submit`` / ``run`` / ``now`` /
    ``attach_auditor`` / ``routing_fingerprints`` / ``subscribers`` —
    so an adapter only has to build its host in :meth:`setup`."""

    name = "?"
    #: The live host; :meth:`setup` sets it (beside the adapter's own
    #: name for it: ``overlay`` / ``runtime`` / ``deployment``).
    host = None

    def setup(self, spec: WorkloadSpec, plan: WorkloadPlan):
        raise NotImplementedError

    def _attach_clients(self, plan: WorkloadPlan):
        self.host.attach_publisher(PUBLISHER, plan.broker_ids[0])
        for leaf in sorted(plan.subscriptions):
            self.host.attach_subscriber("sub-%s" % leaf, leaf)

    def submit(self, client_id: str, message):
        self.host.submit(client_id, message)

    def quiesce(self):
        self.host.run()

    def now(self) -> float:
        return self.host.now

    def delivered(self) -> Set[Tuple[str, str, Tuple[str, ...]]]:
        return {
            (
                client_id,
                message.publication.doc_id,
                tuple(message.publication.path),
            )
            for client_id, client in self.host.subscribers.items()
            for message in client.received
        }

    def fingerprints(self) -> Dict[str, str]:
        return self.host.routing_fingerprints()

    def attach_auditor(self, auditor):
        self.host.attach_auditor(auditor)

    def trace_problems(self) -> List[str]:
        """Causal completeness of the host's :class:`TraceRecorder`
        trees, when the adapter was built with ``tracing=True``."""
        if self.host.tracing is None:
            return []
        from repro.obs.tracing import verify_traces

        return verify_traces(self.host)

    def extras(self) -> Dict[str, object]:
        return {}

    def close(self):
        pass


class SimulatorAdapter(_Adapter):
    """The discrete-event simulator as the reference execution."""

    name = "simulator"

    def __init__(self, tracing: bool = False):
        self._tracing = tracing
        self.overlay = None

    def setup(self, spec: WorkloadSpec, plan: WorkloadPlan):
        from repro.network.latency import ConstantLatency
        from repro.network.overlay import Overlay

        # Constant latency keeps every simulated link FIFO, like the
        # TCP/queue links of the real backends.  ClusterLatency's jitter
        # can reorder a covering retraction ahead of the subscription it
        # retracts on the same link — a legal execution, but not one the
        # FIFO backends can produce, so tables would diverge.
        # processing_scale=0 matters for the same reason: by default the
        # overlay charges each handler's *measured wall time* into the
        # virtual clock, which perturbs equal-latency arrivals by
        # scheduler noise and lets an UNSUB overtake the SUB it retracts.
        self.host = self.overlay = Overlay.binary_tree(
            spec.levels,
            config=spec.config(),
            latency_model=ConstantLatency(0.001),
            processing_scale=0.0,
        )
        if self._tracing:
            self.overlay.enable_tracing()
        self._attach_clients(plan)

    def extras(self):
        return {"network_traffic": self.overlay.stats.network_traffic}


class AsyncioAdapter(_Adapter):
    """The in-process concurrent runtime."""

    name = "asyncio"

    def __init__(self, tracing: bool = False, link_capacity: int = 64):
        self._tracing = tracing
        self._link_capacity = link_capacity
        self.runtime = None

    def setup(self, spec: WorkloadSpec, plan: WorkloadPlan):
        from repro.runtime.asyncio_backend import AsyncioRuntime

        self.host = self.runtime = AsyncioRuntime(
            config=spec.config(), link_capacity=self._link_capacity
        )
        if self._tracing:
            self.runtime.enable_tracing()
        for broker_id in plan.broker_ids:
            self.runtime.add_broker(broker_id)
        for a, b in plan.links:
            self.runtime.connect(a, b)
        self.runtime.start()
        self._attach_clients(plan)

    def extras(self):
        return {
            "network_traffic": self.runtime.stats.network_traffic,
            "max_queue_depth": dict(self.runtime.max_queue_depth),
        }

    def close(self):
        if self.runtime is not None:
            self.runtime.close()


class MultiprocessAdapter(_Adapter):
    """One OS process per broker over real sockets."""

    name = "multiprocess"

    def __init__(self, tracing: bool = False, rto: Optional[float] = None):
        self._tracing = tracing
        self._rto = rto
        self.deployment = None

    def setup(self, spec: WorkloadSpec, plan: WorkloadPlan):
        from repro.runtime.multiprocess import MultiprocessDeployment

        # Loopback never loses frames; the retransmission timeout only
        # matters when ack round-trips stretch under load.  A large
        # deployment needs a calmer timer or spurious retransmits of
        # slow-but-healthy frames snowball into a self-inflicted storm.
        rto = self._rto
        if rto is None:
            rto = 0.05 if len(plan.broker_ids) <= 31 else 0.5
        self.host = self.deployment = MultiprocessDeployment(
            config=spec.config(), rto=rto
        )
        if self._tracing:
            self.deployment.enable_tracing()
        for broker_id in plan.broker_ids:
            self.deployment.add_broker(broker_id)
        for a, b in plan.links:
            self.deployment.link(a, b)
        self.deployment.start()
        self._attach_clients(plan)

    def trace_problems(self):
        """The children's ``hop`` spans, checked against the overlay
        tree paths (a child's recorder never sees a delivery)."""
        if self.host.tracing is None:
            return []
        return self.deployment.verify_hop_traces()

    def extras(self):
        return {"transport": self.deployment.transport_stats()}

    def close(self):
        if self.deployment is not None:
            self.deployment.stop()


ADAPTERS = {
    "simulator": SimulatorAdapter,
    "asyncio": AsyncioAdapter,
    "multiprocess": MultiprocessAdapter,
}
