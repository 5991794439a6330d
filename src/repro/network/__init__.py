"""The discrete-event overlay network simulator."""

from repro.network.clients import PublisherClient, SubscriberClient
from repro.network.faults import (
    CrashEvent,
    FaultDecision,
    FaultPlan,
    FaultSpecError,
    LinkFaults,
    Partition,
)
from repro.network.latency import (
    ClusterLatency,
    ConstantLatency,
    LatencyModel,
    PlanetLabLatency,
)
from repro.network.overlay import Overlay
from repro.network.reliable import Channel, ReliableTransport
from repro.network.simulator import Simulator
from repro.network.stats import DeliveryRecord, NetworkStats
from repro.network.wire import decode, encode

__all__ = [
    "PublisherClient",
    "SubscriberClient",
    "Channel",
    "CrashEvent",
    "FaultDecision",
    "FaultPlan",
    "FaultSpecError",
    "LinkFaults",
    "Partition",
    "ReliableTransport",
    "ClusterLatency",
    "ConstantLatency",
    "LatencyModel",
    "PlanetLabLatency",
    "Overlay",
    "Simulator",
    "DeliveryRecord",
    "NetworkStats",
    "decode",
    "encode",
]
