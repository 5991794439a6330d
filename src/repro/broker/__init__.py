"""The content-based XML router: messages, tables, strategies, broker."""

from repro.broker.messages import (
    AdvertiseMsg,
    Message,
    PublishMsg,
    SubscribeMsg,
    UnadvertiseMsg,
    UnsubscribeMsg,
)
from repro.broker.strategies import MergingMode, RoutingConfig
from repro.broker.tables import (
    ForwardedState,
    SRTEntry,
    SubscriptionRoutingTable,
)
from repro.broker.broker import Broker, Frame, canonical_effects
from repro.broker.persistence import (
    PersistenceError,
    restore,
    restore_json,
    snapshot,
    snapshot_json,
)

__all__ = [
    "AdvertiseMsg",
    "Message",
    "PublishMsg",
    "SubscribeMsg",
    "UnadvertiseMsg",
    "UnsubscribeMsg",
    "MergingMode",
    "RoutingConfig",
    "ForwardedState",
    "SRTEntry",
    "SubscriptionRoutingTable",
    "Broker",
    "Frame",
    "canonical_effects",
    "PersistenceError",
    "restore",
    "restore_json",
    "snapshot",
    "snapshot_json",
]
