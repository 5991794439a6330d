"""Traffic and delay accounting for overlay experiments.

The paper's Tables 2–3 report *network traffic* — the total number of
messages (advertisements, subscriptions and publications) received by
all brokers — and *notification delay*, the time between a publication
being issued and a subscriber receiving the (first matching path of
the) document.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.obs import MetricsRegistry


class DeliveryRecord(NamedTuple):
    """One document delivery at one subscriber.

    Immutable, compared and hashed by value.  A named tuple rather than
    a frozen dataclass: one is built per fresh delivery (~255 per
    document on the 127-broker overlay), and a frozen dataclass pays
    one ``object.__setattr__`` per field — ≈ 1.0 µs against ≈ 0.33 µs.
    """

    subscriber_id: str
    doc_id: str
    path_id: int
    issued_at: float
    delivered_at: float
    hops: int

    @property
    def delay(self) -> float:
        return self.delivered_at - self.issued_at


class DeliveryLog(Sequence):
    """The delivery records of one run, stored so the cyclic garbage
    collector never has to visit them again.

    A row is an *exact* tuple of a record's six atomic fields.  CPython
    stops tracking such a tuple the first time a collection sees it; a
    :class:`DeliveryRecord`, being a tuple *subclass*, stays tracked and
    would be traversed by every full collection for as long as the log
    keeps it.  Reading is unchanged: iterating or indexing yields
    :class:`DeliveryRecord` values; ``len``, truth and ``del log[:]``
    work as on a list.  :meth:`NetworkStats.record_delivery` is the one
    writer.
    """

    __slots__ = ("_rows", "append")

    def __init__(self):
        self._rows: List[tuple] = []
        #: Stores one row as given (the writer passes exact tuples).
        self.append = self._rows.append

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [DeliveryRecord._make(row) for row in self._rows[index]]
        return DeliveryRecord._make(self._rows[index])

    def __iter__(self) -> Iterator[DeliveryRecord]:
        return map(DeliveryRecord._make, self._rows)

    def __delitem__(self, index):
        del self._rows[index]

    def __repr__(self) -> str:
        return "DeliveryLog(%d records)" % len(self._rows)


@dataclass
class NetworkStats:
    """Counters shared by every broker and client of one overlay.

    When a :class:`~repro.obs.MetricsRegistry` is attached (the overlay
    attaches its own), every recorded event is mirrored into it —
    ``network.messages`` / ``network.messages.<kind>`` counters, the
    ``network.client_messages`` and ``network.frames`` counters and the
    ``network.delivery_delay`` histogram — so one registry snapshot
    carries traffic, delay and hot-path timing together.

    Messages are *logical*: every path of a document counts, however
    many of them crossed a link together (the paper's Tables 2–3
    metric).  ``frames`` is the physical count beside it: what a host
    actually put on a broker- or client-bound link, a group of
    publications being one frame.
    """

    broker_messages: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    messages_by_kind: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    client_messages: int = 0
    frames: int = 0
    deliveries: DeliveryLog = field(default_factory=DeliveryLog)
    registry: Optional[MetricsRegistry] = None

    # -- recording -------------------------------------------------------

    def record_broker_message(self, broker_id: str, kind: str, count: int = 1):
        """*count* messages of one kind reached *broker_id*."""
        self.broker_messages[broker_id] += count
        self.messages_by_kind[kind] += count
        registry = self.registry
        if registry is not None and registry.enabled:
            registry.counter("network.messages").inc(count)
            registry.counter("network.messages." + kind).inc(count)

    def record_client_message(self, count: int = 1):
        self.client_messages += count
        registry = self.registry
        if registry is not None and registry.enabled:
            registry.counter("network.client_messages").inc(count)

    def record_frame(self):
        """A host scheduled one broker- or client-bound frame."""
        self.frames += 1
        registry = self.registry
        if registry is not None and registry.enabled:
            registry.counter("network.frames").inc()

    def record_delivery(self, record: Tuple):
        """One fresh delivery: a :class:`DeliveryRecord` or the exact
        tuple of its six fields, stored as the latter (``tuple`` of an
        exact tuple is the tuple itself, so the hosts pass one)."""
        row = tuple(record)
        self.deliveries.append(row)
        registry = self.registry
        if registry is not None and registry.enabled:
            registry.histogram("network.delivery_delay").record(row[4] - row[3])
            registry.histogram("network.delivery_hops").record(row[5])

    # -- report ------------------------------------------------------------

    @property
    def network_traffic(self) -> int:
        """Total messages received by brokers (Tables 2–3 metric)."""
        return sum(self.broker_messages.values())

    def traffic_of_kind(self, kind: str) -> int:
        return self.messages_by_kind.get(kind, 0)

    def delivered_documents(self) -> Dict[Tuple[str, str], DeliveryRecord]:
        """First delivery per (subscriber, document)."""
        firsts: Dict[Tuple[str, str], DeliveryRecord] = {}
        for record in self.deliveries:
            key = (record.subscriber_id, record.doc_id)
            current = firsts.get(key)
            if current is None or record.delivered_at < current.delivered_at:
                firsts[key] = record
        return firsts

    def mean_notification_delay(self) -> Optional[float]:
        """Mean first-delivery delay in seconds, or None without
        deliveries."""
        firsts = self.delivered_documents()
        if not firsts:
            return None
        return sum(r.delay for r in firsts.values()) / len(firsts)

    def delay_percentile(self, fraction: float) -> Optional[float]:
        """First-delivery delay percentile (0 < fraction <= 1), e.g.
        ``delay_percentile(0.95)`` for p95; None without deliveries."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        delays = sorted(
            record.delay for record in self.delivered_documents().values()
        )
        if not delays:
            return None
        index = max(0, int(round(fraction * len(delays))) - 1)
        return delays[index]

    def delays_by_hops(self) -> Dict[int, List[float]]:
        """First-delivery delays grouped by broker hop count (the x-axis
        of Figures 10–11)."""
        grouped: Dict[int, List[float]] = defaultdict(list)
        for record in self.delivered_documents().values():
            grouped[record.hops].append(record.delay)
        return dict(grouped)

    def summary(self) -> Dict[str, object]:
        mean_delay = self.mean_notification_delay()
        p95 = self.delay_percentile(0.95)
        return {
            "network_traffic": self.network_traffic,
            "by_kind": dict(self.messages_by_kind),
            "client_messages": self.client_messages,
            "frames": self.frames,
            "deliveries": len(self.deliveries),
            "documents_delivered": len(self.delivered_documents()),
            "mean_delay_ms": None if mean_delay is None else mean_delay * 1e3,
            "p95_delay_ms": None if p95 is None else p95 * 1e3,
        }
