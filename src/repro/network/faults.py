"""Deterministic fault injection for the broker overlay.

The paper's evaluation (§5) runs on a cluster and on PlanetLab, where
links delay, drop, duplicate and reorder messages and broker processes
die mid-run.  A :class:`FaultPlan` describes such degraded conditions
declaratively — per-link drop/duplicate/reorder/delay probabilities,
timed link partitions and scheduled broker crash/restart events — and
plugs into :class:`~repro.network.overlay.Overlay` via
``overlay.install_faults(plan)``, which routes every broker-to-broker
hop through the reliable transport of :mod:`repro.network.reliable`.

Determinism: a plan owns no mutable state and no shared RNG stream.
Every per-transmission decision is a pure function of ``(seed, src,
dst, index)`` — the index being the per-directed-link transmission
counter maintained by the transport — so the same seed always yields
the identical drop/duplicate/delay schedule regardless of call order,
and two overlays can share one plan instance.

Spec strings (the CLI ``--faults`` flag) are comma-separated::

    drop=0.2,dup=0.1,reorder=0.3,delay=0.005,seed=7
    drop=0.1,partition=b1-b2@2.0:5.0,crash=b4@1.0:3.0

* ``drop`` / ``dup`` / ``reorder`` — per-transmission probabilities;
* ``delay`` — fixed extra seconds per hop; ``reorder_window`` — the
  uniform extra-delay range a reordered message draws from;
* ``partition=<a>-<b>@<start>:<end>`` — the link drops everything
  inside ``[start, end)`` (repeatable);
* ``crash=<broker>@<at>:<restart>`` — the broker dies at ``at`` and
  recovers at ``restart`` (repeatable; append ``:nostate`` to restart
  without replaying persisted routing state);
* ``seed`` — the determinism seed; ``rto`` — initial retransmission
  timeout of the reliability layer.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.errors import ReproError


class FaultSpecError(ReproError):
    """Raised for malformed ``--faults`` specifications."""


@dataclass(frozen=True)
class LinkFaults:
    """Per-link fault probabilities and delays.

    Attributes:
        drop: probability a transmission is lost.
        duplicate: probability a transmission arrives twice.
        reorder: probability a transmission is held back long enough to
            be overtaken (it draws an extra delay from
            ``[0, reorder_window)``).
        delay: fixed extra seconds added to every transmission.
        reorder_window: upper bound of the reorder hold-back, seconds.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    reorder_window: float = 0.05

    def __post_init__(self):
        for name in ("drop", "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultSpecError(
                    "%s probability must be in [0, 1], got %r" % (name, value)
                )
        if self.delay < 0 or self.reorder_window < 0:
            raise FaultSpecError("delays must be non-negative")


@dataclass(frozen=True)
class Partition:
    """Link ``a``–``b`` is severed (both directions) in [start, end)."""

    a: str
    b: str
    start: float
    end: float

    def __post_init__(self):
        if self.end <= self.start:
            raise FaultSpecError(
                "partition of %s-%s must end after it starts" % (self.a, self.b)
            )

    def covers(self, src: object, dst: object, now: float) -> bool:
        if not (self.start <= now < self.end):
            return False
        return {self.a, self.b} == {src, dst}


@dataclass(frozen=True)
class CrashEvent:
    """Broker ``broker_id`` dies at ``at`` and restarts at ``restart_at``.

    With ``with_state`` (the default) recovery replays the persisted
    routing state (see :mod:`repro.broker.persistence`) and re-announces
    stored advertisements to the neighbours; without it the broker
    returns empty — the degraded behaviour persistence exists to avoid.
    """

    broker_id: str
    at: float
    restart_at: float
    with_state: bool = True

    def __post_init__(self):
        if self.restart_at <= self.at:
            raise FaultSpecError(
                "broker %s must restart after it crashes" % self.broker_id
            )


@dataclass(frozen=True)
class FaultDecision:
    """The fate of one physical transmission attempt.

    ``copies`` is 0 when dropped (or partitioned), 1 normally, 2 when
    duplicated; ``extra_delay`` is added on top of the link latency and
    ``reordered`` marks decisions whose delay came from the reorder
    hold-back.
    """

    copies: int
    extra_delay: float = 0.0
    dropped: bool = False
    partitioned: bool = False
    reordered: bool = False


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seedable schedule of link and broker faults.

    Attributes:
        seed: determinism seed for every probabilistic decision.
        default: fault levels applied to links without an override.
        links: per-link overrides keyed by ``(a, b)`` (order-insensitive).
        partitions: timed link outages.
        crashes: scheduled broker crash/restart events.
        rto: initial retransmission timeout of the reliability layer;
            retransmissions back off exponentially from here.
    """

    seed: int = 0
    default: LinkFaults = field(default_factory=LinkFaults)
    links: Dict[Tuple[str, str], LinkFaults] = field(default_factory=dict)
    partitions: Tuple[Partition, ...] = ()
    crashes: Tuple[CrashEvent, ...] = ()
    rto: float = 0.05

    def __post_init__(self):
        if self.rto <= 0:
            raise FaultSpecError("rto must be positive")
        seen = set()
        for event in self.crashes:
            key = (event.broker_id, event.at)
            if key in seen:
                raise FaultSpecError(
                    "duplicate crash of %s at %s" % (event.broker_id, event.at)
                )
            seen.add(key)

    # -- link resolution ---------------------------------------------------

    def link_faults(self, src: object, dst: object) -> LinkFaults:
        """The fault levels of the ``src``–``dst`` link."""
        for key in ((src, dst), (dst, src)):
            faults = self.links.get(key)
            if faults is not None:
                return faults
        return self.default

    def is_partitioned(self, src: object, dst: object, now: float) -> bool:
        return any(p.covers(src, dst, now) for p in self.partitions)

    # -- per-transmission decisions ---------------------------------------

    def _uniforms(self, src: object, dst: object, index: int):
        """Four U(0,1) draws, a pure function of (seed, src, dst, index)."""
        key = repr((self.seed, str(src), str(dst), index)).encode("utf-8")
        digest = hashlib.blake2b(key, digest_size=8).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        return rng.random(), rng.random(), rng.random(), rng.random()

    def decide(
        self, src: object, dst: object, index: int, now: float = 0.0
    ) -> FaultDecision:
        """The fate of transmission number *index* on link src→dst.

        Deterministic: identical arguments (and plan seed) always return
        the identical decision.
        """
        if self.is_partitioned(src, dst, now):
            return FaultDecision(copies=0, dropped=True, partitioned=True)
        faults = self.link_faults(src, dst)
        u_drop, u_dup, u_reorder, u_window = self._uniforms(src, dst, index)
        if u_drop < faults.drop:
            return FaultDecision(copies=0, dropped=True)
        copies = 2 if u_dup < faults.duplicate else 1
        extra = faults.delay
        reordered = u_reorder < faults.reorder
        if reordered:
            extra += u_window * faults.reorder_window
        return FaultDecision(copies=copies, extra_delay=extra, reordered=reordered)

    # -- construction helpers ----------------------------------------------

    def with_link(self, a: str, b: str, faults: LinkFaults) -> "FaultPlan":
        links = dict(self.links)
        links[(a, b)] = faults
        return replace(self, links=links)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``--faults`` specification string (see module docs)."""
        fields: Dict[str, float] = {}
        seed = 0
        rto = 0.05
        partitions: List[Partition] = []
        crashes: List[CrashEvent] = []
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            if "=" not in token:
                raise FaultSpecError(
                    "fault spec token %r is not key=value" % token
                )
            key, _, value = token.partition("=")
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    seed = int(value)
                elif key == "rto":
                    rto = float(value)
                elif key in ("drop", "dup", "duplicate", "reorder",
                             "delay", "reorder_window"):
                    name = "duplicate" if key == "dup" else key
                    fields[name] = float(value)
                elif key == "partition":
                    partitions.append(_parse_partition(value))
                elif key == "crash":
                    crashes.append(_parse_crash(value))
                else:
                    raise FaultSpecError("unknown fault spec key %r" % key)
            except ValueError:
                raise FaultSpecError(
                    "invalid value %r for fault spec key %r" % (value, key)
                )
        return cls(
            seed=seed,
            default=LinkFaults(**fields),
            partitions=tuple(partitions),
            crashes=tuple(crashes),
            rto=rto,
        )

    def describe(self) -> Dict[str, object]:
        """Human-oriented summary (CLI / logs)."""
        return {
            "seed": self.seed,
            "default": {
                "drop": self.default.drop,
                "duplicate": self.default.duplicate,
                "reorder": self.default.reorder,
                "delay": self.default.delay,
            },
            "link_overrides": len(self.links),
            "partitions": [
                "%s-%s@%g:%g" % (p.a, p.b, p.start, p.end)
                for p in self.partitions
            ],
            "crashes": [
                "%s@%g:%g%s" % (
                    c.broker_id, c.at, c.restart_at,
                    "" if c.with_state else ":nostate",
                )
                for c in self.crashes
            ],
            "rto": self.rto,
        }


def _parse_partition(value: str) -> Partition:
    """``b1-b2@2.0:5.0`` -> Partition."""
    link, sep, window = value.partition("@")
    if not sep or "-" not in link or ":" not in window:
        raise FaultSpecError(
            "partition must look like a-b@start:end, got %r" % value
        )
    a, _, b = link.partition("-")
    start, _, end = window.partition(":")
    if not a or not b:
        raise FaultSpecError("partition link in %r names an empty broker" % value)
    return Partition(a=a, b=b, start=float(start), end=float(end))


def _parse_crash(value: str) -> CrashEvent:
    """``b4@1.0:3.0`` or ``b4@1.0:3.0:nostate`` -> CrashEvent."""
    broker, sep, window = value.partition("@")
    if not sep or ":" not in window:
        raise FaultSpecError(
            "crash must look like broker@at:restart, got %r" % value
        )
    parts = window.split(":")
    with_state = True
    if len(parts) == 3 and parts[2] == "nostate":
        with_state = False
        parts = parts[:2]
    if len(parts) != 2 or not broker:
        raise FaultSpecError("malformed crash spec %r" % value)
    return CrashEvent(
        broker_id=broker,
        at=float(parts[0]),
        restart_at=float(parts[1]),
        with_state=with_state,
    )
