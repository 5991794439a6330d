"""Routing strategy configuration.

The evaluation (Tables 2–3) compares six strategies built from three
switches: advertisement-based subscription routing, covering-based
forwarding suppression, and merging (perfect or imperfect).
:class:`RoutingConfig` captures one combination; the class methods build
the paper's six named rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MergingMode(enum.Enum):
    """Merging flavours from the paper."""

    OFF = "off"
    PERFECT = "perfect"
    IMPERFECT = "imperfect"


#: Publication-matching backends selectable per broker.  ``auto`` keeps
#: the paper's arrangement (the covering tree doubles as the matcher
#: when covering is on, the flat linear scan otherwise); ``shared``
#: layers a :class:`~repro.matching.shared_automaton.
#: SharedAutomatonMatcher` mirror over the routing table so one
#: document pass matches every resident subscription at once (the
#: mass-subscription path — see docs/matching.md).  A SUB or UNSUB
#: repairs only the lazy-DFA states it touches, so the mirror needs no
#: partitioning to stay warm under churn.
MATCHING_ENGINES = ("auto", "shared")


@dataclass(frozen=True)
class RoutingConfig:
    """One routing strategy.

    Attributes:
        advertisements: route subscriptions only toward intersecting
            advertisements instead of flooding them.
        covering: suppress forwarding of covered subscriptions and
            unsubscribe displaced ones.
        merging: merge similar XPEs in the routing table.  With
            covering the sweep rewrites the subscription tree; without
            it the flat table is swept as one sibling group (see
            ``MergingEngine.merge_flat``).
        max_imperfect_degree: imperfection budget for ``IMPERFECT``
            merging (the paper's headline configuration uses 0.1).
        merge_interval: run a merge sweep after this many processed
            subscriptions ("we periodically apply the merging rules").
    """

    advertisements: bool = True
    covering: bool = True
    merging: MergingMode = MergingMode.OFF
    max_imperfect_degree: float = 0.1
    merge_interval: int = 100
    #: Suppress flooding of advertisements covered by a same-direction
    #: advertisement (paper §2.2 defines advertisement covering "in the
    #: same manner" as subscription covering).  Off by default — the
    #: paper's evaluation does not enable it.
    advert_covering: bool = False
    #: Publication-matching backend (see :data:`MATCHING_ENGINES`).
    #: Orthogonal to the routing strategy: the SRT/covering tree keep
    #: driving *forwarding*, this only selects how a publication is
    #: matched against the resident XPEs.
    matching_engine: str = "auto"

    def __post_init__(self):
        if self.merge_interval < 1:
            raise ValueError("merge_interval must be at least 1")
        if self.matching_engine not in MATCHING_ENGINES:
            raise ValueError(
                "unknown matching engine %r (one of %s)"
                % (self.matching_engine, ", ".join(MATCHING_ENGINES))
            )

    # -- the six rows of Tables 2 and 3 ------------------------------------

    @classmethod
    def no_adv_no_cov(cls):
        return cls(advertisements=False, covering=False)

    @classmethod
    def no_adv_with_cov(cls):
        return cls(advertisements=False, covering=True)

    @classmethod
    def with_adv_no_cov(cls):
        return cls(advertisements=True, covering=False)

    @classmethod
    def with_adv_with_cov(cls):
        return cls(advertisements=True, covering=True)

    @classmethod
    def with_adv_with_cov_pm(cls, merge_interval: int = 100):
        return cls(
            advertisements=True,
            covering=True,
            merging=MergingMode.PERFECT,
            merge_interval=merge_interval,
        )

    @classmethod
    def with_adv_with_cov_ipm(
        cls, max_imperfect_degree: float = 0.1, merge_interval: int = 100
    ):
        return cls(
            advertisements=True,
            covering=True,
            merging=MergingMode.IMPERFECT,
            max_imperfect_degree=max_imperfect_degree,
            merge_interval=merge_interval,
        )

    @classmethod
    def full(cls):
        """The most optimised configuration."""
        return cls.with_adv_with_cov_ipm()

    ALL_NAMES = (
        "no-Adv-no-Cov",
        "no-Adv-with-Cov",
        "with-Adv-no-Cov",
        "with-Adv-with-Cov",
        "with-Adv-with-CovPM",
        "with-Adv-with-CovIPM",
    )

    @classmethod
    def by_name(cls, name: str) -> "RoutingConfig":
        """Look up one of the paper's six strategy names."""
        table = {
            "no-Adv-no-Cov": cls.no_adv_no_cov,
            "no-Adv-with-Cov": cls.no_adv_with_cov,
            "with-Adv-no-Cov": cls.with_adv_no_cov,
            "with-Adv-with-Cov": cls.with_adv_with_cov,
            "with-Adv-with-CovPM": cls.with_adv_with_cov_pm,
            "with-Adv-with-CovIPM": cls.with_adv_with_cov_ipm,
        }
        try:
            return table[name]()
        except KeyError:
            raise ValueError("unknown routing strategy %r" % name)

    @property
    def name(self) -> str:
        adv = "with-Adv" if self.advertisements else "no-Adv"
        cov = "with-Cov" if self.covering else "no-Cov"
        suffix = {
            MergingMode.OFF: "",
            MergingMode.PERFECT: "PM",
            MergingMode.IMPERFECT: "IPM",
        }[self.merging]
        return "%s-%s%s" % (adv, cov, suffix)
