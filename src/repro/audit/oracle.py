"""The routing-state audit oracle.

The oracle keeps a *flat, centralized* view of the ground truth the
distributed protocol is supposed to maintain: which (client, XPE) pairs
are live, which advertisements stand, and — per submitted publication —
which clients must receive it.  :meth:`AuditOracle.check` then walks the
overlay at a quiescent point and verifies seven invariants:

1. **Delivery soundness** — every publication reached exactly the
   clients whose live subscriptions matched it at submit time.
2. **Representation** — for every live (client, XPE) pair, every broker
   on the path from each relevant publisher stores *some* expression
   covering the XPE, keyed toward the subscriber.  Valid because the
   merging rules only ever produce coverers and covering is transitive.
3. **No garbage** — every stored (expression, hop) entry is justified by
   a live subscription behind that hop which the expression covers.  An
   unjustified entry whose expression sits in the broker's merger
   registry is a *leaked merger* (the unsubscribe/merge bug class).
4. **Forwarded agreement** — per directed link, the sender's forwarding
   marks and the receiver's table entries agree, modulo constituents the
   receiver merged away (mark without entry) and mergers the receiver
   built locally (entry without mark).
5. **Path probes** — publications are walked hop by hop through the live
   ``_publish_destinations`` path (so match caches are exercised too);
   a hop no live subscription needs is a false positive, *explained*
   only if attributable to a live merger.
6. **Degree budget** — every recorded merge event's ``D_imperfect``
   against the path universe stays within the configured budget.

7. **Edge exactness** — every table entry ``(expr, client)`` of a local
   client is one of that client's exact subscriptions, or a registered
   merger holding a constituent or direct entry from it.  This is the
   premise an edge broker delivers on without re-checking
   (``Broker._resolve``); an entry that breaks it is a ``soundness``
   violation, ``inexact-client-entry``.

Violations are classified as ``soundness`` (a delivery can be missed),
``unexplained_fp`` (extra traffic not attributable to an imperfect
merger within budget), or ``explained_fp`` (informational: the paper's
sanctioned imperfection).

Accuracy contract: expected delivery sets are snapshotted when the
publication is *submitted*, so the harness must submit publications at
quiescent points (drain the overlay between subscription churn and
publishing) for the delivery check to be exact.  The structural checks
(2–7) are independent of submit timing.  A broker recovered *without*
state (``with_state=False``) legitimately forgets routing state — the
oracle records the event and skips the structural checks, since that
degraded mode is documented behaviour, not a bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.broker.messages import (
    AdvertiseMsg,
    Message,
    PublishMsg,
    SubscribeMsg,
    UnadvertiseMsg,
    UnsubscribeMsg,
)
from repro.covering.algorithms import covers
from repro.covering.pathmatch import matches_path
from repro.xmldoc.document import Publication
from repro.xpath.ast import WILDCARD, XPathExpr

SOUNDNESS = "soundness"
UNEXPLAINED_FP = "unexplained_fp"
EXPLAINED_FP = "explained_fp"


@dataclass(frozen=True)
class Violation:
    """One divergence between the overlay and the reference state."""

    kind: str  # SOUNDNESS / UNEXPLAINED_FP / EXPLAINED_FP
    code: str  # e.g. "missed-delivery", "leaked-merger", "stale-entry"
    broker_id: str  # "" for network-level violations
    detail: str
    #: Causal trace ids of the operations behind this violation (filled
    #: when the overlay runs with tracing enabled) — the exact traces to
    #: replay or look up in a flight-recorder dump.
    trace_ids: Tuple[str, ...] = ()

    def __str__(self):
        where = " at %s" % self.broker_id if self.broker_id else ""
        traces = (
            " [trace %s]" % ", ".join(self.trace_ids) if self.trace_ids else ""
        )
        return "[%s] %s%s: %s%s" % (
            self.kind, self.code, where, self.detail, traces
        )


@dataclass
class AuditReport:
    """Outcome of one :meth:`AuditOracle.check` pass."""

    soundness: List[Violation] = field(default_factory=list)
    unexplained_fp: List[Violation] = field(default_factory=list)
    explained_fp: List[Violation] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No soundness violations and no unexplained false positives
        (explained imperfections are the paper's sanctioned trade-off)."""
        return not self.soundness and not self.unexplained_fp

    def add(self, violation: Violation):
        {
            SOUNDNESS: self.soundness,
            UNEXPLAINED_FP: self.unexplained_fp,
            EXPLAINED_FP: self.explained_fp,
        }[violation.kind].append(violation)

    def summary(self) -> str:
        lines = [
            "audit: %d soundness, %d unexplained FP, %d explained FP -- %s"
            % (
                len(self.soundness),
                len(self.unexplained_fp),
                len(self.explained_fp),
                "OK" if self.ok else "VIOLATIONS",
            )
        ]
        for violation in self.soundness + self.unexplained_fp:
            lines.append("  " + str(violation))
        for key, value in sorted(self.info.items()):
            lines.append("  info: %s = %s" % (key, value))
        return "\n".join(lines)


@dataclass(frozen=True)
class PubRecord:
    """One submitted publication with its submit-time expected clients."""

    publisher_id: str
    doc_id: str
    path_id: int
    path: Tuple[str, ...]
    attributes: object
    expected: frozenset
    #: the publication's causal trace ("" when tracing is off)
    trace_id: str = ""


def advert_matches_path(advert, path: Tuple[str, ...]) -> bool:
    """Is *path* a word of ``P(advert)``?  (Wildcard tests match any
    element name.)"""
    for word in advert.words_up_to(len(path)):
        if len(word) == len(path) and all(
            test == WILDCARD or test == name
            for test, name in zip(word, path)
        ):
            return True
    return False


class AuditOracle:
    """Ground-truth registry + invariant checker for one overlay run.

    Attach with :meth:`Overlay.attach_auditor` *before* any client
    traffic is submitted; the overlay then feeds every submit, delivery
    and crash recovery into the oracle.  Call :meth:`check` at any
    quiescent point (it drains pending traffic first by default).
    """

    def __init__(self, probe_limit: int = 150):
        self._overlay = None
        self.probe_limit = probe_limit
        #: client -> live subscribed XPEs (the reference flat registry)
        self.live_subs: Dict[str, Set[XPathExpr]] = {}
        #: adv_id -> (advertisement, publisher client id)
        self.live_adverts: Dict[str, Tuple[object, str]] = {}
        #: submitted publications, first submission wins (clients
        #: deduplicate on (doc_id, path_id), so a re-submission of the
        #: same publication can never be delivered "again")
        self.publications: Dict[Tuple[str, int], PubRecord] = {}
        #: (doc_id, path_id) -> clients that received it (fresh only)
        self.delivered: Dict[Tuple[str, int], Set[str]] = {}
        #: (doc_id, path_id) -> clients served from an edge materialized
        #: view (docs/views.md).  A view-served delivery must land
        #: inside the submit-time expected set *exactly* — any excess is
        #: a soundness violation, because the serve path promises byte-
        #: identity with the core route.
        self.view_served: Dict[Tuple[str, int], Set[str]] = {}
        #: (doc_id, path_id) -> clients that received the publication
        #: via a view window replay.  Late subscribers are absent from
        #: the submit-time expected set by construction, so replays are
        #: judged at observe time (below) instead of against it.
        self.replayed: Dict[Tuple[str, int], Set[str]] = {}
        #: replays that matched no live subscription of the receiving
        #: client at delivery time — each becomes a soundness violation.
        self.replay_violations: List[Tuple[Tuple[str, int], str]] = []
        #: brokers that recovered without persisted state — documented
        #: degraded mode; structural checks are skipped once this is set
        self.stateless_recoveries: List[str] = []
        self.checks_run = 0

    # -- observation hooks (called by the Overlay) ------------------------

    def bind(self, overlay):
        self._overlay = overlay

    def observe_submit(self, client_id: str, message: Message):
        if isinstance(message, SubscribeMsg):
            self.live_subs.setdefault(client_id, set()).add(message.expr)
        elif isinstance(message, UnsubscribeMsg):
            exprs = self.live_subs.get(client_id)
            if exprs is not None:
                exprs.discard(message.expr)
                if not exprs:
                    del self.live_subs[client_id]
        elif isinstance(message, AdvertiseMsg):
            self.live_adverts[message.adv_id] = (message.advert, client_id)
        elif isinstance(message, UnadvertiseMsg):
            self.live_adverts.pop(message.adv_id, None)
        elif isinstance(message, PublishMsg):
            self._observe_publish(client_id, message)

    def _observe_publish(self, client_id: str, message: PublishMsg):
        publication = message.publication
        key = (publication.doc_id, publication.path_id)
        if key in self.publications:
            return
        if not self._publishable(client_id, publication.path):
            # The publisher never advertised this path; the protocol
            # makes no delivery promise for it.
            return
        attribute_maps = publication.attribute_maps()
        expected = frozenset(
            client
            for client, exprs in self.live_subs.items()
            if any(
                matches_path(expr, publication.path, attribute_maps)
                for expr in exprs
            )
        )
        context = getattr(message, "trace", None)
        self.publications[key] = PubRecord(
            publisher_id=client_id,
            doc_id=publication.doc_id,
            path_id=publication.path_id,
            path=publication.path,
            attributes=publication.attributes,
            expected=expected,
            trace_id=context.trace_id if context is not None else "",
        )

    def _publishable(self, publisher_id: str, path: Tuple[str, ...]) -> bool:
        if not self._overlay.config.advertisements:
            return True
        return any(
            advert_matches_path(advert, path)
            for advert, owner in self.live_adverts.values()
            if owner == publisher_id
        )

    def observe_delivery(
        self,
        client_id: str,
        message: PublishMsg,
        view: Optional[str] = None,
    ):
        publication = message.publication
        key = (publication.doc_id, publication.path_id)
        self.delivered.setdefault(key, set()).add(client_id)
        if view == "serve":
            self.view_served.setdefault(key, set()).add(client_id)
        elif view == "replay":
            self.replayed.setdefault(key, set()).add(client_id)
            # Judged now, not at check time: the legitimacy of a replay
            # is "the client held a matching subscription when the
            # window arrived", and live_subs moves on after this.
            attribute_maps = publication.attribute_maps()
            if not any(
                matches_path(expr, publication.path, attribute_maps)
                for expr in self.live_subs.get(client_id, ())
            ):
                self.replay_violations.append((key, client_id))

    def observe_recovery(self, broker_id: str, with_state: bool):
        if not with_state:
            self.stateless_recoveries.append(broker_id)

    # -- the checker -------------------------------------------------------

    def check(self, drain: bool = True) -> AuditReport:
        """Verify every invariant; returns the classified report."""
        overlay = self._overlay
        if overlay is None:
            raise RuntimeError("oracle is not attached to an overlay")
        if drain:
            overlay.run()
        self.checks_run += 1
        report = AuditReport()
        if self.stateless_recoveries:
            # with_state=False recovery legitimately forgets routing
            # state; structural comparisons against the full reference
            # would flag that documented degradation as bugs.
            report.info["degraded"] = (
                "stateless recovery of %s; structural checks skipped"
                % ",".join(self.stateless_recoveries)
            )
            self._check_deliveries(report)
            self._count(report)
            self._flight_dump_on_violation(report)
            return report
        self._check_deliveries(report)
        self._check_representation(report)
        self._check_stale_entries(report)
        self._check_forwarded_agreement(report)
        self._check_probes(report)
        self._check_merge_degrees(report)
        self._check_edge_exactness(report)
        self._count(report)
        self._flight_dump_on_violation(report)
        return report

    def _flight_dump_on_violation(self, report: AuditReport):
        """Flight-recorder trigger: a failed audit snapshots every
        broker's span ring and records the offending trace ids, so the
        report names both the dump and the exact traces to replay."""
        tracing = getattr(self._overlay, "tracing", None)
        if tracing is None or report.ok:
            return
        offenders = sorted(
            {
                trace_id
                for violation in report.soundness + report.unexplained_fp
                for trace_id in violation.trace_ids
            }
        )
        if offenders:
            report.info["traces"] = ", ".join(offenders)
        dump = tracing.flight.dump("audit-violation", time=self._overlay.now)
        report.info["flight_dump"] = dump.get(
            "path", "in-memory #%d" % dump["sequence"]
        )

    def _count(self, report: AuditReport):
        metrics = self._overlay.metrics
        if not metrics.enabled:
            return
        metrics.counter("audit.checks").inc()
        metrics.counter("audit.violations.soundness").inc(
            len(report.soundness)
        )
        metrics.counter("audit.violations.unexplained_fp").inc(
            len(report.unexplained_fp)
        )
        metrics.counter("audit.explained_fp").inc(len(report.explained_fp))

    # -- invariant 1: delivery soundness ----------------------------------

    def _check_deliveries(self, report: AuditReport):
        if getattr(self._overlay.config, "views", False):
            report.info["view_served"] = sum(
                len(clients) for clients in self.view_served.values()
            )
            report.info["replayed"] = sum(
                len(clients) for clients in self.replayed.values()
            )
        for key, record in sorted(self.publications.items()):
            delivered = self.delivered.get(key, set())
            traces = (record.trace_id,) if record.trace_id else ()
            served = self.view_served.get(key, set())
            replayed = self.replayed.get(key, set())
            for client in sorted(record.expected - delivered):
                report.add(
                    Violation(
                        SOUNDNESS,
                        "missed-delivery",
                        "",
                        "%s never received %s#%d"
                        % (client, record.doc_id, record.path_id),
                        trace_ids=traces,
                    )
                )
            for client in sorted(delivered - record.expected):
                if client in served:
                    # The serve path claims byte-identity with the core
                    # route; delivering outside the expected set means
                    # the view memo diverged — a soundness bug, not a
                    # merging-induced false positive.
                    report.add(
                        Violation(
                            SOUNDNESS,
                            "view-false-positive",
                            "",
                            "%s was view-served %s#%d outside the "
                            "expected set"
                            % (client, record.doc_id, record.path_id),
                            trace_ids=traces,
                        )
                    )
                    continue
                if client in replayed:
                    # Late-subscriber replays are legitimately absent
                    # from the submit-time expected set; their own
                    # legitimacy check ran at observe time and any
                    # failure sits in replay_violations (below).
                    continue
                report.add(
                    Violation(
                        UNEXPLAINED_FP,
                        "client-false-positive",
                        "",
                        "%s received %s#%d without a matching subscription"
                        % (client, record.doc_id, record.path_id),
                        trace_ids=traces,
                    )
                )
        for key, client in self.replay_violations:
            report.add(
                Violation(
                    SOUNDNESS,
                    "view-replay-false-positive",
                    "",
                    "%s was replayed %s#%d without a matching live "
                    "subscription" % (client, key[0], key[1]),
                )
            )

    # -- topology helpers --------------------------------------------------

    def _adjacency(self) -> Dict[str, List[str]]:
        adjacency: Dict[str, List[str]] = {
            broker: [] for broker in self._overlay.brokers
        }
        for a, b in self._overlay.links:
            adjacency[a].append(b)
            adjacency[b].append(a)
        return adjacency

    def _home(self, client_id: str) -> str:
        return self._overlay._client_home[client_id]

    def _broker_path(
        self, adjacency, src: str, dst: str
    ) -> Optional[List[str]]:
        """The unique broker path from *src* to *dst* in the tree."""
        if src == dst:
            return [src]
        parents = {src: None}
        stack = [src]
        while stack:
            current = stack.pop()
            for neighbor in adjacency[current]:
                if neighbor not in parents:
                    parents[neighbor] = current
                    if neighbor == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return path
                    stack.append(neighbor)
        return None

    def _clients_behind(
        self, adjacency, broker_id: str, hop: object
    ) -> Set[str]:
        """Live subscriber clients reachable through *hop* as seen from
        *broker_id* (a local client is behind its own hop)."""
        broker = self._overlay.brokers[broker_id]
        if hop in broker.local_clients:
            return {hop} if hop in self.live_subs else set()
        if hop not in adjacency.get(broker_id, ()):
            return set()
        component = {hop}
        stack = [hop]
        while stack:
            current = stack.pop()
            for neighbor in adjacency[current]:
                if neighbor != broker_id and neighbor not in component:
                    component.add(neighbor)
                    stack.append(neighbor)
        return {
            client
            for client in self.live_subs
            if self._home(client) in component
        }

    def _stored(self, broker) -> Dict[XPathExpr, Set[object]]:
        return {
            expr: broker._keys_of(expr)
            for expr in broker._forwardable_exprs()
        }

    def _live_pairs(self) -> List[Tuple[str, XPathExpr]]:
        return [
            (client, expr)
            for client, exprs in sorted(self.live_subs.items())
            for expr in sorted(exprs, key=str)
        ]

    def _relevant_publishers(self, expr: XPathExpr) -> Set[str]:
        """Publishers whose live advertisements intersect *expr* (all
        publishers when advertisement-based routing is off)."""
        overlay = self._overlay
        if not overlay.config.advertisements:
            return set(overlay.publishers)
        from repro.adverts.recursive import expr_and_advertisement

        return {
            owner
            for advert, owner in self.live_adverts.values()
            if expr_and_advertisement(advert, expr)
        }

    def _global_mergers(self) -> Set[XPathExpr]:
        mergers: Set[XPathExpr] = set()
        for broker in self._overlay.brokers.values():
            if broker._merge_registry is not None:
                mergers.update(broker._merge_registry.mergers())
        return mergers

    # -- invariant 2: representation --------------------------------------

    def _check_representation(self, report: AuditReport):
        overlay = self._overlay
        adjacency = self._adjacency()
        stored = {
            broker_id: self._stored(broker)
            for broker_id, broker in overlay.brokers.items()
            if not overlay.is_down(broker_id)
        }
        for client, expr in self._live_pairs():
            home = self._home(client)
            for publisher in sorted(self._relevant_publishers(expr)):
                path = self._broker_path(
                    adjacency, self._home(publisher), home
                )
                if path is None:
                    continue
                for index, broker_id in enumerate(path):
                    if broker_id not in stored:
                        continue  # down; checked after recovery
                    hop = (
                        client
                        if broker_id == home
                        else path[index + 1]
                    )
                    if not any(
                        hop in keys and (s == expr or covers(s, expr))
                        for s, keys in stored[broker_id].items()
                    ):
                        report.add(
                            Violation(
                                SOUNDNESS,
                                "missing-routing-entry",
                                broker_id,
                                "no stored coverer of %s keyed toward %s "
                                "(subscriber %s, publisher %s)"
                                % (expr, hop, client, publisher),
                            )
                        )

    # -- invariant 3: no garbage ------------------------------------------

    def _check_stale_entries(self, report: AuditReport):
        overlay = self._overlay
        adjacency = self._adjacency()
        for broker_id in sorted(overlay.brokers):
            if overlay.is_down(broker_id):
                continue
            broker = overlay.brokers[broker_id]
            registry = broker._merge_registry
            for s, keys in sorted(self._stored(broker).items(), key=lambda i: str(i[0])):
                for hop in sorted(keys, key=str):
                    behind = self._clients_behind(adjacency, broker_id, hop)
                    justified = any(
                        s == expr or covers(s, expr)
                        for client in behind
                        for expr in self.live_subs.get(client, ())
                    )
                    if justified:
                        continue
                    leaked = registry is not None and registry.is_merger(s)
                    report.add(
                        Violation(
                            UNEXPLAINED_FP,
                            "leaked-merger" if leaked else "stale-entry",
                            broker_id,
                            "entry (%s, %s) matches no live subscription "
                            "behind that hop" % (s, hop),
                        )
                    )

    # -- invariant 4: forwarded mark / table agreement --------------------

    def _check_forwarded_agreement(self, report: AuditReport):
        overlay = self._overlay
        for a, b in sorted(overlay.links) + [
            (b, a) for a, b in sorted(overlay.links)
        ]:
            if overlay.is_down(a) or overlay.is_down(b):
                continue
            sender = overlay.brokers[a]
            receiver = overlay.brokers[b]
            marks = {
                expr
                for expr in sender.forwarded.exprs()
                if b in sender.forwarded.neighbors_for(expr)
            }
            entries = {
                expr
                for expr, keys in self._stored(receiver).items()
                if a in keys
            }
            registry = receiver._merge_registry
            absorbed = (
                registry.constituents_absorbed_from(a)
                if registry is not None
                else set()
            )
            for expr in sorted(marks - entries, key=str):
                if expr in absorbed:
                    continue  # the receiver merged the constituent away
                report.add(
                    Violation(
                        SOUNDNESS,
                        "stale-forward-mark",
                        a,
                        "mark for %s toward %s has no table entry there "
                        "(the mark would suppress a needed re-forward)"
                        % (expr, b),
                    )
                )
            for expr in sorted(entries - marks, key=str):
                if registry is not None and registry.is_merger(expr) and any(
                    a in hops
                    for hops in registry.constituents[expr].values()
                ):
                    continue  # receiver-built merger carrying a's interest
                report.add(
                    Violation(
                        SOUNDNESS,
                        "unknown-upstream-entry",
                        b,
                        "table entry (%s, %s) was never forwarded by %s"
                        % (expr, a, a),
                    )
                )

    # -- invariant 5: path probes -----------------------------------------

    def _probe_paths(self) -> List[Tuple[str, ...]]:
        probes: List[Tuple[str, ...]] = []
        seen: Set[Tuple[str, ...]] = set()
        universe = self._overlay.universe
        if universe is not None:
            for path in universe.paths[: self.probe_limit]:
                path = tuple(path)
                if path not in seen:
                    seen.add(path)
                    probes.append(path)
        for record in self.publications.values():
            if record.path not in seen:
                seen.add(record.path)
                probes.append(record.path)
        return probes

    def _check_probes(self, report: AuditReport):
        overlay = self._overlay
        if any(overlay.is_down(b) for b in overlay.brokers):
            report.info["probes"] = "skipped: a broker is down"
            return
        adjacency = self._adjacency()
        mergers = self._global_mergers()
        behind_cache: Dict[Tuple[str, object], Set[str]] = {}

        def clients_behind(broker_id, hop):
            key = (broker_id, hop)
            if key not in behind_cache:
                behind_cache[key] = self._clients_behind(
                    adjacency, broker_id, hop
                )
            return behind_cache[key]

        probed = 0
        for publisher in sorted(overlay.publishers):
            for probe in self._probe_paths():
                if not self._publishable(publisher, probe):
                    continue
                probed += 1
                expected = {
                    client
                    for client, exprs in self.live_subs.items()
                    if any(matches_path(expr, probe) for expr in exprs)
                }
                publication = Publication(
                    doc_id="__audit-probe__", path_id=0, path=probe
                )
                reached: Set[str] = set()
                frontier = [(self._home(publisher), publisher)]
                while frontier:
                    broker_id, from_hop = frontier.pop()
                    broker = overlay.brokers[broker_id]
                    for dest in broker._publish_destinations(
                        publication, from_hop
                    ):
                        if dest in overlay.brokers:
                            self._classify_probe_hop(
                                report,
                                broker,
                                dest,
                                probe,
                                clients_behind(broker_id, dest),
                                mergers,
                            )
                            frontier.append((dest, broker_id))
                        else:
                            reached.add(dest)
                for client in sorted(expected - reached):
                    report.add(
                        Violation(
                            SOUNDNESS,
                            "probe-missed",
                            self._home(client),
                            "probe /%s from %s never reached %s"
                            % ("/".join(probe), publisher, client),
                        )
                    )
                for client in sorted(reached - expected):
                    report.add(
                        Violation(
                            UNEXPLAINED_FP,
                            "client-false-positive",
                            self._home(client),
                            "probe /%s delivered to %s without a matching "
                            "subscription" % ("/".join(probe), client),
                        )
                    )
        report.info["probes"] = probed

    def _classify_probe_hop(
        self, report, broker, dest, probe, behind, mergers
    ):
        """An inter-broker probe hop: needed, explained, or a leak."""
        needed = any(
            matches_path(expr, probe)
            for client in behind
            for expr in self.live_subs.get(client, ())
        )
        if needed:
            return
        explained = any(
            s in mergers and dest in keys and matches_path(s, probe)
            for s, keys in self._stored(broker).items()
        )
        detail = "probe /%s forwarded to %s with no live match behind it" % (
            "/".join(probe),
            dest,
        )
        if explained:
            report.add(
                Violation(
                    EXPLAINED_FP, "merger-false-positive",
                    broker.broker_id, detail,
                )
            )
        else:
            report.add(
                Violation(
                    UNEXPLAINED_FP, "probe-extra-hop",
                    broker.broker_id, detail,
                )
            )

    # -- invariant 6: merge degree budget ---------------------------------

    def _check_merge_degrees(self, report: AuditReport):
        overlay = self._overlay
        universe = overlay.universe
        if universe is None:
            report.info["degrees"] = "skipped: no path universe"
            return
        from repro.broker.strategies import MergingMode

        if overlay.config.merging is MergingMode.OFF:
            return
        budget = (
            0.0
            if overlay.config.merging is MergingMode.PERFECT
            else overlay.config.max_imperfect_degree
        )
        events = 0
        for broker_id in sorted(overlay.brokers):
            broker = overlay.brokers[broker_id]
            for event in broker.merge_log:
                events += 1
                degree = universe.imperfect_degree(
                    event.merger, event.replaced
                )
                if degree > budget + 1e-9:
                    report.add(
                        Violation(
                            UNEXPLAINED_FP,
                            "degree-budget-exceeded",
                            broker_id,
                            "merge of %s has D_imperfect %.4f > budget %.4f"
                            % (
                                " | ".join(map(str, event.replaced)),
                                degree,
                                budget,
                            ),
                        )
                    )
        report.info["merge_events"] = events

    # -- invariant 7: edge exactness --------------------------------------

    def _check_edge_exactness(self, report: AuditReport):
        overlay = self._overlay
        for broker_id in sorted(overlay.brokers):
            if overlay.is_down(broker_id):
                continue
            broker = overlay.brokers[broker_id]
            for client, expr in sorted(
                broker.inexact_client_entries(), key=str
            ):
                report.add(
                    Violation(
                        SOUNDNESS,
                        "inexact-client-entry",
                        broker_id,
                        "entry (%s, %s) is neither an exact subscription "
                        "of that client nor a merger absorbing one; the "
                        "edge would deliver on it unchecked" % (expr, client),
                    )
                )
