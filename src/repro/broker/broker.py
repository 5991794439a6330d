"""The content-based XML router (paper §2–4).

A broker knows only its neighbours.  It owns no clock, no queue and no
I/O: every host — the discrete-event simulator
(:class:`~repro.network.overlay.Overlay`), the asyncio backend and the
socket nodes of the multiprocess deployment — hands it one inbound
frame at a time (a control message, or a *group*: consecutive
publications of one document that crossed a link together) and moves
the outbound :data:`Frame` list it returns.  A frame is ``(destination,
messages)``: *destination* is a neighbour broker id or a locally
attached client id, *messages* a tuple.  What a frame means beyond its
link — spans, audit, delivery records — lives in
:mod:`repro.runtime.host`.

Determinism contract (pinned by tests/test_broker_core.py): for a fixed
message sequence the frame list is a pure function of the sequence — no
wall-clock reads, no iteration-order nondeterminism — and replaying the
suffix of a sequence on a broker restored from a mid-sequence snapshot
yields the same frames (compared with :func:`canonical_effects`).  That
is what lets the three backends be differentially tested against each
other (tests/test_runtime_equivalence.py) and what makes crash recovery
by snapshot replay sound.

Correctness note on covering suppression: "do not forward a covered
subscription" must be applied *per neighbour*.  Suppose ``s1`` arrives
from neighbour X and is forwarded everywhere except X, then ``s2 ⊑ s1``
arrives from neighbour Y.  Hop-agnostic suppression would drop ``s2``
entirely — but X never received ``s1`` (it came from there), so
publishers behind X would never learn to route toward Y.  The rule
implemented here: forward ``s2`` to neighbour ``n`` unless some stored
subscription covering ``s2`` was already forwarded to ``n``.  The
delivery-equivalence test suite (tests/test_network_invariants.py)
checks every strategy delivers exactly the flooding baseline's
documents.

False positives: imperfect merging may route extra publications through
the network, but an edge broker delivers to a client only on the
client's *exact* subscriptions — clients are never exposed to false
positives (paper §4.3/§5).  A table entry ``(expr, client)`` is one of
the client's own subscriptions unless ``expr`` is a merger that absorbed
some of them, so for a client no live merger absorbs, "its key matched"
already *is* "an exact subscription matched" and the match that ran
decides delivery; only a client the merger registry reports absorbed
(``MergerRegistry.absorbs``) is re-checked against ``client_subs``.  The
audit oracle's *edge exactness* invariant and ``persistence.restore``
check the premise (:meth:`Broker.inexact_client_entries`).
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.obs.tracing import current_scope
from repro.adverts.recursive import expr_and_advertisement
from repro.cache import RouteMemo
from repro.broker.messages import (
    AdvertiseMsg,
    Message,
    PublishMsg,
    SubscribeMsg,
    UnadvertiseMsg,
    UnsubscribeMsg,
)
from repro.broker.strategies import MergingMode, RoutingConfig
from repro.broker.tables import ForwardedState, SubscriptionRoutingTable
from repro.covering.pathmatch import matches_path
from repro.covering.subscription_tree import SubscriptionTree
from repro.errors import ProtocolError, RoutingError
from repro.matching.engine import LinearMatcher
from repro.matching.shared_automaton import SharedAutomatonMatcher
from repro.merging.engine import MergeEvent, MergingEngine, PathUniverse
from repro.merging.registry import MergerRegistry
from repro.xpath.ast import XPathExpr

#: One outbound frame: ``(destination, messages)``.
Frame = Tuple[object, Tuple[Message, ...]]


class Broker:
    """One content-based router.

    Args:
        broker_id: unique overlay identifier.
        config: the routing strategy (see :class:`RoutingConfig`).
        universe: publication universe for merging-degree computation;
            required for PERFECT/IMPERFECT merging to be effective.
    """

    def __init__(
        self,
        broker_id: str,
        config: Optional[RoutingConfig] = None,
        universe: Optional[PathUniverse] = None,
    ):
        self.broker_id = broker_id
        self.config = config if config is not None else RoutingConfig.full()
        self.neighbors: Set[object] = set()
        self.local_clients: Set[object] = set()

        self.srt = SubscriptionRoutingTable()
        self.forwarded = ForwardedState()
        # The one publication routing table (paper §4.1), reached only
        # through the table contract (broker/tables.py): the
        # subscription tree with covering, otherwise a flat table whose
        # covering steps are empty.  Under ``matching_engine="shared"``
        # a flat table is the shared automaton itself, and a tree gets
        # one beside it as ``mirror``, edited with it (``add_entry``,
        # ``_retire_key``, ``_merge_sweep``) and matched instead of it.
        shared = self.config.matching_engine == "shared"
        self.mirror: Optional[SharedAutomatonMatcher] = None
        if self.config.covering:
            self.table = SubscriptionTree()
            if shared:
                self.mirror = SharedAutomatonMatcher()
        else:
            self.table = SharedAutomatonMatcher() if shared else LinearMatcher()
        #: What :meth:`_route` matches publications on, and the engine
        #: its ``match`` span names.
        self._matcher = self.table if self.mirror is None else self.mirror
        self._engine = (
            "shared" if shared else "tree" if self.config.covering else "flat"
        )
        #: The shared automaton, table or mirror (None under ``auto``).
        self.automaton: Optional[SharedAutomatonMatcher] = (
            self._matcher if shared else None
        )

        self._merger: Optional[MergingEngine] = None
        self._merge_registry: Optional[MergerRegistry] = None
        if self.config.merging is not MergingMode.OFF:
            max_degree = (
                0.0
                if self.config.merging is MergingMode.PERFECT
                else self.config.max_imperfect_degree
            )
            self._merger = MergingEngine(
                universe=universe, max_degree=max_degree
            )
            self._merge_registry = MergerRegistry()
        self._subs_since_merge = 0
        #: Applied merge events, in order — the audit oracle attributes
        #: false positives to these (persisted across crash recovery).
        self.merge_log: List[MergeEvent] = []

        # Exact client subscriptions: the edge-delivery filter for
        # clients a merger absorbs (see the module docstring).
        self.client_subs: Dict[object, Set[XPathExpr]] = defaultdict(set)
        self.stats: Dict[str, int] = defaultdict(int)

        #: The route memo: path → routing decision (matched keys +
        #: sorted destinations).  Exact by maintenance, not by
        #: versioning: a SUB inserts its hop into the decisions its
        #: expression matches, an UNSUB drops those (counted in
        #: ``match_cache_stale``), and everything that is
        #: not a single-key table edit — merge sweeps, wiring changes,
        #: ``client_subs`` edits with no table edit — clears it.
        #: Deliberately *not* persisted: a restored broker starts cold.
        self.match_cache = RouteMemo(maxsize=4096)
        self.match_cache_stale = 0

    # -- wiring --------------------------------------------------------------

    def connect(self, neighbor_id: object):
        """Attach a neighbouring broker."""
        if neighbor_id == self.broker_id:
            raise RoutingError("a broker cannot neighbour itself")
        if neighbor_id in self.local_clients:
            raise RoutingError("%r is already a local client" % (neighbor_id,))
        self.neighbors.add(neighbor_id)
        self.match_cache.clear()

    def attach_client(self, client_id: object):
        """Attach a local client (publisher or subscriber)."""
        if client_id in self.neighbors:
            raise RoutingError("%r is already a neighbour" % (client_id,))
        self.local_clients.add(client_id)
        self.match_cache.clear()

    # -- dispatch --------------------------------------------------------------

    def handle(self, message: Message, from_hop: object) -> List[Frame]:
        """Process one message; returns the outbound frames, in
        emission order.  A control message yields one single-message
        frame per emitted message; a publication is a group of one
        (:meth:`handle_publications`).

        Unknown message kinds are a protocol violation: they raise
        :class:`~repro.errors.ProtocolError` (and count under the
        ``broker.unknown_kind`` metric) instead of being dropped, so a
        malformed peer is surfaced at the first bad message.
        """
        entry = self._DISPATCH.get(type(message))
        if entry is None:
            if isinstance(message, PublishMsg):
                return self.handle_publications((message,), from_hop)
            # Not one of the four exact control types: a subclass still
            # routes (first isinstance match), anything else is unknown.
            for cls, entry in self._DISPATCH.items():
                if isinstance(message, cls):
                    break
            else:
                obs.inc("broker.unknown_kind")
                self.stats["unknown"] += 1
                raise ProtocolError(
                    "broker %r received unknown message kind %r"
                    % (
                        self.broker_id,
                        getattr(message, "kind", type(message).__name__),
                    )
                )
        handler, metric = entry
        self.stats[message.kind] += 1
        registry = obs.get_registry()
        if not registry.enabled:
            return self._checked(handler(self, message, from_hop))
        with registry.timer(metric):
            return self._checked(handler(self, message, from_hop))

    def _checked(self, frames: List[Frame]) -> List[Frame]:
        """Control frames on their way out: a destination that is
        neither a neighbour nor an attached client (an advertisement
        from an unconnected hop draws a replay toward it) raises here,
        before any host sees it.  Publication frames need no check:
        :meth:`_resolve` only ever names a neighbour or a client."""
        neighbors, clients = self.neighbors, self.local_clients
        for destination, _messages in frames:
            if destination not in neighbors and destination not in clients:
                raise RoutingError(
                    "broker %r emitted message to unknown destination %r"
                    % (self.broker_id, destination)
                )
        return frames

    # -- advertisements ----------------------------------------------------------

    def handle_advertise(
        self, msg: AdvertiseMsg, from_hop: object
    ) -> List[Frame]:
        """Flood the advertisement and replay intersecting subscriptions
        toward it (so subscription/advertisement arrival order does not
        matter)."""
        if not self.srt.add(msg.adv_id, msg.advert, from_hop, msg.publisher_id):
            # duplicate (flooding cycle or at-least-once redelivery,
            # e.g. a neighbour re-announcing after crash recovery):
            # flooding terminates here and no state changes.
            self.stats["redelivered"] += 1
            obs.inc("broker.redelivered.advertise")
            return []
        # Publication routing never reads the SRT: the route memo stays.
        out = self._flood(msg, from_hop)
        if self.config.advertisements:
            out.extend(self._replay_subscriptions(msg, from_hop))
        return out

    def _replay_subscriptions(
        self, msg: AdvertiseMsg, from_hop: object
    ) -> List[Frame]:
        """Forward stored subscriptions that intersect a new advertisement
        toward its last hop, unless already sent or already covered there."""
        if from_hop in self.local_clients or from_hop is None:
            return []
        replayed = []
        # Decided coverers-first (tree order: a mark made here covers
        # the descendants visited after it); sibling order is an
        # accident of insertion history, so emission is sorted.
        for expr in self.table.exprs():
            if self.forwarded.was_sent(expr, from_hop):
                continue
            if not expr_and_advertisement(msg.advert, expr):
                continue
            if self._covered_at(expr, from_hop):
                continue
            if self.table.keys_of(expr) == {from_hop}:
                continue  # its only consumer lies behind that hop
            replayed.append(expr)
            self.forwarded.mark(expr, from_hop)
        return [
            (from_hop, (SubscribeMsg(expr=expr),))
            for expr in sorted(replayed, key=str)
        ]

    def handle_unadvertise(
        self, msg: UnadvertiseMsg, from_hop: object
    ) -> List[Frame]:
        """Retract an advertisement (extension; the paper's evaluation
        never unadvertises)."""
        if not self.srt.remove(msg.adv_id):
            self.stats["redelivered"] += 1
            obs.inc("broker.redelivered.unadvertise")
            return []
        return self._flood(msg, from_hop)

    def _flood(self, msg: Message, from_hop: object) -> List[Frame]:
        """*msg* to every neighbour but its last hop, in canonical order
        (``neighbors`` is a set: its order depends on the hash seed)."""
        return [
            (n, (msg,))
            for n in sorted(self.neighbors, key=str)
            if n != from_hop
        ]

    # -- subscriptions ------------------------------------------------------------

    def handle_subscribe(
        self, msg: SubscribeMsg, from_hop: object
    ) -> List[Frame]:
        expr = msg.expr
        merge_registry = self._merge_registry
        if from_hop in self.table.keys_of(expr):
            # At-least-once redelivery of a subscription this broker
            # already holds for this hop: re-applying it must not touch
            # the covering tree, last-hop tables or the merge cadence —
            # everything it could trigger already happened.
            if merge_registry is not None and merge_registry.is_merger(expr):
                # The hop subscribed the merger expression itself; its
                # interest must outlive the constituents it may also
                # contribute through.
                merge_registry.add_direct(expr, from_hop)
            self.stats["redelivered"] += 1
            obs.inc("broker.redelivered.subscribe")
            if from_hop in self.local_clients:
                self._client_sub_add(from_hop, expr)
            return []
        if (
            merge_registry is not None
            and merge_registry.find_contribution(expr, from_hop) is not None
        ):
            # A constituent this broker merged away: the merger already
            # carries this hop's interest, so the routing state is
            # complete — only the exact edge filter needs the expr.
            self.stats["redelivered"] += 1
            obs.inc("broker.merge.constituent_resubscribe")
            if from_hop in self.local_clients:
                self._client_sub_add(from_hop, expr)
            return []
        local = from_hop in self.local_clients
        if local:
            self.client_subs[from_hop].add(expr)
        if merge_registry is not None:
            # A new hop subscribing a live merger expression: direct
            # interest, like the redelivery case above (no-op unless
            # *expr* is a registered merger).
            merge_registry.add_direct(expr, from_hop)
        self.match_cache.subscribe(
            expr, from_hop, local or from_hop in self.neighbors
        )

        scope = current_scope()
        wall0 = perf_counter() if scope is not None else 0.0
        self.add_entry(expr, from_hop)
        out: List[Frame] = []
        targets = self._subscription_targets(expr, from_hop)
        for n in sorted(targets, key=str):
            if self.forwarded.was_sent(expr, n):
                continue
            if self._covered_at(expr, n):
                continue
            out.append((n, (SubscribeMsg(expr=expr),)))
            self.forwarded.mark(expr, n)
        # Unsubscribe now-covered subscriptions from the hops that
        # just received (or already had) the covering expression.
        covered_now = self.forwarded.neighbors_for(expr)
        for descendant in sorted(self.table.descendants(expr), key=str):
            for n in sorted(self.forwarded.neighbors_for(descendant), key=str):
                if n in covered_now:
                    out.append((n, (UnsubscribeMsg(expr=descendant),)))
                    self.forwarded.unmark(descendant, n)
        if scope is not None:
            scope.sub_span(
                "covering.check", wall0, perf_counter(), forwards=len(out)
            )
        out.extend(self._maybe_merge())
        return out

    def add_entry(self, expr: XPathExpr, key: object):
        """Store one ``(expr, key)`` entry in the table and its mirror,
        with no forwarding: a SUB's table step, and how a snapshot
        restore refills a broker."""
        self.table.add(expr, key)
        if self.mirror is not None:
            self.mirror.add(expr, key)

    def _subscription_targets(
        self, expr: XPathExpr, from_hop: object
    ) -> Set[object]:
        """Where a subscription wants to go: toward intersecting
        advertisements, or everywhere (flooding) without them."""
        if self.config.advertisements:
            return self.srt.matching_last_hops(
                expr, self.neighbors - {from_hop}
            )
        targets = set(self.neighbors)
        targets.discard(from_hop)
        return targets

    def _covered_at(self, expr: XPathExpr, neighbor: object) -> bool:
        """Is some stored subscription covering *expr* already forwarded
        to *neighbor*?"""
        was_sent = self.forwarded.was_sent
        return any(
            was_sent(coverer, neighbor)
            for coverer in self.table.coverers(expr)
        )

    # -- unsubscriptions --------------------------------------------------------

    def handle_unsubscribe(
        self, msg: UnsubscribeMsg, from_hop: object
    ) -> List[Frame]:
        expr = msg.expr
        edited = (
            from_hop in self.local_clients
            and expr in self.client_subs[from_hop]
        )
        if edited:
            self.client_subs[from_hop].discard(expr)
        merge_registry = self._merge_registry
        if from_hop not in self.table.keys_of(expr):
            if edited:
                self._client_subs_edited()
            if merge_registry is not None:
                merger = merge_registry.find_contribution(expr, from_hop)
                if merger is not None:
                    # The expr was merged away; this hop's interest now
                    # lives on the merger's key.  Retire the merger key
                    # once its last reason (constituent or direct
                    # subscription) for this hop is gone.
                    merge_registry.remove_contribution(merger, expr, from_hop)
                    obs.inc("broker.merge.constituent_unsubscribe")
                    if merge_registry.hop_needs(merger, from_hop):
                        return []
                    return self._retire_key(merger, from_hop)
            # unknown (already removed, or redelivered) — a no-op, so
            # retrying an unsubscription can never corrupt the tables.
            self.stats["redelivered"] += 1
            obs.inc("broker.redelivered.unsubscribe")
            return []
        if merge_registry is not None and merge_registry.is_merger(expr):
            # Unsubscription of the merger expression itself: the key
            # must survive while any constituent behind this hop still
            # justifies it.
            merge_registry.remove_direct(expr, from_hop)
            if merge_registry.hop_needs(expr, from_hop):
                obs.inc("broker.merge.direct_unsubscribe_held")
                if edited:
                    self._client_subs_edited()
                return []
        return self._retire_key(expr, from_hop)

    def _retire_key(self, expr: XPathExpr, from_hop: object) -> List[Frame]:
        """Remove *expr*'s key for *from_hop* from the routing table and
        emit the resulting retractions/promotions.  Every UNSUBSCRIBE
        emitted here goes through :meth:`_emit_retractions`, which drops
        the forwarding marks atomically with the emission — a mark must
        never outlive the upstream entry it describes (it would suppress
        a later re-forward of the same expression)."""
        dropped = self.match_cache.retire(expr)
        if dropped:
            self.match_cache_stale += dropped
            obs.inc("broker.match_cache.stale", dropped)
        if self.mirror is not None:
            self.mirror.remove(expr, from_hop)
        outcome = self.table.remove(expr, from_hop)
        if not outcome.removed:
            return []
        out = self._emit_retractions(expr)
        # Subscriptions the removed one was covering may now need their
        # own propagation.
        for promoted in outcome.promoted:
            keys = self.table.keys_of(promoted)
            targets = self._subscription_targets(promoted, None)
            for n in sorted(targets, key=str):
                if self.forwarded.was_sent(promoted, n):
                    continue
                if self._covered_at(promoted, n):
                    continue
                if keys == {n}:
                    continue
                out.append((n, (SubscribeMsg(expr=promoted),)))
                self.forwarded.mark(promoted, n)
        if (
            self._merge_registry is not None
            and self._merge_registry.is_merger(expr)
            and not self.table.keys_of(expr)
        ):
            self._merge_registry.forget(expr)
        return out

    def _emit_retractions(self, expr: XPathExpr) -> List[Frame]:
        """UNSUBSCRIBE *expr* from every neighbour it was forwarded to,
        clearing the marks in the same step."""
        return [
            (n, (UnsubscribeMsg(expr=expr),))
            for n in self.forwarded.drop(expr)
        ]

    # -- publications --------------------------------------------------------------

    #: control message type -> (handler, timer metric), looked up by
    #: exact type in :meth:`handle`; built once, after the four
    #: handlers exist.  Publications go through
    #: :meth:`handle_publications`.
    _DISPATCH = {
        AdvertiseMsg: (handle_advertise, "broker.handle.advertise"),
        UnadvertiseMsg: (handle_unadvertise, "broker.handle.unadvertise"),
        SubscribeMsg: (handle_subscribe, "broker.handle.subscribe"),
        UnsubscribeMsg: (handle_unsubscribe, "broker.handle.unsubscribe"),
    }

    def handle_publications(
        self, messages: Sequence[PublishMsg], from_hop: object
    ) -> List[Frame]:
        """Route a group of publications arriving from one hop —
        consecutive paths of one document, or a lone publication as a
        group of one.

        Returns the outbound frames (:data:`Frame`): each destination's
        messages in arrival order, destinations in first-emission
        order.  Every path probes the route memo on its own, so routing
        a group is exactly routing its members one by one; only the
        per-hop bookkeeping around them is paid once — the registry and
        hop-scope lookups, the ``broker.match_cache.*`` counters
        (incremented by count), and, when every path resolved to one
        decision (the memo shares one object per equal decision), the
        fan-out: then every destination's frame carries
        the one tuple of the whole group.
        """
        self.stats[messages[0].kind] += len(messages)
        registry = obs.get_registry()
        metered = registry.enabled
        if metered:
            started = perf_counter()
            memo = self.match_cache
            hits, misses = memo.hits, memo.misses
        scope = current_scope()
        # A lone message's hop scope already points at it.
        focus = scope is not None and len(messages) > 1
        decisions = []
        for msg in messages:
            if focus:
                scope.focus(msg)
            decisions.append(self._route(msg.publication, scope)[1])
        first = decisions[0]
        # ``count`` tries identity before equality, so one shared
        # decision is recognised without comparing a tuple; an equal
        # copy (after the memo's table was cleared) fans out the same.
        if decisions.count(first) == len(decisions):
            group = tuple(messages)  # the identity for a forwarded frame
            frames = [(hop, group) for hop in first if hop != from_hop]
        else:
            routed: Dict[object, List[PublishMsg]] = {}
            for msg, destinations in zip(messages, decisions):
                for destination in destinations:
                    if destination == from_hop:
                        continue
                    members = routed.get(destination)
                    if members is None:
                        routed[destination] = [msg]
                    else:
                        members.append(msg)
            frames = [
                (destination, tuple(members))
                for destination, members in routed.items()
            ]
        if metered:
            if memo.hits != hits:
                registry.counter("broker.match_cache.hits").inc(
                    memo.hits - hits
                )
            if memo.misses != misses:
                registry.counter("broker.match_cache.misses").inc(
                    memo.misses - misses
                )
            registry.histogram("broker.handle.publish").record(
                perf_counter() - started
            )
        return frames

    def _publish_destinations(self, publication, from_hop: object) -> List[object]:
        """Destinations for one publication: the memoised routing
        decision minus the arrival hop."""
        return [hop for hop in self._route(publication)[1] if hop != from_hop]

    def _route(self, publication, scope=None) -> Tuple[frozenset, tuple]:
        """The routing decision for *publication* — ``(matched keys,
        destinations in emission order)`` — from the route memo (see
        ``match_cache``) or computed and memoised.  *scope* is the hop
        scope the caller read (None outside a traced hop): it receives
        the ``match`` sub-span.  The memo's own ``hits`` / ``misses``
        are the only per-path counts; the caller publishes them."""
        path = publication.path
        wall0 = perf_counter() if scope is not None else 0.0
        route = self.match_cache.get(path)
        if route is not None:
            if scope is not None:
                scope.sub_span(
                    "match", wall0, perf_counter(),
                    cache="hit", keys=len(route[0]),
                )
            return route
        keys = frozenset(self._matcher.match(path))
        if scope is not None:
            scope.sub_span(
                "match", wall0, perf_counter(),
                cache="miss", engine=self._engine, keys=len(keys),
            )
        return self.match_cache.put(path, keys, self._resolve(path, keys))

    def _resolve(self, path, keys) -> tuple:
        """Matched keys → destinations in emission order: neighbours,
        and the local clients an exact subscription of theirs matched —
        which a matched key proves, except for a client some live
        merger absorbs: that one is re-checked (module docstring)."""
        local_clients = self.local_clients
        neighbors = self.neighbors
        registry = self._merge_registry
        hops = []
        rechecked = 0
        for key in sorted(keys, key=str):
            if key in local_clients:
                if registry is not None and registry.absorbs(key):
                    rechecked += 1
                    if not self._client_wants(key, path):
                        continue
                hops.append(key)
            elif key in neighbors:
                hops.append(key)
        if rechecked:
            obs.inc("broker.edge.recheck", rechecked)
        return tuple(hops)

    # -- exact client subscriptions and replay windows -------------------------

    def _client_subs_edited(self):
        """The exact client-subscription table changed with no table
        edit (redelivered SUB, early-return UNSUB): memoised routes
        capture ``_client_wants`` outcomes, so they must see it."""
        self.match_cache.clear()

    def _client_sub_add(self, client_id: object, expr: XPathExpr):
        subs = self.client_subs[client_id]
        if expr not in subs:
            subs.add(expr)
            self._client_subs_edited()

    def _client_wants(self, client_id: object, path) -> bool:
        """Exact-subscription recheck at the edge, for a client a
        merger absorbs: merging-induced false positives stop here and
        never reach clients."""
        return any(
            matches_path(expr, path)
            for expr in self.client_subs[client_id]
        )

    def inexact_client_entries(self) -> List[Tuple[object, XPathExpr]]:
        """Table entries ``(client, expr)`` that break the premise
        :meth:`_resolve` delivers on: *expr* is neither one of the local
        client's exact subscriptions nor a registered merger holding
        that client's interest.  Empty in every state the broker
        reaches through its own handlers; the audit oracle and
        ``persistence.restore`` check it."""
        registry = self._merge_registry
        return [
            (key, expr)
            for expr in self.table.exprs()
            for key in self.table.keys_of(expr)
            if key in self.local_clients
            and expr not in self.client_subs.get(key, ())
            and not (registry is not None and registry.hop_needs(expr, key))
        ]

    # -- merging ---------------------------------------------------------------------

    def _maybe_merge(self) -> List[Frame]:
        if self._merger is None:
            return []
        self._subs_since_merge += 1
        if self._subs_since_merge < self.config.merge_interval:
            return []
        self._subs_since_merge = 0
        return self._merge_sweep()

    def run_merge_sweep(self) -> List[Frame]:
        """Run one merging sweep now, ahead of the count-driven one a
        SUB triggers every ``merge_interval`` subscriptions; returns the
        sweep's control frames (merger subscriptions, then constituent
        retractions)."""
        return self._checked(self._merge_sweep())

    def _merge_sweep(self) -> List[Frame]:
        """Apply one merging sweep and emit the routing updates: forward
        each merger, then retract the subscriptions it replaced.

        Every event is recorded in the constituent registry (and the
        merge log) even when nothing was ever forwarded — a purely
        local merge still rewrites the table, and the registry is what
        lets a later constituent UNSUBSCRIBE retire the merger."""
        if self._merger is None:
            return []
        scope = current_scope()
        wall0 = perf_counter() if scope is not None else 0.0
        report = self._merger.merge_tree(self.table)
        if scope is not None:
            scope.sub_span(
                "merge.absorb", wall0, perf_counter(),
                events=len(report.events),
            )
        # Sweeps rewrite the tree through the engine's internals:
        # routes memoised before the sweep are dropped.
        self.match_cache.clear()
        mirror = self.mirror
        out: List[Frame] = []
        for event in report.events:
            self._merge_registry.record(event)
            self.merge_log.append(event)
            if mirror is not None:
                # The mirror follows the tree: each replaced entry's
                # keys move to the merger.
                merger = event.merger
                for old, keys in zip(event.replaced, event.replaced_keys):
                    if old == merger:
                        continue  # the merger node itself was grouped
                    for key in keys:
                        mirror.remove(old, key)
                        mirror.add(merger, key)
            replaced_hops: Set[object] = set()
            for old in event.replaced:
                replaced_hops.update(self.forwarded.neighbors_for(old))
            if replaced_hops:
                targets = self._subscription_targets(event.merger, None)
                for n in sorted(targets, key=str):
                    if self.forwarded.was_sent(event.merger, n):
                        continue
                    if self._covered_at(event.merger, n):
                        continue
                    out.append((n, (SubscribeMsg(expr=event.merger),)))
                    self.forwarded.mark(event.merger, n)
            for old in event.replaced:
                out.extend(self._emit_retractions(old))
        return out

    # -- metrics ------------------------------------------------------------------

    def routing_table_size(self) -> int:
        """Number of XPEs in the publication routing table (Fig. 6/7
        metric)."""
        return len(self.table)

    def describe(self) -> Dict[str, object]:
        """Human-oriented state summary (CLI / debugging)."""
        summary = {
            "broker_id": self.broker_id,
            "strategy": self.config.name,
            "neighbors": sorted(map(str, self.neighbors)),
            "local_clients": sorted(map(str, self.local_clients)),
            "advertisements": len(self.srt),
            "subscriptions": len(self.table),
            "top_level_subscriptions": self.table.top_level_size(),
            "forwarded": len(self.forwarded),
            "messages_handled": dict(self.stats),
            "match_cache": dict(
                self.match_cache.stats(), stale=self.match_cache_stale
            ),
        }
        if self.automaton is not None:
            summary["matching_engine"] = self.config.matching_engine
            summary["shared_automaton"] = self.automaton.stats()
        if self._merge_registry is not None:
            summary["live_mergers"] = len(self._merge_registry)
            summary["merge_events"] = len(self.merge_log)
        return summary

    def __repr__(self):
        return "Broker(%r, %s)" % (self.broker_id, self.config.name)


def canonical_effects(frames: List[Frame]) -> List[tuple]:
    """A value-comparable form of a frame list: one
    ``(destination, message)`` row per message, in order.

    ``Message`` equality includes the process-unique ``msg_id``, so two
    semantically identical frame lists from two brokers never compare
    equal directly.  This renders each message through the wire encoding
    (which, like a real network, carries no ``msg_id`` and no trace
    stamp), giving replay tests an exact-equality target.
    """
    from repro.network.wire import message_to_obj

    def message_key(message: Message):
        obj = message_to_obj(message)
        obj.pop("trace", None)
        return _freeze(obj)

    return [
        (str(destination), message_key(message))
        for destination, messages in frames
        for message in messages
    ]


def _freeze(value):
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value
