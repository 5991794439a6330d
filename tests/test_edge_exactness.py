"""Edge exactness: the match that ran decides delivery.

``Broker._resolve`` delivers to a matched local client without
re-checking its exact subscriptions unless the merger registry reports
the client absorbed.  That is exact only while (a) every table entry of
a local client is one of its subscriptions or a merger standing in for
some, and (b) the registry's by-hop index agrees with the registry.
The machine below drives one broker through everything that edits
either — SUB / UNSUB, redelivery, merge sweeps (chained ones included),
constituent and merger re-SUB / UNSUB, snapshot-restore — under every
strategy, and after each step compares what the broker would deliver
against the reference interpreter over a model of what each hop asked
for.
"""

import dataclasses

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.adverts import Advertisement
from repro.broker import (
    AdvertiseMsg,
    Broker,
    RoutingConfig,
    SubscribeMsg,
    UnsubscribeMsg,
)
from repro.broker.persistence import restore_json, snapshot_json
from repro.broker.strategies import MergingMode
from repro.covering.pathmatch import matches_path_reference
from repro.dtd import parse_dtd
from repro.merging.engine import MergeEvent, PathUniverse
from repro.merging.registry import MergerRegistry
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


def x(text):
    return parse_xpath(text)


#: Three levels with siblings at two of them, so sweeps chain: leaves
#: merge into ``/r/a/*``, which merges on into ``/r/*/*``.
UNIVERSE_DTD = """
<!ELEMENT r (a, b?)>
<!ELEMENT a (c?, d?, e?)>
<!ELEMENT b (c?, d?)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA)>
<!ELEMENT e (#PCDATA)>
"""

CLIENTS = ("c1", "c2", "c3")
NEIGHBORS = ("n1", "n2")
HOPS = CLIENTS + NEIGHBORS

#: Leaves, the mergers sweeps build from them (so a hop can also hold a
#: merger expression directly), and coverers.
POOL = tuple(
    x(text)
    for text in (
        "/r/a/c", "/r/a/d", "/r/a/e", "/r/b/c", "/r/b/d",
        "/r/a/*", "/r/b/*", "/r/*/c", "/r/*/d", "/r/*/*",
        "/r/a", "//c", "/r//d", "a/c",
    )
)

#: Sibling sets one sweep merges (the first three perfectly); sweeping
#: again after two of them have merged chains into ``/r/*/*``.
FAMILIES = tuple(
    tuple(x(text) for text in texts)
    for texts in (
        ("/r/a/c", "/r/a/d", "/r/a/e"),
        ("/r/b/c", "/r/b/d"),
        ("/r/a/*", "/r/b/*"),
        ("/r/a/c", "/r/a/d"),
        ("/r/a/c", "/r/b/c"),
    )
)

#: An attribute annotation: document payload, which must not change a
#: route (the last probe is its bare twin's path with it).
_K1 = ((), (), (("k", "1"),))
PROBES = tuple(
    Publication(doc_id="probe", path_id=index, path=path, attributes=attrs)
    for index, (path, attrs) in enumerate(
        (
            (("r", "a", "c"), None), (("r", "a", "d"), None),
            (("r", "a", "e"), None), (("r", "b", "c"), None),
            (("r", "b", "d"), None), (("r", "b", "e"), None),
            (("r", "a"), None), (("r", "q", "c"), None),
            (("q", "a", "c"), None), (("r", "a", "c"), _K1),
        )
    )
)


def _wants(exprs, publication) -> bool:
    return any(
        matches_path_reference(expr, publication.path) for expr in exprs
    )


def _absorbed_pairs(registry):
    """Brute force: every ``(merger, constituent, hop)`` of *registry*."""
    return [
        (merger, expr, hop)
        for merger, bucket in registry.constituents.items()
        for expr, hops in bucket.items()
        for hop in hops
    ]


class EdgeExactnessMachine(RuleBasedStateMachine):
    @initialize(
        advertisements=st.booleans(),
        # merging requires covering
        routing=st.sampled_from(
            ((False, MergingMode.OFF),)
            + tuple((True, merging) for merging in MergingMode)
        ),
        engine=st.sampled_from(("auto", "shared")),
    )
    def setup(self, advertisements, routing, engine):
        covering, merging = routing
        self.universe = PathUniverse.from_dtd(parse_dtd(UNIVERSE_DTD))
        config = RoutingConfig(
            advertisements=advertisements,
            covering=covering,
            merging=merging,
            max_imperfect_degree=0.6,
            merge_interval=1_000_000,  # sweeps fire only explicitly
            matching_engine=engine,
        )
        self.broker = Broker("b1", config=config, universe=self.universe)
        for neighbor in NEIGHBORS:
            self.broker.connect(neighbor)
        for client in CLIENTS:
            self.broker.attach_client(client)
        self.broker.handle(
            AdvertiseMsg(
                adv_id="adv",
                advert=Advertisement.from_tests(("r", "a", "b", "c", "d", "e")),
                publisher_id="pub",
            ),
            "n1",
        )
        #: hop -> the XPEs it has subscribed and not unsubscribed
        self.model = {hop: set() for hop in HOPS}

    # -- edits ------------------------------------------------------------

    def _subscribe(self, hop, expr):
        self.broker.handle(SubscribeMsg(expr=expr, subscriber_id=hop), hop)
        self.model[hop].add(expr)

    def _unsubscribe(self, hop, expr):
        self.broker.handle(UnsubscribeMsg(expr=expr, subscriber_id=hop), hop)
        self.model[hop].discard(expr)

    @rule(hop=st.sampled_from(HOPS), expr=st.sampled_from(POOL))
    def subscribe(self, hop, expr):
        self._subscribe(hop, expr)

    @rule(hop=st.sampled_from(HOPS), family=st.sampled_from(FAMILIES))
    def subscribe_family(self, hop, family):
        """Random single SUBs rarely leave mergeable siblings behind."""
        for expr in family:
            self._subscribe(hop, expr)

    @rule(hop=st.sampled_from(HOPS), expr=st.sampled_from(POOL))
    def unsubscribe(self, hop, expr):
        self._unsubscribe(hop, expr)

    @rule(pick=st.integers(0, 999))
    def redeliver_subscribe(self, pick):
        held = sorted(
            ((hop, expr) for hop in HOPS for expr in self.model[hop]), key=str
        )
        if held:
            self._subscribe(*held[pick % len(held)])

    @rule(pick=st.integers(0, 999), resubscribe=st.booleans())
    def touch_constituent(self, pick, resubscribe):
        """Re-SUB or UNSUB an expression a merger absorbed, from the
        hop it absorbed it for."""
        registry = self.broker._merge_registry
        if registry is None:
            return
        pairs = sorted(_absorbed_pairs(registry), key=str)
        if pairs:
            _, expr, hop = pairs[pick % len(pairs)]
            (self._subscribe if resubscribe else self._unsubscribe)(hop, expr)

    @rule(pick=st.integers(0, 999), hop=st.sampled_from(HOPS),
          subscribe=st.booleans())
    def touch_merger(self, pick, hop, subscribe):
        """SUB or UNSUB a live merger expression itself."""
        registry = self.broker._merge_registry
        if registry is None:
            return
        mergers = sorted(registry.mergers(), key=str)
        if mergers:
            merger = mergers[pick % len(mergers)]
            (self._subscribe if subscribe else self._unsubscribe)(hop, merger)

    @rule()
    def merge_sweep(self):
        self.broker.run_merge_sweep()

    @rule()
    def snapshot_restore(self):
        self.broker = restore_json(
            snapshot_json(self.broker), universe=self.universe
        )

    # -- what must hold after every step ----------------------------------

    @invariant()
    def deliveries_are_exact(self):
        broker = self.broker
        for client in CLIENTS:
            assert broker.client_subs.get(client, set()) == self.model[client]
        for publication in PROBES:
            keys, hops = broker._route(publication)
            delivered = set(hops).intersection(CLIENTS)
            assert delivered == {
                client
                for client in keys.intersection(CLIENTS)
                if _wants(broker.client_subs[client], publication)
            }, publication
            # ... which is also everyone who asked: nothing is missed.
            assert delivered == {
                client
                for client in CLIENTS
                if _wants(self.model[client], publication)
            }, publication
            assert set(hops).intersection(NEIGHBORS) >= {
                neighbor
                for neighbor in NEIGHBORS
                if _wants(self.model[neighbor], publication)
            }, publication
            # The memoised decision is the one a fresh resolve makes.
            assert hops == broker._resolve(publication.path, keys), publication

    @invariant()
    def client_entries_are_exact(self):
        assert self.broker.inexact_client_entries() == []

    @invariant()
    def index_agrees_with_registry(self):
        registry = self.broker._merge_registry
        if registry is None:
            return
        pairs = _absorbed_pairs(registry)
        for hop in HOPS:
            absorbed = {expr for _, expr, h in pairs if h == hop}
            assert registry.absorbs(hop) == bool(absorbed), hop
            assert registry.constituents_absorbed_from(hop) == absorbed, hop
            for expr in POOL:
                holders = {m for m, e, h in pairs if (e, h) == (expr, hop)}
                found = registry.find_contribution(expr, hop)
                assert found in holders if holders else found is None, (
                    expr, hop,
                )


TestEdgeExactnessMachine = EdgeExactnessMachine.TestCase
TestEdgeExactnessMachine.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None
)


# -- the registry's index, on its own ----------------------------------------


def _event(merger, *replaced, hop="h"):
    return MergeEvent(
        merger=x(merger),
        replaced=tuple(x(text) for text in replaced),
        degree=0.0,
        replaced_keys=tuple(frozenset({hop}) for _ in replaced),
    )


def test_forget_releases_the_index():
    """Through the broker a merger is forgotten only once its last
    contribution is gone; the registry does not rely on it."""
    registry = MergerRegistry()
    registry.record(_event("/r/a/*", "/r/a/c", "/r/a/d"))
    assert registry.absorbs("h")
    registry.forget(x("/r/a/*"))
    assert not registry.absorbs("h")
    assert registry.find_contribution(x("/r/a/c"), "h") is None
    assert registry.constituents_absorbed_from("h") == set()


def test_chained_merge_moves_the_index():
    registry = MergerRegistry()
    registry.record(_event("/r/a/*", "/r/a/c", "/r/a/d"))
    registry.add_direct(x("/r/a/*"), "g")
    registry.record(_event("/r/*/*", "/r/a/*", "/r/b/c"))
    assert registry.find_contribution(x("/r/a/c"), "h") == x("/r/*/*")
    # The absorbed merger's direct hop became a constituent of its own.
    assert registry.find_contribution(x("/r/a/*"), "g") == x("/r/*/*")
    assert registry.absorbs("g")
    registry.remove_contribution(x("/r/*/*"), x("/r/a/*"), "g")
    assert not registry.absorbs("g") and registry.absorbs("h")


def _perfect_merging_broker():
    config = dataclasses.replace(
        RoutingConfig.no_adv_with_cov(),
        merging=MergingMode.PERFECT,
        merge_interval=1_000_000,
    )
    broker = Broker(
        "b1",
        config=config,
        universe=PathUniverse.from_dtd(parse_dtd(UNIVERSE_DTD)),
    )
    for client in CLIENTS:
        broker.attach_client(client)
    return broker


def _subscribe(broker, client, *texts):
    for text in texts:
        broker.handle(SubscribeMsg(expr=x(text), subscriber_id=client), client)


def _delivered(broker, *path):
    publication = Publication(doc_id="d", path_id=0, path=path)
    return set(broker._route(publication)[1])


def test_new_hop_on_a_live_merger_survives_a_chained_sweep():
    """Found by the machine (seed-independent, fails at the parent of
    this file): a hop that subscribes a live merger expression through
    the ordinary SUB path was not registered as direct interest, so a
    chained sweep kept its key on the new merger with no registry entry
    behind it — an inexact client entry, and after the neighbour's last
    UNSUB a key nothing could retire."""
    broker = _perfect_merging_broker()
    _subscribe(broker, "c1", "/r/a/c", "/r/a/d", "/r/a/e")
    broker.run_merge_sweep()
    _subscribe(broker, "c2", "/r/a/*")  # the merger itself, from a new hop
    _subscribe(broker, "c1", "/r/b/c", "/r/b/d")
    broker.run_merge_sweep()  # /r/b/*, then /r/a/* + /r/b/* -> /r/*/*
    assert broker.table.keys_of(x("/r/*/*")) == {"c1", "c2"}
    assert broker.inexact_client_entries() == []
    assert _delivered(broker, "r", "a", "c") == {"c1", "c2"}
    assert _delivered(broker, "r", "b", "c") == {"c1"}
    for text in ("/r/a/c", "/r/a/d", "/r/a/e", "/r/b/c", "/r/b/d"):
        broker.handle(UnsubscribeMsg(expr=x(text), subscriber_id="c1"), "c1")
    assert _delivered(broker, "r", "a", "c") == {"c2"}
    broker.handle(UnsubscribeMsg(expr=x("/r/a/*"), subscriber_id="c2"), "c2")
    assert broker.routing_table_size() == 0
    assert len(broker._merge_registry) == 0


def test_predicated_subscription_is_not_merged_away():
    """Two clients' siblings merge into ``/r/*/c``, and each client
    still receives exactly its own paths, whatever attributes a
    publication carries."""
    broker = _perfect_merging_broker()
    _subscribe(broker, "c1", "/r/a/c")
    _subscribe(broker, "c2", "/r/b/c")
    broker.run_merge_sweep()
    assert broker._merge_registry is not None
    assert len(broker._merge_registry) == 1
    assert _delivered(broker, "r", "b", "c") == {"c2"}
    keyed = Publication(
        doc_id="d", path_id=1, path=("r", "a", "c"), attributes=_K1
    )
    assert set(broker._route(keyed)[1]) == {"c1"}
