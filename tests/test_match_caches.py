"""Cache correctness for the routing fast path.

Four properties guard the result caches of the matching core:

* the ``covers()`` memo always agrees with the uncached dispatch
  (expressions are immutable, so any disagreement is a caching bug);
* a broker's route memo is exact under maintenance: after any
  interleaving of SUB/UNSUB/ADV, merge sweeps, redeliveries and
  snapshot-restores, memoised routing decisions equal
  a cold recomputation on every engine — a SUB costs at most one
  structural probe per cached path, and a repeat publication costs no
  engine probe;
* restored brokers (restart and crash/recovery) start with empty
  memos — routing decisions never survive a process boundary;
* a document's paths crossing every link as one group is unobservable:
  deliveries, logical traffic counts, per-broker publication counts and
  memo probes equal those of publishing the same plan path by path.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.broker import (
    AdvertiseMsg,
    Broker,
    PublishMsg,
    RoutingConfig,
    SubscribeMsg,
    UnsubscribeMsg,
)
from repro.adverts import Advertisement
from repro.broker.persistence import restore, snapshot
from repro.broker.strategies import MergingMode
from repro.cache import RouteMemo
from repro.covering.algorithms import covers, covers_uncached
from repro.dtd.samples import psd_dtd
from repro.merging.engine import PathUniverse
from repro.network import ConstantLatency, Overlay
from repro.network.faults import FaultPlan, LinkFaults
from repro.obs.tracing import verify_traces
from repro.runtime.workload import PUBLISHER, WorkloadSpec, build_plan
from repro.workloads.document_generator import generate_documents
from repro.workloads.xpath_generator import XPathWorkloadParams, generate_queries
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


def x(text):
    return parse_xpath(text)


def sub(text, subscriber="s"):
    return SubscribeMsg(expr=x(text), subscriber_id=subscriber)


def unsub(text, subscriber="s"):
    return UnsubscribeMsg(expr=x(text), subscriber_id=subscriber)


def pub(path, doc_id="d1", path_id=0):
    return PublishMsg(
        publication=Publication(doc_id=doc_id, path_id=path_id, path=path),
        publisher_id="pub",
    )


# -- covers() memo ---------------------------------------------------------


def test_covers_memo_agrees_with_uncached():
    pool = generate_queries(
        psd_dtd(),
        60,
        params=XPathWorkloadParams(
            wildcard_prob=0.3, descendant_prob=0.3, relative_prob=0.3
        ),
        seed=99,
    )
    for s1 in pool:
        for s2 in pool:
            assert covers(s1, s2) == covers_uncached(s1, s2), (s1, s2)
    # ... and asking again (pure cache hits) still agrees.
    for s1 in pool[:20]:
        for s2 in pool[:20]:
            assert covers(s1, s2) == covers_uncached(s1, s2)


# -- broker match cache ----------------------------------------------------


def make_broker(config=None):
    broker = Broker("b1", config=config or RoutingConfig.with_adv_with_cov())
    for n in ("n1", "n2"):
        broker.connect(n)
    broker.attach_client("c1")
    return broker


def cold_keys(broker, publication):
    """What the matcher computes with no cache in the loop."""
    return frozenset(broker.table.match(publication.path))


def cold_destinations(broker, publication, from_hop):
    """The broker's routing decision recomputed against an empty memo
    (swapped in, so the maintained memo under test is left as it is)."""
    warm = broker.match_cache
    broker.match_cache = RouteMemo(warm.maxsize)
    try:
        return broker._publish_destinations(publication, from_hop)
    finally:
        broker.match_cache = warm


PROBE_PATHS = (
    ("ProteinDatabase", "ProteinEntry"),
    ("ProteinDatabase", "ProteinEntry", "protein"),
    ("ProteinDatabase", "ProteinEntry", "reference"),
    ("somewhere", "else"),
)


def churn(broker):
    """A SUB/UNSUB/ADV sequence touching every invalidation site."""
    broker.handle(sub("/ProteinDatabase//protein"), "n1")
    broker.handle(sub("/ProteinDatabase/ProteinEntry"), "n2")
    broker.handle(sub("//reference"), "c1")
    broker.handle(
        AdvertiseMsg(
            adv_id="advA",
            advert=Advertisement.from_tests(("ProteinDatabase",)),
            publisher_id="p",
        ),
        "n1",
    )
    broker.handle(unsub("/ProteinDatabase//protein"), "n1")
    broker.handle(sub("/ProteinDatabase/*"), "n1")


def test_cached_matches_equal_cold_recomputation_after_churn():
    broker = make_broker()
    churn(broker)
    probes = [pub(path, path_id=i) for i, path in enumerate(PROBE_PATHS)]
    # Warm the memo, then churn more: the SUB matches no warm path and
    # leaves every entry alone, the UNSUB drops exactly the three paths
    # its expression selects a prefix of (counted stale at invalidation
    # time) and keeps the fourth.
    for msg in probes:
        broker.handle(msg, "n2")
    assert len(broker.match_cache) == 4
    stale_before = broker.match_cache_stale
    broker.handle(sub("//organism"), "n2")
    assert len(broker.match_cache) == 4
    broker.handle(unsub("/ProteinDatabase/*"), "n1")
    assert len(broker.match_cache) == 1
    assert broker.match_cache_stale == stale_before + 3
    for msg in probes:
        cached = broker._route(msg.publication)[0]
        assert cached == cold_keys(broker, msg.publication)
        for hop in ("n1", "n2", "c1"):
            assert broker._publish_destinations(
                msg.publication, hop
            ) == cold_destinations(broker, msg.publication, hop)


def test_repeat_publication_hits_cache_with_identical_output():
    broker = make_broker()
    churn(broker)
    msg = pub(PROBE_PATHS[1])
    first = broker.handle(msg, "n2")
    hits_before = broker.match_cache.hits
    second = broker.handle(msg, "n2")
    assert second == first
    assert broker.match_cache.hits > hits_before


@pytest.mark.parametrize("engine", ("auto", "shared"))
def test_repeat_publication_never_reaches_the_engine(engine, monkeypatch):
    """The route memo fronts every engine: a repeat publication is a
    memo hit and costs no engine probe, whichever engine is configured."""
    broker = make_broker(RoutingConfig(matching_engine=engine))
    churn(broker)
    target = broker.automaton if engine == "shared" else broker.table
    real = target.match
    probes = []
    monkeypatch.setattr(
        target, "match", lambda *args: probes.append(args) or real(*args)
    )
    msg = pub(PROBE_PATHS[1])
    first = broker.handle(msg, "n2")
    assert len(probes) == 1
    hits_before = broker.match_cache.hits
    assert broker.handle(msg, "n2") == first
    assert broker.match_cache.hits == hits_before + 1
    assert len(probes) == 1


def test_merge_sweep_invalidates_cache():
    universe = PathUniverse.from_dtd(psd_dtd(), max_depth=6)
    config = RoutingConfig.by_name("with-Adv-with-CovIPM")
    broker = Broker("b1", config=config, universe=universe)
    broker.connect("n1")
    broker.connect("n2")
    for i, text in enumerate(
        ("/ProteinDatabase/ProteinEntry", "/ProteinDatabase/*", "//protein")
    ):
        broker.handle(sub(text, subscriber="s%d" % i), "n1")
    msg = pub(PROBE_PATHS[1])
    broker.handle(msg, "n2")  # warm
    assert len(broker.match_cache) == 1
    broker.run_merge_sweep()
    assert len(broker.match_cache) == 0
    assert broker._route(msg.publication)[0] == cold_keys(
        broker, msg.publication
    )


def test_nocov_broker_cache_agrees_with_flat_matcher():
    broker = make_broker(config=RoutingConfig.by_name("no-Adv-no-Cov"))
    broker.handle(sub("//protein"), "n1")
    broker.handle(sub("/ProteinDatabase//reference"), "n2")
    for i, path in enumerate(PROBE_PATHS):
        message = pub(path, path_id=i)
        broker.handle(message, "n1")  # warm
        assert broker._route(message.publication)[0] == cold_keys(
            broker, message.publication
        )


# -- route memo: exact under any interleaving ------------------------------

_ENTRY = ("ProteinDatabase", "ProteinEntry")
#: Siblings a sweep merges into ``/ProteinDatabase/ProteinEntry/*``,
#: and that merger itself (subscribable in its own right).
_MERGEABLE = (
    "/ProteinDatabase/ProteinEntry/protein",
    "/ProteinDatabase/ProteinEntry/reference",
    "/ProteinDatabase/ProteinEntry/organism",
    "/ProteinDatabase/ProteinEntry/*",
)
#: Further root elements: routes no merge sweep touches.
_OTHER_ROOTS = ("/somewhere/else", "/somewhere/*", "/elsewhere/else")
_MEMO_XPES = _MERGEABLE + _OTHER_ROOTS + (
    "/ProteinDatabase",
    "/ProteinDatabase//name",
    "//reference",
    "/ProteinDatabase/ProteinEntry/protein/name",
)
_MEMO_HOPS = ("n1", "n2", "n3", "c1", "c2")
#: (path, attribute fingerprint) probes: every path bare, plus two
#: attribute variants, which must route like the bare path.
_MEMO_PROBES = tuple(
    (path, attrs)
    for path in (
        _ENTRY,
        _ENTRY + ("protein",),
        _ENTRY + ("protein", "name"),
        _ENTRY + ("reference",),
        _ENTRY + ("organism",),
        ("somewhere", "else"),
        ("elsewhere", "else"),
    )
    for attrs in (
        None,
        ((), (("id", "1"),), (("kind", "x"),), ())[: len(path)],
        ((), (("id", "2"),), (("kind", "y"),), ())[: len(path)],
    )
)
_MEMO_CONFIGS = tuple(
    RoutingConfig(
        advertisements=True,
        covering=True,
        merging=MergingMode.IMPERFECT,
        max_imperfect_degree=1.0,
        merge_interval=1_000_000,  # sweeps fire only explicitly
        matching_engine=engine,
    )
    for engine in ("auto", "shared")
)


class RouteMemoMachine(RuleBasedStateMachine):
    """SUB / UNSUB (of live and of unknown subscriptions, plus
    ``redeliver`` repeating the last message) / ADV / merge sweep /
    snapshot-restore / publish on a 3-neighbour broker
    with two local clients, under imperfect merging so the exact edge
    recheck decides deliveries.  After every step each probe's
    memoised destinations must equal a cold recomputation, and each
    attribute variant must share its bare path's memo entry: attributes
    never change a route."""

    #: None keeps the broker's own memo bound; a size swaps in a memo
    #: that small (on every broker, restored ones too).
    memo_maxsize = None

    def _sized(self, broker):
        if self.memo_maxsize is not None:
            broker.match_cache = RouteMemo(maxsize=self.memo_maxsize)
        return broker

    @initialize(config=st.sampled_from(_MEMO_CONFIGS))
    def setup(self, config):
        self.universe = PathUniverse.from_dtd(psd_dtd(), max_depth=6)
        self.broker = self._sized(
            Broker("b1", config=config, universe=self.universe)
        )
        for hop in _MEMO_HOPS:
            if hop.startswith("n"):
                self.broker.connect(hop)
            else:
                self.broker.attach_client(hop)
        self.live = []
        self.last = None

    def _send(self, message, hop):
        self.last = (message, hop)
        self.broker.handle(message, hop)

    @rule(text=st.sampled_from(_MEMO_XPES), hop=st.sampled_from(_MEMO_HOPS))
    def subscribe(self, text, hop):
        self.live.append((text, hop))
        self._send(sub(text), hop)

    @rule(
        text=st.sampled_from(_MERGEABLE),
        hop=st.sampled_from(_MEMO_HOPS[2:]),  # one neighbour, both clients
    )
    def subscribe_mergeable(self, text, hop):
        self.subscribe(text, hop)

    @rule(text=st.sampled_from(_OTHER_ROOTS), hop=st.sampled_from(_MEMO_HOPS))
    def subscribe_other_root(self, text, hop):
        self.subscribe(text, hop)

    @rule(index=st.integers(min_value=0))
    def unsubscribe_live(self, index):
        if self.live:
            text, hop = self.live.pop(index % len(self.live))
            self._send(unsub(text), hop)

    @rule(text=st.sampled_from(_MEMO_XPES), hop=st.sampled_from(_MEMO_HOPS))
    def unsubscribe(self, text, hop):
        self._send(unsub(text), hop)

    @rule()
    def redeliver(self):
        if self.last is not None:
            self.broker.handle(*self.last)

    @rule(adv=st.integers(0, 2), hop=st.sampled_from(_MEMO_HOPS[:3]))
    def advertise(self, adv, hop):
        self._send(
            AdvertiseMsg(
                adv_id="adv%d" % adv,
                advert=Advertisement.from_tests(("ProteinDatabase",)),
                publisher_id="p",
            ),
            hop,
        )

    @rule()
    def merge_sweep(self):
        self.broker.run_merge_sweep()

    @rule()
    def snapshot_restore(self):
        self.broker = self._sized(
            restore(snapshot(self.broker), universe=self.universe)
        )

    @rule(
        probe=st.sampled_from(_MEMO_PROBES),
        hop=st.sampled_from(_MEMO_HOPS),
    )
    def publish(self, probe, hop):
        path, attrs = probe
        self._send(
            PublishMsg(
                publication=Publication("d", 0, path, attrs),
                publisher_id="pub",
            ),
            hop,
        )

    @invariant()
    def memoised_routes_equal_cold_recomputation(self):
        if not hasattr(self, "broker"):
            return
        broker = self.broker
        for path, attrs in _MEMO_PROBES:
            publication = Publication("probe", 0, path, attrs)
            for hop in ("n1", "c1", None):
                got = broker._publish_destinations(publication, hop)
                want = cold_destinations(broker, publication, hop)
                assert got == want, (path, attrs, hop, got, want)
            if attrs is not None:
                bare = broker._route(Publication("probe", 0, path, None))
                assert broker._route(publication) is bare, (path, attrs)


TestRouteMemoMachine = RouteMemoMachine.TestCase
TestRouteMemoMachine.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None
)


class SmallRouteMemoMachine(RouteMemoMachine):
    """The same interleavings against a 4-entry memo: the default bound
    (4096) is never reached above, so here eviction runs beside
    SUB/UNSUB maintenance, merge sweeps and restore — and the probes
    the invariant makes evict too."""

    memo_maxsize = 4


TestSmallRouteMemoMachine = SmallRouteMemoMachine.TestCase
TestSmallRouteMemoMachine.settings = TestRouteMemoMachine.settings


# -- the route memo behind the shared automaton ----------------------------


def shared_broker(covering):
    """A broker matching through the shared automaton: its table without
    covering, the mirror beside the tree with it."""
    config = RoutingConfig(
        advertisements=False,
        covering=covering,
        merging=MergingMode.IMPERFECT if covering else MergingMode.OFF,
        max_imperfect_degree=1.0,
        merge_interval=1_000_000,  # sweeps fire only explicitly
        matching_engine="shared",
    )
    universe = PathUniverse.from_dtd(psd_dtd(), max_depth=6)
    broker = Broker("b1", config=config, universe=universe)
    for hop in _MEMO_HOPS:
        if hop.startswith("n"):
            broker.connect(hop)
        else:
            broker.attach_client(hop)
    return broker


def counted_walks(broker, monkeypatch) -> list:
    """The paths the automaton is asked to match, one per walk."""
    automaton = broker.automaton
    real = automaton.match
    walks = []
    monkeypatch.setattr(
        automaton, "match", lambda path: walks.append(path) or real(path)
    )
    return walks


def test_fresh_paths_are_memoised_like_any_other(monkeypatch):
    """Behind the automaton the memo keeps every decision it computes,
    under the bound it has in front of the tree and the linear scan:
    300 paths, each published once, are one walk and one entry each."""
    broker = shared_broker(covering=False)
    broker.handle(sub("/feed//item"), "n1")
    broker.handle(sub("//e7"), "c1")
    walks = counted_walks(broker, monkeypatch)
    fresh = 300
    for i in range(fresh):
        frames = broker.handle(pub(("feed", "e%d" % i, "item")), "n2")
        assert [hop for hop, _ in frames] == (
            ["c1", "n1"] if i == 7 else ["n1"]
        )
    memo = broker.match_cache
    assert len(walks) == memo.misses == len(memo) == fresh
    assert "declined" not in broker.describe()["match_cache"]


@pytest.mark.parametrize("covering", (False, True))
def test_a_recurring_path_is_memoised_at_its_first_publication(
    covering, monkeypatch
):
    """A path reaches the automaton once, on its first publication, and
    is a memo hit with no automaton probe from its second on, whatever
    its depth."""
    broker = shared_broker(covering)
    path = ("ProteinDatabase", "ProteinEntry", "protein", "name")
    broker.handle(sub("/ProteinDatabase/ProteinEntry/protein/name"), "n1")
    broker.handle(sub("//protein"), "c1")
    walks = counted_walks(broker, monkeypatch)
    memo = broker.match_cache
    for publication in range(1, 6):
        hits = memo.hits
        frames = broker.handle(pub(path), "n2")
        assert [hop for hop, _ in frames] == ["c1", "n1"]
        assert memo.hits == hits + (publication > 1), publication
        assert len(walks) == 1
    assert len(memo) == 1


_ADMISSION_PATHS = tuple(path for path, attrs in _MEMO_PROBES if attrs is None)
_ADMISSION_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(("sub", "unsub")),
            st.sampled_from(_MEMO_XPES),
            st.sampled_from(_MEMO_HOPS),
        ),
        st.tuples(st.just("sweep"), st.none(), st.none()),
        st.tuples(
            st.just("pub"),
            st.sampled_from(_ADMISSION_PATHS),
            st.sampled_from(_MEMO_HOPS),
        ),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(covering=st.booleans(), ops=_ADMISSION_OPS)
def test_shared_routing_equals_a_memo_free_match(covering, ops):
    """Under ``shared``, any SUB / UNSUB / merge-sweep / publish sequence
    routes exactly like ``_matcher.match`` + ``_resolve`` with no memo,
    and a decision the memo computed is kept."""
    broker = shared_broker(covering)
    memo = broker.match_cache
    for op, arg, hop in ops:
        if op == "sub":
            broker.handle(sub(arg), hop)
        elif op == "unsub":
            broker.handle(unsub(arg), hop)
        elif op == "sweep":
            broker.run_merge_sweep()
        else:
            msg = pub(arg)
            misses = memo.misses
            frames = broker.handle(msg, hop)
            if memo.misses != misses:  # computed, so kept
                assert arg in memo._paths
            keys = frozenset(broker._matcher.match(arg))
            hops = broker._resolve(arg, keys)
            assert [dest for dest, _ in frames] == [
                dest for dest in hops if dest != hop
            ]
            assert broker._route(msg.publication) == (keys, hops)


def test_a_hit_leaves_the_eviction_order_alone():
    """A hit is a pure read: the memo evicts in insertion order, so the
    oldest path goes first even right after it served a hit."""
    memo = RouteMemo(maxsize=3)
    route = (frozenset({"s"}), ("n1",))
    paths = [("feed", "e%d" % i) for i in range(4)]
    for path in paths[:3]:
        memo.put(path, *route)
    assert memo.get(paths[0]) == route  # hit the oldest
    memo.put(paths[3], *route)
    assert memo.evictions == 1
    assert memo.get(paths[0]) is None
    assert all(memo.get(path) == route for path in paths[1:])
    assert (memo.hits, memo.misses) == (4, 1)  # five lookups, each counted


def test_subscribe_probes_each_cached_path_at_most_once():
    """Maintenance is bounded by the memo, not by the table: a SUB
    against a full memo costs at most one structural probe per cached
    path, updates exactly the decisions it matches and leaves the memo
    within its size bound."""
    broker = make_broker()
    broker.handle(sub("/feed//item"), "n1")
    memo = broker.match_cache
    paths = [("feed", "e%d" % i, "item") for i in range(memo.maxsize + 40)]
    paths[100] = ("feed", "e100", "other")
    for path in paths:
        for _ in range(2):  # the second lookup is a hit: the memo earns
            broker.handle(pub(path), "n2")
    assert len(memo) == memo.maxsize == 4096
    assert memo.evictions == 40
    live = paths[40:]
    probes_before = memo.probes
    broker.handle(sub("//item"), "c1")
    assert 0 < memo.probes - probes_before <= memo.maxsize
    assert len(memo) == memo.maxsize
    misses_before = memo.misses
    for path in live:
        want = ["c1", "n1"] if path[-1] == "item" else []
        assert broker._publish_destinations(
            pub(path).publication, "n2"
        ) == want
    assert memo.misses == misses_before  # all served from the memo
    # ... and an UNSUB pays the same bound, dropping what it matches.
    probes_before = memo.probes
    broker.handle(unsub("/feed//item"), "n1")
    assert memo.probes - probes_before <= memo.maxsize
    assert len(memo) == 1
    assert broker.match_cache_stale == memo.maxsize - 1


def test_subscription_burst_drops_a_memo_that_stopped_serving():
    """Maintenance must not cost more than the memo is worth: once the
    probes spent since the last hit exceed the price of recomputing the
    entries (16 each), the memo is dropped and later SUBs scan nothing."""
    broker = make_broker()
    broker.handle(sub("/feed//item"), "n1")
    memo = broker.match_cache
    paths = [("feed", "e%d" % i, "item") for i in range(200)]
    for path in paths:
        broker.handle(pub(path), "n2")  # fresh paths only: never a hit
    assert len(memo) == 200 and memo.hits == 0
    for i in range(40):
        broker.handle(sub("/feed/e%d" % i), "n2")
    assert len(memo) == 0
    assert memo.probes <= 16 * 200  # 16 scans, then dropped for good
    for i, path in enumerate(paths):
        want = ["n1", "n2"] if i < 40 else ["n1"]
        assert broker._publish_destinations(
            pub(path).publication, "c1"
        ) == want


# -- restart / crash-recovery start cold -----------------------------------


def overlay_with_traffic(**kwargs):
    overlay = Overlay.binary_tree(
        2,
        config=RoutingConfig.with_adv_with_cov(),
        latency_model=ConstantLatency(0.001),
        **kwargs,
    )
    publisher = overlay.attach_publisher("pub", "b2")
    subscriber = overlay.attach_subscriber("sub", "b3")
    publisher.advertise_dtd(psd_dtd())
    overlay.run()
    subscriber.subscribe("/ProteinDatabase")
    overlay.run()
    return overlay, publisher, subscriber


def publish_round(overlay, publisher, seed):
    docs = generate_documents(psd_dtd(), 1, seed=seed, target_bytes=600)
    publisher.publish_document(docs[0])
    overlay.run()
    return docs[0].doc_id


def test_restarted_broker_starts_with_empty_cache():
    overlay, publisher, subscriber = overlay_with_traffic()
    publish_round(overlay, publisher, seed=1)
    assert any(
        len(b.match_cache) > 0 for b in overlay.brokers.values()
    ), "traffic should have warmed at least one broker cache"
    warmed = overlay.brokers["b1"]
    assert len(warmed.match_cache) > 0
    restored = overlay.restart_broker("b1", with_state=True)
    assert len(restored.match_cache) == 0
    # ... and routing still works from the cold cache.
    doc = publish_round(overlay, publisher, seed=2)
    assert doc in subscriber.delivered_documents()


def test_snapshot_restore_drops_cache():
    """The persisted broker image carries no routing decisions."""
    broker = make_broker()
    churn(broker)
    probes = [pub(path, path_id=i) for i, path in enumerate(PROBE_PATHS)]
    warm = [broker.handle(msg, "n2") for msg in probes]
    assert len(broker.match_cache) > 0
    clone = restore(snapshot(broker))
    assert len(clone.match_cache) == 0
    assert [clone.handle(msg, "n2") for msg in probes] == warm


def test_crash_recovery_starts_with_empty_cache():
    overlay, publisher, subscriber = overlay_with_traffic(faults=FaultPlan())
    publish_round(overlay, publisher, seed=3)
    warmed = overlay.brokers["b1"]
    assert len(warmed.match_cache) > 0
    overlay.crash_broker("b1", with_state=True)
    overlay.recover_broker("b1")
    overlay.run()
    recovered = overlay.brokers["b1"]
    # The recovery replay runs no publication, so the new broker's
    # memo is still empty — nothing memoised before the crash survives.
    assert recovered is not warmed
    assert len(recovered.match_cache) == 0
    doc = publish_round(overlay, publisher, seed=4)
    assert doc in subscriber.delivered_documents()


# -- the dispatch unit: a document's paths cross a link as one group -------


#: The plan's documents are published this many times over (fresh doc
#: ids each round), so repeat publications meet warm memos.
DISPATCH_ROUNDS = 3


def run_dispatch_plan(spec, path_by_path, attach=None, faults=None):
    """One seeded plan on the 7-broker simulator.  A document's paths
    are submitted back to back (they form groups) or, with
    *path_by_path*, with the overlay drained after each (every group is
    then one message — the per-message reference, no knob needed)."""
    plan = build_plan(spec)
    overlay = Overlay.binary_tree(
        spec.levels,
        config=spec.config(),
        latency_model=ConstantLatency(0.001),
        processing_scale=0.0,
        faults=faults,
    )
    if attach is not None:
        attach(overlay)
    publisher = overlay.attach_publisher(PUBLISHER, plan.broker_ids[0])
    for adv_id, advert in plan.adverts:
        publisher.advertise(advert, adv_id)
    overlay.run()
    for leaf in sorted(plan.subscriptions):
        subscriber = overlay.attach_subscriber("sub-%s" % leaf, leaf)
        for expr in plan.subscriptions[leaf]:
            subscriber.subscribe(expr)
        overlay.run()
    for round_index in range(DISPATCH_ROUNDS):
        for document in plan.documents:
            size = document.size_bytes()
            for publication in document.publications():
                overlay.submit(
                    PUBLISHER,
                    PublishMsg(
                        publication=replace(
                            publication,
                            doc_id="r%d-%s" % (round_index, publication.doc_id),
                        ),
                        publisher_id=PUBLISHER,
                        doc_size_bytes=size,
                        issued_at=overlay.now,
                    ),
                )
                if path_by_path:
                    overlay.run()
            overlay.run()
    return overlay


def dispatch_observations(overlay):
    """Everything that must not depend on how paths were grouped."""
    stats = overlay.stats
    return {
        "delivered": Counter(
            (client_id, msg.publication.doc_id, msg.publication.path)
            for client_id, client in overlay.subscribers.items()
            for msg in client.received
        ),
        "broker_messages": dict(stats.broker_messages),
        "messages_by_kind": dict(stats.messages_by_kind),
        "client_messages": stats.client_messages,
        "published": {
            broker_id: broker.stats.get("PublishMsg", 0)
            for broker_id, broker in overlay.brokers.items()
        },
        "memo_probes": {
            broker_id: broker.match_cache.hits + broker.match_cache.misses
            for broker_id, broker in overlay.brokers.items()
        },
    }


def assert_grouping_is_unobservable(spec, **kwargs):
    grouped = run_dispatch_plan(spec, path_by_path=False, **kwargs)
    single = run_dispatch_plan(spec, path_by_path=True, **kwargs)
    assert dispatch_observations(grouped) == dispatch_observations(single)
    assert grouped.stats.client_messages > 0
    # ... and groups really formed: fewer frames carried the same messages.
    assert grouped.stats.frames < single.stats.frames
    return grouped, single


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    covering=st.booleans(),
    engine=st.sampled_from(("auto", "shared")),
)
@settings(max_examples=20)
def test_grouped_dispatch_is_path_by_path_dispatch(seed, covering, engine):
    assert_grouping_is_unobservable(
        WorkloadSpec(
            levels=3,
            queries_per_leaf=5,
            documents=3,
            seed=seed,
            strategy="with-Adv-with-Cov" if covering else "with-Adv-no-Cov",
            matching_engine=engine,
            target_bytes=1024,
        )
    )


DISPATCH_SPEC = WorkloadSpec(
    levels=3, queries_per_leaf=6, documents=3, seed=11, target_bytes=1024
)


def test_grouped_dispatch_under_the_audit_oracle(audit_oracle):
    oracles = []
    assert_grouping_is_unobservable(
        DISPATCH_SPEC, attach=lambda o: oracles.append(audit_oracle(o))
    )
    for oracle in oracles:
        report = oracle.check()
        assert not report.soundness and not report.unexplained_fp, (
            report.summary()
        )


def test_grouped_dispatch_keeps_spans_per_message():
    grouped, single = assert_grouping_is_unobservable(
        DISPATCH_SPEC, attach=lambda o: o.enable_tracing()
    )
    for overlay in (grouped, single):
        assert verify_traces(overlay) == []
        spans = overlay.tracing.spans
        hops = {
            span.span_id
            for span in spans
            if span.name == "hop" and span.attrs["kind"] == "PublishMsg"
        }
        # one hop span per routed publication, one match span under it
        assert len(hops) == sum(
            broker.stats.get("PublishMsg", 0)
            for broker in overlay.brokers.values()
        )
        matched = [s.parent_id for s in spans if s.name == "match"]
        assert sorted(matched) == sorted(hops)
    assert any(s.attrs.get("group", 1) > 1 for s in grouped.tracing.spans)
    assert not any("group" in s.attrs for s in single.tracing.spans)


def test_grouped_dispatch_over_lossy_links():
    """Under a fault plan the transport carries one message per frame;
    the client-edge link and the deliveries still group."""
    grouped, _ = assert_grouping_is_unobservable(
        DISPATCH_SPEC,
        faults=FaultPlan(seed=11, default=LinkFaults(drop=0.2), rto=0.01),
    )
    assert grouped.transport.stats["retransmits"] > 0
    assert grouped.transport.in_flight() == 0
