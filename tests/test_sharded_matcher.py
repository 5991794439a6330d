"""The sharded matching engine: contract, invariants, equivalence.

Four layers of assurance for ``matching_engine="sharded"``:

* engine-contract and placement tests on :class:`ShardedMatcher`
  directly (root homing, floating shard, per-shard DFA locality,
  skew-triggered splits with live migration);
* Hypothesis differentials against ``LinearMatcher`` under churn;
* a stateful churn machine interleaving SUB/UNSUB/ADV/merge-sweep/
  rebalance/snapshot-restore on a sharded broker against a
  shared-engine reference broker fed the identical message stream;
* the audited workload (six routing invariants) run end-to-end with
  the sharded engine, plus persistence round-trips.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.adverts import Advertisement
from repro.broker import (
    AdvertiseMsg,
    Broker,
    PublishMsg,
    RoutingConfig,
    SubscribeMsg,
    UnsubscribeMsg,
)
from repro.broker.persistence import restore, snapshot
from repro.broker.strategies import MergingMode
from repro.dtd.samples import psd_dtd
from repro.matching import LinearMatcher, ShardedMatcher
from repro.matching.sharded import root_element
from repro.merging.engine import PathUniverse
from repro.xmldoc import Publication
from repro.xpath import parse_xpath
from repro.xpath.ast import WILDCARD


def x(text):
    return parse_xpath(text)


def build(*texts, **kwargs):
    m = ShardedMatcher(**kwargs)
    for text in texts:
        m.add(x(text), text)
    return m


# -- placement -------------------------------------------------------------


class TestPlacement:
    def test_root_element(self):
        assert root_element(x("/a/b")) == "a"
        assert root_element(x("/a//b")) == "a"
        assert root_element(x("a/b")) is None        # relative
        assert root_element(x("//b")) is None        # relative
        assert root_element(x("/*/b")) is None       # wildcard root
        assert root_element(x("/a[@k]/b")) == "a"

    def test_anchored_exprs_live_in_their_root_shard(self):
        m = build("/a/b", "/a/c")
        shard = m._expr_shard[x("/a/b")]
        assert shard is m._shards[m.shard_index_for_root("a")]
        assert shard is m._expr_shard[x("/a/c")]
        assert len(m.floating.engine) == 0

    def test_rootless_exprs_live_in_the_floating_shard(self):
        m = build("//b", "b/c", "/*/d")
        assert len(m.floating.engine) == 3
        assert all(len(s.engine) == 0 for s in m._shards)

    def test_hashing_is_process_stable(self):
        # crc32, not the salted str hash: the multiprocess backend must
        # shard identically in every worker.
        import zlib

        m = ShardedMatcher(shard_count=4)
        assert m.shard_index_for_root("abc") == zlib.crc32(b"abc") % 4

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            ShardedMatcher(shard_count=0)
        with pytest.raises(ValueError):
            RoutingConfig(matching_engine="sharded", shard_count=0)


# -- engine contract -------------------------------------------------------


class TestEngineContract:
    def test_match_unions_home_and_floating(self):
        m = build("/a/b", "//b", "/q/b")
        assert m.match(("a", "b")) == {"/a/b", "//b"}
        assert m.match(("q", "b")) == {"/q/b", "//b"}
        assert m.match(("z", "b")) == {"//b"}
        assert m.match(()) == set()

    def test_duplicate_exprs_under_distinct_keys(self):
        m = ShardedMatcher()
        m.add(x("/a/b"), "k1")
        m.add(x("/a/b"), "k2")
        assert m.match(("a", "b")) == {"k1", "k2"}
        assert m.keys_of(x("/a/b")) == {"k1", "k2"}
        assert len(m) == 1
        m.remove(x("/a/b"), "k1")
        assert m.match(("a", "b")) == {"k2"}
        m.remove(x("/a/b"), "k2")
        assert m.match(("a", "b")) == set()
        assert len(m) == 0

    def test_remove_absent_is_noop(self):
        m = build("/a/b")
        version = m.version
        m.remove(x("/z/z"), "nope")
        m.remove(x("/a/b"), "wrong-key")
        assert m.version == version
        assert m.match(("a", "b")) == {"/a/b"}

    def test_predicated_exprs(self):
        m = build("/a/b[@k='1']", "//c[@j]")
        assert m.match(("a", "b"), ({}, {"k": "1"})) == {"/a/b[@k='1']"}
        assert m.match(("a", "b"), ({}, {"k": "2"})) == set()
        assert m.match(("z", "c"), ({}, {"j": "x"})) == {"//c[@j]"}

    def test_clear_keeps_learned_assignment(self):
        m = build("/a/b", "//b")
        m._assignment["a"] = 2
        m.clear()
        assert len(m) == 0
        assert m.shard_index_for_root("a") == 2
        m.add(x("/a/b"), "k")
        assert m._expr_shard[x("/a/b")] is m._shards[2]
        m.check_invariants()

    def test_stats_shape(self):
        m = build("/a/b", "//b")
        m.match(("a", "b"))
        stats = m.stats()
        assert stats["exprs"] == 2
        assert stats["floating_exprs"] == 1
        assert stats["shard_count"] == 4
        assert len(stats["shards"]) == 5  # root shards + floating
        assert {"probes", "dfa_states", "dfa_flushes"} <= set(
            stats["shards"][0]
        )

    def test_version_bumps_only_on_real_changes(self):
        m = ShardedMatcher()
        v0 = m.version
        m.add(x("/a/b"), "k")
        assert m.version > v0
        v1 = m.version
        m.add(x("/a/b"), "k")  # duplicate: no result change
        assert m.version == v1


# -- per-shard DFA locality ------------------------------------------------


def _two_roots_in_distinct_shards(m):
    """Two concrete roots homed in different shards of *m*."""
    first = "r0"
    for i in range(1, 64):
        candidate = "r%d" % i
        if m.shard_index_for_root(candidate) != m.shard_index_for_root(first):
            return first, candidate
    raise AssertionError("no pair of distinct-shard roots found")


def _flushes(m):
    return [shard["dfa_flushes"] for shard in m.stats()["shards"]]


def _changed(before, after):
    """Indices of the shards whose counter moved."""
    return [i for i, pair in enumerate(zip(before, after)) if pair[0] != pair[1]]


class TestPerShardCaching:
    """What a shard caches is its lazy-DFA fragment; match *results*
    are memoised one level up, in the broker's route memo."""

    def test_mutation_in_one_shard_keeps_other_shards_cached(self):
        m = ShardedMatcher(shard_count=4)
        a, b = _two_roots_in_distinct_shards(m)
        m.add(x("/%s/x" % a), "ka")
        m.add(x("/%s/y" % b), "kb")
        path_b = (b, "y")
        assert m.match(path_b) == {"kb"}
        assert m.match((a, "x")) == {"ka"}
        home_a = m.shard_index_for_root(a)
        before = _flushes(m)
        warm = m._home(b).engine.dfa_size()
        assert warm > 0
        # Churn in a's shard discards a's DFA fragment only: b's stays
        # warm — the locality one shared automaton cannot give.
        m.add(x("/%s/z" % a), "ka2")
        m.remove(x("/%s/x" % a), "ka")
        assert _changed(before, _flushes(m)) == [home_a]
        assert m._home(b).engine.dfa_size() == warm
        assert m.match(path_b) == {"kb"}
        assert m.match((a, "z")) == {"ka2"}

    def test_floating_mutation_invalidates_every_probe(self):
        m = build("/a/b")
        assert m.match(("a", "b")) == {"/a/b"}
        before = _flushes(m)
        m.add(x("//b"), "rel")
        # Only the floating shard (last) lost its fragment — but it is
        # probed on every match, so every probe sees the new expression.
        assert _changed(before, _flushes(m)) == [len(before) - 1]
        assert m.match(("a", "b")) == {"/a/b", "rel"}
        assert m.match(("z", "b")) == {"rel"}


# -- rebalancing -----------------------------------------------------------


class TestRebalancing:
    def _skewed(self, per_root=40, roots=3):
        # Three roots over two shards: the fuller shard holds >= 2/3 of
        # the table whichever way the roots hash, so a 1.25 factor
        # always trips the trigger while staying above 1.0.
        m = ShardedMatcher(
            shard_count=2,
            min_split_size=16,
            rebalance_factor=1.25,
            rebalance_interval=10_000,  # manual control
            auto_rebalance=False,
        )
        lin = LinearMatcher()
        for r in range(roots):
            for i in range(per_root):
                e = x("/hot%d/c%d" % (r, i))
                m.add(e, (r, i))
                lin.add(e, (r, i))
        return m, lin

    def test_split_migrates_under_invariants_and_preserves_matches(self):
        m, lin = self._skewed()
        m.check_invariants()
        assert m.maybe_rebalance()
        assert m.rebalances == 1
        assert m.shard_count == 3
        assert m.migrated_exprs > 0
        assert m.rebalance_log and m.rebalance_log[0]["exprs"] > 0
        m.check_invariants()
        for r in range(3):
            for i in range(40):
                path = ("hot%d" % r, "c%d" % i)
                assert m.match(path) == lin.match(path), path

    def test_split_reduces_max_shard_population(self):
        m, _ = self._skewed()
        before = max(len(s.engine) for s in m._shards)
        assert m.maybe_rebalance()
        after = max(len(s.engine) for s in m._shards)
        assert after < before

    def test_remove_finds_exprs_after_migration(self):
        m, lin = self._skewed()
        assert m.maybe_rebalance()
        moved_roots = set(m.rebalance_log[0]["roots"])
        assert moved_roots
        for expr in list(m.exprs()):
            if root_element(expr) in moved_roots:
                for key in list(m.keys_of(expr)):
                    m.remove(expr, key)
                    lin.remove(expr, key)
        m.check_invariants()
        for r in range(3):
            path = ("hot%d" % r, "c0")
            assert m.match(path) == lin.match(path)

    def test_single_root_shard_cannot_split(self):
        # Root granularity is the partition floor: a shard hosting one
        # root refuses to split no matter how large it is.
        m = ShardedMatcher(shard_count=1, auto_rebalance=False)
        for i in range(64):
            m.add(x("/only/c%d" % i), i)
        assert not m.split_shard(m._shards[0])
        assert m.shard_count == 1
        m.check_invariants()

    def test_auto_rebalance_triggers_on_mutation_count(self):
        m = ShardedMatcher(
            shard_count=2, min_split_size=8, rebalance_factor=1.3,
            rebalance_interval=50,
        )
        for i in range(400):
            m.add(x("/hot%d/c%d" % (i % 3, i)), i)
        assert m.rebalances >= 1
        m.check_invariants()

    def test_no_split_when_balanced(self):
        m = ShardedMatcher(shard_count=4, auto_rebalance=False)
        for i in range(200):
            m.add(x("/r%d/c%d" % (i % 16, i)), i)
        # 16 uniform roots over 4 shards: no shard is hot enough.
        assert not m.maybe_rebalance()


# -- stale-table rebalancing (bugfix regression) ---------------------------


class TestStaleRebalance:
    """A rebalance racing a pending merge-sweep dirty-rebuild must not
    migrate from shards whose resident expressions are about to be
    discarded (they are a snapshot of the pre-sweep table)."""

    def _merge_broker(self):
        universe = PathUniverse.from_dtd(psd_dtd(), max_depth=6)
        config = RoutingConfig(
            advertisements=False,
            merging=MergingMode.PERFECT,
            merge_interval=1_000_000,
            matching_engine="sharded",
            shard_count=2,
        )
        broker = Broker("b1", config=config, universe=universe)
        broker.connect("n1")
        for leaf in ("uid", "accession", "created-date", "seq-rev-date",
                     "txt-rev-date"):
            broker.handle(_sub(_PSD_HEADER + "/" + leaf), "n1")
        return broker

    def test_rebalance_on_stale_engine_rebuilds_first(self):
        broker = self._merge_broker()
        broker.run_merge_sweep()
        assert broker.merge_log
        assert broker._shared_dirty
        engine = broker.shared  # NOT _shared_engine(): stay stale
        assert engine.stale
        # Force the skew trigger so a split would certainly fire, then
        # rebalance while the dirty rebuild is still pending.
        engine.rebalance_factor = 1.05
        engine.min_split_size = 1
        engine.maybe_rebalance()
        # The hook rebuilt the mirror before any migration decision ...
        assert not engine.stale
        assert not broker._shared_dirty
        engine.check_invariants()
        # ... so the post-sweep table answers correctly.
        publication = Publication(
            doc_id="d", path_id=0,
            path=("ProteinDatabase", "ProteinEntry", "header", "uid"),
        )
        assert broker._publication_keys(publication) == frozenset({"n1"})

    def test_stale_engine_without_hook_refuses_to_migrate(self):
        m, _ = TestRebalancing()._skewed()
        m.mark_stale()
        before = [len(s.engine) for s in m._shards]
        assert not m.maybe_rebalance()
        assert m.stale  # still pending: nothing rebuilt, nothing moved
        assert [len(s.engine) for s in m._shards] == before
        assert not m.rebalance_log

    def test_auto_rebalance_suppressed_while_stale(self):
        m = ShardedMatcher(
            shard_count=2, min_split_size=8, rebalance_factor=1.3,
            rebalance_interval=10,
        )
        m.mark_stale()
        for i in range(200):
            m.add(x("/hot%d/c%d" % (i % 3, i)), i)
        assert m.rebalances == 0 and not m.rebalance_log

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(st.integers(min_value=0, max_value=2 ** 30),
                     min_size=4, max_size=30),
    )
    def test_interleaved_sweeps_and_rebalances_stay_equivalent(self, ops):
        """Hypothesis interleaving: SUB/UNSUB/merge-sweep/rebalance in
        any order leaves the sharded broker matching exactly like the
        shared-engine reference, with partition invariants intact."""
        universe = PathUniverse.from_dtd(psd_dtd(), max_depth=6)
        sharded, reference = _make_pair(universe)
        live = []
        for op in ops:
            kind = op % 4
            if kind == 0:
                text = _POOL[op % len(_POOL)]
                msg = SubscribeMsg(expr=x(text),
                                   subscriber_id="s%d" % (op % 3))
                sharded.handle(msg, _HOPS[op % len(_HOPS)])
                reference.handle(msg, _HOPS[op % len(_HOPS)])
                live.append((text, op % 3, _HOPS[op % len(_HOPS)]))
            elif kind == 1 and live:
                text, s, hop = live.pop(op % len(live))
                msg = UnsubscribeMsg(expr=x(text), subscriber_id="s%d" % s)
                sharded.handle(msg, hop)
                reference.handle(msg, hop)
            elif kind == 2:
                sharded.run_merge_sweep()
                reference.run_merge_sweep()
            else:
                engine = sharded.shared  # possibly stale: the race
                engine.rebalance_factor = 1.1
                engine.min_split_size = 1
                engine.maybe_rebalance()
                engine.check_invariants()
        for i, path in enumerate(PROBES):
            publication = Publication(doc_id="d%d" % i, path_id=0, path=path)
            got = sharded._publication_keys(publication)
            want = reference._publication_keys(publication)
            assert got == want, (path, got, want)
        sharded._shared_engine().check_invariants()


# -- floating-only workloads (rebalancer no-op) ----------------------------


class TestFloatingOnlyWorkload:
    """All-relative/wildcard-root expressions live in the floating
    shard, which the rebalancer never partitions: the whole machinery
    must stay a no-op while matching stays correct under churn."""

    _FLOATING = ("//b", "//b/c", "a/b", "b", "/*/b", "/*/d", "//c[@j]",
                 "b/c", "//author")

    def test_rebalancer_is_a_noop(self):
        m = ShardedMatcher(
            shard_count=2, min_split_size=1, rebalance_factor=1.05,
            rebalance_interval=5,
        )
        lin = LinearMatcher()
        live = []
        for i in range(120):
            text = self._FLOATING[i % len(self._FLOATING)]
            e = x(text)
            m.add(e, i)
            lin.add(e, i)
            live.append((e, i))
            if i % 3 == 0 and live:
                e, k = live.pop(i % len(live))
                m.remove(e, k)
                lin.remove(e, k)
            m.maybe_rebalance()  # explicit, on top of the auto cadence
        assert m.rebalances == 0
        assert m.rebalance_log == []
        assert m.migrated_exprs == 0
        assert m.shard_count == 2
        assert all(len(s.engine) == 0 for s in m._shards)
        m.check_invariants()
        for path in (("a", "b"), ("z", "b"), ("q", "b", "c"), ("b",),
                     ("x", "d"), ()):
            assert m.match(path) == lin.match(path), path
            a = tuple(
                {"j": "1"} if i == len(path) - 1 else {}
                for i in range(len(path))
            ) or None
            assert m.match(path, a) == lin.match(path, a), (path, "attrs")


# -- Hypothesis differential ----------------------------------------------

_texts = st.lists(
    st.sampled_from((
        "/a/b", "/a/*", "/a/b/c", "/a//c", "/b/c", "/b/*/d", "/c/a",
        "//b", "//b/c", "a/b", "b", "/*/b", "/a/b[@k='1']", "//c[@j]",
    )),
    min_size=1,
    max_size=24,
)
_ops = st.lists(st.integers(min_value=0, max_value=2 ** 30), max_size=24)


@settings(max_examples=120, deadline=None)
@given(_texts, _ops, st.integers(min_value=1, max_value=5))
def test_differential_vs_linear_under_churn(texts, ops, shard_count):
    m = ShardedMatcher(
        shard_count=shard_count,
        min_split_size=2,
        rebalance_interval=7,
        rebalance_factor=1.5,
    )
    lin = LinearMatcher()
    live = []
    for i, text in enumerate(texts):
        e = x(text)
        m.add(e, i)
        lin.add(e, i)
        live.append((e, i))
    for op in ops:
        if live and op % 3 == 0:
            e, k = live.pop(op % len(live))
            m.remove(e, k)
            lin.remove(e, k)
        elif op % 3 == 1:
            e = x(["/a/b", "//b", "/c/a", "b"][op % 4])
            m.add(e, ("op", op))
            lin.add(e, ("op", op))
            live.append((e, ("op", op)))
        else:
            m.maybe_rebalance()
    m.check_invariants()
    probes = [
        ("a", "b"), ("a", "b", "c"), ("a", "q", "c"), ("b", "c"),
        ("b", "z", "d"), ("c", "a"), ("z", "b"), ("b",), (),
        ("a", "b", "b", "c"),
    ]
    attrs = ({}, {"k": "1"}, {"j": "2"}, {})
    for path in probes:
        assert m.match(path) == lin.match(path), path
        a = attrs[: len(path)]
        assert m.match(path, a) == lin.match(path, a), (path, "attrs")


# -- the churn state machine (satellite: rebalance test coverage) ----------


_PSD_HEADER = "/ProteinDatabase/ProteinEntry/header"

PROBES = (
    ("a", "b"),
    ("a", "b", "c"),
    ("a", "z", "c"),
    ("b", "c"),
    ("c", "d"),
    ("z", "b"),
    ("ProteinDatabase", "ProteinEntry", "header", "uid"),
    ("ProteinDatabase", "ProteinEntry", "header", "accession"),
    ("ProteinDatabase", "ProteinEntry", "protein", "name"),
)

# Abstract roots exercise shard placement; the PSD paths live in the
# merge universe, so sweeps can actually rewrite the table under them.
_POOL = (
    "/a/b", "/a/c", "/a/*", "/a/b/c", "/a//c",
    "/b/c", "/b/*", "/c/d",
    "//b", "a/b", "/*/b",
    _PSD_HEADER + "/uid",
    _PSD_HEADER + "/accession",
    _PSD_HEADER + "/created-date",
    _PSD_HEADER + "/seq-rev-date",
    _PSD_HEADER + "/txt-rev-date",
    "/ProteinDatabase/ProteinEntry/protein/name",
    "/ProteinDatabase/ProteinEntry/protein/alt-name",
    "//author",
)

_HOPS = ("n1", "n2", "c1")


def _make_pair(universe):
    """A sharded broker and a shared-engine reference broker, identical
    in everything but the matching engine."""

    def make(engine):
        config = RoutingConfig(
            advertisements=False,
            covering=True,
            merging=MergingMode.IMPERFECT,
            max_imperfect_degree=0.5,
            merge_interval=1_000_000,  # sweeps fire only explicitly
            matching_engine=engine,
            shard_count=3,
        )
        broker = Broker("b1", config=config, universe=universe)
        for n in ("n1", "n2"):
            broker.connect(n)
        broker.attach_client("c1")
        return broker

    return make("sharded"), make("shared")


class ShardedChurnMachine(RuleBasedStateMachine):
    """SUB/UNSUB/ADV/merge-sweep/rebalance/snapshot-restore, with the
    sharded broker checked against the shared-engine reference after
    every step: identical match sets on every probe publication, and
    the partition invariants intact."""

    @initialize()
    def setup(self):
        self.universe = PathUniverse.from_dtd(psd_dtd(), max_depth=6)
        self.sharded, self.reference = _make_pair(self.universe)
        self.pub_seq = 0

    def _publication(self, path):
        self.pub_seq += 1
        return Publication(
            doc_id="d%d" % self.pub_seq, path_id=0, path=path
        )

    @rule(
        text=st.sampled_from(_POOL),
        hop=st.sampled_from(_HOPS),
        data=st.integers(min_value=0, max_value=3),
    )
    def subscribe(self, text, hop, data):
        msg = SubscribeMsg(expr=x(text), subscriber_id="s%d" % data)
        self.sharded.handle(msg, hop)
        self.reference.handle(msg, hop)

    @rule(
        text=st.sampled_from(_POOL),
        hop=st.sampled_from(_HOPS),
        data=st.integers(min_value=0, max_value=3),
    )
    def unsubscribe(self, text, hop, data):
        msg = UnsubscribeMsg(expr=x(text), subscriber_id="s%d" % data)
        self.sharded.handle(msg, hop)
        self.reference.handle(msg, hop)

    @rule(root=st.sampled_from(("a", "b", "c")), hop=st.sampled_from(_HOPS))
    def advertise(self, root, hop):
        msg = AdvertiseMsg(
            adv_id="adv-%s" % root,
            advert=Advertisement.from_tests((root,)),
            publisher_id="p",
        )
        self.sharded.handle(msg, hop)
        self.reference.handle(msg, hop)

    @rule()
    def merge_sweep(self):
        self.sharded.run_merge_sweep()
        self.reference.run_merge_sweep()

    @rule()
    def rebalance(self):
        engine = self.sharded._shared_engine()
        engine.rebalance_factor = 1.2
        engine.min_split_size = 1
        engine.maybe_rebalance()

    @rule()
    def snapshot_restore(self):
        self.sharded = restore(snapshot(self.sharded),
                               universe=self.universe)
        self.reference = restore(snapshot(self.reference),
                                 universe=self.universe)

    @invariant()
    def match_sets_equal_and_partition_consistent(self):
        if not hasattr(self, "sharded"):
            return
        for path in PROBES:
            publication = self._publication(path)
            got = self.sharded._publication_keys(publication)
            want = self.reference._publication_keys(publication)
            assert got == want, (path, got, want)
        self.sharded._shared_engine().check_invariants()


TestShardedChurnMachine = ShardedChurnMachine.TestCase
TestShardedChurnMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


# -- audited workload ------------------------------------------------------


def test_audited_workload_clean_with_sharded_engine():
    """The six routing invariants hold end-to-end on a 7-broker overlay
    matching through the sharded engine (zero audit violations)."""
    from repro.audit.harness import run_audited_workload

    _, _, report = run_audited_workload(
        levels=3,
        xpes_per_leaf=8,
        documents=3,
        seed=11,
        matching_engine="sharded",
        shard_count=3,
    )
    assert report.ok, report.problems()


# -- broker integration ----------------------------------------------------


def _sub(text, subscriber="s"):
    return SubscribeMsg(expr=x(text), subscriber_id=subscriber)


def _pub(path, doc_id="d1"):
    return PublishMsg(
        publication=Publication(doc_id=doc_id, path_id=0, path=path),
        publisher_id="pub",
    )


def _wire(config):
    broker = Broker("b1", config=config)
    for n in ("n1", "n2"):
        broker.connect(n)
    broker.attach_client("c1")
    return broker


def _feed(broker):
    broker.handle(_sub("/a/b"), "n1")
    broker.handle(_sub("/a//c"), "n2")
    broker.handle(_sub("//b"), "n2")
    broker.handle(_sub("/q/r"), "n1")


BROKER_PROBES = (("a", "b"), ("a", "z", "c"), ("q", "r"), ("z", "b"), ("n",))


def test_sharded_broker_matches_like_auto_and_shared():
    sharded = _wire(RoutingConfig(matching_engine="sharded", shard_count=3))
    shared = _wire(RoutingConfig(matching_engine="shared"))
    auto = _wire(RoutingConfig())
    for broker in (sharded, shared, auto):
        _feed(broker)
    for path in BROKER_PROBES:
        publication = Publication(doc_id="d", path_id=0, path=path)
        want = auto._publication_keys(publication)
        assert sharded._publication_keys(publication) == want, path
        assert shared._publication_keys(publication) == want, path


def test_sharded_broker_describe_and_per_shard_locality():
    broker = _wire(RoutingConfig(matching_engine="sharded", shard_count=3))
    _feed(broker)
    summary = broker.describe()
    assert summary["matching_engine"] == "sharded"
    assert summary["shared_automaton"]["shard_count"] >= 3
    engine = broker._shared_engine()
    for path in BROKER_PROBES:  # walk every shard's DFA warm
        broker._publication_keys(Publication(doc_id="1", path_id=0, path=path))

    def flushes():
        shards = broker.describe()["shared_automaton"]["shards"]
        return [shard["dfa_flushes"] for shard in shards]

    # Churn under root a discards the DFA fragment of a's shard only.
    before = flushes()
    broker.handle(_sub("/a/extra"), "n1")
    assert _changed(before, flushes()) == [engine.shard_index_for_root("a")]


def test_merge_sweep_rebuild_preserves_matches():
    universe = PathUniverse.from_dtd(psd_dtd(), max_depth=6)
    config = RoutingConfig(
        advertisements=False,
        merging=MergingMode.PERFECT,
        merge_interval=1_000_000,
        matching_engine="sharded",
        shard_count=3,
    )
    broker = Broker("b1", config=config, universe=universe)
    broker.connect("n1")
    # All five children of header: the perfect merger header/* exists.
    for leaf in ("uid", "accession", "created-date", "seq-rev-date",
                 "txt-rev-date"):
        broker.handle(_sub(_PSD_HEADER + "/" + leaf), "n1")
    broker.run_merge_sweep()
    assert broker.merge_log  # a merge actually happened
    assert broker._shared_dirty  # mirror rebuild is lazy
    publication = Publication(
        doc_id="d", path_id=0,
        path=("ProteinDatabase", "ProteinEntry", "header", "uid"),
    )
    keys = broker._publication_keys(publication)
    assert keys == frozenset({"n1"})
    assert not broker._shared_dirty
    broker._shared_engine().check_invariants()


def test_persistence_roundtrip_preserves_shard_config():
    config = RoutingConfig(matching_engine="sharded", shard_count=5)
    broker = _wire(config)
    _feed(broker)
    restored = restore(snapshot(broker))
    assert restored.config.matching_engine == "sharded"
    assert restored.config.shard_count == 5
    assert isinstance(restored.shared, ShardedMatcher)
    for path in BROKER_PROBES:
        publication = Publication(doc_id="d", path_id=0, path=path)
        assert restored._publication_keys(publication) == \
            broker._publication_keys(publication), path
    restored._shared_engine().check_invariants()


def test_wildcard_root_paths_and_exprs_stay_sound():
    broker = _wire(RoutingConfig(matching_engine="sharded"))
    broker.handle(_sub("/*/b"), "n1")
    broker.handle(_sub("/a/b"), "n2")
    publication = Publication(doc_id="d", path_id=0, path=("a", "b"))
    assert broker._publication_keys(publication) == frozenset({"n1", "n2"})
    assert WILDCARD not in [
        root_element(e) for e in broker._shared_engine().exprs()
    ]
