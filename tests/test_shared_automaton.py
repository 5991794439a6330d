"""The shared-automaton mass-subscription engine, unit to overlay level.

Four layers of assurance, mirroring how the engine is deployed:

* unit tests of the engine contract (duplicate keys, NFA pruning,
  footprint, shared values);
* Hypothesis differentials against :class:`LinearMatcher` and the
  reference interpreter, plus a stateful machine that edits twins on
  one trail and audits the automaton after every step;
* broker-level equivalence: a ``matching_engine="shared"`` broker makes
  the same routing decisions as the default one, across merge sweeps
  and snapshot/restore (a second stateful machine interleaves them);
* the audit oracle's seven invariants hold on chaos workloads (fault-free
  and crash-restart) run entirely on the shared engine.
"""

import collections
import gc

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
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
from repro.broker.persistence import (
    restore,
    restore_json,
    snapshot,
    snapshot_json,
)
from repro.broker.strategies import MergingMode
from repro.broker.tables import NEIGHBOR_TUPLES, ForwardedState
from repro.covering.pathmatch import matches_path_reference
from repro.dtd.samples import psd_dtd
from repro.matching import LinearMatcher, SharedAutomatonMatcher
from repro.matching.shared_automaton import KEY_TUPLES
from repro.merging.engine import PathUniverse
from repro.workloads.mass import generate_mass_subscriptions
from repro.xmldoc import Publication, XMLDocument
from repro.xpath import parse_xpath
from repro.xpath.ast import NAMES, STEPS


def x(text):
    return parse_xpath(text)


def build(*texts):
    matcher = SharedAutomatonMatcher()
    for t in texts:
        matcher.add(x(t), t)
    return matcher


class TestEngineContract:
    def test_structural_matching(self):
        m = build("/a/b", "b/c", "/a//d", "//c/d", "/*/b")
        assert m.match(("a", "b")) == {"/a/b", "/*/b"}
        assert m.match(("a", "b", "c")) == {"/a/b", "/*/b", "b/c"}
        assert m.match(("a", "q", "q", "d")) == {"/a//d"}
        assert m.match(("q", "c", "d")) == {"//c/d"}

    def test_predicates_verified_on_automaton_output(self):
        # No verify step: the XPEs the walk accepts are the answer.
        m = build("/a/b", "/a/*", "//c")
        assert m.match_exprs(("a", "b")) == {x("/a/b"), x("/a/*")}
        assert m.match_exprs(("a", "c")) == {x("/a/*"), x("//c")}

    def test_duplicate_exprs_under_distinct_keys(self):
        m = SharedAutomatonMatcher()
        m.add(x("/a/b"), "k1")
        m.add(x("/a/b"), "k2")
        assert len(m) == 1  # one resident expression, two keys
        assert m.match(("a", "b")) == {"k1", "k2"}
        m.remove(x("/a/b"), "k1")
        assert m.match(("a", "b")) == {"k2"}
        m.remove(x("/a/b"), "k2")
        assert m.match(("a", "b")) == set()
        assert len(m) == 0

    def test_remove_absent_is_noop(self):
        m = build("/a")
        size = m.automaton_size()
        m.remove(x("/zzz"), "nobody")
        m.remove(x("/a"), "wrong-key")
        assert len(m) == 1
        assert m.automaton_size() == size
        assert m.match(("a",)) == {"/a"}

    def test_keys_of_and_exprs(self):
        m = SharedAutomatonMatcher()
        m.add(x("/a"), "k1")
        m.add(x("/a"), "k2")
        m.add(x("/b"), "k3")
        assert m.keys_of(x("/a")) == {"k1", "k2"}
        assert m.keys_of(x("/zzz")) == set()
        assert {str(e) for e in m.exprs()} == {"/a", "/b"}


def _census():
    """GC-tracked objects by type name, after a full collection."""
    gc.collect()
    return collections.Counter(type(obj).__name__ for obj in gc.get_objects())


def _created(build):
    """What *build* leaves tracked: a census diff, the first census
    taken twice so the ones it takes itself create nothing new."""
    _census()
    before = _census()
    result = build()
    return _census() - before, result


class TestFootprint:
    """A stored subscription is its NFA states and nothing else: no
    stored trail, no one-element set per XPE."""

    def test_a_mass_load_creates_two_objects_per_state_at_most(self):
        """Each XPE adds one accepting tuple and no set; a key tuple of
        strings is untracked by the collection.  This bound dates from
        when each state also owned an ``edges`` dict: at seed 0 the
        2,000 pairs (1,845 XPEs, 7,311 states) created 14,093 objects
        against its 16,483, and a table that stored each XPE's trail
        and one-element sets created 28,458.  The next case holds the
        tighter bound of one object per state."""
        pairs = generate_mass_subscriptions(2000, seed=0)
        for expr, _ in pairs:
            hash(expr)  # the XPE's own hash cache is not the table's

        def load():
            table = SharedAutomatonMatcher()
            for expr, key in pairs:
                table.add(expr, key)
            return table

        created, table = _created(load)
        assert sum(created.values()) <= (
            2 * table.automaton_size() + len(table) + 16
        )
        assert not created["set"]

    def test_a_mass_load_keeps_no_mapping_per_state(self):
        """The edges live in one table per label, not in a dict per
        state: a state is one tracked object, each XPE adds at most one
        accepting tuple, and the dicts are the label tables plus at most
        8 of the automaton's and the matcher's own (16 objects of slack
        in all).  At seed 0 the 2,000 pairs (1,845 XPEs, 7,311 states,
        41 labels) created 9,150–9,174 objects, 43 of them dicts,
        against bounds of 9,213 and 49 (the census is a net count, so
        objects freed meanwhile lower it); one ``edges`` dict per state
        created 14,073–14,092 objects, 4,966 of them dicts."""
        pairs = generate_mass_subscriptions(2000, seed=0)
        for expr, _ in pairs:
            hash(expr)

        def load():
            table = SharedAutomatonMatcher()
            for expr, key in pairs:
                table.add(expr, key)
            return table

        created, table = _created(load)
        labels = len({step.test for expr in table.exprs() for step in expr.steps})
        assert sum(created.values()) <= (
            table.automaton_size() + len(table) + labels + 16
        )
        assert created["dict"] <= labels + 8

    def test_forwarded_marks_hold_no_set(self):
        forwarded = ForwardedState()
        exprs = [x("/a/b%d" % i) for i in range(200)]
        for expr in exprs:
            hash(expr)

        def mark():
            for i, expr in enumerate(exprs):
                forwarded.mark(expr, "n%d" % (i % 3))
                if i % 2:
                    forwarded.mark(expr, "n%d" % ((i + 1) % 3))
                    forwarded.mark(expr, "n%d" % ((i + 1) % 3))  # once

        created, _ = _created(mark)
        # A tuple of neighbour ids holds strings only: untracked.
        assert not created["set"] and not created["tuple"]
        assert forwarded.neighbors_for(exprs[1]) == {"n1", "n2"}
        forwarded.unmark(exprs[1], "n1")
        assert forwarded.neighbors_for(exprs[1]) == {"n2"}
        assert forwarded.drop(exprs[1]) == {"n2"}
        assert not forwarded.was_sent(exprs[1], "n2")
        forwarded.unmark(exprs[0], "n0")
        assert exprs[0] not in forwarded.exprs()
        assert len(forwarded) == 198


class TestSharedValues:
    """Repeated small values in the routing state are one object each.
    Every case empties the process-wide table it reads first, so no
    clear at the table's cap falls inside it (a clear loses sharing,
    not correctness: tests/test_sharing.py)."""

    def test_parsing_creates_one_step_per_distinct_step(self):
        """2,000 mass XPEs hold 7,000-odd steps; one tracked ``Step``
        object exists per distinct ``(axis, test)``."""
        STEPS.clear()
        created, pairs = _created(
            lambda: generate_mass_subscriptions(2000, seed=0)
        )
        distinct = {
            (step.axis, step.test) for expr, _ in pairs for step in expr.steps
        }
        held = {id(step) for expr, _ in pairs for step in expr.steps}
        assert sum(len(expr.steps) for expr, _ in pairs) > 5 * len(distinct)
        assert created["Step"] <= len(distinct)
        assert len(held) == len(distinct)

    def test_a_mass_load_keeps_one_tuple_per_distinct_key_tuple(self):
        KEY_TUPLES.clear()
        pairs = generate_mass_subscriptions(2000, seed=0)
        table = SharedAutomatonMatcher()
        for index, (expr, _) in enumerate(pairs):
            table.add(expr, "c%d" % (index % 40))
        for index, (expr, _) in enumerate(pairs[:300]):
            table.remove(expr, "c%d" % (index % 40))
        values = list(table._keys.values())
        assert len(values) > 10 * len(set(values))
        assert len({id(keys) for keys in values}) <= len(set(values))

    def test_forwarded_marks_keep_one_tuple_per_distinct_tuple(self):
        NEIGHBOR_TUPLES.clear()
        forwarded = ForwardedState()
        exprs = [x("/a/b%d" % i) for i in range(200)]
        for i, expr in enumerate(exprs):
            forwarded.mark(expr, "n%d" % (i % 3))
            forwarded.mark(expr, "n%d" % ((i + 1) % 3))
        for expr in exprs[:50]:
            forwarded.unmark(expr, "n1")
        values = list(forwarded._sent.values())
        assert len({id(sent) for sent in values}) <= len(set(values)) <= 6

    def test_documents_share_their_element_names(self):
        """Two parses of the same names give the same string objects,
        and they are the ones an XPE's steps hold: a path symbol and an
        automaton label compare by identity."""
        NAMES.clear()
        STEPS.clear()
        expr = x("/catalog/item//price")
        text = (
            "<catalog><item><price>1</price><label>a</label></item>"
            "<item><price>2</price></item></catalog>"
        )
        first = XMLDocument.parse(text, "d1").paths()
        second = XMLDocument.parse(text, "d2").paths()
        assert first == second
        for one, other in zip(first, second):
            for symbol, again in zip(one, other):
                assert symbol is again
        assert [step.test for step in expr.steps] == list(first[0])
        for step, symbol in zip(expr.steps, first[0]):
            assert step.test is symbol


class TestPruning:
    def test_churn_returns_automaton_to_baseline(self):
        m = build("/a/b/c", "/a/b/d", "//q/r")
        baseline = m.automaton_size()
        extra = ["/a/b/c/e%d" % i for i in range(10)] + [
            "//deep//x%d" % i for i in range(10)
        ]
        for text in extra:
            m.add(x(text), text)
        assert m.automaton_size() > baseline
        for text in extra:
            m.remove(x(text), text)
        assert m.automaton_size() == baseline
        m._nfa.check_refcounts()


# -- Hypothesis differentials ----------------------------------------------

_step = st.tuples(
    st.sampled_from(("/", "//", "")),  # "" = relative start (first step only)
    st.sampled_from(("a", "b", "c", "d", "*")),
)


@st.composite
def xpe_texts(draw):
    steps = draw(st.lists(_step, min_size=1, max_size=5))
    parts = []
    for index, (sep, test) in enumerate(steps):
        if index == 0:
            sep = sep or ""  # "a/..." is a relative expression
        else:
            sep = sep or "/"
        parts.append(sep + test)
    return "".join(parts)


probes = st.lists(
    st.sampled_from(("a", "b", "c", "d", "e")), min_size=0, max_size=7
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(xpe_texts(), min_size=1, max_size=10),
    removals=st.lists(st.integers(0, 9), max_size=6),
    path=probes,
)
def test_differential_vs_linear_under_churn(texts, removals, path):
    """Interleaved adds and removes (duplicate expressions included)
    leave the shared engine agreeing with the linear scan."""
    shared = SharedAutomatonMatcher()
    linear = LinearMatcher()
    pool = [(parse_xpath(text), "k%d" % i) for i, text in enumerate(texts)]
    for expr, key in pool:
        shared.add(expr, key)
        linear.add(expr, key)
    for index in removals:
        if index < len(pool):
            expr, key = pool[index]
            shared.remove(expr, key)
            linear.remove(expr, key)
    assert shared.match(path) == linear.match(path)
    shared._nfa.check_refcounts()


@settings(max_examples=300, deadline=None)
@given(text=xpe_texts(), path=probes)
def test_differential_vs_reference_interpreter(text, path):
    expr = parse_xpath(text)
    m = SharedAutomatonMatcher()
    m.add(expr, "k")
    expected = {"k"} if matches_path_reference(expr, path) else set()
    assert m.match(path) == expected


# -- twins on one trail -------------------------------------------------------
#
# An XPE and its prefixes, and one XPE under two keys, share a trail
# and accepting states.  This machine edits such twins from a fixed
# pool: each XPE's keys must stay its own, and the automaton's
# reference counts and shape exact.

SKELETON_TEXTS = ("/a/b", "/a/b/c", "//b", "/a/*", "//b/c", "/a")

_SKELETON_PROBES = [("a", "b"), ("a", "b", "c"), ("c", "b"), ("a",)]


class SharedSkeletonMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.shared = SharedAutomatonMatcher()
        self.linear = LinearMatcher()

    @rule(text=st.sampled_from(SKELETON_TEXTS),
          key=st.sampled_from(("k1", "k2")))
    def add(self, text, key):
        self.shared.add(x(text), key)
        self.linear.add(x(text), key)

    @rule(text=st.sampled_from(SKELETON_TEXTS),
          key=st.sampled_from(("k1", "k2")))
    def remove(self, text, key):
        self.shared.remove(x(text), key)
        self.linear.remove(x(text), key)

    @rule(path=st.sampled_from(_SKELETON_PROBES))
    def match(self, path):
        assert self.shared.match(path) == self.linear.match(path), path

    @invariant()
    def automaton_is_exact(self):
        assert self.shared.stats()["exprs"] == len(self.linear)
        self.shared._nfa.check_refcounts()


TestSharedSkeletonMachine = SharedSkeletonMachine.TestCase
TestSharedSkeletonMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)


# -- broker level -----------------------------------------------------------

def _broker_pair():
    base = RoutingConfig.with_adv_with_cov()
    import dataclasses

    shared_config = dataclasses.replace(base, matching_engine="shared")
    auto = Broker("b1", config=base)
    shared = Broker("b1", config=shared_config)
    for broker in (auto, shared):
        broker.connect("n1")
        broker.connect("n2")
        broker.attach_client("c1")
        broker.handle(
            AdvertiseMsg(
                adv_id="a1",
                advert=Advertisement.from_tests(("x", "y", "z", "w")),
                publisher_id="pub",
            ),
            "n1",
        )
    return auto, shared


def _decisions(broker, path, doc_id):
    out = broker.handle(
        PublishMsg(
            publication=Publication(doc_id=doc_id, path_id=0, path=path),
            publisher_id="pub",
        ),
        "n1",
    )
    return sorted(
        (str(dest), str(msg.publication)) for dest, (msg,) in out
    )


PUBLISH_PATHS = (
    ("x", "y"),
    ("x", "y", "z"),
    ("x", "w"),
    ("x", "q", "z"),
    ("x", "y", "w", "z"),
)


def _assert_same_decisions(auto, shared, tag):
    for index, path in enumerate(PUBLISH_PATHS):
        doc_id = "%s%d" % (tag, index)
        assert _decisions(auto, path, doc_id) == _decisions(
            shared, path, doc_id
        ), path


class TestBrokerIntegration:
    SUBS = ("/x/y", "/x/y/z", "//z", "/x/*", "x/y", "//w")

    def test_shared_broker_routes_like_default(self):
        auto, shared = _broker_pair()
        for index, text in enumerate(self.SUBS):
            msg = SubscribeMsg(expr=x(text), subscriber_id="c1")
            for broker in (auto, shared):
                broker.handle(msg, "n2" if index % 2 else "c1")
        _assert_same_decisions(auto, shared, "d")
        # Unsubscribe half and re-check: the mirror tracks retirements.
        for text in self.SUBS[::2]:
            msg = UnsubscribeMsg(expr=x(text), subscriber_id="c1")
            for broker in (auto, shared):
                broker.handle(msg, "c1")
        _assert_same_decisions(auto, shared, "u")

    def test_merge_sweep_resyncs_mirror(self):
        import dataclasses

        from repro.dtd.parser import parse_dtd
        from repro.merging.engine import PathUniverse

        universe = PathUniverse.from_dtd(
            parse_dtd(
                """
                <!ELEMENT r (a, b)>
                <!ELEMENT a (c | d | e)>
                <!ELEMENT b (c?)>
                <!ELEMENT c (#PCDATA)>
                <!ELEMENT d (#PCDATA)>
                <!ELEMENT e (#PCDATA)>
                """
            )
        )
        base = RoutingConfig.with_adv_with_cov_pm(merge_interval=3)
        auto = Broker("b1", config=base, universe=universe)
        shared = Broker(
            "b1",
            config=dataclasses.replace(base, matching_engine="shared"),
            universe=universe,
        )
        advert = AdvertiseMsg(
            adv_id="a1",
            advert=Advertisement.from_tests(("r", "a", "b", "c", "d", "e")),
            publisher_id="pub",
        )
        for broker in (auto, shared):
            broker.connect("n1")
            broker.attach_client("c1")
            broker.handle(advert, "n1")
            # The full sibling set under /r/a: the interval-3 sweep
            # rewrites it to the perfect merger /r/a/*, and the mirror
            # must follow the rewritten table event by event.
            for text in ("/r/a/c", "/r/a/d", "/r/a/e"):
                broker.handle(
                    SubscribeMsg(expr=x(text), subscriber_id="c1"), "c1"
                )
        assert shared.merge_log, "sweep never ran — interval misconfigured"
        probes = (("r", "a", "c"), ("r", "a", "d"), ("r", "b", "c"), ("r", "a"))
        for path in probes:
            assert shared.mirror.match(path) == shared.table.match(path), path
        assert set(shared.mirror.exprs()) == set(shared.table.exprs())
        for index, path in enumerate(probes):
            doc_id = "m%d" % index
            assert _decisions(auto, path, doc_id) == _decisions(
                shared, path, doc_id
            ), path

    def test_snapshot_restore_round_trip(self):
        _, shared = _broker_pair()
        for text in self.SUBS:
            shared.handle(SubscribeMsg(expr=x(text), subscriber_id="c1"), "c1")
        shared.handle(
            PublishMsg(
                publication=Publication(
                    doc_id="warm", path_id=0, path=("x", "y")
                ),
                publisher_id="pub",
            ),
            "n1",
        )
        restored = restore_json(snapshot_json(shared))
        assert restored.config.matching_engine == "shared"
        assert restored.mirror is not None
        for path in PUBLISH_PATHS:
            assert restored.mirror.match(path) == restored.table.match(path)
        _assert_same_decisions(shared, restored, "r")
        assert restored.describe()["shared_automaton"]["exprs"] == len(
            shared.mirror.exprs()
        )


# -- the broker churn machine -------------------------------------------------

_PSD_HEADER = "/ProteinDatabase/ProteinEntry/header"

CHURN_PROBES = (
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

# Abstract roots collide on short trails; the PSD paths live in the
# merge universe, so sweeps can actually rewrite the table under them.
_CHURN_POOL = (
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

_CHURN_HOPS = ("n1", "n2", "c1")


class SharedChurnMachine(RuleBasedStateMachine):
    """SUB/UNSUB/ADV/merge-sweep/snapshot-restore on a shared-engine
    broker and an ``auto`` broker fed the identical message stream,
    with covering (the automaton is a mirror beside the tree) or
    without (the automaton is the table): after every step both
    resolve every probe publication to the same keys — through the
    route memo, and asking the automaton directly (a memo hit never
    reaches it) — and the automaton's reference counts are exact."""

    @initialize(covering=st.booleans())
    def setup(self, covering):
        self.covering = covering
        self.universe = PathUniverse.from_dtd(psd_dtd(), max_depth=6)
        self.shared, self.auto = (
            self._broker(engine) for engine in ("shared", "auto")
        )
        self.pub_seq = 0

    def _broker(self, engine):
        config = RoutingConfig(
            advertisements=False,
            covering=self.covering,
            merging=(
                MergingMode.IMPERFECT if self.covering else MergingMode.OFF
            ),
            max_imperfect_degree=0.5,
            merge_interval=1_000_000,  # sweeps fire only explicitly
            matching_engine=engine,
        )
        broker = Broker("b1", config=config, universe=self.universe)
        for neighbor in ("n1", "n2"):
            broker.connect(neighbor)
        broker.attach_client("c1")
        return broker

    def _both(self, msg, hop):
        self.shared.handle(msg, hop)
        self.auto.handle(msg, hop)

    @rule(
        text=st.sampled_from(_CHURN_POOL),
        hop=st.sampled_from(_CHURN_HOPS),
        data=st.integers(min_value=0, max_value=3),
    )
    def subscribe(self, text, hop, data):
        self._both(SubscribeMsg(expr=x(text), subscriber_id="s%d" % data), hop)

    @rule(
        text=st.sampled_from(_CHURN_POOL),
        hop=st.sampled_from(_CHURN_HOPS),
        data=st.integers(min_value=0, max_value=3),
    )
    def unsubscribe(self, text, hop, data):
        self._both(
            UnsubscribeMsg(expr=x(text), subscriber_id="s%d" % data), hop
        )

    @rule(root=st.sampled_from(("a", "b", "c")),
          hop=st.sampled_from(_CHURN_HOPS))
    def advertise(self, root, hop):
        self._both(
            AdvertiseMsg(
                adv_id="adv-%s" % root,
                advert=Advertisement.from_tests((root,)),
                publisher_id="p",
            ),
            hop,
        )

    @precondition(lambda self: self.covering)
    @rule()
    def merge_sweep(self):
        self.shared.run_merge_sweep()
        self.auto.run_merge_sweep()

    @rule(switch=st.booleans())
    def snapshot_restore(self, switch):
        """Both brokers hold the same table, so with *switch* each is
        restored from the other's snapshot under its own engine."""
        shared, auto = (
            (self.auto, self.shared) if switch else (self.shared, self.auto)
        )
        self.shared = restore(
            snapshot(shared), universe=self.universe, matching_engine="shared"
        )
        self.auto = restore(
            snapshot(auto), universe=self.universe, matching_engine="auto"
        )

    @invariant()
    def match_sets_equal(self):
        if not hasattr(self, "shared"):
            return
        automaton, table = self.shared.automaton, self.shared.table
        assert (automaton is table) != self.covering
        assert {e: automaton.keys_of(e) for e in automaton.exprs()} == {
            e: table.keys_of(e) for e in table.exprs()
        }
        for path in CHURN_PROBES:
            self.pub_seq += 1
            publication = Publication(
                doc_id="d%d" % self.pub_seq, path_id=0, path=path
            )
            want = self.auto._route(publication)[0]
            assert self.shared._route(publication)[0] == want, path
            assert automaton.match(path) == want, path
            assert table.match(path) == want, path
        automaton._nfa.check_refcounts()


TestSharedChurnMachine = SharedChurnMachine.TestCase
TestSharedChurnMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


class TestAuditChaos:
    def _run(self, scenario):
        from repro.audit import audit_scenarios, run_audited_workload

        plan = audit_scenarios(0)[scenario]
        _, _, report = run_audited_workload(
            plan=plan,
            levels=3,
            xpes_per_leaf=8,
            documents=3,
            matching_engine="shared",
        )
        assert report.ok, "%s: %s" % (
            scenario,
            report.soundness + report.unexplained_fp,
        )

    def test_fault_free_audit_on_shared_engine(self):
        self._run("fault-free")

    def test_crash_restart_audit_on_shared_engine(self):
        self._run("crash-restart")
