"""The shared-automaton mass-subscription engine, unit to overlay level.

Four layers of assurance, mirroring how the engine is deployed:

* unit tests of the engine contract (duplicate keys, NFA pruning,
  lazy-DFA caching and second-sighting admission, selective
  invalidation, eviction);
* Hypothesis differentials against :class:`LinearMatcher` and the
  reference interpreter, plus two stateful machines that edit a *warm*
  DFA and audit every cached state;
* broker-level equivalence: a ``matching_engine="shared"`` broker makes
  the same routing decisions as the default one, across merge sweeps
  and snapshot/restore (a second stateful machine interleaves them);
* the audit oracle's seven invariants hold on chaos workloads (fault-free
  and crash-restart) run entirely on the shared engine.
"""

import itertools

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
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
from repro.covering.pathmatch import matches_path_reference
from repro.dtd.samples import psd_dtd
from repro.matching import LinearMatcher, SharedAutomatonMatcher
from repro.matching.shared_automaton import DEFAULT_DFA_STATE_LIMIT, _SINK
from repro.matching.yfilter import SharedPathNFA
from repro.merging.engine import PathUniverse
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


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
        m.match(("a",))
        cached = m.dfa_size()
        m.remove(x("/zzz"), "nobody")
        m.remove(x("/a"), "wrong-key")
        assert len(m) == 1
        assert m.dfa_size() == cached
        assert m.match(("a",)) == {"/a"}

    def test_keys_of_and_exprs(self):
        m = SharedAutomatonMatcher()
        m.add(x("/a"), "k1")
        m.add(x("/a"), "k2")
        m.add(x("/b"), "k3")
        assert m.keys_of(x("/a")) == {"k1", "k2"}
        assert m.keys_of(x("/zzz")) == set()
        assert {str(e) for e in m.exprs()} == {"/a", "/b"}


class TestPruningAndDFA:
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

    def test_dfa_caches_and_is_invalidated_by_structure(self):
        m = build("/a/b", "/a//c", "/q/r")
        assert m.dfa_size() == 0
        assert _warm(m, ("a", "b")) == {"/a/b"}
        assert _warm(m, ("q", "r")) == {"/q/r"}
        unrelated = _cached_walk(m, ("q", "r"))
        assert len(unrelated) == 3
        # Structural edits under /a/b: the walk of the unrelated root
        # stays cached, state for state, and nothing is flushed.
        m.add(x("/a/b/z"), "new")
        assert _cached_walk(m, ("q", "r")) == unrelated
        assert m.match(("a", "b", "z")) == {"/a/b", "new"}
        m.remove(x("/a/b/z"), "new")
        assert _cached_walk(m, ("q", "r")) == unrelated
        assert m.match(("a", "b", "z")) == {"/a/b"}
        assert m.dfa_flushes == 0
        _check_dfa(m)
        m.clear()  # the one wholesale discard left
        assert m.dfa_size() == 0 and m.dfa_flushes == 1

    def test_predicated_add_keeps_dfa(self):
        m = build("/a/b/c")
        _warm(m, ("a", "b", "c"))
        cached = m.dfa_size()
        assert cached > 0
        # A prefix of a resident XPE: the trail exists, so only the
        # accepting sets are refreshed.
        m.add(x("/a/b"), "prefix")
        assert m.dfa_size() == cached
        assert m.match(("a", "b")) == {"prefix"}
        _check_dfa(m)

    def test_dfa_eviction_at_limit_preserves_results(self):
        m = SharedAutomatonMatcher(dfa_state_limit=3)
        linear = LinearMatcher()
        for text in ("/a/b", "//b/c", "/a//d", "b"):
            m.add(x(text), text)
            linear.add(x(text), text)
        paths = [
            ("a", "b"), ("b", "c"), ("a", "q", "d"), ("b",),
            ("a", "b", "c"), ("q", "b", "c", "d"), ("a", "d"),
        ]
        for path in paths * 2:
            assert m.match(path) == linear.match(path), path
        # Overflow evicts the cold half; a wholesale flush would only
        # come from a structural change, and matching is not one.
        assert m.dfa_evictions > 0
        assert m.dfa_flushes == 0
        assert m.dfa_size() <= 3

    def test_eviction_keeps_hot_states_and_prunes_dangling_edges(self):
        m = build("/a/b/c", "/q/r/s", "/u/v/w")
        hot = ("a", "b", "c")
        m.match(hot)
        hot_states = m.dfa_size()
        m.dfa_state_limit = m.dfa_size() + 1
        # Cold traffic forces evictions; the hot walk stays resident.
        for path in (("q", "r", "s"), ("u", "v", "w"), ("q", "z"),
                     ("u", "z"), ("z", "z")):
            m.match(path)
        assert m.dfa_evictions > 0
        m.match(hot)  # re-derives evicted targets back into the cache
        assert m.match(hot) == {"/a/b/c"}
        # A survivor's edge into an evicted state is marked dead, never
        # followed: every other cached transition target is the cached
        # object for its subset key.
        _check_dfa(m)
        assert hot_states >= 1


def _warm(m, path):
    """Walk *path* until the walk stays in the DFA from end to end (a
    transition is only built at its second sighting, so that takes up
    to ``len(path) + 1`` walks); returns the match result."""
    for _ in range(len(path) + 1):
        cold = m.cold_walks
        matched = m.match(path)
        if m.cold_walks == cold:
            return matched
    raise AssertionError("%r is still cold after %d walks" % (path, len(path) + 1))


def _cached_walk(m, path):
    """The DFA states *path* walks, read off the cache alone (fails on
    a missing or dead transition — the walk would re-derive there)."""
    state = m._dfa_start
    walk = [state]
    for symbol in path:
        state = state.transitions[symbol]
        walk.append(state)
    assert not any(state.dead for state in walk), path
    return walk


def _live_nfa_states(nfa):
    seen = set()
    stack = [nfa._root]
    while stack:
        state = stack.pop()
        if state not in seen:
            seen.add(state)
            stack.extend(state.edges.values())
            if state.descendant is not None:
                stack.append(state.descendant)
    return seen


def _check_dfa(m):
    """Cache coherence: every cached DFA state is exactly what the
    subset construction over the *live* NFA would build today."""
    live = _live_nfa_states(m._nfa)
    for key, state in m._dfa_cache.items():
        assert not state.dead
        assert key == state.nfa_states
        assert key <= live, "cached subset holds a pruned NFA state"
        accepting = set()
        for nfa_state in state.nfa_states:
            accepting |= nfa_state.accepting
            gap = nfa_state.descendant
            assert gap is None or gap in key, "subset not ε-closed"
        assert state.accepting == accepting
        active = state.nfa_states
        for symbol, target in state.transitions.items():
            if target.dead:
                continue
            want = frozenset(SharedPathNFA.step_states(active, symbol))
            assert want == target.nfa_states, symbol
            assert target is (m._dfa_cache.get(want) if want else _SINK)
    start = m._dfa_start
    if start is not None and not start.dead:
        initial = frozenset(m._nfa.initial_states())
        assert m._dfa_cache.get(initial) is start


class TestSelectiveInvalidation:
    """The six repair rules (docs/matching.md, "Selective
    invalidation"), one case each: the edit lands on a warm DFA, what it
    did not touch stays cached, what it touched answers correctly."""

    def test_a_accept_only_edit_updates_in_place(self):
        m = build("/a/b/c", "/q")
        _warm(m, ("a", "b", "c"))
        _warm(m, ("q",))
        before = list(m._dfa_cache.values())
        m.add(x("/a/b"), "mid")  # the whole trail pre-exists
        assert list(m._dfa_cache.values()) == before
        assert m.match(("a", "b")) == {"mid"}
        assert m.match(("a", "b", "c")) == {"mid", "/a/b/c"}
        m.remove(x("/a/b"), "mid")  # nothing to prune
        assert list(m._dfa_cache.values()) == before
        assert m.match(("a", "b", "c")) == {"/a/b/c"}
        _check_dfa(m)

    def test_b_new_or_cut_edge_forgets_one_label(self):
        m = build("/a/b")
        _warm(m, ("a", "b"))
        assert _warm(m, ("a", "c")) == set()  # caches {A} -c-> sink
        at_a = _cached_walk(m, ("a",))[-1]
        m.add(x("/a/c"), "c")
        assert set(at_a.transitions) == {"b"} and not at_a.dead
        assert m.match(("a", "c")) == {"c"}
        m.remove(x("/a/c"), "c")
        assert set(at_a.transitions) == {"b"} and not at_a.dead
        assert m.match(("a", "c")) == set()
        _check_dfa(m)

    def test_b_wildcard_edge_forgets_every_label(self):
        m = build("/a/b")
        _warm(m, ("a", "b"))
        _warm(m, ("a", "c"))
        at_a = _cached_walk(m, ("a",))[-1]
        m.add(x("/a/*"), "any")
        assert not at_a.transitions and not at_a.dead
        assert m.match(("a", "b")) == {"/a/b", "any"}
        assert m.match(("a", "c")) == {"any"}
        m.remove(x("/a/*"), "any")
        assert m.match(("a", "b")) == {"/a/b"}
        assert m.match(("a", "c")) == set()
        _check_dfa(m)

    def test_c_new_descendant_link_drops_the_anchor_states(self):
        m = build("/a/b", "/q")
        _warm(m, ("a", "b"))
        _warm(m, ("q",))
        start, at_a = _cached_walk(m, ("a",))
        at_q = _cached_walk(m, ("q",))[-1]
        m.add(x("/a//c"), "deep")  # {A} is no longer ε-closed
        assert at_a.dead and not start.dead and not at_q.dead
        assert m.match(("a", "z", "c")) == {"deep"}
        assert m.match(("a", "b", "c")) == {"/a/b", "deep"}
        assert _cached_walk(m, ("q",))[-1] is at_q
        _check_dfa(m)

    def test_d_prune_drops_every_state_holding_a_pruned_nfa_state(self):
        m = build("/a/b/c/d", "/q")
        _warm(m, ("a", "b", "c", "d"))
        _warm(m, ("q",))
        walk = _cached_walk(m, ("a", "b", "c", "d"))
        pruned = {entry[2] for entry in m._nfa._trails[x("/a/b/c/d")]}
        m.remove(x("/a/b/c/d"), "/a/b/c/d")
        assert [state.dead for state in walk] == [False] + [True] * 4
        for key in m._dfa_cache:
            assert not key & pruned
        assert m.dfa_size() == 2  # the start state and {Q}
        assert m.match(("a", "b", "c", "d")) == set()
        _check_dfa(m)

    def test_e_survivor_pointing_at_a_dropped_state_rederives(self):
        m = build("/a", "/a//b")
        assert _warm(m, ("a", "b")) == {"/a", "/a//b"}
        start, at_a = _cached_walk(m, ("a",))
        m.remove(x("/a//b"), "/a//b")
        # The start state holds no touched NFA state and keeps its edge
        # into {A, A//}: following it would still report /a//b.
        assert start.transitions["a"] is at_a and at_a.dead
        assert m.match(("a", "b")) == {"/a"}
        assert not start.transitions["a"].dead
        _check_dfa(m)

    def test_f_dropped_start_state_is_rebuilt(self):
        m = build("/a")
        m.match(("a",))
        first = m._dfa_start
        m.add(x("b"), "rel")  # root grows a // link: the start set changes
        assert first.dead
        assert m.match(("z", "b")) == {"rel"}
        second = m._dfa_start
        assert second is not first and len(second.nfa_states) == 2
        m.remove(x("b"), "rel")
        assert second.dead
        assert m.match(("a",)) == {"/a"} and m.match(("z", "b")) == set()
        assert m.dfa_flushes == 0
        _check_dfa(m)


class TestAdmission:
    """A transition is built at its second sighting (docs/matching.md,
    "Admission"): a path that never recurs allocates nothing, a
    recurring one is cached level by level."""

    TEXTS = ("/a/b/c", "/a//c", "b/c", "/a/*/d", "//b")

    def _pair(self):
        linear = LinearMatcher()
        for text in self.TEXTS:
            linear.add(x(text), text)
        return build(*self.TEXTS), linear

    def test_never_seen_path_allocates_nothing(self):
        m, linear = self._pair()
        m.match(())  # the start state, which every walk needs
        assert m.dfa_size() == 1
        fresh = [("a", "b", "c"), ("b", "c"), ("q", "b", "c", "d"), ("z",)]
        for path in fresh:  # no two share their first step
            assert m.match(path) == linear.match(path), path
            assert m.dfa_size() == 1
        assert m.cold_walks == len(fresh)
        assert m.stats()["cold_walks"] == len(fresh)

    def test_trail_is_fully_materialised_after_depth_plus_one_walks(self):
        m, linear = self._pair()
        path = ("a", "b", "c", "d")  # b/c keeps the root's // state live
        for walk in range(len(path)):
            assert m.cold_walks == walk  # one more level each time
            assert m.match(path) == linear.match(path)
            assert m.dfa_size() == walk + 1
        assert m.match(path) == linear.match(path)
        assert m.cold_walks == len(path)  # walk d + 1 never left the DFA
        # ... and from here on it is the eager construction's walk.
        cached = _cached_walk(m, path)
        active = m._nfa.initial_states()
        matched = set()
        for symbol, state in zip(path, cached[1:]):
            active = SharedPathNFA.step_states(active, symbol)
            assert frozenset(active) == state.nfa_states
            matched |= state.accepting
        assert {str(expr) for expr in matched} == linear.match(path)
        _check_dfa(m)

    def test_dead_target_rederives_in_one_walk(self):
        m = build("/a/b")
        _warm(m, ("a", "b"))
        start, at_a, _ = _cached_walk(m, ("a", "b"))
        m.add(x("/a//c"), "deep")  # rule c: at_a is dropped
        assert start.transitions["a"] is at_a and at_a.dead
        cold = m.cold_walks
        assert m.match(("a",)) == set()
        # The transition was admitted once already: rebuilt at the
        # first walk that needs it, not sighted a second time.
        assert m.cold_walks == cold
        rebuilt = start.transitions["a"]
        assert rebuilt is not at_a and not rebuilt.dead
        assert len(rebuilt.nfa_states) == 2
        _check_dfa(m)


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


# -- edits on a warm DFA -----------------------------------------------------
#
# The differentials above apply every edit cold and probe once at the
# end; this machine interleaves add / remove / match so edits land on a
# DFA that earlier probes built, and audits the whole cache after every
# step.  Small alphabet, short expressions: trails collide constantly.

_node_tests = st.sampled_from(("a", "b", "c", "*"))


@st.composite
def structural_texts(draw):
    parts = [draw(st.sampled_from(("/", "//", ""))) + draw(_node_tests)]
    for _ in range(draw(st.integers(0, 2))):
        parts.append(draw(st.sampled_from(("/", "//"))) + draw(_node_tests))
    return "".join(parts)


_walks = st.lists(st.sampled_from(("a", "b", "c", "d")), max_size=5).map(tuple)

#: Every path of up to three elements: swept once when an example ends,
#: so a stale state no drawn probe happened to walk still surfaces.
_ALL_SHORT_WALKS = [
    walk
    for length in range(4)
    for walk in itertools.product("abcd", repeat=length)
]


class WarmDFAEditMachine(RuleBasedStateMachine):
    live = Bundle("live")

    @initialize(limit=st.sampled_from((4, 16, DEFAULT_DFA_STATE_LIMIT)))
    def setup(self, limit):
        self.shared = SharedAutomatonMatcher(dfa_state_limit=limit)
        self.linear = LinearMatcher()

    @rule(target=live, text=structural_texts(),
          key=st.sampled_from(("k1", "k2")))
    def add(self, text, key):
        self.shared.add(x(text), key)
        self.linear.add(x(text), key)
        return text, key

    @rule(pair=live)
    def remove(self, pair):
        text, key = pair  # possibly gone already: a no-op on both
        self.shared.remove(x(text), key)
        self.linear.remove(x(text), key)

    @rule(path=_walks)
    def match(self, path):
        assert self.shared.match(path) == self.linear.match(path), path

    @invariant()
    def cache_is_coherent(self):
        _check_dfa(self.shared)
        assert self.shared.dfa_size() <= self.shared.dfa_state_limit
        assert self.shared.dfa_flushes == 0
        self.shared._nfa.check_refcounts()

    def teardown(self):
        for path in _ALL_SHORT_WALKS:
            self.match(path)
        # The sweep walks every first step many times over: whatever
        # the example did, second sightings happened and the invariants
        # above audited materialised states, not only the start state.
        if len(self.shared):
            assert self.shared.dfa_size() > 1


TestWarmDFAEditMachine = WarmDFAEditMachine.TestCase
TestWarmDFAEditMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)


# -- twins on one trail -------------------------------------------------------
#
# An XPE and its prefixes, and one XPE under two keys, share a trail
# and accepting states.  This machine edits such twins on a warm DFA
# from a fixed pool (WarmDFAEditMachine draws arbitrary short XPEs):
# each XPE's keys must stay its own, and the cache coherent.

SKELETON_TEXTS = ("/a/b", "/a/b/c", "//b", "/a/*", "//b/c", "/a")

_SKELETON_PROBES = [("a", "b"), ("a", "b", "c"), ("c", "b"), ("a",)]


class SharedSkeletonMachine(RuleBasedStateMachine):
    @initialize(limit=st.sampled_from((4, DEFAULT_DFA_STATE_LIMIT)))
    def setup(self, limit):
        self.shared = SharedAutomatonMatcher(dfa_state_limit=limit)
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
        # Walk twice: the second walk builds the DFA transitions the
        # first one sighted, so both the cold and the warm walk answer.
        for _ in range(2):
            assert self.shared.match(path) == self.linear.match(path), path

    @invariant()
    def cache_is_coherent(self):
        _check_dfa(self.shared)
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
            # rewrites it to the perfect merger /r/a/*, marking the
            # shared mirror dirty; the next publication must rebuild
            # the automaton from the rewritten table and still agree.
            for text in ("/r/a/c", "/r/a/d", "/r/a/e"):
                broker.handle(
                    SubscribeMsg(expr=x(text), subscriber_id="c1"), "c1"
                )
        assert shared.merge_log, "sweep never ran — interval misconfigured"
        assert shared._shared_dirty
        for index, path in enumerate(
            (("r", "a", "c"), ("r", "a", "d"), ("r", "b", "c"), ("r", "a"))
        ):
            doc_id = "m%d" % index
            assert _decisions(auto, path, doc_id) == _decisions(
                shared, path, doc_id
            ), path
        assert not shared._shared_dirty  # the publishes above resynced it

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
        assert restored.shared is not None
        assert restored._shared_dirty  # rebuilt lazily on first publish
        _assert_same_decisions(shared, restored, "r")
        assert not restored._shared_dirty
        assert restored.describe()["shared_automaton"]["exprs"] == len(
            shared.shared.exprs()
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
    broker and an ``auto`` broker fed the identical message stream:
    after every step both resolve every probe publication to the same
    keys — through the route memo, and asking the mirror directly (a
    memo hit never reaches it) — and the mirror's DFA is coherent."""

    @initialize()
    def setup(self):
        self.universe = PathUniverse.from_dtd(psd_dtd(), max_depth=6)
        self.shared, self.auto = (
            self._broker(engine) for engine in ("shared", "auto")
        )
        self.pub_seq = 0

    def _broker(self, engine):
        config = RoutingConfig(
            advertisements=False,
            covering=True,
            merging=MergingMode.IMPERFECT,
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

    @rule()
    def merge_sweep(self):
        self.shared.run_merge_sweep()
        self.auto.run_merge_sweep()

    @rule()
    def snapshot_restore(self):
        self.shared = restore(snapshot(self.shared), universe=self.universe)
        self.auto = restore(snapshot(self.auto), universe=self.universe)

    @invariant()
    def match_sets_equal(self):
        if not hasattr(self, "shared"):
            return
        mirror = self.shared._shared_engine()
        for path in CHURN_PROBES:
            self.pub_seq += 1
            publication = Publication(
                doc_id="d%d" % self.pub_seq, path_id=0, path=path
            )
            want = self.auto._route(publication)[0]
            assert self.shared._route(publication)[0] == want, path
            assert mirror.match(path) == want, path
        _check_dfa(mirror)


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
