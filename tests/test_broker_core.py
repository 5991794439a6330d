"""Stateful fuzzing of the runtime-agnostic broker.

Hypothesis drives an arbitrary message sequence (advertise, subscribe,
unsubscribe, publish, merge sweeps, duplicates included) into one
:class:`~repro.broker.broker.Broker` and checks the state-machine
contract every backend relies on after every step:

* frames are *deterministic and replayable*: a twin broker restored from
  the pre-step snapshot produces byte-identical canonical frames for
  the same input, and lands on the same routing fingerprint;
* frames are *well-classified*: every destination is a neighbour or an
  attached client, and every frame carries a non-empty message tuple;
* the snapshot/restore round trip preserves the fingerprint.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import obs
from repro.adverts.model import Advertisement
from repro.broker.broker import Broker, canonical_effects
from repro.broker.messages import (
    AdvertiseMsg,
    PublishMsg,
    SubscribeMsg,
    UnsubscribeMsg,
)
from repro.broker.persistence import restore, snapshot
from repro.broker.strategies import RoutingConfig
from repro.errors import RoutingError
from repro.runtime.base import routing_fingerprint
from repro.xmldoc import Publication
from repro.xpath import parse_xpath
from repro.xpath.ast import Axis, Step, XPathExpr

NEIGHBORS = ["n1", "n2", "n3"]
CLIENTS = ["c1", "c2"]
HOPS = NEIGHBORS + CLIENTS
NAMES = ["a", "b", "c", "*"]


@st.composite
def exprs(draw):
    n = draw(st.integers(1, 4))
    rooted = draw(st.booleans())
    steps = []
    for i in range(n):
        axis = (
            Axis.CHILD
            if (i == 0 and rooted)
            else draw(st.sampled_from([Axis.CHILD, Axis.DESCENDANT]))
        )
        steps.append(Step(axis, draw(st.sampled_from(NAMES))))
    return XPathExpr(steps=tuple(steps), rooted=rooted)


@st.composite
def adverts(draw):
    tests = draw(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4)
    )
    return Advertisement.from_tests(tests)


def _fresh_broker() -> Broker:
    broker = Broker(
        "bX", config=RoutingConfig.with_adv_with_cov_ipm(merge_interval=5)
    )
    for neighbor in NEIGHBORS:
        broker.connect(neighbor)
    for client in CLIENTS:
        broker.attach_client(client)
    return broker


class BrokerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.broker = _fresh_broker()
        self.adv_serial = 0

    def _step(self, message, from_hop):
        """Apply one message to the live broker AND to a twin restored
        from the pre-step snapshot; their frames and resulting
        fingerprints must agree exactly."""
        before = snapshot(self.broker)
        frames = self.broker.handle(message, from_hop)

        twin = restore(before)
        twin_frames = twin.handle(message, from_hop)
        assert canonical_effects(twin_frames) == canonical_effects(frames)
        assert routing_fingerprint(twin) == routing_fingerprint(self.broker)

        for destination, messages in frames:
            assert destination in NEIGHBORS or destination in CLIENTS, (
                destination
            )
            assert isinstance(messages, tuple) and messages
        return frames

    @rule(advert=adverts(), from_hop=st.sampled_from(HOPS))
    def advertise(self, advert, from_hop):
        self.adv_serial += 1
        self._step(
            AdvertiseMsg(
                adv_id="adv%d" % self.adv_serial,
                advert=advert,
                publisher_id="p",
            ),
            from_hop,
        )

    @rule(expr=exprs(), from_hop=st.sampled_from(HOPS))
    def subscribe(self, expr, from_hop):
        self._step(SubscribeMsg(expr=expr, subscriber_id="s"), from_hop)

    @rule(expr=exprs(), from_hop=st.sampled_from(HOPS))
    def unsubscribe(self, expr, from_hop):
        self._step(UnsubscribeMsg(expr=expr), from_hop)

    @rule(
        path=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4),
        from_hop=st.sampled_from(HOPS),
    )
    def publish(self, path, from_hop):
        self._step(
            PublishMsg(
                publication=Publication(
                    doc_id="d", path_id=0, path=tuple(path)
                ),
                publisher_id="p",
            ),
            from_hop,
        )

    @rule()
    def merge_sweep(self):
        before = snapshot(self.broker)
        frames = self.broker.run_merge_sweep()
        twin = restore(before)
        assert canonical_effects(twin.run_merge_sweep()) \
            == canonical_effects(frames)
        assert routing_fingerprint(twin) == routing_fingerprint(self.broker)

    @invariant()
    def snapshot_round_trip_preserves_fingerprint(self):
        assert routing_fingerprint(restore(snapshot(self.broker))) \
            == routing_fingerprint(self.broker)


TestBrokerCoreMachine = BrokerMachine.TestCase
TestBrokerCoreMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)


def test_effects_are_pure_data():
    """Two fresh brokers fed the same stream emit identical canonical
    frames at every step — the determinism contract backends build on."""
    stream = [
        (
            AdvertiseMsg(
                adv_id="a1",
                advert=Advertisement.from_tests(("a", "b")),
                publisher_id="p",
            ),
            "n1",
        ),
        (
            SubscribeMsg(
                expr=XPathExpr(
                    steps=(Step(Axis.CHILD, "a"),), rooted=True
                ),
                subscriber_id="s",
            ),
            "n2",
        ),
        (
            PublishMsg(
                publication=Publication(doc_id="d", path_id=0, path=("a",)),
                publisher_id="p",
            ),
            "n1",
        ),
    ]
    one, two = _fresh_broker(), _fresh_broker()
    for message, from_hop in stream:
        assert canonical_effects(one.handle(message, from_hop)) \
            == canonical_effects(two.handle(message, from_hop))
    assert routing_fingerprint(one) == routing_fingerprint(two)


def _relative(*tests):
    return XPathExpr(
        steps=tuple(Step(Axis.CHILD, test) for test in tests), rooted=False
    )


def _advertisement(*tests):
    return AdvertiseMsg(
        adv_id="a1", advert=Advertisement.from_tests(tests), publisher_id="p"
    )


def _assert_twin_agrees(broker, message, from_hop, emitted, count):
    """A twin restored from *broker*'s snapshot emits the same canonical
    frames for *message* — including *count* messages of type
    *emitted*, so there is an order to pin."""
    twin = restore(snapshot(broker))
    frames = broker.handle(message, from_hop)
    assert sum(
        isinstance(m, emitted) for _d, messages in frames for m in messages
    ) == count
    assert canonical_effects(twin.handle(message, from_hop)) \
        == canonical_effects(frames)


def test_subscription_replay_order_survives_restore():
    """An ADV replays stored subscriptions toward its last hop in
    canonical order, not tree-sibling order — which a restored twin
    rebuilds differently (found by ``--hypothesis-seed=987`` on the
    chaos profile)."""
    broker = _fresh_broker()
    for expr in (
        _relative("a", "a"),
        XPathExpr(steps=(Step(Axis.DESCENDANT, "b"),), rooted=False),
    ):
        broker.handle(SubscribeMsg(expr=expr, subscriber_id="s"), "n2")
    _assert_twin_agrees(
        broker, _advertisement("a", "a", "b"), "n1", SubscribeMsg, 2
    )


def test_covered_retraction_order_survives_restore():
    """A SUB that covers forwarded siblings retracts them in canonical
    order too (same defect, ``--hypothesis-seed=3``)."""
    broker = _fresh_broker()
    broker.handle(
        SubscribeMsg(expr=_relative("a", "*"), subscriber_id="s"), "n1"
    )
    broker.handle(_advertisement("a", "a"), "n2")
    broker.handle(
        SubscribeMsg(expr=_relative("*", "a"), subscriber_id="s"), "n1"
    )
    _assert_twin_agrees(
        broker,
        SubscribeMsg(expr=_relative("a"), subscriber_id="s"),
        "n1",
        UnsubscribeMsg,
        2,
    )


def _per_destination(frames):
    flat = {}
    for destination, message in canonical_effects(frames):
        flat.setdefault(destination, []).append(message)
    return flat


def test_a_group_routes_like_its_members_one_by_one():
    """``handle_publications`` is per-message routing regrouped: every
    destination gets one frame carrying, in arrival order, exactly the
    messages ``handle`` would have sent it one at a time."""
    broker = _fresh_broker()
    subscriptions = [
        (_relative("a"), "n2"), (_relative("a", "b"), "c1"),
        (_relative("c"), "n3"), (_relative("b"), "c2"),
    ]
    for expr, hop in subscriptions:
        broker.handle(SubscribeMsg(expr=expr, subscriber_id="s"), hop)
    twin = restore(snapshot(broker))
    group = [
        PublishMsg(
            publication=Publication(doc_id="d", path_id=i, path=path),
            publisher_id="p",
        )
        for i, path in enumerate(
            [("a", "b"), ("c",), ("a",), ("z",), ("a", "b", "c")]
        )
    ]

    grouped = broker.handle_publications(group, "n1")
    one_by_one = [
        frame for message in group for frame in twin.handle(message, "n1")
    ]
    assert _per_destination(grouped) == _per_destination(one_by_one)
    assert len(grouped) == len(_per_destination(grouped)) < len(one_by_one)
    assert broker.stats["PublishMsg"] == 5
    assert twin.stats["PublishMsg"] == 5


def _group(*paths, doc_id="d"):
    return [
        PublishMsg(
            publication=Publication(doc_id=doc_id, path_id=i, path=path),
            publisher_id="p",
        )
        for i, path in enumerate(paths)
    ]


def _subscribed_broker(subscriptions):
    broker = _fresh_broker()
    for expr, hop in subscriptions:
        broker.handle(SubscribeMsg(expr=expr, subscriber_id="s"), hop)
    return broker


def _assert_grouped_like_one_by_one(broker, twin, group, from_hop):
    """*broker* routes *group* as one frame, *twin* message by message:
    the same messages reach the same destinations, in arrival order."""
    grouped = broker.handle_publications(group, from_hop)
    one_by_one = [
        frame
        for message in group
        for frame in twin.handle(message, from_hop)
    ]
    assert _per_destination(grouped) == _per_destination(one_by_one)
    assert len(grouped) == len(_per_destination(grouped))
    return grouped


def _decisions(broker, group):
    """The memoised destination tuple of every path of *group*."""
    memo = broker.match_cache
    return [memo.get(m.publication.path)[1] for m in group]


def test_a_group_sharing_one_decision_with_its_arrival_hop():
    """Every path resolves to the one interned decision, which names the
    hop the group came from: one fan-out, the arrival hop left out."""
    broker = _subscribed_broker([
        (_relative("a"), "n1"), (_relative("a"), "n2"), (_relative("a"), "c1"),
    ])
    twin = restore(snapshot(broker))
    group = _group(("a",), ("a", "b"), ("x", "a"), ("a", "c"))
    grouped = _assert_grouped_like_one_by_one(broker, twin, group, "n1")
    decisions = _decisions(broker, group)
    assert all(hops is decisions[0] for hops in decisions)
    assert "n1" in decisions[0]
    assert {
        key: len(messages)
        for key, messages in _per_destination(grouped).items()
    } == {"c1": 4, "n2": 4}
    # one fan-out: every destination's frame carries the one tuple
    assert len({id(messages) for _d, messages in grouped}) == 1


def test_a_mixed_group_routes_like_its_members_one_by_one():
    """Paths with different decisions (and one with none) fan out per
    path and destination."""
    broker = _subscribed_broker([
        (_relative("a"), "n2"), (_relative("a", "b"), "c1"),
        (_relative("b"), "n1"),
    ])
    twin = restore(snapshot(broker))
    group = _group(("a",), ("a", "b"), ("z",), ("a",), ("b",))
    _assert_grouped_like_one_by_one(broker, twin, group, "n1")
    decisions = _decisions(broker, group)
    assert len({id(hops) for hops in decisions}) == 4


def test_a_group_with_equal_but_not_identical_decisions():
    """After the memo's intern table forgot an equal decision, two paths
    hold equal but distinct tuples; the group still routes exactly like
    its members one by one."""
    broker = _subscribed_broker([(_relative("a"), "n2"), (_relative("a"), "c1")])
    twin = restore(snapshot(broker))
    warm = _group(("a",), doc_id="warm")
    broker.handle_publications(warm, "n1")
    twin.handle_publications(warm, "n1")
    broker.match_cache._routes.clear()
    twin.match_cache._routes.clear()
    group = _group(("a",), ("b", "a"), ("a", "c"))
    _assert_grouped_like_one_by_one(broker, twin, group, "n1")
    first, second, third = _decisions(broker, group)
    assert first == second == third
    assert first is not second and second is third


@pytest.fixture
def clean_registry():
    obs.get_registry().reset().disable()
    yield obs.get_registry()
    obs.get_registry().reset().disable()


def test_match_cache_counters_are_the_memos_per_group(clean_registry):
    """With metrics on, ``broker.match_cache.hits`` / ``.misses`` are
    published once per group, by count — and total what the route memo
    itself counted, path by path."""
    broker = _subscribed_broker([
        (_relative("a"), "n2"), (_relative("a", "b"), "c1"),
        (_relative("c"), "n3"),
    ])
    memo = broker.match_cache
    before = (memo.hits, memo.misses)
    clean_registry.enable()
    for doc in range(4):
        broker.handle_publications(
            _group(("a",), ("a", "b"), ("c", str(doc)), ("z",), doc_id=str(doc)),
            "n1",
        )
    counters = clean_registry.snapshot()["counters"]
    assert counters["broker.match_cache.hits"] == memo.hits - before[0] == 9
    assert counters["broker.match_cache.misses"] == memo.misses - before[1] == 7


def test_a_warm_group_reads_the_registry_and_scope_once(monkeypatch):
    """Cost discipline: with metrics and tracing off, a warm 4-path
    group looks up the registry and the hop scope at most once each —
    not once per path."""
    import repro.broker.broker as broker_module

    broker = _subscribed_broker([(_relative("a"), "n2"), (_relative("b"), "c1")])
    group = _group(("a",), ("a", "b"), ("b",), ("z",))
    broker.handle_publications(group, "n1")  # warm the route memo
    calls = {"get_registry": 0, "current_scope": 0}

    def spy(name, real):
        def counted():
            calls[name] += 1
            return real()
        return counted

    monkeypatch.setattr(
        obs, "get_registry", spy("get_registry", obs.get_registry)
    )
    monkeypatch.setattr(
        broker_module, "current_scope",
        spy("current_scope", broker_module.current_scope),
    )
    hits = broker.match_cache.hits
    broker.handle_publications(group, "n1")
    assert broker.match_cache.hits == hits + 4
    assert calls["get_registry"] <= 1
    assert calls["current_scope"] <= 1


def test_control_frames_to_an_unknown_destination_raise():
    """An ADV from a hop the broker is not connected to draws a replay
    of the stored subscription toward that hop; the broker refuses to
    emit it instead of handing a host a misroute."""
    broker = Broker("bX", config=RoutingConfig.with_adv_with_cov())
    broker.connect("n1")
    broker.attach_client("c1")
    broker.handle(SubscribeMsg(expr=_relative("a"), subscriber_id="c1"), "c1")
    with pytest.raises(RoutingError, match="unknown destination 'ghost'"):
        broker.handle(_advertisement("a"), "ghost")


_FLOOD_SCRIPT = """
from repro.adverts.model import Advertisement
from repro.broker import AdvertiseMsg, Broker, UnadvertiseMsg
from repro.broker import canonical_effects

broker = Broker("bX")
for neighbor in ("n1", "n2", "n3", "n4"):
    broker.connect(neighbor)
advert = Advertisement.from_tests(("a",))
for message in (
    AdvertiseMsg(adv_id="a1", advert=advert, publisher_id="p"),
    UnadvertiseMsg(adv_id="a1"),
):
    print(canonical_effects(broker.handle(message, "n4")))
"""


def test_advertisement_floods_do_not_depend_on_the_hash_seed():
    """``neighbors`` is a set of strings, whose iteration order follows
    the interpreter's hash seed; the ADV and UNADV floods must come out
    in one order under every seed."""
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
    )
    outputs = set()
    for seed in range(4):
        env["PYTHONHASHSEED"] = str(seed)
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", _FLOOD_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
        )
    assert len(outputs) == 1
    flood, unflood = outputs.pop().splitlines()
    for effects in (flood, unflood):
        assert [row[0] for row in ast.literal_eval(effects)] == [
            "n1", "n2", "n3",
        ]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3(a): the subscription tree nests the mutually "
    "covering //* and /* in arrival order, so a restored twin replays "
    "the other one",
)
def test_chaos_seed_20_replay():
    """The shrunk sequence of ``--hypothesis-seed=20`` on the chaos
    profile, replayed without Hypothesis: SUB ``//*`` and SUB ``/*``
    from n1, then an ADV for ``a`` from n2.  The live broker replays
    ``//*`` toward n2; a twin restored from the pre-ADV snapshot
    replays ``/*``."""
    broker = _fresh_broker()
    for text in ("//*", "/*"):
        broker.handle(
            SubscribeMsg(expr=parse_xpath(text), subscriber_id="s"), "n1"
        )
    twin = restore(snapshot(broker))
    advert = _advertisement("a")
    assert canonical_effects(twin.handle(advert, "n2")) \
        == canonical_effects(broker.handle(advert, "n2"))
