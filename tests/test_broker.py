"""Unit tests for the broker (message handling, tables, strategies)."""

import pytest

from repro import obs
from repro.adverts import Advertisement
from repro.broker import (
    AdvertiseMsg,
    Broker,
    PublishMsg,
    RoutingConfig,
    SubscribeMsg,
    SubscriptionRoutingTable,
    UnadvertiseMsg,
    UnsubscribeMsg,
)
from repro.broker.strategies import MergingMode
from repro.dtd import parse_dtd
from repro.errors import RoutingError
from repro.merging.engine import PathUniverse
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


def x(text):
    return parse_xpath(text)


def adv(*tests, adv_id="adv1", publisher="pub"):
    return AdvertiseMsg(
        adv_id=adv_id,
        advert=Advertisement.from_tests(tests),
        publisher_id=publisher,
    )


def sub(text, subscriber="s"):
    return SubscribeMsg(expr=x(text), subscriber_id=subscriber)


def pub(path, doc_id="d1", path_id=0):
    return PublishMsg(
        publication=Publication(doc_id=doc_id, path_id=path_id, path=path),
        publisher_id="pub",
    )


def make_broker(config=None, neighbors=(), clients=()):
    broker = Broker("b1", config=config or RoutingConfig.with_adv_with_cov())
    for n in neighbors:
        broker.connect(n)
    for c in clients:
        broker.attach_client(c)
    return broker


class TestWiring:
    def test_cannot_neighbor_self(self):
        broker = Broker("b1")
        with pytest.raises(RoutingError):
            broker.connect("b1")

    def test_client_cannot_shadow_neighbor(self):
        broker = make_broker(neighbors=["n1"])
        with pytest.raises(RoutingError):
            broker.attach_client("n1")


class TestAdvertisements:
    def test_advert_floods_to_other_neighbors(self):
        broker = make_broker(neighbors=["n1", "n2", "n3"])
        out = broker.handle(adv("a", "b"), "n1")
        destinations = {d for d, _ in out}
        assert destinations == {"n2", "n3"}

    def test_duplicate_advert_stops_flooding(self):
        broker = make_broker(neighbors=["n1", "n2"])
        broker.handle(adv("a", "b"), "n1")
        assert broker.handle(adv("a", "b"), "n2") == []

    def test_unadvertise_removes_and_floods(self):
        broker = make_broker(neighbors=["n1", "n2"])
        broker.handle(adv("a", "b"), "n1")
        out = broker.handle(UnadvertiseMsg(adv_id="adv1"), "n1")
        assert {d for d, _ in out} == {"n2"}
        assert "adv1" not in broker.srt

    def test_subscription_replay_toward_new_advert(self):
        broker = make_broker(neighbors=["n1", "n2"], clients=["c1"])
        broker.handle(sub("/a/b"), "c1")  # no adverts yet: goes nowhere
        out = broker.handle(adv("a", "b", "c"), "n2")
        subs_out = [(d, m) for d, m in out if isinstance(m, SubscribeMsg)]
        assert ("n2", subs_out[0][1])[0] == "n2"
        assert subs_out[0][1].expr == x("/a/b")

    def test_no_replay_when_advert_does_not_intersect(self):
        broker = make_broker(neighbors=["n1", "n2"], clients=["c1"])
        broker.handle(sub("/z/z"), "c1")
        out = broker.handle(adv("a", "b"), "n2")
        assert not any(isinstance(m, SubscribeMsg) for _, m in out)


class TestSubscriptionForwarding:
    def test_advertisement_based_targets(self):
        broker = make_broker(neighbors=["n1", "n2"], clients=["c1"])
        broker.handle(adv("a", "b"), "n1")
        out = broker.handle(sub("/a"), "c1")
        assert [(d, m.expr) for d, m in out] == [("n1", x("/a"))]

    def test_flooding_without_advertisements(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_no_cov(),
            neighbors=["n1", "n2", "n3"],
            clients=["c1"],
        )
        out = broker.handle(sub("/a"), "c1")
        assert {d for d, _ in out} == {"n1", "n2", "n3"}

    def test_subscription_not_sent_back_to_source(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_no_cov(), neighbors=["n1", "n2"]
        )
        out = broker.handle(sub("/a"), "n1")
        assert {d for d, _ in out} == {"n2"}

    def test_covered_subscription_suppressed_same_hop(self):
        broker = make_broker(neighbors=["n1", "n2"], clients=["c1", "c2"])
        broker.handle(adv("a", "b"), "n1")
        broker.handle(sub("/a", subscriber="c1"), "c1")
        out = broker.handle(sub("/a/b", subscriber="c2"), "c2")
        assert out == []  # /a already went to n1

    def test_covering_suppression_is_per_neighbor(self):
        """The correctness corner from the broker docstring: s1 from X
        must not suppress s2's forwarding toward X."""
        broker = make_broker(
            config=RoutingConfig.no_adv_with_cov(),
            neighbors=["X", "Y", "Z"],
        )
        broker.handle(sub("/a"), "X")  # forwarded to Y and Z only
        out = broker.handle(sub("/a/b"), "Y")
        # /a/b is covered at Z (which got /a) but X never saw /a.
        assert {d for d, _ in out} == {"X"}

    def test_displaced_subscriptions_unsubscribed(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_with_cov(),
            neighbors=["n1"],
            clients=["c1", "c2"],
        )
        broker.handle(sub("/a/b", subscriber="c1"), "c1")
        out = broker.handle(sub("/a", subscriber="c2"), "c2")
        kinds = [(d, type(m).__name__, getattr(m, "expr", None)) for d, m in out]
        assert ("n1", "SubscribeMsg", x("/a")) in kinds
        assert ("n1", "UnsubscribeMsg", x("/a/b")) in kinds


class TestUnsubscribe:
    def test_unsubscribe_propagates(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_no_cov(),
            neighbors=["n1"],
            clients=["c1"],
        )
        broker.handle(sub("/a"), "c1")
        out = broker.handle(UnsubscribeMsg(expr=x("/a")), "c1")
        assert [(d, type(m).__name__) for d, m in out] == [
            ("n1", "UnsubscribeMsg")
        ]

    def test_unsubscribe_promotes_covered_children(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_with_cov(),
            neighbors=["n1"],
            clients=["c1", "c2"],
        )
        broker.handle(sub("/a", subscriber="c1"), "c1")
        broker.handle(sub("/a/b", subscriber="c2"), "c2")  # covered
        out = broker.handle(UnsubscribeMsg(expr=x("/a")), "c1")
        kinds = {(d, type(m).__name__, getattr(m, "expr", None)) for d, m in out}
        assert ("n1", "UnsubscribeMsg", x("/a")) in kinds
        assert ("n1", "SubscribeMsg", x("/a/b")) in kinds

    def test_unsubscribe_keeps_shared_expr(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_no_cov(),
            neighbors=["n1"],
            clients=["c1", "c2"],
        )
        broker.handle(sub("/a", subscriber="c1"), "c1")
        broker.handle(sub("/a", subscriber="c2"), "c2")
        out = broker.handle(UnsubscribeMsg(expr=x("/a")), "c1")
        assert out == []  # c2 still needs it


class TestPublishing:
    def test_delivery_to_matching_client(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_no_cov(), clients=["c1", "c2"]
        )
        broker.handle(sub("/a/b", subscriber="c1"), "c1")
        broker.handle(sub("/z", subscriber="c2"), "c2")
        out = broker.handle(pub(("a", "b", "c")), "n-upstream")
        assert [(d, m.publication.doc_id) for d, m in out] == [("c1", "d1")]

    def test_forward_to_subscribed_neighbor(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_no_cov(), neighbors=["n1", "n2"]
        )
        broker.handle(sub("/a"), "n1")
        out = broker.handle(pub(("a", "b")), "n2")
        assert [(d, type(m).__name__) for d, m in out] == [
            ("n1", "PublishMsg")
        ]

    def test_never_sent_back_to_source_hop(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_no_cov(), neighbors=["n1"]
        )
        broker.handle(sub("/a"), "n1")
        assert broker.handle(pub(("a",)), "n1") == []

    def test_edge_recheck_blocks_false_positives(self):
        """A client key reached via a merged/covering node must still
        pass the client's exact subscriptions."""
        broker = _imperfectly_merged_broker()
        assert broker._keys_of(x("/r/a/*")) == {"c1", "c2"}
        out = broker.handle(pub(("r", "a", "e")), "upstream")
        assert out == []  # matched the merger but not c1's real sub

    def test_only_an_absorbed_client_is_rechecked(self, recheck_counter):
        """The recheck is paid where a merger stands in for a client's
        subscriptions, and nowhere else: a matched key of any other
        client already is an exact match."""
        plain = make_broker(
            config=RoutingConfig.no_adv_with_cov(), clients=["c1"]
        )
        plain.handle(sub("/a/b", subscriber="c1"), "c1")
        out = plain.handle(pub(("a", "b")), "upstream")
        assert [d for d, _ in out] == ["c1"]
        assert recheck_counter() == 0  # no registry, nothing to recheck

        merged = _imperfectly_merged_broker()
        merged.handle(sub("/r/b", subscriber="c3"), "c3")  # not merged
        assert recheck_counter() == 0
        out = merged.handle(pub(("r", "b", "c")), "upstream")
        assert [d for d, _ in out] == ["c3"]
        assert recheck_counter() == 0  # c3's neighbours are absorbed, not c3
        out = merged.handle(pub(("r", "a", "c")), "upstream")
        assert [d for d, _ in out] == ["c1"]
        assert recheck_counter() == 2  # c1 passed, c2 was the false positive


UNIVERSE_DTD = """
<!ELEMENT r (a, b?)>
<!ELEMENT a (c?, d?, e?)>
<!ELEMENT b (c?)>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (#PCDATA)>
<!ELEMENT e (#PCDATA)>
"""


def _imperfectly_merged_broker():
    """c1 holds /r/a/c, c2 holds /r/a/d; one sweep replaced both with
    the imperfect merger /r/a/* (it also admits /r/a/e)."""
    broker = Broker(
        "b1",
        config=RoutingConfig(
            advertisements=False,
            covering=True,
            merging=MergingMode.IMPERFECT,
            max_imperfect_degree=0.5,
            merge_interval=1000,
        ),
        universe=PathUniverse.from_dtd(parse_dtd(UNIVERSE_DTD)),
    )
    for client in ("c1", "c2", "c3"):
        broker.attach_client(client)
    broker.handle(sub("/r/a/c", subscriber="c1"), "c1")
    broker.handle(sub("/r/a/d", subscriber="c2"), "c2")
    broker.run_merge_sweep()
    return broker


@pytest.fixture
def recheck_counter():
    """Reads ``broker.edge.recheck`` (metrics on for the test only)."""
    registry = obs.enable_metrics(reset=True)
    yield lambda: registry.counter_values().get("broker.edge.recheck", 0)
    registry.reset().disable()


class TestSRT:
    def test_matching_last_hops(self):
        srt = SubscriptionRoutingTable()
        srt.add("a1", Advertisement.from_tests(("a", "b")), "n1")
        srt.add("a2", Advertisement.from_tests(("z",)), "n2")
        assert srt.matching_last_hops(x("/a")) == {"n1"}
        assert srt.matching_last_hops(x("/a/b")) == {"n1"}
        assert srt.matching_last_hops(x("/q")) == set()

    def test_duplicate_add_rejected(self):
        srt = SubscriptionRoutingTable()
        assert srt.add("a1", Advertisement.from_tests(("a",)), "n1")
        assert not srt.add("a1", Advertisement.from_tests(("a",)), "n2")
        assert len(srt) == 1

    def test_remove(self):
        srt = SubscriptionRoutingTable()
        srt.add("a1", Advertisement.from_tests(("a",)), "n1")
        assert srt.remove("a1")
        assert not srt.remove("a1")


class TestStats:
    def test_message_counters(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_no_cov(), clients=["c1"]
        )
        broker.handle(sub("/a"), "c1")
        broker.handle(pub(("a",)), "c1")
        assert broker.stats["SubscribeMsg"] == 1
        assert broker.stats["PublishMsg"] == 1

    def test_routing_table_size(self):
        broker = make_broker(
            config=RoutingConfig.no_adv_with_cov(), clients=["c1"]
        )
        broker.handle(sub("/a", subscriber="c1"), "c1")
        broker.handle(sub("/a/b", subscriber="c1"), "c1")
        assert broker.routing_table_size() == 2
