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
        for dest, msg in out
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


class TestEngineSwitch:
    """Restoring a snapshot under a different matching engine must
    rebuild the mirror for the new engine and invalidate every match
    cache — the regression was a restored broker matching through a
    mirror (and cache generation) built for the old engine."""

    PROBES = (("x", "y"), ("x",), ("x", "w", "q"), ("q",), ("z", "w"))

    def _delivered(self, broker):
        return [publish(broker, path, doc_id="d%d" % i)
                for i, path in enumerate(self.PROBES)]

    def test_sharded_snapshot_restored_as_shared(self):
        """Old snapshots still load: the partitioned mirror they name
        was folded into the shared engine, and whatever ``shard_count``
        they carry is ignored rather than validated."""
        import dataclasses

        original = populated_broker(
            dataclasses.replace(
                RoutingConfig.with_adv_with_cov(), matching_engine="shared"
            )
        )
        baseline = self._delivered(original)
        state = snapshot(original)
        assert "shard_count" not in state["config"]
        state["config"]["matching_engine"] = "sharded"
        state["config"]["shard_count"] = "seven"
        rebuilt = restore(state)
        assert rebuilt.config.matching_engine == "shared"
        assert rebuilt.shared is not None
        assert self._delivered(rebuilt) == baseline

    def test_engine_switch_bumps_match_generation(self):
        original = populated_broker(RoutingConfig.with_adv_with_cov())
        publish(original, ("x", "y"))
        state = snapshot(original)
        rebuilt = restore(state, matching_engine="shared")
        # The mirror rebuild is pending (dirty) and the cache generation
        # moved past anything a warmed snapshot could have carried.
        assert rebuilt._shared_dirty
        assert rebuilt._match_generation > 0
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
        """Only a *stored* ``sharded`` is mapped (old snapshots); asking
        for it at restore time is an unknown engine like any other."""
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
