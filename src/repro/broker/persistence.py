"""Broker state snapshots.

A broker restarting in a real deployment must rebuild its routing state
(SRT, PRT, forwarding records, client subscriptions) or the overlay
silently loses deliveries.  :func:`snapshot` captures a broker's full
routing state as a JSON-serialisable dict; :func:`restore` rebuilds an
equivalent broker.  Round-tripping preserves routing behaviour exactly
(asserted by tests/test_persistence.py, which compares the restored
broker's decisions message-for-message).

Keys (last hops and client ids) must be strings — which they are
everywhere in the overlay and the TCP deployment.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.broker.broker import Broker
from repro.broker.strategies import MATCHING_ENGINES, MergingMode, RoutingConfig
from repro.errors import ConfigError, ReproError
from repro.merging.engine import MergeEvent
from repro.network.wire import advert_from_obj, advert_to_obj
from repro.xpath.parser import parse_xpath


class PersistenceError(ReproError):
    """Raised for malformed snapshots."""


def snapshot(broker: Broker) -> Dict:
    """Capture *broker*'s routing state as plain data."""
    config = broker.config
    state = {
        "broker_id": broker.broker_id,
        "config": {
            "advertisements": config.advertisements,
            "covering": config.covering,
            "merging": config.merging.value,
            "max_imperfect_degree": config.max_imperfect_degree,
            "merge_interval": config.merge_interval,
            "advert_covering": config.advert_covering,
            "matching_engine": config.matching_engine,
        },
        "neighbors": sorted(map(str, broker.neighbors)),
        "local_clients": sorted(map(str, broker.local_clients)),
        "srt": [
            {
                "adv_id": entry.adv_id,
                "advert": advert_to_obj(entry.advert),
                "last_hop": str(entry.last_hop),
                "publisher_id": entry.publisher_id,
            }
            for entry in broker.srt.entries()
        ],
        "subscriptions": [
            {"expr": str(expr), "keys": sorted(map(str, keys))}
            for expr, keys in _subscription_items(broker)
        ],
        "forwarded": [
            {
                "expr": str(expr),
                "neighbors": sorted(
                    map(str, broker.forwarded.neighbors_for(expr))
                ),
            }
            for expr in sorted(broker.forwarded.exprs(), key=str)
        ],
        "client_subs": {
            str(client): sorted(str(expr) for expr in exprs)
            for client, exprs in broker.client_subs.items()
            if exprs
        },
    }
    if broker._merge_registry is not None:
        registry = broker._merge_registry
        state["mergers"] = [
            {
                "expr": str(merger),
                "direct": sorted(map(str, registry.direct.get(merger, ()))),
                "constituents": [
                    {"expr": str(expr), "hops": sorted(map(str, hops))}
                    for expr, hops in sorted(
                        registry.constituents[merger].items(),
                        key=lambda item: str(item[0]),
                    )
                ],
            }
            for merger in sorted(registry.mergers(), key=str)
        ]
        state["merge_log"] = [
            {
                "merger": str(event.merger),
                "replaced": [str(expr) for expr in event.replaced],
                "degree": event.degree,
            }
            for event in broker.merge_log
        ]
    return state


def _subscription_items(broker: Broker):
    if broker.config.covering:
        for node in sorted(broker.tree.iter_nodes(), key=lambda n: str(n.expr)):
            yield node.expr, node.keys
    else:
        for expr in sorted(broker.flat.exprs(), key=str):
            yield expr, broker.flat.keys_of(expr)


def snapshot_json(broker: Broker) -> str:
    """JSON text form of :func:`snapshot`."""
    return json.dumps(snapshot(broker), indent=2, sort_keys=True)


def _validated_engine(config_state: Dict, matching_engine: "str | None"):
    """Resolve and validate the matching engine of a snapshot (with the
    optional restore-time override).  A snapshot written by a future
    version — an engine name this build does not understand — must
    fail with a :class:`~repro.errors.ConfigError` naming the field,
    not a bare ``KeyError``/``ValueError`` from deep inside matcher
    construction."""
    engine = matching_engine
    if engine is None:
        engine = config_state.get("matching_engine", "auto")
        if engine == "sharded":  # old snapshots: that mirror is "shared" now
            engine = "shared"
    if engine not in MATCHING_ENGINES:
        raise ConfigError(
            "snapshot field 'matching_engine': unknown engine %r "
            "(this build supports %s)" % (engine, ", ".join(MATCHING_ENGINES))
        )
    return engine


def restore(
    state: Dict,
    universe=None,
    matching_engine: "str | None" = None,
) -> Broker:
    """Rebuild a broker from a :func:`snapshot` dict.

    ``matching_engine`` overrides the snapshot's value, so a snapshot
    taken under one engine can be restored under another (an operator
    migration path).  The restored broker's shared-automaton mirror is
    rebuilt lazily from the restored table, and its route memo starts
    empty, so nothing decided under the old engine survives a switch.

    Older snapshots carry a retired ``views`` flag and three retired
    per-view config keys (window size, hot threshold, view bound);
    restore ignores them."""
    if not isinstance(state, dict) or "config" not in state:
        raise PersistenceError(
            "malformed broker snapshot: missing 'config'"
        )
    engine = _validated_engine(state["config"], matching_engine)
    try:
        config_state = state["config"]
        config = RoutingConfig(
            advertisements=config_state["advertisements"],
            covering=config_state["covering"],
            merging=MergingMode(config_state["merging"]),
            max_imperfect_degree=config_state["max_imperfect_degree"],
            merge_interval=config_state["merge_interval"],
            advert_covering=config_state.get("advert_covering", False),
            matching_engine=engine,
        )
        broker = Broker(state["broker_id"], config=config, universe=universe)
        for neighbor in state["neighbors"]:
            broker.connect(neighbor)
        for client in state["local_clients"]:
            broker.attach_client(client)
        for entry in state["srt"]:
            advert = advert_from_obj(entry["advert"])
            broker.srt.add(
                entry["adv_id"],
                advert,
                entry["last_hop"],
                entry.get("publisher_id", ""),
            )
            if broker.advert_covers is not None:
                broker.advert_covers.add(
                    entry["adv_id"], advert, entry["last_hop"]
                )
        for item in state["subscriptions"]:
            expr = parse_xpath(item["expr"])
            for key in item["keys"]:
                if broker.config.covering:
                    broker.tree.insert(expr, key)
                else:
                    broker.flat.add(expr, key)
        # Subscriptions above went straight into the table, behind the
        # shared-automaton mirror's back: rebuild it lazily on the
        # first publication the restored broker matches.  (Automaton
        # state is derived, so snapshots never carry it — a restored
        # broker re-derives it from the restored table, same as the
        # route memo starting empty, whichever engine filled it before.)
        broker._mark_shared_dirty()
        for item in state["forwarded"]:
            expr = parse_xpath(item["expr"])
            for neighbor in item["neighbors"]:
                broker.forwarded.mark(expr, neighbor)
        for client, exprs in state.get("client_subs", {}).items():
            for text in exprs:
                broker.client_subs[client].add(parse_xpath(text))
        if broker._merge_registry is not None:
            registry = broker._merge_registry
            for item in state.get("mergers", ()):
                registry.install(
                    parse_xpath(item["expr"]),
                    item.get("direct", ()),
                    [
                        (parse_xpath(entry["expr"]), entry["hops"])
                        for entry in item.get("constituents", ())
                    ],
                )
            for item in state.get("merge_log", ()):
                broker.merge_log.append(
                    MergeEvent(
                        merger=parse_xpath(item["merger"]),
                        replaced=tuple(
                            parse_xpath(text) for text in item["replaced"]
                        ),
                        degree=item["degree"],
                    )
                )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError("malformed broker snapshot: %s" % exc)
    inexact = min(broker.inexact_client_entries(), key=str, default=None)
    if inexact is not None:
        # The restored broker would deliver on this entry unchecked.
        client, expr = inexact
        raise ConfigError(
            "snapshot of broker %r: table entry (%s, %s) is neither an "
            "exact subscription of client %r ('client_subs') nor a "
            "merger absorbing one ('mergers')"
            % (broker.broker_id, expr, client, client)
        )
    return broker


def restore_json(
    text: str,
    universe=None,
    matching_engine: "str | None" = None,
) -> Broker:
    """Rebuild a broker from :func:`snapshot_json` output."""
    try:
        state = json.loads(text)
    except ValueError as exc:
        raise PersistenceError("invalid snapshot JSON: %s" % exc)
    return restore(state, universe=universe, matching_engine=matching_engine)
