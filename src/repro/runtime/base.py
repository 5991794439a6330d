"""Shared plumbing for the runtime backends.

Three things live here because every backend (and the test battery)
needs them:

* :func:`routing_fingerprint` — a stable digest of one broker's routing
  tables, independent of message arrival order, used to compare the
  same overlay across the simulator, asyncio and multiprocess backends;
* :func:`timeout_scale` / :func:`scaled` — the single
  ``REPRO_TEST_TIMEOUT_SCALE`` knob every wall-clock deadline in the
  socket/runtime tests derives from (loaded CI runners export e.g.
  ``REPRO_TEST_TIMEOUT_SCALE=3``);
* :func:`binary_tree_topology` — the paper's ``b1..bN`` complete binary
  tree as plain data, so non-simulator backends build the exact
  topology :meth:`repro.network.overlay.Overlay.binary_tree` builds.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import List, Tuple

from repro.errors import TopologyError

#: Environment knob scaling every runtime/socket test deadline.
TIMEOUT_SCALE_ENV = "REPRO_TEST_TIMEOUT_SCALE"


def timeout_scale() -> float:
    """The multiplier from ``REPRO_TEST_TIMEOUT_SCALE`` (default 1.0).

    Unparseable or non-positive values fall back to 1.0 rather than
    erroring — a broken env var should never turn into a zero timeout.
    """
    raw = os.environ.get(TIMEOUT_SCALE_ENV, "")
    try:
        value = float(raw)
    except ValueError:
        return 1.0
    return value if value > 0.0 else 1.0


def scaled(seconds: float) -> float:
    """*seconds* scaled by :func:`timeout_scale`."""
    return seconds * timeout_scale()


def routing_fingerprint(broker) -> str:
    """Stable digest of *broker*'s routing tables.

    Two brokers that routed the same workload — no matter in which
    arrival order, on which backend — fingerprint identically: the
    digest covers the SRT, the PRT (expression → sorted last-hop keys),
    the per-neighbour forwarded marks and the local client registry,
    each canonically sorted.  Volatile state (stats counters, match
    caches, the merge log) is deliberately excluded.

    Note: imperfect merging is arrival-order-dependent by design (the
    merger greedily groups whatever it has seen when the sweep fires),
    so cross-backend fingerprint comparisons are only meaningful for
    non-merging configurations — which is what the equivalence battery
    runs.
    """
    # imported here: persistence pulls in ``repro.network`` (the wire
    # codec), whose Overlay needs this package — see ``__init__``.
    from repro.broker.persistence import snapshot

    state = snapshot(broker)
    canonical = {
        "broker_id": state["broker_id"],
        "config": state["config"],
        "neighbors": state["neighbors"],
        "local_clients": state["local_clients"],
        "srt": sorted(
            state["srt"], key=lambda entry: (entry["adv_id"], entry["last_hop"])
        ),
        "subscriptions": sorted(
            state["subscriptions"], key=lambda entry: entry["expr"]
        ),
        "forwarded": sorted(
            state["forwarded"], key=lambda entry: entry["expr"]
        ),
        "client_subs": state["client_subs"],
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def binary_tree_topology(levels: int) -> Tuple[List[str], List[Tuple[str, str]]]:
    """The paper's complete binary tree as ``(broker_ids, links)``.

    Naming matches :meth:`Overlay.binary_tree`: brokers ``b1 .. bN``
    with ``bi`` linked to ``b(2i)`` and ``b(2i+1)``; ``levels=3`` is
    the 7-broker overlay, ``levels=7`` the 127-broker Table 3 one.
    """
    if levels < 1:
        raise TopologyError("a tree needs at least one level")
    count = 2 ** levels - 1
    broker_ids = ["b%d" % i for i in range(1, count + 1)]
    links = []
    for i in range(1, count + 1):
        for child in (2 * i, 2 * i + 1):
            if child <= count:
                links.append(("b%d" % i, "b%d" % child))
    return broker_ids, links


def tree_leaves(levels: int) -> List[str]:
    """Leaf broker ids of :func:`binary_tree_topology`."""
    count = 2 ** levels - 1
    first_leaf = 2 ** (levels - 1)
    return ["b%d" % i for i in range(first_leaf, count + 1)]
