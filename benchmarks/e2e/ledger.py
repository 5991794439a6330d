"""The per-layer ledger: where a document's time goes, package by package.

Layers are this repo's packages.  A ``cProfile`` run of the timed loop is
mapped function by function to its layer by file path; C and stdlib
functions (which have no layer of their own) are folded into the repo
function that called them along the profile's caller edges, so e.g. the
``ElementTree`` parser lands in ``xmldoc`` and ``heapq`` in
``network.overlay``.  Whatever cannot be traced back to a layer is kept
as an explicit ``unattributed`` row: the parts always sum to the profiled
total, and that total is compared with the wall time the harness
measured around the same loop.

cProfile charges every Python call and nothing inside C, so it inflates
call-heavy layers; read the ledger as shares and call counts, and read
speed from the untraced end-to-end numbers only.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Tuple

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))

#: (path fragment, layer).  First match wins; fragments use ``/``.
_LAYER_PATHS: Tuple[Tuple[str, str], ...] = (
    ("/repro/xmldoc/", "xmldoc"),
    ("/repro/xpath/", "xpath"),
    ("/repro/adverts/", "adverts"),
    ("/repro/covering/", "covering"),
    ("/repro/matching/", "matching"),
    ("/repro/merging/", "merging"),
    ("/repro/views/", "views"),
    ("/repro/cache.py", "cache"),
    ("/repro/broker/", "broker"),
    ("/repro/network/overlay.py", "network.overlay"),
    ("/repro/network/simulator.py", "network.overlay"),
    ("/repro/network/latency.py", "network.overlay"),
    ("/repro/network/clients.py", "network.clients"),
    ("/repro/network/stats.py", "network.stats"),
    ("/repro/runtime/asyncio_backend.py", "runtime.asyncio"),
    ("/repro/runtime/base.py", "runtime.asyncio"),
    # the one-plan-three-backends adapters are driver glue
    ("/repro/runtime/workload.py", "harness"),
    ("/asyncio/", "runtime.asyncio"),
    ("/selectors.py", "runtime.asyncio"),
    ("/repro/obs/", "obs"),
)

LAYERS: Tuple[str, ...] = (
    "xmldoc", "xpath", "adverts", "covering", "matching", "merging",
    "views", "cache", "broker", "network.overlay", "network.clients",
    "network.stats", "runtime.asyncio", "obs", "harness",
)

UNATTRIBUTED = "unattributed"


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to (None: fold into the caller)."""
    path = filename.replace(os.sep, "/")
    if path.startswith(HARNESS_DIR.replace(os.sep, "/")):
        return "harness"
    for fragment, layer in _LAYER_PATHS:
        if fragment in path:
            return layer
    return None


def fold_profile(stats: Dict) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Fold ``pstats.Stats(...).stats`` into per-layer self seconds and
    call counts.  Returns ``(self_seconds, calls)``; ``self_seconds``
    has every layer plus ``unattributed`` and sums to the profile's
    total self time."""
    mapped = {func: layer_of(func[0]) for func in stats}

    # Layer shares of every unmapped function, by the cumulative time of
    # its caller edges (call counts where the edge has no time): a
    # fixed-point over the caller graph, a few sweeps are plenty.
    shares: Dict[object, Dict[str, float]] = {
        func: {} for func, layer in mapped.items() if layer is None
    }
    for _sweep in range(8):
        for func in shares:
            callers = stats[func][4]
            weights = {
                caller: (edge[3] if edge[3] > 0 else 1e-9 * edge[0])
                for caller, edge in callers.items()
            }
            total = sum(weights.values())
            share: Dict[str, float] = {}
            if total > 0:
                for caller, weight in weights.items():
                    layer = mapped.get(caller)
                    if layer is not None:
                        share[layer] = share.get(layer, 0.0) + weight / total
                    else:
                        for name, part in shares.get(caller, {}).items():
                            share[name] = (
                                share.get(name, 0.0) + part * weight / total
                            )
            shares[func] = share

    seconds: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    seconds[UNATTRIBUTED] = 0.0
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    for func, (_cc, ncalls, self_time, _ct, callers) in stats.items():
        layer = mapped[func]
        if layer is not None:
            seconds[layer] += self_time
            calls[layer] += ncalls
            continue
        # The edge's own self-time figure is exact for the first level.
        left = self_time
        for caller, edge in callers.items():
            edge_self = edge[2]
            caller_layer = mapped.get(caller)
            if caller_layer is not None:
                seconds[caller_layer] += edge_self
                left -= edge_self
            else:
                for name, part in shares.get(caller, {}).items():
                    seconds[name] += edge_self * part
                    left -= edge_self * part
        seconds[UNATTRIBUTED] += left
    return seconds, calls


def ledger_metrics(
    seconds: Dict[str, float], calls: Dict[str, int], documents: int
) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics["layer.%s.self_us_per_doc" % layer] = (
            seconds[layer] * 1e6 / documents
        )
        metrics["layer.%s.calls_per_doc" % layer] = calls[layer] / documents
    metrics["layer.unattributed.self_us_per_doc"] = (
        seconds[UNATTRIBUTED] * 1e6 / documents
    )
    return metrics


# -- counts from the program's own registry --------------------------------

def registry_metrics(
    snapshot: Dict, setup_snapshot: Dict, documents: int,
    subscriptions: int, host, handled: int, deliveries: int,
) -> Dict[str, float]:
    """Per-layer counts read from ``obs`` while metrics were on:
    *snapshot* covers the metrics-on rounds (as do *handled*, the
    brokers' handled-message count, and *deliveries*), *setup_snapshot*
    the metrics-on set-up (subscription-path counters)."""
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]
    hits = counters.get("broker.match_cache.hits", 0)
    misses = counters.get("broker.match_cache.misses", 0)
    waits = histograms.get("runtime.backpressure.wait_seconds", {})
    queue_depths = getattr(host, "max_queue_depth", None) or {}
    return {
        "cache.match.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.match.stale_per_doc":
            counters.get("broker.match_cache.stale", 0) / documents,
        "covering.nodes_visited_per_doc":
            counters.get("covering.tree.nodes_visited", 0) / documents,
        "covering.cover_checks_per_sub":
            setup_snapshot["counters"].get("covering.tree.cover_checks", 0)
            / max(1, subscriptions),
        "matching.dfa_evictions":
            counters.get("matching.shared.dfa_evictions", 0),
        "matching.shared.rebuilds":
            counters.get("matching.shared.rebuilds", 0),
        "runtime.backpressure.waits_per_doc":
            counters.get("runtime.backpressure.waits", 0) / documents,
        "runtime.backpressure.wait_us_per_doc":
            (waits.get("sum") or 0.0) * 1e6 / documents,
        "runtime.queue.max_depth": max(queue_depths.values(), default=0),
        "clients.deliveries_per_doc": deliveries / documents,
        "clients.duplicates":
            sum(c.duplicates for c in host.subscribers.values()),
        "broker.handled_per_doc": handled / documents,
    }


# -- the wire codec, kept visible without an end-to-end workload -----------

def wire_metrics(messages: Iterable[object]) -> Dict[str, float]:
    """Replay *messages* through the multiprocess backend's frame codec.

    No end-to-end metric of this benchmark moves with these: no
    workload crosses a socket (see README, "psd7_mp was dropped").
    """
    from repro.network import wire

    messages = list(messages)
    frames: List[bytes] = []
    started = time.perf_counter()
    for seq, message in enumerate(messages):
        frames.append(wire.encode_data_frame(seq, message))
    encoded = time.perf_counter()
    for frame in frames:
        wire.decode_frame(frame)
    decoded = time.perf_counter()
    count = max(1, len(messages))
    return {
        "layer.network.wire.encode_us_per_msg":
            (encoded - started) * 1e6 / count,
        "layer.network.wire.decode_us_per_msg":
            (decoded - encoded) * 1e6 / count,
        "layer.network.wire.bytes_per_msg":
            sum(len(frame) for frame in frames) / count,
    }
