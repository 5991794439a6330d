"""Real execution backends for the runtime-agnostic broker core.

The discrete-event simulator (:mod:`repro.network.overlay`) is one host
of :class:`repro.broker.core.BrokerCore`; this package holds what all
hosts share — :mod:`repro.runtime.host`, the sans-IO host kernel that
gives the core's frames their meaning once — and adds two more backends:

* :mod:`repro.runtime.asyncio_backend` — every broker is an asyncio
  actor with bounded per-link send queues (real backpressure, graceful
  drain/shutdown) inside one process,
* :mod:`repro.runtime.multiprocess` — one OS process per broker,
  speaking :mod:`repro.network.wire` frames over real TCP sockets via
  :mod:`repro.network.sockets`; this is the deployment that runs the
  paper's 127-broker Table 3 overlay on one machine (``repro deploy``).

:mod:`repro.runtime.workload` drives the same seeded workload through
any backend, which is how tests/test_runtime_equivalence.py proves the
three executions are observationally identical.
"""

# ``repro.network`` first: its Overlay extends the host kernel of
# :mod:`repro.runtime.host`, which in turn imports the client and stats
# modules of ``repro.network`` — entered from this side, the cycle only
# closes if the network package is already loading.
import repro.network
from repro.runtime.base import (
    binary_tree_topology,
    routing_fingerprint,
    scaled,
    timeout_scale,
)

__all__ = [
    "binary_tree_topology",
    "routing_fingerprint",
    "scaled",
    "timeout_scale",
]
