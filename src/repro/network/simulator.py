"""A minimal discrete-event simulator.

An event is data, not a closure: ``(time, sequence, action, args)`` in
a heap, and running it is ``action(*args)``.  A host schedules a bound
method and the arguments it needs (the frame, the link, the hop count),
so the heap holds no function object per event and nothing an event
carries outlives it.  The sequence number breaks ties deterministically
(FIFO for equal timestamps), so ``(time, sequence)`` alone orders the
heap and every experiment is reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro import obs


class Simulator:
    """Single-threaded discrete-event loop with a virtual clock."""

    def __init__(self):
        self._queue = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Events completed so far, added when each :meth:`run` call
        returns or raises."""
        return self._processed

    def schedule(self, delay: float, action: Callable[..., object], *args):
        """Run ``action(*args)`` at ``now + delay`` (delay must not be
        negative)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        heapq.heappush(
            self._queue, (self._now + delay, next(self._counter), action, args)
        )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        """Drain the event queue.

        Args:
            until: stop once the clock would pass this time.
            max_events: safety valve against runaway feedback loops.

        Returns the number of events processed by this call.  If an
        action raises, the events that completed before it are still
        counted (``processed_events`` and the ``network.sim.events``
        counter) and the exception propagates.
        """
        queue = self._queue
        pop = heapq.heappop
        processed = 0
        try:
            while queue:
                if max_events is not None and processed >= max_events:
                    break
                time, _seq, action, args = queue[0]
                if until is not None and time > until:
                    break
                pop(queue)
                self._now = time
                action(*args)
                processed += 1
        finally:
            self._processed += processed
            registry = obs.get_registry()
            if registry.enabled and processed:
                registry.counter("network.sim.events").inc(processed)
                registry.gauge("network.sim.pending").set(len(queue))
        return processed

    def pending(self) -> int:
        return len(self._queue)
