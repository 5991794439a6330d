"""Edge replay windows over the routed-publication stream.

The paper routes every publication through the matching core, and so
does a broker with views on: nothing here routes.  This module only
keeps *content* at the edge (following ViP2P — see PAPERS.md): per
publication group (one group = one ``(path, attribute fingerprint)``,
the key the route memo uses) a FIFO window of the last :data:`WINDOW`
publications the broker routed.  When a local client subscribes, every
window whose group its expression matches is replayed to it over the
reliable transport; client dedup on ``(doc_id, path_id)`` gives replay
its exactly-once semantics.

A window's contents depend only on the publications routed, not on who
is subscribed, so no subscription change can make one stale and no
stamp guards it.  Windows are rebuildable state: never persisted, gone
with a crashed broker, refilled by the next publications (see
docs/views.md).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from repro import obs
from repro.covering.pathmatch import matches_path
from repro.xpath.ast import XPathExpr

#: Publications one window retains.
WINDOW = 64
#: Windows one broker retains, least recently routed evicted first.
MAX_VIEWS = 128

#: A publication group key: ``(path, attribute fingerprint)``.
GroupKey = Tuple[Tuple[str, ...], object]


class MaterializedView:
    """One publication group's replay window."""

    __slots__ = ("path", "window", "capacity")

    def __init__(self, path: Tuple[str, ...], capacity: int):
        self.path = path
        #: ``(doc_id, path_id)`` -> PublishMsg, insertion-ordered.
        self.window: "OrderedDict[Tuple[str, int], object]" = OrderedDict()
        self.capacity = capacity

    def capture(self, message) -> None:
        """Retain one routed publication in the window."""
        publication = message.publication
        key = (publication.doc_id, publication.path_id)
        if key in self.window:
            return
        self.window[key] = message
        while len(self.window) > self.capacity:
            self.window.popitem(last=False)

    def replay_messages(self) -> Tuple[object, ...]:
        return tuple(self.window.values())


class ViewManager:
    """Per-broker registry of replay windows.

    The owning broker hands every routed group to :meth:`capture` and
    calls :meth:`queue_replays_for` when a local client subscribes; the
    broker core appends :attr:`pending_replays` to that step's frames.
    """

    def __init__(self, window: int = WINDOW, max_views: int = MAX_VIEWS):
        self.window = window
        self.max_views = max_views
        #: group key -> window, in least-recently-routed order.
        self.views: "OrderedDict[GroupKey, MaterializedView]" = OrderedDict()
        #: Replay frames ``(client_id, messages, "replay")`` the broker
        #: core has yet to hand out.
        self.pending_replays: List[Tuple[object, Tuple[object, ...], str]] = []
        self.materialized = 0
        self.replays_queued = 0

    def capture(self, messages) -> None:
        """Append routed publications to their groups' windows, opening
        a window at a group's first publication."""
        views = self.views
        for message in messages:
            publication = message.publication
            group: GroupKey = (publication.path, publication.attributes)
            view = views.get(group)
            if view is None:
                view = views[group] = MaterializedView(
                    publication.path, self.window
                )
                self.materialized += 1
                obs.inc("views.materialized")
                if len(views) > self.max_views:
                    views.popitem(last=False)
            else:
                views.move_to_end(group)
            view.capture(message)

    def queue_replays_for(self, client_id, expr: XPathExpr) -> int:
        """A local client subscribed *expr*: queue a window replay from
        every view whose group the expression matches.  Returns the
        number of publications queued (dedup happens client-side)."""
        queued = 0
        for view in self.views.values():
            if not view.window:
                continue
            sample = next(iter(view.window.values()))
            attribute_maps = sample.publication.attribute_maps()
            if not matches_path(expr, view.path, attribute_maps):
                continue
            messages = view.replay_messages()
            self.pending_replays.append((client_id, messages, "replay"))
            self.replays_queued += 1
            queued += len(messages)
            obs.inc("views.replays")
            obs.inc("views.replayed_msgs", len(messages))
        return queued

    def take_pending_replays(self):
        if not self.pending_replays:
            return ()
        pending = tuple(self.pending_replays)
        del self.pending_replays[:]
        return pending

    def retained(self) -> int:
        """Publications held across every window."""
        return sum(len(view.window) for view in self.views.values())

    def stats(self) -> Dict[str, object]:
        return {
            "views": len(self.views),
            "materialized": self.materialized,
            "replays_queued": self.replays_queued,
            "window_capacity": self.window,
            "retained": self.retained(),
        }


def record_gauges(registry, brokers) -> None:
    """Fold the live windows and retained publications of *brokers*
    into the ``views.live`` / ``views.retained`` gauges (no-op when no
    broker keeps views)."""
    managers = [b.views for b in brokers if b.views is not None]
    if managers:
        registry.gauge("views.live").set(sum(len(m.views) for m in managers))
        registry.gauge("views.retained").set(
            sum(m.retained() for m in managers)
        )
