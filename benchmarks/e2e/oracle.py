"""Delivery oracle: what every client must receive, from first principles.

The edge broker re-checks every delivery against the client's own
subscriptions, so a client must receive exactly the paths of a document
that at least one of its *then-live* XPEs matches — computed here with
``matches_path_reference`` (the interpreted matcher the compiled fast
path is itself tested against), never with the engines under test.
"""

from __future__ import annotations

from typing import Deque, Dict, Set, Tuple

from repro.covering.pathmatch import matches_path_reference


class ReferenceOracle:
    """Expected ``(client, path)`` deliveries over a live-XPE map."""

    def __init__(self, live: Dict[str, Deque[object]]):
        self._live = live
        self._by_expr: Dict[object, Set[str]] = {}
        self._by_path: Dict[object, frozenset] = {}
        self._stale = True

    def apply(self, client_id: str, removed, added):
        """Replay one churn step: *client_id* dropped its oldest XPE
        (which must be *removed*) and subscribed *added*."""
        exprs = self._live[client_id]
        if exprs.popleft() != removed:
            raise AssertionError("churn log out of step with the oracle")
        exprs.append(added)
        self._stale = True

    def _reindex(self):
        by_expr: Dict[object, Set[str]] = {}
        for client_id, exprs in self._live.items():
            for expr in exprs:
                by_expr.setdefault(expr, set()).add(client_id)
        self._by_expr = by_expr
        self._by_path = {}
        self._stale = False

    def clients_for(self, publication) -> frozenset:
        key = (publication.path, publication.attributes)
        clients = self._by_path.get(key)
        if clients is None:
            attributes = publication.attribute_maps()
            matched: Set[str] = set()
            for expr, subscribers in self._by_expr.items():
                if matches_path_reference(expr, publication.path, attributes):
                    matched |= subscribers
            clients = frozenset(matched)
            self._by_path[key] = clients
        return clients

    def expected(self, publications) -> Set[Tuple[str, int]]:
        """``(client, path_id)`` pairs a document must produce."""
        if self._stale:
            self._reindex()
        return {
            (client_id, publication.path_id)
            for publication in publications
            for client_id in self.clients_for(publication)
        }
