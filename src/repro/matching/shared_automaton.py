"""The mass-subscription matching engine: one walk of the shared-prefix
NFA per publication path.

At 10^5–10^6 resident subscriptions per broker, anything per-XPE is
linear death: even compiled regexes pay one probe per stored
expression per publication.  Following YFilter [Diao et al., TODS 2003]
and the FPGA XML-filtering line (arXiv 0909.1781), this engine merges
every XPE's structure into one :class:`~repro.matching.yfilter.
SharedPathNFA` and matches a publication with a single document pass —
cost bounded by automaton size, not subscription count.  The walk is
the NFA's own active-state-set simulation
(:meth:`~repro.matching.yfilter.SharedPathNFA.match_set`), and nothing
is cached behind it: a path that recurs is served by the broker's route
memo before the engine is reached (docs/performance.md §2), so the
engine is only ever asked for a memo miss.

Incremental ``add``/``remove`` (including real NFA state pruning on
unsubscribe) comes from the underlying :class:`SharedPathNFA`;
``automaton_size()`` returns to baseline after any churn cycle.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple

from repro import obs
from repro.covering.subscription_tree import RemoveOutcome
from repro.matching.engine import KEPT, REMOVED, FlatTable
from repro.matching.yfilter import SharedPathNFA
from repro.sharing import SharedValues
from repro.xpath.ast import XPathExpr

#: Key tuples, one per distinct value, shared by every matcher's
#: ``_keys`` (a table's keys are its neighbours and local clients, so
#: thousands of XPEs hold a few hundred distinct tuples).
KEY_TUPLES = SharedValues(4096)


class SharedAutomatonMatcher(FlatTable):
    """Shared-automaton bulk matcher.

    A flat table (same contract as :class:`~repro.matching.engine.
    LinearMatcher`): a broker without covering keeps its subscriptions
    here, and a covering broker keeps one beside its subscription tree
    as the publication matcher.  Duplicate XPEs under distinct keys
    share one automaton trail and one key tuple (``_keys[expr]``, in
    arrival order, each key once: a table's keys are its neighbours
    and local clients, so the tuple stays short and a one-key entry
    allocates no set); equal key tuples are one object
    (:data:`KEY_TUPLES`).
    """

    def __init__(self):
        self._nfa = SharedPathNFA()
        self._keys: Dict[XPathExpr, Tuple[object, ...]] = {}

    # -- maintenance -----------------------------------------------------

    def add(self, expr: XPathExpr, key: object = None):
        keys = self._keys.get(expr)
        if keys is None:
            self._nfa.add(expr)
            self._keys[expr] = KEY_TUPLES[key,]
        elif key not in keys:
            self._keys[expr] = KEY_TUPLES[keys + (key,)]

    def remove(self, expr: XPathExpr, key: object = None) -> RemoveOutcome:
        keys = self._keys.get(expr)
        if keys is None or key not in keys:
            return KEPT
        if len(keys) > 1:
            self._keys[expr] = KEY_TUPLES[
                tuple(other for other in keys if other != key)
            ]
            return KEPT
        del self._keys[expr]
        self._nfa.remove(expr)
        return REMOVED

    # -- matching --------------------------------------------------------

    @obs.timed("matching.shared.match")
    def match_exprs(self, path: Sequence[str]) -> Set[XPathExpr]:
        """All stored XPEs matching the publication *path*: one
        automaton pass."""
        return self._nfa.match_set(path)

    def match(self, path: Sequence[str]) -> Set[object]:
        """Union of subscriber keys of the matching XPEs (engine API)."""
        keys: Set[object] = set()
        expr_keys = self._keys
        for expr in self.match_exprs(path):
            keys.update(expr_keys[expr])
        return keys

    # -- views -----------------------------------------------------------

    def keys_of(self, expr: XPathExpr) -> Set[object]:
        return set(self._keys.get(expr, ()))

    def exprs(self):
        return list(self._keys)

    def __len__(self):
        return len(self._keys)

    def automaton_size(self) -> int:
        """Live NFA state count (pruning returns this to baseline
        after churn — asserted by the churn tests)."""
        return self._nfa.state_count()

    def stats(self) -> Dict[str, int]:
        """Engine internals for ``Broker.describe()``/ablations."""
        return {
            "exprs": len(self._keys),
            "nfa_states": self.automaton_size(),
        }
