"""Publication-vs-XPE matching engines."""

from repro.covering.pathmatch import matches_document_paths, matches_path
from repro.matching.engine import LinearMatcher, TreeMatcher
from repro.matching.predicate_index import PredicateIndexMatcher
from repro.matching.shared_automaton import SharedAutomatonMatcher
from repro.matching.yfilter import SharedPathNFA, YFilterMatcher

__all__ = [
    "matches_document_paths",
    "matches_path",
    "LinearMatcher",
    "PredicateIndexMatcher",
    "SharedAutomatonMatcher",
    "SharedPathNFA",
    "TreeMatcher",
    "YFilterMatcher",
]
