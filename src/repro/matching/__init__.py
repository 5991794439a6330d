"""Publication-vs-XPE matching engines."""

from repro.covering.pathmatch import matches_document_paths, matches_path
from repro.matching.engine import LinearMatcher
from repro.matching.shared_automaton import SharedAutomatonMatcher
from repro.matching.yfilter import SharedPathNFA

__all__ = [
    "matches_document_paths",
    "matches_path",
    "LinearMatcher",
    "SharedAutomatonMatcher",
    "SharedPathNFA",
]
