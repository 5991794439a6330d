"""The element-level covering rules (paper §4.2).

``Sub1`` containing test ``ti`` covers ``Sub2`` containing test ``mi`` at
the corresponding position when ``ti`` is a wildcard (no matter what
``mi`` is) or ``ti == mi`` with neither being a wildcard.  Note the
asymmetry versus the *overlap* rules used for advertisement matching:
``a`` overlaps ``*`` but does not cover it.
"""

from __future__ import annotations

from typing import Sequence

from repro.xpath.ast import WILDCARD


def covers_test(sup: str, sub: str) -> bool:
    """True when node test *sup* covers node test *sub*."""
    return sup == WILDCARD or (sub != WILDCARD and sup == sub)


def covers_block(sup: Sequence[str], sub: Sequence[str], offset: int = 0) -> bool:
    """True when every test of *sup* covers the test of *sub* at the same
    position, reading *sub* from *offset*.  Requires the slice to fit."""
    if offset + len(sup) > len(sub):
        return False
    return all(
        covers_test(sup[i], sub[offset + i]) for i in range(len(sup))
    )
