"""One shared object per distinct small immutable value.

Routing state repeats a few small values many times over: element
names (in every XPE step and every publication path), location steps,
and the short key and neighbour tuples of the broker's tables.
:class:`SharedValues` hands out one object per distinct value, so a
table holding the same value a thousand times holds one object a
thousand times.

A table is bounded: when it holds ``limit`` values, the next new value
clears it first.  A clear loses sharing, never correctness — every user
compares the values it gets by value, so an object handed out before
the clear still equals and hashes like its successor.  Names that come
from documents go through here and never through :func:`sys.intern`,
whose strings outlive any bound (they are immortal on CPython 3.12).
"""

from __future__ import annotations


class SharedValues(dict):
    """A bounded table ``key -> shared value``; ``table[key]`` is the
    lookup.

    Without *make* the shared value is the first key seen equal to
    *key*; with it, ``make(key)`` builds the value on a miss.  A hit is
    one dict probe; only a miss runs Python code.
    """

    __slots__ = ("limit", "_make")

    def __init__(self, limit: int, make=None):
        super().__init__()
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._make = make

    def __missing__(self, key):
        value = key if self._make is None else self._make(key)
        if len(self) >= self.limit:
            self.clear()
        self[key] = value
        return value
