"""Abstract syntax for the XPath fragment used by the paper.

The subscription language (paper §3.2) is the single-path XPath fragment
with three operators:

* the *parent-child* operator ``/``,
* the *ancestor-descendant* operator ``//``,
* the *wildcard* node test ``*``.

An expression is a sequence of :class:`Step` objects.  Each step carries
the axis that connects it to the previous step (``/`` or ``//``) and a node
test (an element name or the wildcard).  An expression is *absolute*
(called "rooted" here) when it began with a single ``/`` — its first
segment is anchored at the document root.  Expressions beginning with
``//`` or with a bare name/wildcard are *relative*: they may match anywhere
along a publication path.

Expressions are immutable and hashable so they can serve as routing-table
keys.  Their steps and names are shared: every expression holds, for
each distinct ``(axis, test)``, the one :class:`Step` of
:data:`STEPS`, whose test is the one string of :data:`NAMES` — the
table that also names the elements of a decomposed document
(:mod:`repro.xmldoc`), so path symbols and automaton labels are the
same objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.sharing import SharedValues

WILDCARD = "*"

#: Element names, one string per distinct name: XPE node tests and the
#: path elements of parsed documents (``NAMES[name]``).  Bounded, since
#: documents may bring any vocabulary.
NAMES = SharedValues(4096)


class Axis(enum.Enum):
    """The axis connecting a step to its predecessor."""

    CHILD = "/"
    DESCENDANT = "//"

    def __str__(self):
        return self.value


# Module aliases: reading a member off the enum class costs more than
# the table probe it feeds.
_CHILD = Axis.CHILD
_DESCENDANT = Axis.DESCENDANT


@dataclass(frozen=True)
class Step:
    """One location step: an axis and a node test.

    ``test`` is either an XML element name or :data:`WILDCARD`.
    """

    axis: Axis
    test: str

    @property
    def is_wildcard(self):
        """True when the node test is ``*``."""
        return self.test == WILDCARD

    def __str__(self):
        return "%s%s" % (self.axis, self.test)


def _shared_step(key):
    """The one :class:`Step` for ``(is_descendant, test)``, built on a
    :data:`STEPS` miss; its test is the :data:`NAMES` string."""
    descendant, test = key
    # No element name is empty or holds the path separator, and the
    # compiled matcher could not render one that did.
    if not test or "/" in test:
        raise ValueError("invalid node test %r" % (test,))
    return Step(_DESCENDANT if descendant else _CHILD, NAMES[test])


#: Location steps, one per distinct ``(axis is DESCENDANT, test)``:
#: every :class:`XPathExpr` holds these (``STEPS[descendant, test]``).
STEPS = SharedValues(8192, _shared_step)


@dataclass(frozen=True, eq=False)
class XPathExpr:
    """A parsed single-path XPath expression (an *XPE*).

    Attributes:
        steps: the location steps, in document order.
        rooted: True when the expression was written with a single leading
            ``/`` (an *absolute* XPE).  ``//``-prefixed and bare
            expressions are relative.

    Construction replaces each step by the shared one of :data:`STEPS`,
    whatever built the expression (parser, :meth:`from_tests`,
    :meth:`suffix`, merging rules, wire decode, restore).  Equality is
    value-based: ``rooted`` and the step sequence, whose element
    comparisons are identity checks while the steps are shared.  The
    hash is ``hash((rooted, ((axis is DESCENDANT, test), ...)))``,
    computed once per expression; nothing else is stored for it.
    """

    steps: Tuple[Step, ...]
    rooted: bool = True

    def __post_init__(self):
        steps = self.steps
        if not steps:
            raise ValueError("an XPath expression needs at least one step")
        if self.rooted and steps[0].axis is not _CHILD:
            raise ValueError(
                "a rooted expression cannot start with a descendant axis"
            )
        shared = STEPS
        object.__setattr__(
            self,
            "steps",
            tuple([shared[step.axis is _DESCENDANT, step.test] for step in steps]),
        )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, XPathExpr):
            return NotImplemented
        return self.rooted == other.rooted and self.steps == other.steps

    def __hash__(self):
        try:
            return self._hash_cache
        except AttributeError:
            value = hash(
                (
                    self.rooted,
                    tuple(
                        [
                            (step.axis is _DESCENDANT, step.test)
                            for step in self.steps
                        ]
                    ),
                )
            )
            object.__setattr__(self, "_hash_cache", value)
            return value

    # -- classification -------------------------------------------------

    @property
    def is_absolute(self):
        """True for expressions anchored at the document root."""
        return self.rooted

    @property
    def is_relative(self):
        """True for expressions that may match anywhere along a path."""
        return not self.rooted

    @property
    def is_simple(self):
        """True when the expression contains no ``//`` operator.

        The paper calls these *simple XPEs*; they are matched with the
        ``AbsExprAndAdv``/``RelExprAndAdv`` algorithms.
        """
        try:
            return self._simple_cache
        except AttributeError:
            value = all(step.axis is Axis.CHILD for step in self.steps)
            object.__setattr__(self, "_simple_cache", value)
            return value

    @property
    def has_wildcard(self):
        """True when any node test is ``*``."""
        return any(step.is_wildcard for step in self.steps)

    # -- views ----------------------------------------------------------
    #
    # tests/segments are on every matching and covering hot path, so
    # they are memoised on the instance (safe: expressions are
    # immutable, and dataclass eq/hash only consider the declared
    # fields).

    @property
    def tests(self):
        """The node tests as a tuple of strings (names or ``*``)."""
        try:
            return self._tests_cache
        except AttributeError:
            value = tuple(step.test for step in self.steps)
            object.__setattr__(self, "_tests_cache", value)
            return value

    @property
    def segments(self):
        """Maximal ``//``-free runs of node tests, in order.

        The first segment is anchored at the root iff the expression is
        rooted.  Every subsequent segment is connected to its predecessor
        by a ``//`` operator.  A leading ``//`` leaves the expression with
        a single floating first segment, exactly like a relative one.
        """
        try:
            return self._segments_cache
        except AttributeError:
            pass
        result = []
        current = []
        for step in self.steps:
            if step.axis is Axis.DESCENDANT and current:
                result.append(tuple(current))
                current = []
            if step.axis is Axis.DESCENDANT and not current and not result:
                # Leading // — the first segment floats; nothing to flush.
                pass
            current.append(step.test)
        result.append(tuple(current))
        value = tuple(result)
        object.__setattr__(self, "_segments_cache", value)
        return value

    @property
    def anchored(self):
        """True when the first segment must match at path position 0."""
        return self.rooted and self.steps[0].axis is Axis.CHILD

    def __len__(self):
        return len(self.steps)

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_tests(cls, tests, rooted=True):
        """Build a ``//``-free expression from a sequence of node tests."""
        shared = STEPS
        return cls(steps=tuple([shared[False, t] for t in tests]), rooted=rooted)

    def with_rooted(self, rooted):
        """Return a copy of this expression with a different anchoring."""
        if rooted and self.steps[0].axis is Axis.DESCENDANT:
            raise ValueError("cannot root an expression starting with //")
        return XPathExpr(steps=self.steps, rooted=rooted)

    def prefix(self, length):
        """The rooted/relative prefix consisting of the first *length* steps."""
        if not 1 <= length <= len(self.steps):
            raise ValueError("prefix length out of range")
        return XPathExpr(steps=self.steps[:length], rooted=self.rooted)

    def suffix(self, start):
        """A relative expression made of the steps from index *start* on.

        The first retained step's axis is normalised to ``/`` so the
        result is a well-formed relative expression.
        """
        if not 0 <= start < len(self.steps):
            raise ValueError("suffix start out of range")
        steps = self.steps[start:]
        steps = (STEPS[False, steps[0].test],) + steps[1:]
        return XPathExpr(steps=steps, rooted=False)

    def concat(self, other):
        """Concatenate two expressions with a ``/`` between them."""
        other_steps = (STEPS[False, other.steps[0].test],) + other.steps[1:]
        return XPathExpr(steps=self.steps + other_steps, rooted=self.rooted)

    # -- rendering -------------------------------------------------------

    def __str__(self):
        parts = []
        first = self.steps[0]
        if first.axis is Axis.DESCENDANT:
            parts.append("//%s" % first.test)
        elif self.rooted:
            parts.append("/%s" % first.test)
        else:
            parts.append(first.test)
        for step in self.steps[1:]:
            parts.append(str(step))
        return "".join(parts)

    def __repr__(self):
        return "XPathExpr(%r)" % str(self)


def steps_from_tests(tests: Iterable[str], axis=Axis.CHILD):
    """Utility: turn a test sequence into steps sharing one axis."""
    return tuple(Step(axis, t) for t in tests)
