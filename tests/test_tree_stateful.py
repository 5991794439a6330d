"""Stateful property testing of the subscription tree.

Hypothesis drives random insert/remove sequences against a
:class:`SubscriptionTree` while a trivial model (a dict of expr -> key
sets) tracks ground truth.  After every step the tree must:

* contain exactly the model's expressions,
* satisfy the covering invariant (each node covers its subtree),
* match every probe path exactly like a linear scan of the model,
* report top-level expressions that are mutually incomparable and
  collectively cover the whole table.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.covering.algorithms import covers
from repro.covering.pathmatch import matches_path
from repro.covering.subscription_tree import SubscriptionTree
from repro.xpath.ast import Axis, Step, XPathExpr

NAMES = ["a", "b", "c", "*"]
PATH_NAMES = ["a", "b", "c", "d"]


@st.composite
def exprs(draw):
    n = draw(st.integers(1, 4))
    rooted = draw(st.booleans())
    steps = []
    for i in range(n):
        axis = (
            Axis.CHILD
            if (i == 0 and rooted)
            else draw(st.sampled_from([Axis.CHILD, Axis.DESCENDANT]))
        )
        steps.append(Step(axis, draw(st.sampled_from(NAMES))))
    return XPathExpr(steps=tuple(steps), rooted=rooted)


PROBE_PATHS = [
    ("a",),
    ("a", "b"),
    ("a", "b", "c"),
    ("b", "c", "d"),
    ("c", "a", "c", "a"),
    ("d", "d"),
]


class SubscriptionTreeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = SubscriptionTree()
        self.model = {}

    @rule(expr=exprs(), key=st.integers(0, 3))
    def insert(self, expr, key):
        outcome = self.tree.add(expr, key)
        was_present = expr in self.model
        self.model.setdefault(expr, set()).add(key)
        assert outcome.is_new != was_present

    @rule(expr=exprs(), key=st.integers(0, 3))
    def remove(self, expr, key):
        outcome = self.tree.remove(expr, key)
        keys = self.model.get(expr)
        if keys is None:
            assert not outcome.removed
            return
        keys.discard(key)
        if not keys:
            del self.model[expr]
            # removal only reports True when the last key vanished
            assert outcome.removed == (expr not in self.model)

    @invariant()
    def same_expressions(self):
        assert set(self.tree.exprs()) == set(self.model)

    @invariant()
    def covering_invariant(self):
        self.tree.validate()

    @invariant()
    def matches_like_linear_scan(self):
        for path in PROBE_PATHS:
            expected = set()
            for expr, keys in self.model.items():
                if matches_path(expr, path):
                    expected |= keys
            assert self.tree.match(path) == expected, path

    @invariant()
    def top_level_is_maximal_antichain(self):
        top = self.tree.top_level_exprs()
        for i, first in enumerate(top):
            for second in top[i + 1:]:
                assert not covers(first, second)
                assert not covers(second, first)
        # Every stored expression is covered by some top-level one.
        for expr in self.model:
            assert any(covers(t, expr) for t in top)


TestSubscriptionTreeStateful = SubscriptionTreeMachine.TestCase
TestSubscriptionTreeStateful.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
