"""Mass-subscription workloads for the shared-automaton engine.

The paper's evaluation stops at 8,000 XPEs per broker; the
mass-subscription path asks what happens at 100k–1M.
DTD-derived workloads cannot reach that scale — the PSD/NITF path
universes top out around a few thousand distinct queries — so this
module generates subscriptions over a *synthetic* element universe: a
fixed vocabulary whose step names are drawn Zipf-skewed (popular
elements appear in many subscriptions, which is exactly the regime
where shared-prefix automata win).

Everything is seeded and parameterised by :class:`MassWorkloadParams`,
so benchmark runs are reproducible bit-for-bit:

* ``generate_mass_subscriptions`` — ``(expr, key)`` pairs, with a
  controlled fraction of *duplicate* expressions under distinct keys
  (distinct subscribers asking for the same thing — the common case a
  shared automaton collapses to one trail).
* ``generate_probe_paths`` — publication paths over the same skewed
  vocabulary, deliberately a little deeper than the subscriptions so
  descendant axes do real work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.workloads.interest import zipf_weights
from repro.xpath.ast import XPathExpr
from repro.xpath.parser import parse_xpath

#: Default synthetic vocabulary: 40 element names.  Small enough that
#: subscriptions share prefixes heavily, large enough that 100k of them
#: don't collapse to a handful of distinct expressions.
DEFAULT_VOCABULARY = tuple("e%02d" % index for index in range(40))


@dataclass(frozen=True)
class MassWorkloadParams:
    """Knobs of the mass-subscription generator.

    The axis probabilities mirror :class:`~repro.workloads.
    xpath_generator.XPathWorkloadParams` (Diao et al.'s parameter
    space); ``skew`` is the Zipf exponent over the vocabulary ranks,
    and ``duplicate_prob`` is the chance a subscription reuses an
    earlier expression verbatim (under its own key).
    """

    vocabulary: Tuple[str, ...] = DEFAULT_VOCABULARY
    skew: float = 0.9
    min_depth: int = 2
    max_depth: int = 8
    wildcard_prob: float = 0.10
    descendant_prob: float = 0.15
    relative_prob: float = 0.15
    predicate_prob: float = 0.0
    duplicate_prob: float = 0.05
    attributes: Tuple[str, ...] = ("lang", "urgent", "priority")
    attribute_values: Tuple[str, ...] = ("en", "de", "fr", "high")

    def __post_init__(self):
        if not self.vocabulary:
            raise ValueError("the vocabulary cannot be empty")
        if not 1 <= self.min_depth <= self.max_depth:
            raise ValueError("need 1 <= min_depth <= max_depth")


def _expr_text(rng: random.Random, params: MassWorkloadParams,
               weights) -> str:
    depth = rng.randint(params.min_depth, params.max_depth)
    text = "//" if rng.random() < params.relative_prob else "/"
    for position in range(depth):
        if position:
            text += "//" if rng.random() < params.descendant_prob else "/"
        # The first step stays concrete so no expression matches
        # everything (mirrors XPathWorkloadParams.wildcard_min_position).
        if position and rng.random() < params.wildcard_prob:
            text += "*"
        else:
            text += rng.choices(params.vocabulary, weights=weights)[0]
    if rng.random() < params.predicate_prob:
        attr = rng.choice(params.attributes)
        if rng.random() < 0.5:
            text += "[@%s]" % attr
        else:
            text += "[@%s='%s']" % (attr, rng.choice(params.attribute_values))
    return text


def generate_mass_subscriptions(
    count: int,
    params: MassWorkloadParams = MassWorkloadParams(),
    seed: int = 0,
) -> List[Tuple[XPathExpr, str]]:
    """*count* seeded ``(expr, key)`` pairs; keys ``m0`` … ``m<count-1>``
    are always distinct even when the expressions repeat."""
    rng = random.Random(seed)
    weights = zipf_weights(len(params.vocabulary), params.skew)
    pairs: List[Tuple[XPathExpr, str]] = []
    for index in range(count):
        if pairs and rng.random() < params.duplicate_prob:
            expr = pairs[rng.randrange(len(pairs))][0]
        else:
            expr = parse_xpath(_expr_text(rng, params, weights))
        pairs.append((expr, "m%d" % index))
    return pairs


def generate_probe_paths(
    count: int,
    params: MassWorkloadParams = MassWorkloadParams(),
    seed: int = 0,
) -> List[Tuple[str, ...]]:
    """*count* seeded publication paths over the same skewed vocabulary,
    up to two steps deeper than the subscription ceiling so descendant
    axes and relative expressions have interior structure to bind to."""
    rng = random.Random(seed)
    weights = zipf_weights(len(params.vocabulary), params.skew)
    paths = []
    for _ in range(count):
        depth = rng.randint(params.min_depth, params.max_depth + 2)
        paths.append(tuple(
            rng.choices(params.vocabulary, weights=weights)[0]
            for _ in range(depth)
        ))
    return paths
