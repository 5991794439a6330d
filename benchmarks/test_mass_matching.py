"""Mass-subscription matching: shared automaton vs. the per-XPE scan.

The CI ``mass-matching`` lane runs this file.  It loads 100,000
Zipf-skewed synthetic subscriptions (see ``repro.workloads.mass``) into
a :class:`LinearMatcher` (one compiled check per resident XPE per
publication — the paper's arrangement) and a
:class:`SharedAutomatonMatcher` (one lazy-DFA walk per publication,
whatever the table size), probes both with the same publication paths,
and asserts:

* the engines return identical key sets on every probe, and
* the shared engine is at least :data:`SPEEDUP_FLOOR` times faster
  end-to-end.

The **churn lane** (``test_mass_churn_100k``) pins selective
invalidation: with the table loaded and the DFA warm, a round of one
anchored SUB + UNSUB followed by re-walking known trails must cost
about what re-walking them alone costs, because the edit repairs only
the DFA states it touches (docs/matching.md, "Selective invalidation").

Per-probe timings land in the ``matching.mass.*`` histograms of
``BENCH_obs.json``, which ``check_obs_regression.py --only
matching.mass.`` gates bidirectionally against the committed baseline —
a regression that eats the speedup fails CI, and so does an unexplained
further speedup (refresh the baseline deliberately).

The 1M-subscription variants are marked ``soak`` and excluded from the
PR lane (``-m "not soak"``); the scheduled soak job runs them.
"""

import statistics
import time

import pytest

from repro import obs
from repro.matching.engine import LinearMatcher
from repro.matching.shared_automaton import SharedAutomatonMatcher
from repro.workloads.mass import (
    MassWorkloadParams,
    generate_mass_subscriptions,
    generate_probe_paths,
)
from repro.xpath.parser import parse_xpath

SUBSCRIPTIONS = 100_000
SOAK_SUBSCRIPTIONS = 1_000_000

#: Distinct probe paths per engine — comfortably above the regression
#: gate's MIN_SAMPLES (30) so the histograms are trusted.
PROBES = 60

#: The ISSUE's acceptance floor: shared automaton at least this many
#: times faster than the per-XPE scan at 100k resident subscriptions.
SPEEDUP_FLOOR = 10.0

#: Churn lane: rounds (one histogram sample each, above the regression
#: gate's MIN_SAMPLES) and known trails re-walked per round.
CHURN_ROUNDS = 40
CHURN_PROBES = 15

#: Churn lane: a churn round's p50 over a steady round's.  Measured
#: 1.1x; wholesale invalidation, which this replaces, measured 4.2x.
CHURN_RATIO_CEILING = 1.5


def _distinct_probe_paths(count, params, seed):
    """*count* distinct paths: every timed probe walks a trail of its
    own (cold past whatever prefix it shares with an earlier one)
    instead of re-walking a warm one."""
    paths = []
    seen = set()
    batch_seed = seed
    while len(paths) < count:
        for path in generate_probe_paths(count, params, seed=batch_seed):
            if path not in seen:
                seen.add(path)
                paths.append(path)
                if len(paths) == count:
                    break
        batch_seed += 1
    return paths


def _build_engines(count, seed=7):
    params = MassWorkloadParams()
    pairs = generate_mass_subscriptions(count, params, seed=seed)
    linear = LinearMatcher()
    shared = SharedAutomatonMatcher()
    for expr, key in pairs:
        linear.add(expr, key)
        shared.add(expr, key)
    paths = _distinct_probe_paths(PROBES, params, seed=seed + 1)
    return linear, shared, paths


def _timed_probes(engine, paths, metric):
    """Match every path, one histogram sample per path; returns the
    per-path results and wall seconds."""
    registry = obs.get_registry()
    results = []
    elapsed = 0.0
    for path in paths:
        start = time.perf_counter()
        with registry.timer(metric):
            results.append(engine.match(path))
        elapsed += time.perf_counter() - start
    return results, elapsed


def _run_pair(count):
    linear, shared, paths = _build_engines(count)
    # Duplicate subscriptions collapse to one resident expression (under
    # many keys) in both engines.
    assert len(shared) == len(linear)

    # Warm both engines outside the timed region: the first probe
    # compiles every resident XPE's regex (linear) and builds the DFA
    # start state (shared) — one-time costs, not per-publication ones.
    warmup = ("warmup-only",)
    linear.match(warmup)
    shared.match(warmup)

    linear_results, linear_seconds = _timed_probes(
        linear, paths, "matching.mass.linear.match"
    )
    shared_results, shared_seconds = _timed_probes(
        shared, paths, "matching.mass.shared.match"
    )

    for path, expected, got in zip(paths, linear_results, shared_results):
        assert got == expected, "engines disagree on %r" % (path,)

    registry = obs.get_registry()
    registry.set_gauge("matching.mass.subscriptions", count)
    registry.set_gauge(
        "matching.mass.automaton_states", shared.automaton_size()
    )
    registry.set_gauge("matching.mass.dfa_states", shared.dfa_size())

    speedup = linear_seconds / shared_seconds if shared_seconds else 0.0
    print(
        "\n%d subscriptions, %d probes: linear %.3fs, shared %.3fs "
        "(%.1fx), NFA states %d, DFA states %d"
        % (
            count,
            len(paths),
            linear_seconds,
            shared_seconds,
            speedup,
            shared.automaton_size(),
            shared.dfa_size(),
        )
    )
    assert speedup >= SPEEDUP_FLOOR, (
        "shared automaton only %.1fx faster than the per-XPE scan at "
        "%d subscriptions (floor %.0fx)" % (speedup, count, SPEEDUP_FLOOR)
    )


@pytest.mark.paper
def test_mass_matching_100k():
    _run_pair(SUBSCRIPTIONS)


@pytest.mark.paper
def test_dfa_eviction_steady_state():
    """DFA-overflow discipline: under steady-state mass matching with a
    tight state budget, overflow is absorbed by cold-half eviction —
    ``dfa_flushes`` (wholesale discards, reserved for ``clear()``)
    stays 0, the probes stay correct, and the cache obeys
    the bound throughout.  Pins the replacement of the old
    flush-everything overflow response."""
    limit = 64
    count = SUBSCRIPTIONS // 5
    params = MassWorkloadParams()
    pairs = generate_mass_subscriptions(count, params, seed=11)
    reference = LinearMatcher()
    shared = SharedAutomatonMatcher(dfa_state_limit=limit)
    for expr, key in pairs:
        reference.add(expr, key)
        shared.add(expr, key)
    # Enough distinct paths that the DFA working set overflows the
    # budget many times over; three passes make the second and third
    # re-walk evicted territory (the steady state being pinned).
    paths = _distinct_probe_paths(PROBES, params, seed=12)
    registry = obs.get_registry()
    for _pass in range(3):
        for path in paths:
            with registry.timer("matching.mass.evicting.match"):
                got = shared.match(path)
            assert got == reference.match(path), path
    print(
        "\n%d subscriptions, limit %d: %d evictions, %d flushes, "
        "%d live DFA states"
        % (count, limit, shared.dfa_evictions, shared.dfa_flushes,
           shared.dfa_size())
    )
    assert shared.dfa_evictions > 0, "budget never overflowed — raise churn"
    assert shared.dfa_flushes == 0, (
        "steady-state matching must never wholesale-flush the DFA "
        "(%d flushes)" % shared.dfa_flushes
    )
    assert shared.dfa_size() <= limit


@pytest.mark.paper
@pytest.mark.soak
def test_mass_matching_1m():
    _run_pair(SOAK_SUBSCRIPTIONS)


# -- the churn lane --------------------------------------------------------


def _run_churn(count):
    params = MassWorkloadParams()
    shared = SharedAutomatonMatcher()
    for expr, key in generate_mass_subscriptions(count, params, seed=7):
        shared.add(expr, key)
    paths = _distinct_probe_paths(CHURN_PROBES, params, seed=8)
    # The steady state being measured is "table loaded, DFA built":
    # then churn arrives.  A transition is built at its second sighting
    # (docs/matching.md, "Admission"), so the trails are walked until a
    # whole pass stays inside the DFA.
    for _walk in range(max(map(len, paths)) + 2):
        cold_walks = shared.cold_walks
        warm_results = [shared.match(path) for path in paths]
    assert shared.cold_walks == cold_walks, "the trails never warmed"
    warm_states = shared.dfa_size()

    registry = obs.get_registry()
    steady, churn = [], []
    for round_index in range(CHURN_ROUNDS):
        start = time.perf_counter()
        steady_results = [shared.match(path) for path in paths]
        steady.append(time.perf_counter() - start)

        # Anchored under a rotating vocabulary root, along a trail no
        # probe walks ("churn" is not in the vocabulary).
        root = params.vocabulary[round_index % len(params.vocabulary)]
        expr = parse_xpath("/%s/churn/r%d" % (root, round_index))
        start = time.perf_counter()
        with registry.timer("matching.mass.churn"):
            shared.add(expr, "churn")
            shared.remove(expr, "churn")
            churn_results = [shared.match(path) for path in paths]
        churn.append(time.perf_counter() - start)

        assert steady_results == warm_results
        assert churn_results == warm_results
        assert shared.dfa_size() == warm_states, (
            "an edit off the probed trails changed the DFA: %d -> %d "
            "states in round %d"
            % (warm_states, shared.dfa_size(), round_index)
        )

    steady_p50 = statistics.median(steady)
    churn_p50 = statistics.median(churn)
    ratio = churn_p50 / steady_p50
    print(
        "\n%d subscriptions, %d rounds x %d known trails: steady p50 "
        "%.6fs, churn p50 %.6fs (%.2fx), %d DFA states, %d flushes"
        % (count, CHURN_ROUNDS, len(paths), steady_p50, churn_p50, ratio,
           warm_states, shared.dfa_flushes)
    )
    assert shared.dfa_flushes == 0
    assert ratio <= CHURN_RATIO_CEILING, (
        "a churn round costs %.2fx a steady round at %d subscriptions "
        "(ceiling %.1fx)" % (ratio, count, CHURN_RATIO_CEILING)
    )


@pytest.mark.paper
def test_mass_churn_100k():
    _run_churn(SUBSCRIPTIONS)


@pytest.mark.paper
@pytest.mark.soak
def test_mass_churn_1m():
    _run_churn(SOAK_SUBSCRIPTIONS)
