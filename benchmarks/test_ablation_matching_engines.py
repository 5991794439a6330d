"""Ablation: the publication-matching engines.

The paper's §5 references a comparison with YFilter: the covering tree
wins on high-overlap, wildcard-heavy workloads (covered subtrees are
pruned), YFilter on low-match workloads (shared prefixes are cheap to
reject).  This ablation times the flat scan, the covering tree, the
YFilter NFA (``SharedPathNFA.match_set``) and the lazy-DFA shared
automaton on one workload, checks the engines agree, and reports the
automaton sizes (the mass-subscription scaling story is
``test_mass_matching.py``; this is the paper-sized workload).

Every engine keys an XPE by itself, so a match result is the set of
matching XPEs whichever engine produced it.
"""

import pytest

from repro.covering.subscription_tree import SubscriptionTree
from repro.matching.engine import LinearMatcher
from repro.matching.shared_automaton import SharedAutomatonMatcher
from repro.matching.yfilter import SharedPathNFA
from repro.dtd.samples import nitf_dtd
from repro.workloads.document_generator import generate_documents


@pytest.fixture(scope="module")
def workload(paper_sets):
    dataset_a, _ = paper_sets
    docs = generate_documents(nitf_dtd(), 10, seed=21, target_bytes=2048)
    paths = [p.path for doc in docs for p in doc.publications()]
    return list(dataset_a.exprs), paths


def _linear(exprs):
    engine = LinearMatcher()
    for expr in exprs:
        engine.add(expr, expr)
    return engine.match


def _tree(exprs):
    tree = SubscriptionTree()
    for expr in exprs:
        tree.insert(expr, expr)
    return tree.match_keys


def _nfa(exprs):
    nfa = SharedPathNFA()
    for expr in exprs:
        nfa.add(expr)
    return nfa


def _shared(exprs):
    engine = SharedAutomatonMatcher()
    for expr in exprs:
        engine.add(expr, expr)
    return engine


def _route_all(match, paths):
    return [match(path) for path in paths]


@pytest.mark.paper
def test_linear_scan(benchmark, workload):
    exprs, paths = workload
    match = _linear(exprs)
    benchmark.pedantic(lambda: _route_all(match, paths), rounds=1, iterations=1)


@pytest.mark.paper
def test_covering_tree(benchmark, workload):
    exprs, paths = workload
    match = _tree(exprs)
    benchmark.pedantic(lambda: _route_all(match, paths), rounds=1, iterations=1)


@pytest.mark.paper
def test_yfilter_nfa(benchmark, workload):
    exprs, paths = workload
    nfa = _nfa(exprs)
    benchmark.pedantic(
        lambda: _route_all(nfa.match_set, paths), rounds=1, iterations=1
    )
    print(
        "\nYFilter NFA: %d exprs -> %d automaton states"
        % (len(exprs), nfa.state_count())
    )


@pytest.mark.paper
def test_shared_automaton(benchmark, workload):
    exprs, paths = workload
    engine = _shared(exprs)
    engine.match(paths[0])  # warm the DFA start state
    benchmark.pedantic(
        lambda: _route_all(engine.match, paths), rounds=1, iterations=1
    )
    print(
        "\nshared automaton: %d exprs -> %d NFA states, %d cached DFA "
        "states, %d flushes"
        % (
            len(exprs),
            engine.automaton_size(),
            engine.dfa_size(),
            engine.dfa_flushes,
        )
    )


@pytest.mark.paper
def test_engines_agree(benchmark, workload):
    exprs, paths = workload
    matchers = [
        _linear(exprs),
        _tree(exprs),
        _nfa(exprs).match_set,
        _shared(exprs).match,
    ]

    def check():
        for path in paths[:40]:
            results = [match(path) for match in matchers]
            assert all(result == results[0] for result in results), path
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)
