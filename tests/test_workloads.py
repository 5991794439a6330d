"""Unit tests for the workload generators."""

import random

import pytest

from repro.covering.pathmatch import matches_path
from repro.covering.algorithms import covers
from repro.dtd import nitf_dtd, psd_dtd, parse_dtd
from repro.errors import WorkloadError
from repro.workloads import (
    XPathWorkloadParams,
    covering_rate,
    covering_workload,
    generate_documents,
    generate_queries,
    pump_path,
    sample_dtd_path,
    set_a,
    set_b,
)
from repro.workloads.datasets import psd_queries


class TestSampleDtdPath:
    def test_paths_are_legal(self):
        dtd = psd_dtd()
        graph = dtd.child_map()
        rng = random.Random(1)
        for _ in range(50):
            path = sample_dtd_path(dtd, rng)
            assert path[0] == dtd.root
            for parent, child in zip(path, path[1:]):
                assert child in graph[parent]

    def test_respects_depth_bound(self):
        rng = random.Random(2)
        for _ in range(50):
            assert len(sample_dtd_path(nitf_dtd(), rng, max_depth=6)) <= 6

    def test_occurrence_discipline(self):
        rng = random.Random(3)
        for _ in range(50):
            path = sample_dtd_path(nitf_dtd(), rng)
            for name in set(path):
                assert path.count(name) <= 2

    def test_ends_at_leaf_capable_element(self):
        dtd = psd_dtd()
        rng = random.Random(4)
        for _ in range(50):
            path = sample_dtd_path(dtd, rng)
            assert dtd.declaration(path[-1]).can_be_leaf() or not dtd.child_map()[path[-1]]


class TestPumpPath:
    def test_pump_inserts_cycle_unit(self):
        rng = random.Random(5)
        path = ("r", "x", "y", "x", "z")
        pumped = {pump_path(path, rng, max_depth=9, pump_prob=1.0) for _ in range(50)}
        assert path in pumped  # zero extra repetitions possible
        assert any(len(p) > len(path) for p in pumped)
        for p in pumped:
            assert len(p) <= 9

    def test_non_recursive_path_unchanged(self):
        rng = random.Random(6)
        path = ("r", "a", "b")
        assert pump_path(path, rng, pump_prob=1.0) == path

    def test_pump_prob_zero_is_identity(self):
        rng = random.Random(7)
        path = ("r", "x", "x")
        assert pump_path(path, rng, pump_prob=0.0) == path


class TestQueryGenerator:
    def test_distinct_by_default(self):
        queries = generate_queries(psd_dtd(), 100, seed=1)
        assert len(set(queries)) == 100

    def test_deterministic_for_seed(self):
        a = generate_queries(psd_dtd(), 50, seed=9)
        b = generate_queries(psd_dtd(), 50, seed=9)
        assert a == b

    def test_respects_max_length(self):
        params = XPathWorkloadParams(max_length=4)
        for query in generate_queries(psd_dtd(), 50, params=params, seed=2):
            assert len(query) <= 4

    def test_queries_match_some_dtd_path(self):
        """By construction each query should match at least one legal
        (possibly pumped) path of the DTD."""
        dtd = psd_dtd()
        from repro.dtd.paths import enumerate_paths

        universe = enumerate_paths(dtd, max_depth=12)
        queries = generate_queries(dtd, 60, seed=3)
        for query in queries:
            assert any(matches_path(query, path) for path in universe), query

    def test_bad_params_rejected(self):
        with pytest.raises(WorkloadError):
            XPathWorkloadParams(wildcard_prob=1.5)
        with pytest.raises(WorkloadError):
            XPathWorkloadParams(min_length=5, max_length=3)

    def test_impossible_distinct_count_raises(self):
        tiny = parse_dtd("<!ELEMENT r (a)><!ELEMENT a EMPTY>")
        params = XPathWorkloadParams(
            wildcard_prob=0.0, descendant_prob=0.0, relative_prob=0.0
        )
        with pytest.raises(WorkloadError):
            generate_queries(tiny, 50, params=params, seed=1)


class TestDocumentGenerator:
    def test_size_targeting(self):
        docs = generate_documents(psd_dtd(), 5, seed=1, target_bytes=4096)
        for doc in docs:
            assert 2048 <= doc.size_bytes() <= 8192

    def test_depth_bound(self):
        docs = generate_documents(nitf_dtd(), 5, seed=2, max_depth=10)
        for doc in docs:
            assert doc.depth() <= 10

    def test_paths_conform_to_dtd(self):
        dtd = psd_dtd()
        graph = dtd.child_map()
        for doc in generate_documents(dtd, 3, seed=3):
            for path in doc.paths():
                assert path[0] == dtd.root
                for parent, child in zip(path, path[1:]):
                    assert child in graph[parent]

    def test_publications_covered_by_advertisements(self):
        """System invariant: every generated publication intersects the
        publisher's advertisement set (otherwise routing breaks)."""
        from repro.adverts import generate_advertisements
        from repro.adverts.nfa import expr_and_advert_nfa
        from repro.xpath import XPathExpr

        dtd = nitf_dtd()
        adverts = generate_advertisements(dtd)
        for doc in generate_documents(dtd, 3, seed=4):
            for path in doc.paths():
                expr = XPathExpr.from_tests(path)
                assert any(
                    expr_and_advert_nfa(advert, expr) for advert in adverts
                ), path

    def test_distinct_doc_ids(self):
        docs = generate_documents(psd_dtd(), 4, seed=5, doc_prefix="t")
        assert len({d.doc_id for d in docs}) == 4


class TestDatasets:
    def test_set_a_covering_rate(self):
        dataset = set_a(400)
        rate = covering_rate(list(dataset.exprs))
        assert 0.85 <= rate <= 0.95

    def test_set_b_covering_rate(self):
        dataset = set_b(400)
        rate = covering_rate(list(dataset.exprs))
        assert 0.45 <= rate <= 0.60

    def test_sets_are_distinct_queries(self):
        dataset = set_a(300)
        assert len(set(dataset.exprs)) == 300

    def test_companions_covered_by_construction(self):
        """Every non-base query must be covered by some query in the
        set (the construction guarantees its base covers it)."""
        dataset = set_b(200)
        exprs = list(dataset.exprs)
        from repro.covering.subscription_tree import SubscriptionTree

        tree = SubscriptionTree()
        for i, expr in enumerate(exprs):
            tree.insert(expr, i)
        # Measured covered fraction equals the target by construction.
        assert tree.top_level_size() == round(len(exprs) * 0.5)

    def test_psd_queries_all_absolute_or_relative_parse(self):
        dataset = psd_queries(100, seed=6)
        assert len(dataset.exprs) == 100

    def test_bad_target_rate(self):
        with pytest.raises(WorkloadError):
            covering_workload(psd_dtd(), 10, target_rate=1.0)


class TestMassStream:
    """The mass generator's seeded stream is pinned: `mass7_sim` builds
    its subscriptions through it, so a change to the draws it makes
    changes the benchmark's workload."""

    @staticmethod
    def digest(params):
        import hashlib

        from repro.workloads.mass import generate_mass_subscriptions

        pairs = generate_mass_subscriptions(200, params, seed=7)
        text = "\n".join("%s %s" % (expr, key) for expr, key in pairs)
        return hashlib.sha256(text.encode()).hexdigest()

    def test_mass7_sim_parameters(self):
        from repro.workloads.mass import MassWorkloadParams

        params = MassWorkloadParams(
            vocabulary=tuple("e%03d" % index for index in range(60)),
            skew=0.3,
            max_depth=5,
            wildcard_prob=0.0,
            relative_prob=0.0,
            descendant_prob=0.5,
        )
        assert self.digest(params) == (
            "05f4b0f06b868190a12b1ad0dd4f006fdf01e88b30b820f8853e0941d3741f93"
        )

    def test_default_parameters(self):
        from repro.workloads.mass import MassWorkloadParams

        assert self.digest(MassWorkloadParams()) == (
            "3f84ae30da2f6ca9167186279184566b7e98f855568c0155d71db901fbfc6c27"
        )
