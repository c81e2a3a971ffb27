"""Reverse-reachable set generation: correctness, unbiasedness, costs."""
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

import repro.ic
from repro.experiments import rr_oracle
from repro.graphs import assign_probabilities, build_network_pandas, from_pandas
from repro.ic.rr import random_targets, rr_batch, rr_sets
from tests.helpers import (
    exact_influence, graph_from_edges, path_graph, random_tiny_graph,
    ref_rr_set, rr_membership, rr_sizes_weights,
)


class TestDeterministic:
    def test_p1_path_ancestors(self):
        g = path_graph(4, p=1.0)
        rr_id, vertex, _ = rr_batch(g, np.array([3]), np.random.default_rng(0))
        sizes, weights = rr_sizes_weights(g, rr_id, vertex, 1)
        assert sorted(vertex.tolist()) == [0, 1, 2, 3]
        assert sizes[0] == 4
        # w(R) = Σ d⁻ over members = 1+1+1+0 (vertex 0 has no in-edge).
        assert weights[0] == 3

    def test_target_always_member(self):
        rng = np.random.default_rng(1)
        g = random_tiny_graph(rng, n=6, m=8)
        rr_id, vertex, _ = rr_batch(g, np.arange(6, dtype=np.int64), rng)
        for i in range(6):
            assert i in set(vertex[rr_id == i])

    def test_tiny_p_singleton(self):
        g = path_graph(3, p=1e-12)
        rr_id, vertex, _ = rr_batch(g, np.array([2]), np.random.default_rng(0))
        sizes, weights = rr_sizes_weights(g, rr_id, vertex, 1)
        assert sizes[0] == 1
        assert weights[0] == 1  # d⁻(2) = 1 examined


class TestUnbiasedness:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_membership_probability(self, seed):
        # Pr[v ∈ R] = Inf(v)/n for a random-target RR set (Observation 3.2
        # applied to S = {v}).
        rng = np.random.default_rng(seed)
        g = random_tiny_graph(rng, n=5, m=7)
        theta = 30_000
        res = rr_sets(g, theta, rng)
        counts = np.diff(res.vert_indptr)
        for v in range(g.n):
            inf_v = exact_influence(g, [v])
            est = g.n * counts[v] / theta
            assert est == pytest.approx(inf_v, abs=0.12), v

    def test_seed_set_coverage(self):
        rng = np.random.default_rng(2)
        g = random_tiny_graph(rng, n=5, m=7)
        S = [0, 3]
        inf_s = exact_influence(g, S)
        theta = 30_000
        rr_id, vertex = rr_membership(rr_sets(g, theta, rng))
        member = np.isin(vertex, S)
        covered = len(np.unique(rr_id[member]))
        assert g.n * covered / theta == pytest.approx(inf_s, abs=0.12)

    def test_expected_size_is_ept(self):
        rng = np.random.default_rng(3)
        g = random_tiny_graph(rng, n=5, m=7)
        ept = sum(exact_influence(g, [v]) for v in range(g.n)) / g.n
        rr_id, vertex = rr_membership(rr_sets(g, 20_000, rng))
        sizes, _ = rr_sizes_weights(g, rr_id, vertex, 20_000)
        assert sizes.mean() == pytest.approx(ept, abs=0.08)

    def test_matches_reference_sizes(self):
        rng = np.random.default_rng(4)
        g = random_tiny_graph(rng, n=7, m=12)
        T = 4000
        rr_id, vertex, _ = rr_batch(g, np.full(T, 4, dtype=np.int64), rng)
        sizes, _ = rr_sizes_weights(g, rr_id, vertex, T)
        ref = np.array(
            [
                len(ref_rr_set(g, 4, np.random.default_rng(50_000 + t)))
                for t in range(T)
            ]
        )
        se = np.sqrt(sizes.var() / T + ref.var() / T)
        assert abs(sizes.mean() - ref.mean()) < max(5 * se, 0.05)


class TestCosts:
    def test_weights_are_indegree_sums(self):
        rng = np.random.default_rng(5)
        g = random_tiny_graph(rng, n=8, m=14)
        rr_id, vertex, edges = rr_batch(g, random_targets(g.n, 200, rng), rng)
        sizes, weights = rr_sizes_weights(g, rr_id, vertex, 200)
        indeg = g.in_degree()
        for i in range(200):
            members = vertex[rr_id == i]
            assert weights[i] == indeg[members].sum()
        assert len(vertex) == sizes.sum()
        assert edges == weights.sum()

    def test_chunked_generation_counts(self):
        g = path_graph(4, p=0.5)
        with patch.object(repro.ic, "BATCH_CELLS", 64):
            res = rr_sets(g, 1000, np.random.default_rng(6))
        rr_id, vertex = rr_membership(res)
        sizes, weights = rr_sizes_weights(g, rr_id, vertex, 1000)
        assert len(sizes) == 1000
        assert res.rr_ids.max() == 999 or 999 in res.rr_ids
        assert res.vertex_cost == sizes.sum()
        assert res.edge_cost == weights.sum()


class _NoDraws:
    """A generator that fails the test on its first draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


class TestIdRange:
    @pytest.mark.parametrize("build", ["rr_sets", "build_oracle_local"])
    def test_theta_beyond_int32_draws_nothing(self, build, monkeypatch):
        # RR ids are stored as int32: θ = 2³¹ is refused before any target
        # or coin is drawn and before anything θ-sized is allocated.
        g = from_pandas(
            assign_probabilities(build_network_pandas("Karate"), "UC_0.1")
        )
        monkeypatch.setattr(rr_oracle, "trial_rng", lambda *a: _NoDraws())
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2\\*\\*31"):
                if build == "rr_sets":
                    rr_sets(g, 2**31, _NoDraws())
                else:
                    rr_oracle.build_oracle_local(g, 2**31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestRandomTargets:
    def test_uniform(self):
        rng = np.random.default_rng(7)
        t = random_targets(10, 50_000, rng)
        counts = np.bincount(t, minlength=10)
        assert counts.min() > 4000
