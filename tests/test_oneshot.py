"""Oneshot estimator (Algorithm 3.2)."""
import numpy as np
import pytest

from repro.algorithms.oneshot import OneshotEstimator
from tests.helpers import (
    exact_singleton_influences, path_graph, random_tiny_graph,
)


def test_estimates_unbiased():
    rng = np.random.default_rng(0)
    g = random_tiny_graph(rng, n=6, m=9)
    exact = exact_singleton_influences(g)
    est = OneshotEstimator(g, 4000, rng)
    vals = est.estimate_all(np.empty(0, dtype=np.int64))
    assert np.allclose(vals, exact, atol=0.15)


def test_deterministic_graph_exact():
    g = path_graph(4, p=1.0)
    est = OneshotEstimator(g, 2, np.random.default_rng(0))
    vals = est.estimate_all(np.empty(0, dtype=np.int64))
    assert list(vals) == [4.0, 3.0, 2.0, 1.0]


def test_sample_size_zero():
    g = path_graph(3, p=0.5)
    est = OneshotEstimator(g, 10, np.random.default_rng(0))
    est.estimate_all(np.empty(0, dtype=np.int64))
    assert est.sample_size == 0  # §3.3.2: Oneshot stores nothing


def test_costs_accumulate_across_calls():
    g = path_graph(3, p=1.0)
    est = OneshotEstimator(g, 1, np.random.default_rng(0))
    est.estimate_all(np.empty(0, dtype=np.int64))
    c1 = est.vertex_cost
    est.estimate_all(np.array([0]))
    assert est.vertex_cost > c1


def test_cost_scales_with_beta():
    g = path_graph(4, p=1.0)
    e1 = OneshotEstimator(g, 1, np.random.default_rng(0))
    e4 = OneshotEstimator(g, 4, np.random.default_rng(0))
    e1.estimate_all(np.empty(0, dtype=np.int64))
    e4.estimate_all(np.empty(0, dtype=np.int64))
    assert e4.vertex_cost == 4 * e1.vertex_cost
    assert e4.edge_cost == 4 * e1.edge_cost


def test_marginal_with_base_seeds():
    g = path_graph(3, p=1.0)
    est = OneshotEstimator(g, 3, np.random.default_rng(0))
    vals = est.estimate_all(np.array([0]))
    # Estimate returns Inf(S + v): always 3 on a deterministic path from 0.
    assert list(vals) == [3.0, 3.0, 3.0]


def test_rejects_bad_beta():
    with pytest.raises(ValueError):
        OneshotEstimator(path_graph(2), 0, np.random.default_rng(0))


def test_update_noop():
    g = path_graph(3, p=0.5)
    est = OneshotEstimator(g, 5, np.random.default_rng(0))
    v0 = est.vertex_cost
    est.update(1)
    assert est.vertex_cost == v0
