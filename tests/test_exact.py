"""Exact influence oracle: closed-form cases."""
import numpy as np
import pytest

from tests.helpers import (
    exact_influence, exact_singleton_influences, graph_from_edges, path_graph,
    star_graph,
)


def test_single_vertex_no_edges():
    g = graph_from_edges([(0, 1, 0.5)], n=3)
    assert exact_influence(g, [2]) == pytest.approx(1.0)


def test_one_edge():
    g = graph_from_edges([(0, 1, 0.3)], n=2)
    assert exact_influence(g, [0]) == pytest.approx(1.3)
    assert exact_influence(g, [1]) == pytest.approx(1.0)


def test_path_geometric():
    # Inf(0) on a path with uniform p: 1 + p + p² + ... + p^{k-1}.
    p = 0.4
    g = path_graph(4, p=p)
    assert exact_influence(g, [0]) == pytest.approx(1 + p + p**2 + p**3)


def test_star():
    g = star_graph(3, p=0.5)
    assert exact_influence(g, [0]) == pytest.approx(1 + 3 * 0.5)


def test_two_parallel_paths():
    # 0→2 via two disjoint 1-hop routes: Pr[2 active] = 1-(1-p)².
    p = 0.5
    g = graph_from_edges(
        [(0, 1, p), (1, 2, p), (0, 3, p), (3, 2, p)], n=4
    )
    pr2 = 1 - (1 - p * p) ** 2
    assert exact_influence(g, [0]) == pytest.approx(1 + 2 * p + pr2)


def test_seed_set_union():
    g = path_graph(3, p=0.5)
    # Seeds {0, 2}: 2 always active; 1 with prob 0.5.
    assert exact_influence(g, [0, 2]) == pytest.approx(2.5)


def test_monotone_in_probability():
    lo = exact_influence(path_graph(4, p=0.2), [0])
    hi = exact_influence(path_graph(4, p=0.8), [0])
    assert hi > lo


def test_singletons():
    g = path_graph(3, p=0.5)
    vals = exact_singleton_influences(g)
    assert vals == pytest.approx([1.75, 1.5, 1.0])


def test_rejects_large():
    g = path_graph(20, p=0.5)
    with pytest.raises(ValueError):
        exact_influence(g, [0])


def test_submodular_on_exact():
    # f(S+v) - f(S) >= f(T+v) - f(T) for S ⊆ T on a tiny graph.
    rng = np.random.default_rng(0)
    from tests.helpers import random_tiny_graph

    g = random_tiny_graph(rng, n=5, m=7)
    f = lambda s: exact_influence(g, s) if s else 0.0
    S, T, v = [0], [0, 1], 2
    assert f(S + [v]) - f(S) >= f(T + [v]) - f(T) - 1e-9
