"""Coins tested per row give the same BFS as coins tested per edge.

``expand`` takes a level's coins against ``p_row`` when every edge of a row
shares one probability. It must draw exactly the numbers the per-edge path
draws, in the same order, and keep the same edges; these checks compare
the two paths key for key and ``Generator`` state for state.
"""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.graphs import assign_probabilities, from_pandas
from repro.graphs.probability import SETTINGS
from repro.ic import expand
from repro.ic.forward import simulate_batch
from repro.ic.rr import rr_batch

N = 400


def _random_graph(setting: str, seed: int = 41):
    # 3n/2 random arcs over n vertices: many rows of degree 0.
    rng = np.random.default_rng(seed)
    edges = pd.DataFrame({
        "src": rng.integers(0, N, 3 * N // 2),
        "dst": rng.integers(0, N, 3 * N // 2),
    })
    return from_pandas(assign_probabilities(edges, setting), N)


def _star(setting: str):
    # Hub 0 → 50 leaves: forward from the hub and backward from a leaf, the
    # second level holds only rows of degree 0, so it examines no edge.
    leaves = np.arange(1, 51)
    edges = pd.DataFrame({"src": np.zeros(50, dtype=np.int64),
                          "dst": leaves})
    return from_pandas(assign_probabilities(edges, setting), 51)


def _directions(g):
    out = (g.out_indptr, g.out_dst, g.out_p, g.out_p_row)
    inn = (g.in_indptr, g.in_src, g.in_p, g.in_p_row)
    return [d for d in (out, inn) if d[3] is not None]


def _run(indptr, nbr, p, key, n, seed, p_row):
    rng = np.random.default_rng(seed)
    keys, edges = expand(indptr, nbr, p, key, n, rng, p_row=p_row)
    return keys, edges, rng.bit_generator.state


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("build", [_random_graph, _star])
def test_row_coins_match_edge_coins(setting, build):
    g = build(setting)
    rng = np.random.default_rng(42)
    batches = 64
    key = rng.integers(0, batches, 3 * batches) * g.n + rng.integers(
        0, g.n, 3 * batches
    )
    key[:batches] = np.arange(batches) * g.n  # every copy starts at vertex 0
    directions = _directions(g)
    assert directions
    for indptr, nbr, p, p_row in directions:
        for seed in range(3):
            row = _run(indptr, nbr, p, key, g.n, seed, p_row)
            edge = _run(indptr, nbr, p, key, g.n, seed, None)
            np.testing.assert_array_equal(row[0], edge[0])
            assert type(row[1]) is int and row[1] == edge[1]
            assert row[2] == edge[2]  # the same number of draws


@pytest.mark.parametrize("setting", SETTINGS)
def test_kernels_match_graph_without_row_p(setting):
    g = _random_graph(setting, seed=43)
    plain = dataclasses.replace(g, out_p_row=None, in_p_row=None)
    seeds = np.arange(0, N, 7, dtype=np.int64)
    for graph_seed in (44, 45):
        results = []
        for graph in (g, plain):
            rng = np.random.default_rng(graph_seed)
            sim = simulate_batch(graph, np.arange(len(seeds)), seeds,
                                 len(seeds), rng)
            rr = rr_batch(graph, seeds, rng)
            results.append((sim, rr, rng.bit_generator.state))
        (sim, rr, state), (sim0, rr0, state0) = results
        np.testing.assert_array_equal(sim.activated, sim0.activated)
        assert (sim.vertex_cost, sim.edge_cost) == (sim0.vertex_cost,
                                                    sim0.edge_cost)
        np.testing.assert_array_equal(rr.rr_id, rr0.rr_id)
        np.testing.assert_array_equal(rr.vertex, rr0.vertex)
        assert rr.edge_cost == rr0.edge_cost
        assert state == state0


def test_row_p_detected_per_direction():
    uc = _random_graph("UC_0.1")
    deg_out, deg_in = uc.out_degree(), uc.in_degree()
    np.testing.assert_array_equal(uc.out_p_row, np.where(deg_out, 0.1, 0.0))
    np.testing.assert_array_equal(uc.in_p_row, np.where(deg_in, 0.1, 0.0))

    iwc = _random_graph("IWC")
    assert iwc.out_p_row is None
    np.testing.assert_array_equal(iwc.in_p_row[deg_in > 0],
                                  1.0 / deg_in[deg_in > 0])

    owc = _random_graph("OWC")
    assert owc.in_p_row is None
    np.testing.assert_array_equal(owc.out_p_row[deg_out > 0],
                                  1.0 / deg_out[deg_out > 0])


@pytest.mark.parametrize("direction", ["out", "in"])
def test_one_ulp_off_row_is_not_row_constant(direction):
    rng = np.random.default_rng(46)
    edges = pd.DataFrame({"src": rng.integers(0, N, 3 * N // 2),
                          "dst": rng.integers(0, N, 3 * N // 2)})
    p = np.full(len(edges), 0.1)
    by, other = ("src", "dst") if direction == "out" else ("dst", "src")
    # An edge whose row (by `by`) has other edges, nudged by one ulp; its
    # row in the other direction has that edge alone, so stays constant.
    deg_by = edges.groupby(by)[by].transform("size").to_numpy()
    deg_other = edges.groupby(other)[other].transform("size").to_numpy()
    i = int(np.flatnonzero((deg_by > 1) & (deg_other == 1))[0])
    p[i] = np.nextafter(p[i], 1.0)
    g = from_pandas(edges.assign(p=p), N)
    nudged, kept = ((g.out_p_row, g.in_p_row) if direction == "out"
                    else (g.in_p_row, g.out_p_row))
    assert nudged is None
    assert kept is not None and kept[edges[other][i]] == p[i]
