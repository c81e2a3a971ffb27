"""Coins tested per row give the same BFS as coins tested per edge.

``expand`` takes a level's coins against ``p_row`` when every edge of a row
shares one probability, or against one scalar p when every edge does. It
must draw exactly the numbers the per-edge path draws, in the same order,
and keep the same edges; these checks compare the paths key for key and
``Generator`` state for state.
"""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.graphs import assign_probabilities, from_pandas
from repro.graphs.csr import Adjacency
from repro.graphs.probability import SETTINGS
from repro.ic import draw_hits, expand, reach
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
    return [d for d in (g.out, g.in_) if d.p_row is not None]


def _run(adj, key, seed):
    rng = np.random.default_rng(seed)
    keys, edges = expand(adj, key, rng)
    return keys, edges, rng.bit_generator.state


def _without_row_p(adj):
    return dataclasses.replace(adj, p_row=None)


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
    for adj in directions:
        for seed in range(3):
            row = _run(adj, key, seed)
            edge = _run(_without_row_p(adj), key, seed)
            np.testing.assert_array_equal(row[0], edge[0])
            assert type(row[1]) is int and row[1] == edge[1]
            assert row[2] == edge[2]  # the same number of draws


def _assert_same_kernels(g, g0, seeds, seed):
    # Forward reach then rr_batch on one Generator, for each graph.
    results = []
    for graph in (g, g0):
        rng = np.random.default_rng(seed)
        sim = reach(graph.out, np.arange(len(seeds)), seeds, len(seeds), rng)
        rr = rr_batch(graph, seeds, rng)
        results.append((sim, rr, rng.bit_generator.state))
    (sim, rr, state), (sim0, rr0, state0) = results
    np.testing.assert_array_equal(sim.counts, sim0.counts)
    assert (sim.vertex_cost, sim.edge_cost) == (sim0.vertex_cost,
                                                sim0.edge_cost)
    for a, b in zip(rr, rr0):  # rr_id, vertex, edge count
        np.testing.assert_array_equal(a, b)
    assert state == state0


@pytest.mark.parametrize("setting", SETTINGS)
def test_kernels_match_graph_without_row_p(setting):
    g = _random_graph(setting, seed=43)
    plain = dataclasses.replace(g, out=_without_row_p(g.out),
                                in_=_without_row_p(g.in_))
    seeds = np.arange(0, N, 7, dtype=np.int64)
    for graph_seed in (44, 45):
        _assert_same_kernels(g, plain, seeds, graph_seed)


def test_row_p_detected_per_direction():
    uc = _random_graph("UC_0.1")
    deg_out, deg_in = uc.out_degree(), uc.in_degree()
    assert type(uc.out.p_row) is float and uc.out.p_row == 0.1
    assert type(uc.in_.p_row) is float and uc.in_.p_row == 0.1

    iwc = _random_graph("IWC")
    assert iwc.out.p_row is None
    np.testing.assert_array_equal(iwc.in_.p_row[deg_in > 0],
                                  1.0 / deg_in[deg_in > 0])

    owc = _random_graph("OWC")
    assert owc.in_.p_row is None
    np.testing.assert_array_equal(owc.out.p_row[deg_out > 0],
                                  1.0 / deg_out[deg_out > 0])


def test_scalar_p_row_matches_array():
    # The float a UC graph carries and its per-row array form draw the
    # same coins against the same p.
    g = _random_graph("UC_0.1", seed=47)
    assert isinstance(g.out.p_row, float) and isinstance(g.in_.p_row, float)
    arrays = dataclasses.replace(
        g,
        out=dataclasses.replace(
            g.out, p_row=np.where(g.out_degree() > 0, g.out.p_row, 0.0)),
        in_=dataclasses.replace(
            g.in_, p_row=np.where(g.in_degree() > 0, g.in_.p_row, 0.0)),
    )
    seeds = np.arange(0, N, 5, dtype=np.int64)
    key = np.arange(len(seeds)) * N + seeds
    for seed in (48, 49):
        for adj, adj_arr in zip(
            _directions(g), _directions(arrays), strict=True
        ):
            scalar = _run(adj, key, seed)
            array = _run(adj_arr, key, seed)
            np.testing.assert_array_equal(scalar[0], array[0])
            assert scalar[1:] == array[1:]
        _assert_same_kernels(g, arrays, seeds, seed)


@pytest.mark.parametrize("form", ["float", "array"])
def test_blocked_draws_match_one_draw(form):
    # A hub's 200k out-edges are drawn in several blocks; the hits, the
    # edge count and the Generator state are those of one draw of 200k.
    m = 200_000
    p = 0.01 if form == "float" else np.random.default_rng(50).random(m)
    hits = draw_hits(np.random.default_rng(51), m, p)
    rng = np.random.default_rng(51)
    np.testing.assert_array_equal(hits, np.flatnonzero(rng.random(m) < p))
    indptr = np.array([0, m] + [m] * m)
    nbr = np.arange(1, m + 1)
    p_row = p if form == "float" else None
    p_edge = np.broadcast_to(p, m)
    got = np.random.default_rng(51)
    keys, edges = expand(Adjacency(indptr, nbr, p_edge, p_row),
                         np.zeros(1, np.int64), got)
    np.testing.assert_array_equal(keys, np.concatenate([[0], hits + 1]))
    assert edges == m
    assert got.bit_generator.state == rng.bit_generator.state


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
    nudged, kept = ((g.out.p_row, g.in_.p_row) if direction == "out"
                    else (g.in_.p_row, g.out.p_row))
    assert nudged is None
    assert isinstance(kept, np.ndarray) and kept[edges[other][i]] == p[i]
