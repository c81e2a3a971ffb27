"""Memory of the batched kernels follows the keys visited, not B·n.

A dense visited bitmap over B disjoint graph copies costs B·n bytes —
about 100 MB for 2048 sets on a 50k-vertex graph — even when each set
visits a handful of vertices. These checks bound the peak allocation of
one kernel call on such a sparse instance, and, on a hub whose 200k edges
share p = 0.01, the bytes per examined edge of a coin level: failed coins
need no per-edge index arrays. Snapshot's Estimate at |S| > 0 holds
R_i(S) once, as a mask over the live rows, rather than in every
candidate's traversal. Snapshot's Build draws its τ·m coins one live graph
at a time, so its peak follows the τ·n rows and τ·m̃ live edges it returns,
not a (τ, m) block of draws.
"""
import tracemalloc

import numpy as np
import pandas as pd
import pytest

from repro.algorithms.snapshot import SnapshotEstimator, sample_live_set
from repro.graphs import generators
from repro.graphs.csr import from_pandas
from repro.ic import reach
from repro.ic.rr import random_targets, rr_batch

N = 50_000
BATCH = 2048
LIMIT = 10 << 20  # bytes; B·n = 2048 · 50k ≈ 100 MB


@pytest.fixture(scope="module")
def sparse_graph():
    rng = np.random.default_rng(31)
    src = rng.integers(0, N, 3 * N)
    dst = rng.integers(0, N, 3 * N)
    return from_pandas(pd.DataFrame({"src": src, "dst": dst, "p": 0.05}), N)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rr_batch_peak_memory(sparse_graph):
    rng = np.random.default_rng(32)
    targets = random_targets(N, BATCH, rng)
    res = None

    def run():
        nonlocal res
        res = rr_batch(sparse_graph, targets, rng)

    assert _peak_bytes(run) < LIMIT
    sizes = np.bincount(res[0], minlength=BATCH)
    assert sizes.min() >= 1 and len(sizes) == BATCH


def test_reach_batch_peak_memory(sparse_graph):
    rng = np.random.default_rng(33)
    live = sample_live_set(sparse_graph, 4, rng)
    rows = np.arange(BATCH) % 4 * N + rng.integers(0, N, BATCH)
    res = None

    def run():
        nonlocal res
        res = reach(live.out, np.arange(BATCH), rows, BATCH)

    assert _peak_bytes(run) < LIMIT
    assert res.counts.min() >= 1 and len(res.counts) == BATCH


BUILD_TAU = 64
BUILD_LIMIT = 70 << 20  # bytes; one (τ, m) float64 draw alone is 73 MB


def test_snapshot_build_peak_memory(sparse_graph):
    rng = np.random.default_rng(37)
    live = None

    def run():
        nonlocal live
        live = sample_live_set(sparse_graph, BUILD_TAU, rng)

    assert _peak_bytes(run) < BUILD_LIMIT
    assert live.tau == BUILD_TAU
    assert len(live.out.indptr) == BUILD_TAU * N + 1


SNAPSHOT_LIMIT = 16 << 20  # bytes; τ·n candidate scans of R_i(S) ≈ 200 MB


def test_snapshot_estimate_peak_memory():
    # BA_s (n = 1000, M = 1) IWC, τ = 64, S = the four best singletons.
    edges = generators.barabasi_albert(1000, 1, seed=46)
    p = 1.0 / edges.groupby("dst")["dst"].transform("size")
    g = from_pandas(edges.assign(p=p), 1000)
    est = SnapshotEstimator(g, 64, np.random.default_rng(36))
    seeds = np.argsort(est.estimate_all(np.empty(0, np.int64)))[-4:]
    vals = None

    def run():
        nonlocal vals
        vals = est.estimate_all(seeds)

    assert _peak_bytes(run) < SNAPSHOT_LIMIT
    assert (vals[seeds] == 0).all() and vals.max() > 0


STAR_EDGES = 200_000
BYTES_PER_EDGE = 24  # per-edge int64 index and owner arrays cost ~33


def _star(outward: bool):
    """One hub joined to 200k leaves at p = 0.01, hub → leaf or leaf → hub."""
    hub = np.zeros(STAR_EDGES, dtype=np.int64)
    leaf = np.arange(1, STAR_EDGES + 1, dtype=np.int64)
    src, dst = (hub, leaf) if outward else (leaf, hub)
    return from_pandas(
        pd.DataFrame({"src": src, "dst": dst, "p": 0.01}), STAR_EDGES + 1
    )


def test_simulate_batch_coin_memory_per_edge():
    g = _star(outward=True)
    rng = np.random.default_rng(34)
    res = None

    def run():
        nonlocal res
        res = reach(g.out, np.zeros(1, np.int64), np.zeros(1, np.int64), 1,
                    rng)

    peak = _peak_bytes(run)
    assert res.edge_cost == STAR_EDGES
    assert peak < BYTES_PER_EDGE * STAR_EDGES


def test_rr_batch_coin_memory_per_edge():
    g = _star(outward=False)
    rng = np.random.default_rng(35)
    res = None

    def run():
        nonlocal res
        res = rr_batch(g, np.zeros(1, np.int64), rng)

    peak = _peak_bytes(run)
    assert res[2] == STAR_EDGES
    assert peak < BYTES_PER_EDGE * STAR_EDGES
