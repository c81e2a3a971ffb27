"""Snapshot estimator (Algorithm 3.3): correctness and submodularity."""
import dataclasses
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.ic
from repro.algorithms import snapshot
from repro.algorithms.snapshot import SnapshotEstimator, reach_batch
from repro.graphs.csr import Adjacency
from repro.ic import reach
from tests.helpers import (
    exact_singleton_influences, graph_from_edges, path_graph, random_tiny_graph,
)


def _influence_estimate(est, seed_set):
    """Inf-hat(S) via telescoping marginals (the estimator is consistent:
    Σ marginal gains along any chain equals the set estimate)."""
    total = 0.0
    s = []
    for v in seed_set:
        vals = est.estimate_all(np.array(s, dtype=np.int64))
        total += vals[v]
        s.append(v)
    return total


def test_p1_estimates_exact():
    g = path_graph(4, p=1.0)
    est = SnapshotEstimator(g, 3, np.random.default_rng(0))
    vals = est.estimate_all(np.empty(0, dtype=np.int64))
    assert list(vals) == [4.0, 3.0, 2.0, 1.0]


def test_unbiased():
    rng = np.random.default_rng(1)
    g = random_tiny_graph(rng, n=6, m=9)
    exact = exact_singleton_influences(g)
    est = SnapshotEstimator(g, 4000, rng)
    vals = est.estimate_all(np.empty(0, dtype=np.int64))
    assert np.allclose(vals, exact, atol=0.15)


def test_sample_size_close_to_tau_m_tilde():
    g = path_graph(30, p=0.5)
    tau = 400
    est = SnapshotEstimator(g, tau, np.random.default_rng(2))
    expected = tau * g.m_tilde
    assert est.sample_size == pytest.approx(expected, rel=0.1)


def test_marginals_shrink_with_seed_set():
    # Monotonicity of coverage: marginal of v given S ≥ marginal given T ⊇ S.
    rng = np.random.default_rng(3)
    g = random_tiny_graph(rng, n=7, m=14)
    est = SnapshotEstimator(g, 200, rng)
    m_empty = est.estimate_all(np.empty(0, dtype=np.int64))
    m_after = est.estimate_all(np.array([0], dtype=np.int64))
    # Same fixed graphs → marginals can only shrink (submodularity).
    assert (m_after <= m_empty + 1e-9).all()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 10_000))
def test_submodular_property(u, v, seed):
    # f(S+x)-f(S) >= f(T+x)-f(T) with S={u} ⊆ T={u,v}: fixed live graphs
    # make the Snapshot estimator exactly submodular (§3.4.1).
    rng = np.random.default_rng(seed)
    g = random_tiny_graph(rng, n=7, m=12)
    est = SnapshotEstimator(g, 30, rng)
    S = np.array([u], dtype=np.int64)
    T = np.array(sorted({u, v}), dtype=np.int64)
    gain_s = est.estimate_all(S)
    gain_t = est.estimate_all(T)
    assert (gain_t <= gain_s + 1e-9).all()


def test_estimator_is_frozen_across_calls():
    # Same estimator, same query → identical values (graphs are fixed).
    g = path_graph(5, p=0.5)
    est = SnapshotEstimator(g, 50, np.random.default_rng(4))
    a = est.estimate_all(np.empty(0, dtype=np.int64))
    b = est.estimate_all(np.empty(0, dtype=np.int64))
    assert np.array_equal(a, b)


def test_costs_accumulate():
    g = path_graph(5, p=0.5)
    est = SnapshotEstimator(g, 10, np.random.default_rng(5))
    assert est.vertex_cost == 0  # Build is not charged scan cost
    est.estimate_all(np.empty(0, dtype=np.int64))
    assert est.vertex_cost > 0


def test_rejects_bad_tau():
    with pytest.raises(ValueError):
        SnapshotEstimator(path_graph(2), 0, np.random.default_rng(0))


def test_chunking_consistency():
    g = path_graph(6, p=1.0)
    rng1, rng2 = np.random.default_rng(6), np.random.default_rng(6)
    a = SnapshotEstimator(g, 7, rng1).estimate_all(np.empty(0, np.int64))
    with patch.object(repro.ic, "BATCH_CELLS", 13):
        b = SnapshotEstimator(g, 7, rng2).estimate_all(np.empty(0, np.int64))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seeds", [[], [4], [4, 0, 9]])
def test_reach_from_matches_per_candidate_reference(seeds):
    # The vectorised candidate batches equal one reach call per
    # (candidate, layer) pair, in values and in charged cost — with chunks
    # of 7 pairs that split a candidate's 5 layers, and candidates in S.
    rng = np.random.default_rng(21)
    g = random_tiny_graph(rng, n=12, m=30)
    tau = 5
    est = SnapshotEstimator(g, tau, rng)
    S = np.array(seeds, dtype=np.int64)
    layers = np.arange(tau)
    ref_cost = [0, 0]

    def ref_reach(seed_set):
        row = []
        for i in layers:
            res = reach(est.live.out, np.zeros(len(seed_set), np.int64),
                        i * g.n + np.asarray(seed_set, np.int64), 1)
            row.append(res.counts[0])
            ref_cost[0] += res.vertex_cost
            ref_cost[1] += res.edge_cost
        return row

    ref = np.array([ref_reach(np.append(S, v)) for v in range(g.n)])
    base = np.array(ref_reach(S)) if len(S) else np.zeros(tau, np.int64)

    with patch.object(repro.ic, "BATCH_CELLS", 7 * g.n):
        got = est.estimate_all(S)
        assert np.array_equal(got, (ref - base).mean(axis=1))
        assert [est.vertex_cost, est.edge_cost] == ref_cost
        assert (got[S] == 0).all()  # v ∈ S adds nothing
        assert np.array_equal(est._marginals(S), ref - base[None, :])


def _full_scan(est, S):
    """Alg 3.3 walked naively: one ``reach`` for r_i(S) per layer
    (when S is non-empty), then one from S + v per candidate v and layer i.
    Returns the r_i(S + v) matrix, the r_i(S) row and the [vertex, edge]
    cost of those scans."""
    cost = [0, 0]

    def scan(seeds, i):
        res = reach(est.live.out, np.zeros(len(seeds), np.int64),
                    i * est.graph.n + np.asarray(seeds, np.int64), 1)
        cost[0] += res.vertex_cost
        cost[1] += res.edge_cost
        return res.counts[0]

    layers = range(est.tau)
    base = np.array([scan(S, i) for i in layers] if len(S) else
                    np.zeros(est.tau, np.int64))
    ref = np.array([[scan(np.append(S, v), i) for i in layers]
                    for v in range(est.graph.n)])
    return ref, base, cost


def _cyclic_graph(rng, n, extra):
    """A directed cycle through every vertex plus ``extra`` random arcs."""
    arcs = {(v, (v + 1) % n) for v in range(n)}
    while len(arcs) < n + extra:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            arcs.add((u, v))
    return graph_from_edges(
        [(u, v, float(rng.uniform(0.3, 1.0))) for u, v in sorted(arcs)], n=n
    )


def _without_layer(live, i):
    """``live`` with every edge of layer i removed."""
    n = live.n
    lo, hi = live.out.indptr[i * n], live.out.indptr[(i + 1) * n]
    indptr = live.out.indptr.copy()
    indptr[i * n + 1 : (i + 1) * n + 1] = lo
    indptr[(i + 1) * n + 1 :] -= hi - lo
    return dataclasses.replace(
        live, out=Adjacency(indptr, np.delete(live.out.nbr, np.s_[lo:hi]))
    )


def _recorded_estimate(est, S):
    """``est.estimate_all(S)`` and the start rows of each ``reach_batch``
    call it made, in call order."""
    starts = []

    def recording(live, seed_b, seed_row, n_batches, blocked=None):
        starts.append(np.asarray(seed_row))
        return reach_batch(live, seed_b, seed_row, n_batches, blocked)

    with patch.object(snapshot, "reach_batch", recording):
        return est.estimate_all(S), starts


def _pruned_vs_full_scan(seed, n, size, tau, chunk):
    rng = np.random.default_rng(seed)
    g = _cyclic_graph(rng, n, extra=n // 2)
    est = SnapshotEstimator(g, tau, rng)
    est.live = _without_layer(est.live, int(rng.integers(tau)))
    S = rng.choice(n, size, replace=False).astype(np.int64)
    ref, base, cost = _full_scan(est, S)
    with patch.object(repro.ic, "BATCH_CELLS", chunk * n):
        got, starts = _recorded_estimate(est, S)
    assert np.array_equal(got, (ref - base).mean(axis=1))
    assert [est.vertex_cost, est.edge_cost] == cost
    if size:  # the first call is the base scan, from the rows i·n + s
        assert np.array_equal(starts.pop(0),
                              (np.arange(tau)[:, None] * n + S).ravel())
    walked = np.concatenate(starts) if starts else np.empty(0, np.int64)
    assert (np.diff(est.live.out.indptr)[walked] > 0).all()  # no sink walks
    return S, ref, base, walked


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(5, 9), st.sampled_from([1, 2, 4]),
       st.integers(1, 6), st.integers(1, 8))
def test_pruned_estimate_matches_full_scan(seed, n, size, tau, chunk):
    # Cyclic graphs, one layer without live edges, chunks of `chunk` pairs.
    _pruned_vs_full_scan(seed, n, size, tau, chunk)


@pytest.mark.parametrize("size", [1, 2, 4])
def test_pruned_estimate_covers_every_case(size):
    # A fixed instance that holds each case the pruning distinguishes:
    # v ∈ S, v ∈ R_i(S) \ S, v ∉ R_i(S), an edgeless layer, and chunks of
    # 5 pairs that split a candidate's 4 layers.
    S, ref, base, _ = _pruned_vs_full_scan(7, 8, size, 4, 5)
    in_reach = ref == base[None, :]  # r_i(S + v) = r_i(S) ⇔ v ∈ R_i(S)
    outside_s = np.ones(len(ref), dtype=bool)
    outside_s[S] = False
    assert in_reach[S].all()
    assert in_reach[outside_s].any() and not in_reach.all()
    assert (base == size).any()  # the edgeless layer: R_i(S) = S


@pytest.mark.parametrize("size", [0, 1, 4])
def test_sinks_run_no_bfs(size):
    # Rows outside R_i(S) without a live out-edge get marginal 1 and the
    # charge of 1 vertex and 0 edges with no BFS; the rest still walk. The
    # helper checks values and counters against the full scan, and that no
    # walk starts at a sink.
    S, ref, base, walked = _pruned_vs_full_scan(3, 9, size, 4, 3)
    outside = (ref > base[None, :]).sum()  # pairs (v, i) with v ∉ R_i(S)
    assert 0 < len(walked) < outside  # some walked, some sinks skipped


def test_all_sink_layers_run_only_the_base_scan():
    # Every live graph edgeless: S empty runs no BFS at all, S non-empty
    # only the base scan.
    rng = np.random.default_rng(12)
    n, tau = 6, 3
    est = SnapshotEstimator(_cyclic_graph(rng, n, extra=3), tau, rng)
    for i in range(tau):
        est.live = _without_layer(est.live, i)
    got, starts = _recorded_estimate(est, np.empty(0, np.int64))
    assert np.array_equal(got, np.ones(n))
    assert [est.vertex_cost, est.edge_cost] == [tau * n, 0]
    assert starts == []

    est.vertex_cost = est.edge_cost = 0
    S = np.array([4, 1], dtype=np.int64)
    ref, base, cost = _full_scan(est, S)
    got, starts = _recorded_estimate(est, S)
    assert np.array_equal(got, (ref - base).mean(axis=1))
    assert [est.vertex_cost, est.edge_cost] == cost
    assert len(starts) == 1
