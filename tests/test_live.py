"""Live-edge sampling + reachability over the τ stacked live graphs
(Snapshot primitives)."""
import numpy as np
import pandas as pd
import pytest

from repro.algorithms.snapshot import sample_live_set
from repro.graphs import assign_probabilities, from_pandas
from repro.ic import expand, reach
from tests.helpers import (
    graph_from_edges,
    path_graph,
    random_tiny_graph,
    ref_live_layers,
    ref_reachable,
)


class TestSampleLive:
    def test_p1_keeps_all(self):
        g = path_graph(5, p=1.0)
        live = sample_live_set(g, 1, np.random.default_rng(0))
        assert len(live.out.nbr) == 4
        assert list(live.out.indptr) == list(g.out.indptr)

    def test_edge_keep_rate(self):
        g = graph_from_edges([(0, 1, 0.3)] * 1, n=2)
        rng = np.random.default_rng(0)
        kept = sum(
            len(sample_live_set(g, 1, rng).out.nbr) for _ in range(5000)
        )
        assert kept / 5000 == pytest.approx(0.3, abs=0.03)

    def test_live_edges_subset(self):
        rng = np.random.default_rng(1)
        g = random_tiny_graph(rng, n=8, m=16)
        live = sample_live_set(g, 1, rng)
        for v in range(g.n):
            full = set(g.out.nbr[g.out.indptr[v]:g.out.indptr[v + 1]])
            kept = set(live.out.nbr[live.out.indptr[v]:live.out.indptr[v + 1]])
            assert kept <= full


def _graph(setting: str, n: int, m: int, seed: int = 7):
    # m random arcs over n vertices: with m < n many rows are empty.
    rng = np.random.default_rng(seed)
    edges = pd.DataFrame({"src": rng.integers(0, n, m),
                          "dst": rng.integers(0, n, m)})
    return from_pandas(assign_probabilities(edges, setting), n)


@pytest.mark.parametrize("tau", [1, 3, 17])
@pytest.mark.parametrize("setting,n,m", [
    ("UC_0.1", 60, 40), ("IWC", 60, 40), ("OWC", 60, 40),
    ("IWC", 30, 90),  # denser, few empty rows
    ("UC_0.1", 5, 0),  # edgeless
])
def test_build_matches_per_layer_loop(setting, n, m, tau):
    g = _graph(setting, n, m)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    live = sample_live_set(g, tau, rng)
    indptr, dst = ref_live_layers(g, tau, ref_rng)
    for got, want in ((live.out.indptr, indptr), (live.out.nbr, dst)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _layer_live_edges(ls) -> np.ndarray:
    return np.diff(ls.out.indptr).reshape(ls.tau, ls.n).sum(axis=1)


class TestLiveGraphSet:
    def test_layers_independent(self):
        g = graph_from_edges([(0, 1, 0.5)], n=2)
        ls = sample_live_set(g, 400, np.random.default_rng(0))
        per_layer = _layer_live_edges(ls)
        assert per_layer.sum() == len(ls.out.nbr)
        assert 0.4 < per_layer.mean() < 0.6  # ~Bernoulli(0.5) per layer

    def test_p1_layer_structure(self):
        g = path_graph(3, p=1.0)
        ls = sample_live_set(g, 3, np.random.default_rng(0))
        assert len(ls.out.nbr) == 6
        assert list(_layer_live_edges(ls)) == [2, 2, 2]


class TestReachBatch:
    def test_matches_reference_per_layer(self):
        rng = np.random.default_rng(2)
        g = random_tiny_graph(rng, n=9, m=20)
        tau = 5
        ls = sample_live_set(g, tau, rng)
        # Query r(v) for every vertex on every layer; compare with a
        # reference BFS over the same live edges.
        B = g.n * tau
        res = reach(ls.out, np.arange(B), np.arange(B), B)
        for i in range(tau):
            # Rebuild layer i's live edge indices against the base graph.
            live_pairs = set()
            for v in range(g.n):
                for e in range(ls.out.indptr[i * g.n + v],
                               ls.out.indptr[i * g.n + v + 1]):
                    live_pairs.add((v, int(ls.out.nbr[e] % g.n)))
            src = np.repeat(np.arange(g.n), g.out_degree())
            eidx = [
                e for e in range(g.m)
                if (int(src[e]), int(g.out.nbr[e])) in live_pairs
            ]
            for v in range(g.n):
                expect = len(ref_reachable(g, np.array(eidx), [v]))
                got = res.counts[i * g.n + v]
                assert got == expect, (i, v)

    def test_cost_identities_p1(self):
        g = path_graph(4, p=1.0)
        ls = sample_live_set(g, 1, np.random.default_rng(0))
        res = reach(ls.out, np.arange(4), np.arange(4), 4)
        # Reach sizes 4,3,2,1; vertex cost = Σ reach = 10; edge cost = Σ
        # out-degrees of reached vertices = 3+2+1+0... per source: 3,2,1,0.
        assert list(res.counts) == [4, 3, 2, 1]
        assert res.vertex_cost == 10
        assert res.edge_cost == 6

    def test_multi_seed_union(self):
        g = graph_from_edges([(0, 1, 1.0), (2, 3, 1.0)], n=4)
        ls = sample_live_set(g, 1, np.random.default_rng(0))
        res = reach(ls.out, np.zeros(2, np.int64), np.array([0, 2]), 1)
        assert res.counts[0] == 4


class TestBlocked:
    def test_blocked_row_counts_as_visited(self):
        # 0 → 1 → 2 with row 1 blocked: BFS from 0 stops at 0, but the
        # edge 0 → 1 is still examined.
        ls = sample_live_set(path_graph(3, p=1.0), 1, np.random.default_rng(0))
        blocked = np.array([False, True, False])
        keys, edges = expand(ls.out, np.array([0]), blocked=blocked)
        assert list(keys) == [0] and edges == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_bfs(self, seed):
        # Random blocked rows on the stacked live graphs, batch entries
        # started in graphs out of order: no blocked row is ever returned,
        # blocked rows are never expanded, and every returned row's live
        # edges count. Keys are b·τn + row, row = i·n + v.
        rng = np.random.default_rng(seed)
        g = random_tiny_graph(rng, n=9, m=24)
        tau, B = 4, 12
        rows = tau * g.n
        ls = sample_live_set(g, tau, rng)
        blocked = rng.random(rows) < 0.3
        start = rng.integers(0, tau, B) * g.n + rng.integers(0, g.n, B)
        keys, edges = expand(ls.out, np.arange(B) * rows + start,
                             blocked=blocked)
        expect, expect_edges = set(), 0
        for b in range(B):
            seen, stack = {int(start[b])}, [int(start[b])]
            while stack:
                u = stack.pop()
                nbrs = ls.out.nbr[ls.out.indptr[u] : ls.out.indptr[u + 1]]
                expect_edges += len(nbrs)
                for w in nbrs:
                    if int(w) not in seen and not blocked[w]:
                        seen.add(int(w))
                        stack.append(int(w))
            expect |= {b * rows + r for r in seen}
        assert list(keys) == sorted(expect)
        assert edges == expect_edges
        unblocked = ~np.isin(keys, np.arange(B) * rows + start)
        assert not blocked[keys % rows][unblocked].any()


def test_live_reach_equals_coin_reach_at_p1():
    # Oneshot's traversals (coins) and Snapshot's (live graphs) are one
    # `reach`: at p = 1 every coin lands, so both walk the same graph.
    rng = np.random.default_rng(12)
    n, B = 60, 25
    g = from_pandas(pd.DataFrame({"src": rng.integers(0, n, 150),
                                  "dst": rng.integers(0, n, 150)}), n)
    seed_b = np.concatenate([np.arange(B), rng.integers(0, B, 20)])
    seed_v = rng.integers(0, n, len(seed_b))
    coins = reach(g.out, seed_b, seed_v, B, rng)
    live = reach(sample_live_set(g, 1, rng).out, seed_b, seed_v, B)
    np.testing.assert_array_equal(coins.counts, live.counts)
    np.testing.assert_array_equal(coins.keys, live.keys)
    assert (coins.vertex_cost, coins.edge_cost) == (live.vertex_cost,
                                                    live.edge_cost)
    assert coins.counts.min() >= 1 and coins.edge_cost > 0
