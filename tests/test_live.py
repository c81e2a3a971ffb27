"""Live-edge sampling + layered reachability (Snapshot primitives)."""
import numpy as np
import pytest

from repro.ic import expand
from repro.ic.live import reach_batch, sample_live, sample_live_set
from tests.helpers import graph_from_edges, path_graph, random_tiny_graph, ref_reachable


class TestSampleLive:
    def test_p1_keeps_all(self):
        g = path_graph(5, p=1.0)
        live = sample_live(g, np.random.default_rng(0))
        assert live.m_live == 4
        assert list(live.indptr) == list(g.out_indptr)

    def test_edge_keep_rate(self):
        g = graph_from_edges([(0, 1, 0.3)] * 1, n=2)
        rng = np.random.default_rng(0)
        kept = sum(
            sample_live(g, rng).m_live for _ in range(5000)
        )
        assert kept / 5000 == pytest.approx(0.3, abs=0.03)

    def test_live_edges_subset(self):
        rng = np.random.default_rng(1)
        g = random_tiny_graph(rng, n=8, m=16)
        live = sample_live(g, rng)
        for v in range(g.n):
            full = set(g.out_dst[g.out_indptr[v]:g.out_indptr[v + 1]])
            kept = set(live.dst[live.indptr[v]:live.indptr[v + 1]])
            assert kept <= full


def _layer_live_edges(ls) -> np.ndarray:
    return np.diff(ls.indptr).reshape(ls.tau, ls.n).sum(axis=1)


class TestLiveGraphSet:
    def test_layers_independent(self):
        g = graph_from_edges([(0, 1, 0.5)], n=2)
        ls = sample_live_set(g, 400, np.random.default_rng(0))
        per_layer = _layer_live_edges(ls)
        assert per_layer.sum() == ls.total_live_edges
        assert 0.4 < per_layer.mean() < 0.6  # ~Bernoulli(0.5) per layer

    def test_p1_layer_structure(self):
        g = path_graph(3, p=1.0)
        ls = sample_live_set(g, 3, np.random.default_rng(0))
        assert ls.total_live_edges == 6
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
        layer = np.repeat(np.arange(tau), g.n)
        seed_b = np.arange(B, dtype=np.int64)
        seed_v = np.tile(np.arange(g.n), tau)
        res = reach_batch(ls, layer, seed_b, seed_v, B)
        for i in range(tau):
            # Rebuild layer i's live edge indices against the base graph.
            live_pairs = set()
            for v in range(g.n):
                for e in range(ls.indptr[i * g.n + v], ls.indptr[i * g.n + v + 1]):
                    live_pairs.add((v, int(ls.dst[e] % g.n)))
            src = np.repeat(np.arange(g.n), g.out_degree())
            eidx = [
                e for e in range(g.m)
                if (int(src[e]), int(g.out_dst[e])) in live_pairs
            ]
            for v in range(g.n):
                expect = len(ref_reachable(g, np.array(eidx), [v]))
                got = res.reached[i * g.n + v]
                assert got == expect, (i, v)

    def test_cost_identities_p1(self):
        g = path_graph(4, p=1.0)
        ls = sample_live_set(g, 1, np.random.default_rng(0))
        res = reach_batch(
            ls,
            np.zeros(4, np.int64),
            np.arange(4, dtype=np.int64),
            np.arange(4, dtype=np.int64),
            4,
        )
        # Reach sizes 4,3,2,1; vertex cost = Σ reach = 10; edge cost = Σ
        # out-degrees of reached vertices = 3+2+1+0... per source: 3,2,1,0.
        assert list(res.reached) == [4, 3, 2, 1]
        assert res.vertex_cost == 10
        assert res.edge_cost == 6

    def test_multi_seed_union(self):
        g = graph_from_edges([(0, 1, 1.0), (2, 3, 1.0)], n=4)
        ls = sample_live_set(g, 1, np.random.default_rng(0))
        res = reach_batch(
            ls,
            np.zeros(1, np.int64),
            np.zeros(2, np.int64),
            np.array([0, 2], dtype=np.int64),
            1,
        )
        assert res.reached[0] == 4


class TestBlocked:
    def test_blocked_row_counts_as_visited(self):
        # 0 → 1 → 2 with row 1 blocked: BFS from 0 stops at 0, but the
        # edge 0 → 1 is still examined.
        ls = sample_live_set(path_graph(3, p=1.0), 1, np.random.default_rng(0))
        blocked = np.array([False, True, False])
        keys, edges = expand(ls.indptr, ls.dst, None, np.array([0]), 3,
                             layer=np.zeros(1, np.int64), blocked=blocked)
        assert list(keys) == [0] and edges == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_bfs(self, seed):
        # Random blocked rows on stacked layers, batch entries mapped to
        # layers out of order: no blocked row is ever returned, blocked rows
        # are never expanded, and every returned row's live edges count.
        rng = np.random.default_rng(seed)
        g = random_tiny_graph(rng, n=9, m=24)
        tau, B = 4, 12
        ls = sample_live_set(g, tau, rng)
        blocked = rng.random(tau * g.n) < 0.3
        layer = rng.integers(0, tau, B)
        start = rng.integers(0, g.n, B)
        keys, edges = expand(
            ls.indptr, ls.dst, None, np.arange(B) * g.n + start, g.n,
            layer=layer, blocked=blocked,
        )
        expect, expect_edges = set(), 0
        for b in range(B):
            base = layer[b] * g.n
            seen, stack = {int(start[b])}, [int(start[b])]
            while stack:
                u = stack.pop()
                nbrs = ls.dst[ls.indptr[base + u] : ls.indptr[base + u + 1]]
                expect_edges += len(nbrs)
                for w in nbrs:
                    if int(w) not in seen and not blocked[base + w]:
                        seen.add(int(w))
                        stack.append(int(w))
            expect |= {b * g.n + v for v in seen}
        assert list(keys) == sorted(expect)
        assert edges == expect_edges
        b, v = np.divmod(keys, g.n)
        unblocked = ~np.isin(keys, np.arange(B) * g.n + start)
        assert not blocked[layer[b] * g.n + v][unblocked].any()
