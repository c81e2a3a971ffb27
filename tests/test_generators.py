"""Synthetic network generators: structural guarantees."""
import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.csr import from_pandas


class TestBarabasiAlbert:
    def test_edge_count_sparse(self):
        pdf = generators.barabasi_albert(1000, 1, seed=1)
        assert len(pdf) == 999  # paper's BA_s: m = n - 1

    def test_edge_count_dense(self):
        pdf = generators.barabasi_albert(1000, 11, seed=1)
        assert len(pdf) == (1000 - 11) * 11  # paper's BA_d: m = 10,879

    def test_deterministic_in_seed(self):
        a = generators.barabasi_albert(200, 2, seed=5)
        b = generators.barabasi_albert(200, 2, seed=5)
        assert a.equals(b)

    def test_different_seeds_differ(self):
        a = generators.barabasi_albert(200, 2, seed=5)
        b = generators.barabasi_albert(200, 2, seed=6)
        assert not a.equals(b)

    def test_no_self_loops_or_dupes(self):
        pdf = generators.barabasi_albert(300, 3, seed=2)
        assert (pdf["src"] != pdf["dst"]).all()
        und = set(map(frozenset, zip(pdf["src"], pdf["dst"])))
        assert len(und) == len(pdf)  # each undirected edge directed once

    def test_scale_free_hub(self):
        # Preferential attachment must grow hubs: the max total degree far
        # exceeds the mean.
        g = from_pandas(
            generators.barabasi_albert(1000, 1, seed=3).assign(p=1.0)
        )
        total = g.out_degree() + g.in_degree()
        assert total.max() >= 10 * total.mean()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            generators.barabasi_albert(3, 5, seed=0)


class TestDirectedScaleFree:
    def test_target_sizes(self):
        pdf = generators.directed_scale_free(
            241, 1098, max_out=9, in_skew=0.55, seed=41
        )
        n = len(set(pdf["src"]) | set(pdf["dst"]))
        assert n <= 241
        assert 0.85 * 1098 <= len(pdf) <= 1098

    def test_out_degree_capped(self):
        pdf = generators.directed_scale_free(
            300, 2000, max_out=9, seed=4
        )
        assert pdf.groupby("src").size().max() <= 9

    def test_in_degree_skewed(self):
        pdf = generators.directed_scale_free(
            300, 2000, max_out=9, in_skew=1.0, seed=4
        )
        indeg = pdf.groupby("dst").size()
        assert indeg.max() >= 3 * indeg.mean()

    def test_simple(self):
        pdf = generators.directed_scale_free(100, 500, max_out=20, seed=9)
        assert (pdf["src"] != pdf["dst"]).all()
        assert not pdf.duplicated().any()


CLIQUES = {"clique_alpha": 2.1, "max_clique": 40}  # as GrQc_syn


class TestCommunityCollab:
    def test_symmetric(self):
        pdf = generators.community_collab(300, **CLIQUES, seed=7)
        arcs = set(zip(pdf["src"], pdf["dst"]))
        assert all((v, u) in arcs for u, v in arcs)

    def test_connected(self):
        from tests.helpers import ref_reachable

        pdf = generators.community_collab(300, **CLIQUES, seed=7)
        g = from_pandas(pdf.assign(p=1.0))
        reach = ref_reachable(g, np.arange(g.m), [0])
        assert len(reach) == g.n

    def test_high_clustering_core(self):
        # Power-law cliques must produce many triangles: count them.
        pdf = generators.community_collab(400, **CLIQUES, seed=8)
        und = {frozenset(e) for e in zip(pdf["src"], pdf["dst"])}
        adj: dict[int, set[int]] = {}
        for e in und:
            u, v = tuple(e)
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        tri = sum(
            len(adj[u] & adj[v]) for u, v in (tuple(e) for e in und)
        ) // 3
        assert tri > 50

    def test_whiskers_present(self):
        pdf = generators.community_collab(
            400, **CLIQUES, whisker_frac=0.4, seed=9
        )
        g = from_pandas(pdf.assign(p=1.0))
        deg = g.out_degree()
        assert (deg == 1).sum() >= 40  # tree tendrils → many degree-1 leaves
