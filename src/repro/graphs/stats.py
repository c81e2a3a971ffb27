"""Network statistics for Table 3 (n, m, Δ⁺, Δ⁻, clustering, avg distance).

Everything is computed from the CSR arrays. Degrees are ``np.diff`` of the
indptrs; triangles are counted over the undirected simple graph with each
edge oriented from lower to higher (degree, id) rank, so every vertex's
out-list stays short and each triangle is found once. Average distance uses
an exact BFS from every vertex; ``tables.table3`` asks for it only on
Karate and the BA networks, the graphs the paper reports it for.
"""
import numpy as np

from repro.graphs.csr import CSRGraph, gather_edges, group_rows


def degree_stats(graph: CSRGraph) -> dict:
    """n (vertices with any arc), m, max out-degree, max in-degree."""
    d_out, d_in = graph.out_degree(), graph.in_degree()
    return {
        "n": int(((d_out > 0) | (d_in > 0)).sum()),
        "m": graph.m,
        "max_out": int(d_out.max()),
        "max_in": int(d_in.max()),
    }


def clustering_coefficient(graph: CSRGraph) -> float:
    """Global clustering: 3 × triangles / connected triplets (undirected)."""
    n = graph.n
    src = np.repeat(np.arange(n), graph.out_degree())
    u, v = np.minimum(src, graph.out.nbr), np.maximum(src, graph.out.nbr)
    und = np.unique(u[u != v] * n + v[u != v])
    u, v = und // n, und % n
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    triplets = int((deg * (deg - 1) // 2).sum())
    if not triplets:
        return 0.0
    # Relabel by (degree, id) rank and orient each edge lo → hi.
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    lo, hi = np.minimum(rank[u], rank[v]), np.maximum(rank[u], rank[v])
    keys = np.sort(lo * n + hi)
    lo, hi = keys // n, keys % n
    # Wedges: each pair of positions i < j in one out-list (sorted, so
    # hi[i] < hi[j]); the edge hi[i] → hi[j] closes it into a triangle.
    indptr = np.searchsorted(lo, np.arange(n + 1))
    later = indptr[lo + 1] - np.arange(len(keys)) - 1
    first = np.repeat(np.arange(len(keys)), later)
    start = np.repeat(np.cumsum(later) - later, later)
    second = first + 1 + np.arange(len(first)) - start
    wedge = hi[first] * n + hi[second]
    pos = np.minimum(np.searchsorted(keys, wedge), len(keys) - 1)
    triangles = int((keys[pos] == wedge).sum())
    return float(3 * triangles / triplets)


def average_distance(graph: CSRGraph) -> float:
    """Mean shortest-path distance over connected pairs of the undirected
    graph (exact BFS from every vertex, so meant for small graphs)."""
    n = graph.n
    # Symmetrize adjacency into per-vertex neighbour lists.
    src = np.repeat(np.arange(n), graph.out_degree())
    order, indptr = group_rows(np.concatenate([src, graph.out.nbr]), n)
    dst = np.concatenate([graph.out.nbr, src])[order]
    total, pairs = 0, 0
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        frontier = np.array([s])
        d = 0
        while len(frontier):
            d += 1
            idx, _ = gather_edges(indptr, frontier)
            if not len(idx):
                break
            nxt = np.unique(dst[idx])
            nxt = nxt[dist[nxt] < 0]
            dist[nxt] = d
            frontier = nxt
        reached = dist > 0
        total += int(dist[reached].sum())
        pairs += int(reached.sum())
    return float(total / pairs) if pairs else 0.0


def table3_row(graph: CSRGraph, *, with_distance: bool) -> dict:
    row = degree_stats(graph)
    row["clustering"] = round(clustering_coefficient(graph), 4)
    row["avg_distance"] = (
        round(average_distance(graph), 4) if with_distance else None
    )
    return row
