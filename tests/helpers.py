"""Shared test fixtures/utilities: tiny graphs and reference implementations.

The reference implementations here are deliberately naive pure-Python code
(dict adjacency, per-edge loops) so the vectorized kernels are checked
against an independently written semantics, not against themselves.
"""
import itertools

import numpy as np
import pandas as pd

from repro.graphs.csr import CSRGraph, from_pandas


def graph_from_edges(edges, p=None, n=None) -> CSRGraph:
    """edges: list of (src, dst) or (src, dst, p)."""
    rows = []
    for e in edges:
        if len(e) == 3:
            rows.append({"src": e[0], "dst": e[1], "p": e[2]})
        else:
            rows.append({"src": e[0], "dst": e[1], "p": p if p is not None else 1.0})
    return from_pandas(pd.DataFrame(rows), n)


def path_graph(k: int, p: float = 1.0) -> CSRGraph:
    """0 → 1 → ... → k-1, each edge with probability p."""
    return graph_from_edges([(i, i + 1, p) for i in range(k - 1)], n=k)


def star_graph(leaves: int, p: float = 1.0) -> CSRGraph:
    """0 → 1..leaves."""
    return graph_from_edges([(0, i, p) for i in range(1, leaves + 1)])


def random_tiny_graph(rng, n=6, m=9) -> CSRGraph:
    """Random simple digraph with random probabilities (for exact tests)."""
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((int(u), int(v)))
    return graph_from_edges(
        [(u, v, float(rng.uniform(0.1, 0.9))) for u, v in sorted(edges)], n=n
    )


def rr_sizes_weights(graph: CSRGraph, rr_id, vertex, theta: int):
    """|R| and w(R) = Σ_{v∈R} d⁻(v) per RR set of membership entries
    ``(rr_id, vertex)``."""
    sizes = np.bincount(rr_id, minlength=theta).astype(np.int64)
    weights = np.bincount(
        rr_id, graph.in_degree()[vertex], minlength=theta
    ).astype(np.int64)
    return sizes, weights


def rr_membership(sets):
    """``(rr_id, vertex)`` of an ``RRSets`` in set order, sorted by
    (rr id, vertex) as ``rr_batch`` returns them."""
    vertex = np.repeat(np.arange(sets.n), np.diff(sets.vert_indptr))
    order = np.lexsort((vertex, sets.rr_ids))
    return sets.rr_ids[order].astype(np.int64), vertex[order]


def entropy_bits(counts) -> float:
    """Shannon entropy H = −Σ p log₂ p of an empirical distribution (the
    naive reference the pandas aggregation is checked against)."""
    c = np.asarray(counts, dtype=np.float64)
    c = c[c > 0]
    if len(c) == 0:
        return 0.0
    p = c / c.sum()
    return float(-(p * np.log2(p)).sum())


def ref_reachable(graph: CSRGraph, live_eidx: np.ndarray, seeds) -> set[int]:
    """Reference reachability over an explicit set of live edge indices."""
    src = np.repeat(np.arange(graph.n), graph.out_degree())
    adj: dict[int, list[int]] = {}
    for e in live_eidx:
        adj.setdefault(int(src[e]), []).append(int(graph.out.nbr[e]))
    seen = set(int(s) for s in seeds)
    stack = list(seen)
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def ref_simulate_ic(graph: CSRGraph, seeds, rng) -> int:
    """Reference naive IC simulation; returns |A_≤n|."""
    src = np.repeat(np.arange(graph.n), graph.out_degree())
    active = set(int(s) for s in seeds)
    frontier = list(active)
    while frontier:
        nxt = []
        for u in frontier:
            lo, hi = graph.out.indptr[u], graph.out.indptr[u + 1]
            for e in range(lo, hi):
                v = int(graph.out.nbr[e])
                if rng.random() < graph.out.p[e] and v not in active:
                    active.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(active)


def ref_rr_set(graph: CSRGraph, target: int, rng) -> set[int]:
    """Reference reverse simulation for one RR set."""
    visited = {int(target)}
    frontier = [int(target)]
    while frontier:
        nxt = []
        for v in frontier:
            lo, hi = graph.in_.indptr[v], graph.in_.indptr[v + 1]
            for e in range(lo, hi):
                u = int(graph.in_.nbr[e])
                if rng.random() < graph.in_.p[e] and u not in visited:
                    visited.add(u)
                    nxt.append(u)
        frontier = nxt
    return visited


def ref_live_layers(graph: CSRGraph, tau: int, rng):
    """Reference Snapshot Build, one live graph at a time: graph i's CSR
    from a running count of its live-edge mask, offset by the live edges of
    the graphs before it, and its destinations shifted to rows i·n + w.
    Returns the stacked ``(indptr, dst)``."""
    indptrs = [np.zeros(1, dtype=np.int64)]
    dsts = []
    base = 0
    for i in range(tau):
        mask = rng.random(graph.m) < graph.out.p
        csum = np.concatenate([[0], np.cumsum(mask)]).astype(np.int64)
        indptrs.append(csum[graph.out.indptr][1:] + base)
        dsts.append(graph.out.nbr[mask] + i * graph.n)
        base += len(dsts[-1])
    return np.concatenate(indptrs), np.concatenate(dsts)


# Exact influence by live-graph enumeration: Inf(S) = E_{G~𝒢}[r_G(S)] (the
# random-graph interpretation, §2.2), taken over all 2^m live-edge patterns
# with their probabilities. The ground truth the sampling kernels and the
# estimators are checked against, on graphs with few edges.
MAX_EDGES = 16


def _reach(n: int, edges: list[tuple[int, int]], seeds: set[int]) -> int:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen = set(seeds)
    stack = list(seeds)
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen)


def exact_influence(graph: CSRGraph, seeds) -> float:
    """Inf(S) by exhaustive enumeration; requires m ≤ ``MAX_EDGES``."""
    m = graph.m
    if m > MAX_EDGES:
        raise ValueError(f"exact enumeration needs m <= {MAX_EDGES}, got {m}")
    src = np.repeat(np.arange(graph.n), graph.out_degree())
    all_edges = list(zip(src.tolist(), graph.out.nbr.tolist()))
    probs = graph.out.p
    seed_set = set(int(s) for s in np.atleast_1d(np.asarray(seeds)))
    total = 0.0
    for pattern in itertools.product([0, 1], repeat=m):
        w = 1.0
        for keep, p in zip(pattern, probs):
            w *= p if keep else (1.0 - p)
        live = [e for e, keep in zip(all_edges, pattern) if keep]
        total += w * _reach(graph.n, live, seed_set)
    return total


def exact_singleton_influences(graph: CSRGraph) -> np.ndarray:
    """Inf({v}) for every vertex v (exhaustive; tiny graphs only)."""
    return np.array([exact_influence(graph, [v]) for v in range(graph.n)])
