"""Batched forward IC simulation (the Oneshot primitive).

A batch of B independent diffusions runs as one :func:`repro.ic.expand` BFS
over the out-edges of B disjoint copies of the graph (vertex key =
batch·n + v), with a fresh coin per examined edge — exactly the naive
Oneshot of Algorithm 3.2.

Traversal-cost accounting follows the paper's appendix: every activated
vertex is scanned once (vertex cost) and all of its out-edges are examined
(edge cost), so E[vertex cost] = Inf(S) and the edge cost matches
Σ_w d⁺(w)·1[w activated].
"""
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.ic import expand


@dataclass
class SimBatchResult:
    activated: np.ndarray  # int64[B] — |A_≤n| per simulation (includes seeds)
    vertex_cost: int
    edge_cost: int


def simulate_batch(
    graph: CSRGraph,
    seed_b: np.ndarray,
    seed_v: np.ndarray,
    n_batches: int,
    rng: np.random.Generator,
) -> SimBatchResult:
    """Run ``n_batches`` IC diffusions; simulation i starts from the seed
    vertices ``seed_v[seed_b == i]``."""
    n = graph.n
    active, edge_cost = expand(
        graph.out_indptr, graph.out_dst, graph.out_p,
        seed_b.astype(np.int64) * n + seed_v, n, rng,
    )
    counts = np.bincount(active // n, minlength=n_batches).astype(np.int64)
    return SimBatchResult(counts, len(active), edge_cost)


def simulate_single_seeds(
    graph: CSRGraph,
    candidates: np.ndarray,
    beta: int,
    rng: np.random.Generator,
    base_seeds: np.ndarray | None = None,
    max_batch_cells: int = 50_000_000,
) -> SimBatchResult:
    """β simulations from ``{base_seeds} ∪ {v}`` for every candidate v.

    Returns per-candidate *summed* activation counts over the β runs (divide
    by β for the Oneshot estimate). The simulations run in chunks of
    ``max_batch_cells // n``; the chunk boundaries fix the RNG stream, not
    a memory budget (the visited set grows with the keys visited).
    """
    base = (
        np.asarray(base_seeds, dtype=np.int64)
        if base_seeds is not None
        else np.empty(0, dtype=np.int64)
    )
    n_cand = len(candidates)
    totals = np.zeros(n_cand, dtype=np.int64)
    vertex_cost = 0
    edge_cost = 0
    sims_per_chunk = max(1, max_batch_cells // max(1, graph.n))
    cand_rep = np.repeat(candidates.astype(np.int64), beta)  # one sim each
    for lo in range(0, n_cand * beta, sims_per_chunk):
        chunk = cand_rep[lo : lo + sims_per_chunk]
        B = len(chunk)
        sb = np.concatenate(
            [np.arange(B, dtype=np.int64), np.repeat(np.arange(B), len(base))]
        )
        sv = np.concatenate([chunk, np.tile(base, B)])
        res = simulate_batch(graph, sb, sv, B, rng)
        # Fold per-simulation counts back onto candidates.
        cand_idx = (lo + np.arange(B)) // beta
        np.add.at(totals, cand_idx, res.activated)
        vertex_cost += res.vertex_cost
        edge_cost += res.edge_cost
    return SimBatchResult(totals, vertex_cost, edge_cost)
