"""Algorithm 3.2 — naive Oneshot (simulation-based) estimator.

Build and Update do nothing; every Estimate runs β fresh Monte-Carlo
simulations of the diffusion from S+v and averages the activation counts.
Estimates across candidates use independent randomness, so neither
monotonicity nor submodularity of the estimator is guaranteed (§3.3.1) —
that independence is preserved here (one batch of β·|candidates| fresh
simulations per greedy iteration).

A batch of B simulations runs as one :func:`repro.ic.expand` BFS over the
out-edges of B disjoint copies of the graph (vertex key = batch·n + v),
with a fresh coin per examined edge. Traversal-cost accounting follows the
paper's appendix: every activated vertex is scanned once (vertex cost) and
all of its out-edges are examined (edge cost), so E[vertex cost] = Inf(S)
and the edge cost matches Σ_w d⁺(w)·1[w activated].

The sample size is 0: Oneshot stores no samples (§3.3.2).
"""
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.ic import batches, expand


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
        p_row=graph.out_p_row,
    )
    counts = np.bincount(active // n, minlength=n_batches).astype(np.int64)
    return SimBatchResult(counts, len(active), edge_cost)


def simulate_single_seeds(
    graph: CSRGraph,
    candidates: np.ndarray,
    beta: int,
    rng: np.random.Generator,
    base_seeds: np.ndarray | None = None,
) -> SimBatchResult:
    """β simulations from ``{base_seeds} ∪ {v}`` for every candidate v, in
    :func:`repro.ic.batches`.

    Returns per-candidate *summed* activation counts over the β runs (divide
    by β for the Oneshot estimate).
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
    cand_rep = np.repeat(candidates.astype(np.int64), beta)  # one sim each
    for lo, hi in batches(n_cand * beta, graph.n):
        chunk = cand_rep[lo:hi]
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


class OneshotEstimator:
    def __init__(
        self, graph: CSRGraph, beta: int, rng: np.random.Generator
    ) -> None:
        if beta < 1:
            raise ValueError("beta must be >= 1")
        self.graph = graph
        self.beta = beta
        self.rng = rng
        self.vertex_cost = 0
        self.edge_cost = 0
        self.sample_size = 0  # Oneshot keeps nothing in memory

    def estimate_all(self, current_seeds: np.ndarray) -> np.ndarray:
        candidates = np.arange(self.graph.n, dtype=np.int64)
        res = simulate_single_seeds(
            self.graph, candidates, self.beta, self.rng,
            base_seeds=current_seeds,
        )
        self.vertex_cost += res.vertex_cost
        self.edge_cost += res.edge_cost
        return res.activated / self.beta

    def update(self, chosen: int) -> None:  # noqa: ARG002 — per Alg 3.2
        return None
