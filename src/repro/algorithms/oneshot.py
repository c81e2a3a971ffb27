"""Algorithm 3.2 — naive Oneshot (simulation-based) estimator.

Build and Update do nothing; every Estimate runs β fresh Monte-Carlo
simulations of the diffusion from S+v and averages the activation counts.
Estimates across candidates use independent randomness, so neither
monotonicity nor submodularity of the estimator is guaranteed (§3.3.1) —
that independence is preserved here (one batch of β·|candidates| fresh
simulations per greedy iteration).

A batch of B simulations is one :func:`repro.ic.reach` over the out-edges
(``graph.out``) of B disjoint copies of the graph (vertex key =
batch·n + v), with a fresh coin per examined edge: the traversal Snapshot
runs over its live graphs, with coins. Traversal-cost accounting follows the
paper's appendix: every activated vertex is scanned once (vertex cost) and
all of its out-edges are examined (edge cost), so E[vertex cost] = Inf(S)
and the edge cost matches Σ_w d⁺(w)·1[w activated].

The sample size is 0: Oneshot stores no samples (§3.3.2).
"""
import numpy as np

from repro.graphs.csr import CSRGraph
from repro.ic import Reach, batches, reach


def simulate_single_seeds(
    graph: CSRGraph,
    candidates: np.ndarray,
    beta: int,
    rng: np.random.Generator,
    base_seeds: np.ndarray | None = None,
) -> Reach:
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
        res = reach(graph.out, sb, sv, B, rng)
        # Fold per-simulation counts back onto candidates.
        cand_idx = (lo + np.arange(B)) // beta
        np.add.at(totals, cand_idx, res.counts)
        vertex_cost += res.vertex_cost
        edge_cost += res.edge_cost
        del res  # frees its keys before the next batch's BFS
    return Reach(totals, vertex_cost, edge_cost)


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
        return res.counts / self.beta

    def update(self, chosen: int) -> None:  # noqa: ARG002 — per Alg 3.2
        return None
