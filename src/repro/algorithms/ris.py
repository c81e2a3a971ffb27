"""Algorithm 3.4 — naive RIS (reverse influence sampling) estimator.

Build draws θ RR sets for uniformly random targets. Estimate(S, v) returns
n · F_ℛ(v), the scaled fraction of *remaining* RR sets containing v; Update
removes RR sets covered by the chosen seed, so subsequent estimates are
marginal coverages with respect to the current seed set.

Sample size = total stored membership entries Σ|R| (≈ θ·EPT in
expectation). Traversal cost is charged entirely to Build (RR generation);
coverage bookkeeping in Estimate/Update touches the stored samples, not the
graph, matching the paper's accounting.
"""
import numpy as np

from repro.graphs.csr import CSRGraph
from repro.ic.rr import rr_sets


class RISEstimator:
    def __init__(
        self, graph: CSRGraph, theta: int, rng: np.random.Generator
    ) -> None:
        if theta < 1:
            raise ValueError("theta must be >= 1")
        self.graph = graph
        self.theta = theta
        res = rr_sets(graph, theta, rng)
        self.rr_id = res.rr_id
        self.vertex = res.vertex
        self.alive = np.ones(theta, dtype=bool)
        self.vertex_cost = res.vertex_cost
        self.edge_cost = res.edge_cost
        self.sample_size = res.vertex_cost  # Σ|R|

    def estimate_all(self, current_seeds: np.ndarray) -> np.ndarray:  # noqa: ARG002
        live = self.alive[self.rr_id]
        counts = np.bincount(self.vertex[live], minlength=self.graph.n)
        return self.graph.n * counts / self.theta

    def update(self, chosen: int) -> None:
        covered = np.unique(self.rr_id[self.vertex == chosen])
        self.alive[covered] = False
