"""Algorithm 3.4 — naive RIS (reverse influence sampling) estimator.

Build draws θ RR sets for uniformly random targets, grouped by vertex (an
``RRSets``, like the oracle). Estimate(S, v) returns n · F_ℛ(v), the scaled
fraction of *remaining* RR sets containing v; Update marks the chosen
seed's sets covered, so subsequent estimates are marginal coverages with
respect to the current seed set.

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
        self.sets = rr_sets(graph, theta, rng)
        self.covered = np.zeros(theta, dtype=bool)
        self.sizes = np.diff(self.sets.vert_indptr)  # sets per vertex
        self.vertex_cost = self.sets.vertex_cost
        self.edge_cost = self.sets.edge_cost
        self.sample_size = self.sets.vertex_cost  # Σ|R|

    def estimate_all(self, current_seeds: np.ndarray) -> np.ndarray:  # noqa: ARG002
        sets = self.sets
        # Covered entries, each owned by the vertex whose range holds it.
        pos = np.take(self.covered, sets.rr_ids).nonzero()[0]
        owner = sets.vert_indptr[1:].searchsorted(pos, side="right")
        alive = self.sizes - np.bincount(owner, minlength=sets.n)
        return sets.n * alive / sets.theta

    def update(self, chosen: int) -> None:
        ptr = self.sets.vert_indptr
        self.covered[self.sets.rr_ids[ptr[chosen] : ptr[chosen + 1]]] = True
