"""Batched reverse-reachable (RR) set generation (the RIS primitive).

An RR set for target z is the set of vertices that reach z in G ~ 𝒢
(Definition 3.1); it is generated by a reverse BFS from z that examines each
visited vertex's in-edges with a fresh coin (Borgs et al.'s reverse
simulation). A batch of θ RR sets runs as one :func:`repro.ic.expand` BFS
over the in-edges of θ disjoint copies of the graph.

RIS (Alg 3.4) and the shared oracle (§5.2) hold the same :class:`RRSets`,
at different θ.

Costs per the paper (§3.5.2): vertex cost = |R| (so E = EPT), edge cost =
w(R) = Σ_{v∈R} d⁻(v) — every in-edge of a visited vertex is examined.
"""
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph, group_rows
from repro.ic import batches, expand


@dataclass(frozen=True)
class RRSets:
    """θ RR sets grouped by vertex: the sets containing v are
    ``rr_ids[vert_indptr[v] : vert_indptr[v + 1]]``, ascending."""

    n: int
    theta: int
    vert_indptr: np.ndarray  # int64[n+1]
    rr_ids: np.ndarray  # int32[K], grouped by vertex
    vertex_cost: int  # Σ |R| = K
    edge_cost: int  # Σ w(R) = Σ_v |sets of v| · d⁻(v)

    @classmethod
    def group(cls, graph: CSRGraph, theta: int, rr_id, vertex) -> "RRSets":
        """Group membership entries (rr_id, vertex), given in ascending id
        order, by vertex."""
        order, indptr = group_rows(vertex, graph.n)
        ids = rr_id.astype(np.int32, copy=False)[order]
        edge_cost = int(np.diff(indptr) @ graph.in_degree())
        return cls(graph.n, theta, indptr, ids, len(ids), edge_cost)

    @property
    def ci99_halfwidth(self) -> float:
        return 1.288 * self.n / np.sqrt(self.theta)

    def estimate(self, seeds) -> float:
        """Inf(S) ≈ n · F_ℛ(S) for one seed set."""
        ptr = self.vert_indptr
        ids = [self.rr_ids[ptr[v] : ptr[v + 1]] for v in np.atleast_1d(seeds)]
        covered = len(np.unique(np.concatenate(ids))) if ids else 0
        return self.n * covered / self.theta

    def singleton_estimates(self) -> np.ndarray:
        """Inf({v}) for all v in one pass (Table 4's workhorse)."""
        return self.n * np.diff(self.vert_indptr) / self.theta


def check_ids(n: int, theta: int) -> None:
    """RR ids and vertices are stored and shipped as int32."""
    if max(n, theta) >= 2**31:
        raise ValueError(f"n = {n} and theta = {theta} must be below 2**31")


def rr_batch(
    graph: CSRGraph, targets: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    """Generate one RR set per entry of ``targets`` (vertex ids). Returns
    the membership ``(rr_id, vertex)``, sorted by (rr id, vertex), and the
    number of edges examined."""
    n = graph.n
    members, edge_cost = expand(
        graph.in_, np.arange(len(targets), dtype=np.int64) * n + targets, rng
    )
    rr_id, vertex = np.divmod(members, n)
    return rr_id, vertex, edge_cost


def random_targets(
    n: int, theta: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly random targets, one per RR set (the paper's first PRNG)."""
    return rng.integers(0, n, size=theta, dtype=np.int64)


def rr_sets(
    graph: CSRGraph, theta: int, rng: np.random.Generator
) -> RRSets:
    """θ RR sets for uniformly random targets, in :func:`repro.ic.batches`.
    Each batch draws its targets and then its coins."""
    check_ids(graph.n, theta)
    rr_id, vertex = [], []
    for lo, hi in batches(theta, graph.n):
        r, v, _ = rr_batch(graph, random_targets(graph.n, hi - lo, rng), rng)
        rr_id.append(r + lo)
        vertex.append(v)
    return RRSets.group(graph, theta, np.concatenate(rr_id),
                        np.concatenate(vertex))
