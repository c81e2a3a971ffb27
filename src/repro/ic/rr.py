"""Batched reverse-reachable (RR) set generation (the RIS primitive).

An RR set for target z is the set of vertices that reach z in G ~ 𝒢
(Definition 3.1); it is generated by a reverse BFS from z that examines each
visited vertex's in-edges with a fresh coin (Borgs et al.'s reverse
simulation). A batch of θ RR sets runs as one :func:`repro.ic.expand` BFS
over the in-edges of θ disjoint copies of the graph.

Costs per the paper (§3.5.2): vertex cost = |R| (so E = EPT), edge cost =
w(R) = Σ_{v∈R} d⁻(v) — every in-edge of a visited vertex is examined.
"""
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.ic import expand


@dataclass
class RRBatchResult:
    rr_id: np.ndarray  # int64[K] — RR-set index per membership entry
    vertex: np.ndarray  # int64[K] — member vertex
    vertex_cost: int  # Σ |R| = K
    edge_cost: int  # Σ w(R), w(R) = Σ_{v∈R} d⁻(v)


def rr_batch(
    graph: CSRGraph, targets: np.ndarray, rng: np.random.Generator
) -> RRBatchResult:
    """Generate one RR set per entry of ``targets`` (vertex ids)."""
    n = graph.n
    members, edge_cost = expand(
        graph.in_indptr, graph.in_src, graph.in_p,
        np.arange(len(targets), dtype=np.int64) * n + targets, n, rng,
        p_row=graph.in_p_row,
    )
    rr_id, vertex = np.divmod(members, n)
    return RRBatchResult(rr_id, vertex, len(members), edge_cost)


def random_targets(
    n: int, theta: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly random targets, one per RR set (the paper's first PRNG)."""
    return rng.integers(0, n, size=theta, dtype=np.int64)


def rr_sets(
    graph: CSRGraph,
    theta: int,
    rng: np.random.Generator,
    max_batch_cells: int = 50_000_000,
) -> RRBatchResult:
    """θ RR sets for uniformly random targets, in chunks of
    ``max_batch_cells // n`` sets. Each chunk draws its targets and then its
    coins, so the chunk boundaries fix the RNG stream; memory follows the
    keys visited, not the chunk size."""
    per_chunk = max(1, max_batch_cells // max(1, graph.n))
    parts: list[RRBatchResult] = []
    done = 0
    while done < theta:
        b = min(per_chunk, theta - done)
        parts.append(rr_batch(graph, random_targets(graph.n, b, rng), rng))
        done += b
    if len(parts) == 1:
        return parts[0]
    offs = range(0, theta, per_chunk)
    return RRBatchResult(
        np.concatenate([p.rr_id + o for p, o in zip(parts, offs)]),
        np.concatenate([p.vertex for p in parts]),
        sum(p.vertex_cost for p in parts),
        sum(p.edge_cost for p in parts),
    )
