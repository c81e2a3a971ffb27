"""Live-edge graph sampling and batched reachability (the Snapshot primitive).

``sample_live`` draws one random graph G ~ 𝒢 by keeping each edge e with
probability p(e) (Snapshot's Build). ``LiveGraphSet`` packs τ of them as
layers of one big CSR (layer i's vertex v is row i·n + v; destinations stay
layer-local) so that reachability queries against many (graph, seed-set)
pairs run as a single :func:`repro.ic.expand` BFS without coins.

Cost accounting per the paper: *Estimate* scans each reachable vertex once
(vertex cost) and examines its outgoing **live** edges (edge cost) — this is
why Snapshot's edge cost is ≈ m̃/m of Oneshot's. Build's coin flips (τ·m)
are reported separately and not charged to Estimate, as in Table 8.
"""
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.ic import expand


@dataclass(frozen=True)
class LiveGraph:
    """One sampled random graph, compact CSR over the original vertex ids."""

    n: int
    indptr: np.ndarray  # int64[n+1]
    dst: np.ndarray  # int64[#live edges]

    @property
    def m_live(self) -> int:
        return len(self.dst)


def sample_live(graph: CSRGraph, rng: np.random.Generator) -> LiveGraph:
    """Draw G ~ 𝒢: keep each edge independently with probability p(e)."""
    mask = rng.random(graph.m) < graph.out_p
    csum = np.concatenate([[0], np.cumsum(mask)]).astype(np.int64)
    return LiveGraph(graph.n, csum[graph.out_indptr], graph.out_dst[mask])


@dataclass(frozen=True)
class LiveGraphSet:
    """τ live graphs stacked as layers of one CSR (row = layer·n + v)."""

    n: int
    tau: int
    indptr: np.ndarray  # int64[τ·n + 1]
    dst: np.ndarray  # int64[τ·m̃] — destinations, layer-local ids

    @property
    def total_live_edges(self) -> int:
        return len(self.dst)

    def layer_live_edges(self) -> np.ndarray:
        per_vertex = np.diff(self.indptr)
        return per_vertex.reshape(self.tau, self.n).sum(axis=1)


def sample_live_set(
    graph: CSRGraph, tau: int, rng: np.random.Generator
) -> LiveGraphSet:
    """Snapshot Build: sample τ live graphs into one layered structure."""
    indptrs = [np.zeros(1, dtype=np.int64)]
    dsts = []
    base = 0
    for _ in range(tau):
        g = sample_live(graph, rng)
        indptrs.append(g.indptr[1:] + base)
        dsts.append(g.dst)
        base += g.m_live
    return LiveGraphSet(
        graph.n, tau, np.concatenate(indptrs), np.concatenate(dsts)
    )


@dataclass
class ReachBatchResult:
    reached: np.ndarray  # int64[B] — r_G(seed set) per batch entry
    vertex_cost: int
    edge_cost: int


def reach_batch(
    live: LiveGraphSet,
    layer_of_batch: np.ndarray,
    seed_b: np.ndarray,
    seed_v: np.ndarray,
    n_batches: int,
) -> ReachBatchResult:
    """Batched reachability: batch entry b computes r over layer
    ``layer_of_batch[b]`` from seeds ``seed_v[seed_b == b]`` (layer-local
    vertex ids). Deterministic — no coins; the randomness lives in Build."""
    n = live.n
    reached, edge_cost = expand(
        live.indptr, live.dst, None, seed_b.astype(np.int64) * n + seed_v,
        n, layer=layer_of_batch.astype(np.int64),
    )
    counts = np.bincount(reached // n, minlength=n_batches).astype(np.int64)
    return ReachBatchResult(counts, len(reached), edge_cost)
