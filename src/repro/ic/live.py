"""Live-edge graph sampling and batched reachability (the Snapshot primitive).

Snapshot's Build, :func:`sample_live_set`, draws τ random graphs G ~ 𝒢,
each by keeping every edge e with probability p(e), and packs them as
layers of one big CSR: layer i's vertex v is row i·n + v, and destinations
stay layer-local. Each layer draws its m coins in edge order
(:func:`repro.ic.draw_hits`) and keeps the indices of its live edges; the
live edges of all layers, stacked layer by layer, are then already sorted
by row, so one ``bincount`` lays out ``indptr``. Reachability queries
against many (graph, seed-set) pairs run as a single
:func:`repro.ic.expand` BFS without coins.

Cost accounting per the paper: *Estimate* scans each reachable vertex once
(vertex cost) and examines its outgoing **live** edges (edge cost) — this is
why Snapshot's edge cost is ≈ m̃/m of Oneshot's. Build's coin flips (τ·m)
are reported separately and not charged to Estimate, as in Table 8.
"""
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph, row_indptr
from repro.ic import draw_hits, expand


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


def sample_live_set(
    graph: CSRGraph, tau: int, rng: np.random.Generator
) -> LiveGraphSet:
    """Snapshot Build: sample τ live graphs into one layered structure."""
    n = graph.n
    live = [draw_hits(rng, graph.m, graph.out_p) for _ in range(tau)]
    src = np.repeat(np.arange(n), graph.out_degree())
    row = np.concatenate([src[e] + i * n for i, e in enumerate(live)])
    return LiveGraphSet(
        n, tau, row_indptr(row, tau * n), graph.out_dst[np.concatenate(live)]
    )


@dataclass
class ReachBatchResult:
    reached: np.ndarray  # int64[B] — r_G(seed set) per batch entry
    vertex_cost: int
    edge_cost: int
    keys: np.ndarray  # int64 — sorted reached keys b·n + v


def reach_batch(
    live: LiveGraphSet,
    layer_of_batch: np.ndarray,
    seed_b: np.ndarray,
    seed_v: np.ndarray,
    n_batches: int,
    blocked: np.ndarray | None = None,
) -> ReachBatchResult:
    """Batched reachability: batch entry b computes r over layer
    ``layer_of_batch[b]`` from seeds ``seed_v[seed_b == b]`` (layer-local
    vertex ids). Deterministic — no coins; the randomness lives in Build.
    ``blocked`` (``bool[τ·n]`` over the live rows) counts as already
    visited; see :func:`repro.ic.expand`."""
    n = live.n
    reached, edge_cost = expand(
        live.indptr, live.dst, None, seed_b.astype(np.int64) * n + seed_v,
        n, layer=layer_of_batch.astype(np.int64), blocked=blocked,
    )
    counts = np.bincount(reached // n, minlength=n_batches).astype(np.int64)
    return ReachBatchResult(counts, len(reached), edge_cost, reached)
