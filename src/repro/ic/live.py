"""Live-edge sampling and batched reachability (the Snapshot primitive).

Snapshot's Build, :func:`sample_live_set`, draws τ random graphs G ~ 𝒢,
each by keeping every edge e with probability p(e), and packs them as one
graph on τ·n vertices: vertex v of live graph i is row i·n + v, and its
live edges lead to rows of the same graph i. Each live graph draws its m
coins in edge order (:func:`repro.ic.draw_hits`) and keeps the indices of
its live edges; the live edges of all τ graphs, stacked graph by graph, are
then already sorted by row, so one ``bincount`` lays out ``indptr``.
Reachability queries against many (graph, seed-set) pairs run as a single
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
    """τ live graphs as one CSR on τ·n rows (row i·n + v)."""

    n: int
    tau: int
    indptr: np.ndarray  # int64[τ·n + 1]
    dst: np.ndarray  # int64[τ·m̃] — destination rows i·n + w

    @property
    def total_live_edges(self) -> int:
        return len(self.dst)


def sample_live_set(
    graph: CSRGraph, tau: int, rng: np.random.Generator
) -> LiveGraphSet:
    """Snapshot Build: sample τ live graphs into one graph on τ·n rows."""
    n = graph.n
    live = [draw_hits(rng, graph.m, graph.out_p) for _ in range(tau)]
    offset = np.repeat(np.arange(tau) * n, [len(e) for e in live])
    edge = np.concatenate(live)
    src = np.repeat(np.arange(n), graph.out_degree())
    return LiveGraphSet(
        n, tau, row_indptr(src[edge] + offset, tau * n),
        graph.out_dst[edge] + offset,
    )


@dataclass
class ReachBatchResult:
    reached: np.ndarray  # int64[B] — r_G(seed set) per batch entry
    vertex_cost: int
    edge_cost: int
    keys: np.ndarray  # int64 — sorted reached keys b·τ·n + row


def reach_batch(
    live: LiveGraphSet,
    seed_b: np.ndarray,
    seed_row: np.ndarray,
    n_batches: int,
    blocked: np.ndarray | None = None,
) -> ReachBatchResult:
    """Batched reachability: batch entry b computes r from the rows
    ``seed_row[seed_b == b]`` (row i·n + v is vertex v of live graph i).
    Deterministic — no coins; the randomness lives in Build. ``blocked``
    (``bool[τ·n]`` over the rows) counts as already visited; see
    :func:`repro.ic.expand`."""
    rows = live.tau * live.n
    reached, edge_cost = expand(
        live.indptr, live.dst, None, seed_b.astype(np.int64) * rows + seed_row,
        rows, blocked=blocked,
    )
    counts = np.bincount(reached // rows, minlength=n_batches)
    return ReachBatchResult(counts.astype(np.int64), len(reached), edge_cost,
                            reached)
