"""Algorithm 3.3 — naive Snapshot estimator.

Build samples τ live-edge random graphs once; Estimate(S, v) returns
(1/τ) Σ_i [r_{G(i)}(S + v) − r_{G(i)}(S)] (Update does nothing — no
graph-reduction speed-ups, per the naive implementation the paper
measures).

The counters stay naive: r_{G(i)}(S) is scanned once per greedy iteration
and charged once, and each candidate's scan of R_i(S + v) is charged in
full, but only R_i(v) \\ R_i(S) is walked. Let a_i = |R_i(S)| and e_i be
the live out-degree summed over R_i(S). For v ∈ R_i(S) (every v ∈ S
included) no BFS runs: the marginal is 0 and the charge a_i vertices and
e_i edges. Otherwise, if row i·n + v has no live out-edge (a sink: on
UC_0.01 most rows are), no BFS runs either: v reaches itself alone, so the
marginal is 1 and the charge a_i + 1 vertices and e_i edges, exactly what
its BFS would return. Every other v walks: a BFS from v that treats R_i(S)
as visited returns exactly R_i(v) \\ R_i(S), the marginal, and the charge
is a_i and e_i plus what that BFS examines. Each candidate meets each live
graph once, so the computed charge is n·Σ_i a_i vertices and n·Σ_i e_i
edges: the base scan's counters n more times. The pruning is PMC's BFS over
already-reached sets (Ohsaka et al., AAAI 2014).

Build, :func:`sample_live_set`, packs the τ live graphs as one graph on
τ·n vertices: vertex v of live graph i is row i·n + v, and its live edges
lead to rows of the same graph i. Each live graph draws its m coins in
edge order (:func:`repro.ic.draw_hits`) and keeps the indices of its live
edges; the live edges of all τ graphs, stacked graph by graph, are then
already sorted by row, so one ``bincount`` lays out ``indptr`` of
``LiveGraphSet.out``, an adjacency without coins. Estimate's reachability
queries against many (graph, seed-set) pairs run as one
:func:`repro.ic.reach` over it, :func:`reach_batch`: the traversal Oneshot
runs with coins. Estimate
examines only **live** out-edges, which is why Snapshot's edge cost is
≈ m̃/m of Oneshot's; Build's coin flips (τ·m) are not charged to
Estimate, as in Table 8.

Because the τ graphs are fixed, this estimator is monotone and submodular
(§3.4.1) — property-tested in tests/test_snapshot.py.

Sample size = total number of live edges stored (≈ τ·m̃ in expectation).
"""
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import Adjacency, CSRGraph, row_indptr
from repro.ic import Reach, batches, draw_hits, reach


@dataclass(frozen=True)
class LiveGraphSet:
    """τ live graphs as one graph on τ·n rows (row i·n + v): ``out`` has
    ``indptr`` int64[τ·n + 1] and ``nbr`` int64[τ·m̃], the destination
    rows i·n + w, and no coins."""

    n: int
    tau: int
    out: Adjacency


def sample_live_set(
    graph: CSRGraph, tau: int, rng: np.random.Generator
) -> LiveGraphSet:
    """Snapshot Build: sample τ live graphs into one graph on τ·n rows."""
    n = graph.n
    live = [draw_hits(rng, graph.m, graph.out.p) for _ in range(tau)]
    offset = np.repeat(np.arange(tau) * n, [len(e) for e in live])
    edge = np.concatenate(live)
    src = np.repeat(np.arange(n), graph.out_degree())
    return LiveGraphSet(n, tau, Adjacency(
        row_indptr(src[edge] + offset, tau * n), graph.out.nbr[edge] + offset
    ))


def reach_batch(
    live: LiveGraphSet,
    seed_b: np.ndarray,
    seed_row: np.ndarray,
    n_batches: int,
    blocked: np.ndarray | None = None,
) -> Reach:
    """Batched reachability: batch entry b computes r from the rows
    ``seed_row[seed_b == b]`` (row i·n + v is vertex v of live graph i).
    Deterministic — no coins; the randomness lives in Build. ``blocked``
    (``bool[τ·n]`` over the rows) counts as already visited; see
    :func:`repro.ic.expand`."""
    return reach(live.out, seed_b, seed_row, n_batches, blocked=blocked)


class SnapshotEstimator:
    def __init__(
        self, graph: CSRGraph, tau: int, rng: np.random.Generator
    ) -> None:
        if tau < 1:
            raise ValueError("tau must be >= 1")
        self.graph = graph
        self.tau = tau
        self.live = sample_live_set(graph, tau, rng)
        self.vertex_cost = 0
        self.edge_cost = 0
        self.sample_size = len(self.live.out.nbr)

    def _marginals(self, current: np.ndarray) -> np.ndarray:
        """r_{G(i)}(S + v) − r_{G(i)}(S) per candidate v and live graph i,
        an (n, τ) matrix. Pairs (v, i) with v ∈ R_i(S) get 0 and sinks
        outside R_i(S), live rows i·n + v without a live out-edge, get 1
        and are charged 1 vertex and 0 edges, all without a BFS. Only the
        remaining pairs walk, in :func:`repro.ic.batches`, one
        ``reach_batch`` call each; a batch may split a candidate's
        graphs."""
        n, tau = self.graph.n, self.tau
        indptr = self.live.out.indptr
        walks = indptr[1:] > indptr[:-1]  # rows with a live out-edge
        marg = np.ones(tau * n, dtype=np.int64)
        unreached = tau * n  # rows outside R_i(S)
        blocked = None  # with S empty nothing is blocked
        if len(current):
            # R_i(S) of every i as one BFS: the live graphs share no row.
            seeds = (np.arange(tau)[:, None] * n + current).ravel()
            res = reach_batch(self.live, np.zeros(len(seeds), np.int64),
                              seeds, 1)
            blocked = np.zeros(tau * n, dtype=bool)  # row i·n + v ∈ R_i(S)
            blocked[res.keys] = True
            walks[res.keys] = False
            marg[res.keys] = 0
            unreached -= len(res.keys)
            self.vertex_cost += (n + 1) * res.vertex_cost
            self.edge_cost += (n + 1) * res.edge_cost
        walk = np.flatnonzero(walks)
        # Every other row outside R_i(S) reaches itself alone: 1 vertex.
        self.vertex_cost += unreached - len(walk)
        for lo, hi in batches(len(walk), n):
            row = walk[lo:hi]
            B = len(row)
            res = reach_batch(self.live, np.arange(B), row, B, blocked=blocked)
            marg[row] = res.counts
            self.vertex_cost += res.vertex_cost
            self.edge_cost += res.edge_cost
        return marg.reshape(tau, n).T

    def estimate_all(self, current_seeds: np.ndarray) -> np.ndarray:
        current = np.asarray(current_seeds, dtype=np.int64)
        return self._marginals(current).mean(axis=1)

    def update(self, chosen: int) -> None:  # noqa: ARG002 — per Alg 3.3
        return None
