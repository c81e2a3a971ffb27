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
e_i edges. Otherwise a BFS from v that treats R_i(S) as visited returns
exactly R_i(v) \\ R_i(S), the marginal, and the charge is a_i and e_i plus
what that BFS examines. Each candidate meets each live graph once, so the
computed charge is n·Σ_i a_i vertices and n·Σ_i e_i edges: the base scan's
counters n more times. The pruning is PMC's BFS over already-reached sets
(Ohsaka et al., AAAI 2014).

Because the τ graphs are fixed, this estimator is monotone and submodular
(§3.4.1) — property-tested in tests/test_snapshot.py.

Sample size = total number of live edges stored (≈ τ·m̃ in expectation).
"""
import numpy as np

from repro.graphs.csr import CSRGraph
from repro.ic.live import reach_batch, sample_live_set


class SnapshotEstimator:
    def __init__(
        self,
        graph: CSRGraph,
        tau: int,
        rng: np.random.Generator,
        max_batch_cells: int = 50_000_000,
    ) -> None:
        if tau < 1:
            raise ValueError("tau must be >= 1")
        self.graph = graph
        self.tau = tau
        self.live = sample_live_set(graph, tau, rng)
        self.vertex_cost = 0
        self.edge_cost = 0
        self.sample_size = int(self.live.total_live_edges)
        self.max_batch_cells = max_batch_cells

    def _marginals(self, current: np.ndarray) -> np.ndarray:
        """r_{G(i)}(S + v) − r_{G(i)}(S) per candidate v and live graph i,
        an (n, τ) matrix. ``max_batch_cells // n`` walked pairs (v, i),
        live row i·n + v, share one ``reach_batch`` call: a batch boundary,
        not a memory budget, and it may split a candidate's graphs."""
        n, tau = self.graph.n, self.tau
        blocked = np.zeros(tau * n, dtype=bool)  # live row i·n + v ∈ R_i(S)
        if len(current):
            # R_i(S) of every i as one BFS: the live graphs share no row.
            seeds = (np.arange(tau)[:, None] * n + current).ravel()
            res = reach_batch(self.live, np.zeros(len(seeds), np.int64),
                              seeds, 1)
            blocked[res.keys] = True
            self.vertex_cost += (n + 1) * res.vertex_cost
            self.edge_cost += (n + 1) * res.edge_cost
        marg = np.zeros(tau * n, dtype=np.int64)
        walk = np.flatnonzero(~blocked)
        per_chunk = max(1, self.max_batch_cells // max(1, n))
        # With S empty nothing is blocked: skip the kernel's per-level test.
        mask = blocked if len(current) else None
        for lo in range(0, len(walk), per_chunk):
            row = walk[lo : lo + per_chunk]
            B = len(row)
            res = reach_batch(self.live, np.arange(B), row, B, blocked=mask)
            marg[row] = res.reached
            self.vertex_cost += res.vertex_cost
            self.edge_cost += res.edge_cost
        return marg.reshape(tau, n).T

    def estimate_all(self, current_seeds: np.ndarray) -> np.ndarray:
        current = np.asarray(current_seeds, dtype=np.int64)
        return self._marginals(current).mean(axis=1)

    def update(self, chosen: int) -> None:  # noqa: ARG002 — per Alg 3.3
        return None
