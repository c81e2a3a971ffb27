"""Algorithm 3.3 — naive Snapshot estimator.

Build samples τ live-edge random graphs once; Estimate(S, v) returns
(1/τ) Σ_i [r_{G(i)}(S + v) − r_{G(i)}(S)] by plain reachability scans
(Update does nothing — no graph-reduction speed-ups, per the naive
implementation the paper measures). r_{G(i)}(S) is computed once per greedy
iteration per graph and its scan charged once, then each candidate's
r(S+v) scan is charged in full.

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

    def _reach_from(
        self, base: np.ndarray, extra: np.ndarray | None = None
    ) -> np.ndarray:
        """r_{G(i)}(base + extra[j]) per candidate j and layer i, a
        (len(extra), τ) matrix; without ``extra``, the (1, τ) row of
        r_{G(i)}(base). ``max_batch_cells // n`` pairs (at least τ) share
        one ``reach_batch`` call: a batch boundary, not a memory budget, and
        it may split a candidate's layers."""
        tau = self.tau
        pairs = tau * (1 if extra is None else len(extra))
        out = np.empty(pairs, dtype=np.int64)
        per_chunk = max(tau, self.max_batch_cells // max(1, self.graph.n))
        for lo in range(0, pairs, per_chunk):
            pair = np.arange(lo, min(pairs, lo + per_chunk), dtype=np.int64)
            B = len(pair)
            seed_b = np.repeat(np.arange(B, dtype=np.int64), len(base))
            seed_v = np.broadcast_to(base, (B, len(base))).ravel()
            if extra is not None:
                seed_b = np.concatenate((seed_b, np.arange(B)))
                seed_v = np.concatenate((seed_v, extra[pair // tau]))
            res = reach_batch(self.live, pair % tau, seed_b, seed_v, B)
            out[lo : lo + B] = res.reached
            self.vertex_cost += res.vertex_cost
            self.edge_cost += res.edge_cost
        return out.reshape(-1, tau)

    def estimate_all(self, current_seeds: np.ndarray) -> np.ndarray:
        current = np.asarray(current_seeds, dtype=np.int64)
        if len(current):
            base = self._reach_from(current)[0]  # r_i(S), scanned once
        else:
            base = np.zeros(self.tau, dtype=np.int64)
        candidates = np.arange(self.graph.n, dtype=np.int64)
        reach = self._reach_from(current, candidates)  # (n, τ)
        return (reach - base[None, :]).mean(axis=1)

    def update(self, chosen: int) -> None:  # noqa: ARG002 — per Alg 3.3
        return None
