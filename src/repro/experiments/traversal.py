"""Per-sample traversal cost (§5.3, Table 8).

Table 8 measures, averaged over T independent runs, the cost of the first
greedy iteration at k = 1 with sample number 1:

* Oneshot — Estimate for every candidate with β = 1: one simulation per
  vertex (E[vertex cost] = Σ_v Inf(v), edge cost = Σ d⁺ over activated).
* Snapshot — one live graph, reachability scan from every candidate
  (same expected vertex cost; edge cost only touches live edges → ×m̃/m).
* RIS — generating a single RR set (E[vertex cost] = EPT, edge cost = w(R)).
"""
import numpy as np

from repro.algorithms import ALGORITHMS, make_estimator
from repro.graphs.csr import CSRGraph
from repro.util import trial_rng

# Table 8's RNG root: results/table8.md was measured from it.
TABLE8_SEED = 11


def sample_cost(
    graph: CSRGraph, alg: str, trials: int
) -> tuple[float, float]:
    """Mean (vertex, edge) cost per sample of ``alg``'s own estimator.

    Oneshot and Snapshot: a fresh estimator at sample number 1 per trial,
    charged for Estimate(∅) over every candidate. RIS: one estimator
    holding ``trials`` RR sets, charged for its Build.
    """
    a = ALGORITHMS.index(alg)
    if alg == "ris":
        est = make_estimator(alg, graph, trials, trial_rng(TABLE8_SEED, a))
        return est.vertex_cost / trials, est.edge_cost / trials
    v = e = 0
    for t in range(trials):
        est = make_estimator(alg, graph, 1, trial_rng(TABLE8_SEED, a, t))
        est.estimate_all(np.empty(0, dtype=np.int64))
        v += est.vertex_cost
        e += est.edge_cost
    return v / trials, e / trials


def ris_cost(graph: CSRGraph, trials: int) -> tuple[float, float]:
    """Mean (vertex, edge) cost of generating one RR set."""
    return sample_cost(graph, "ris", trials)


def table8_rows(
    graph: CSRGraph,
    network: str,
    setting: str,
    trials: int,
    include_oneshot: bool = True,
) -> list[dict]:
    """Table 8 rows for one influence graph (paper omits Oneshot on ★)."""
    rows = []
    for alg in ALGORITHMS:
        if alg == "oneshot" and not include_oneshot:
            continue
        v, e = sample_cost(graph, alg, trials)
        rows.append(
            {
                "network": network,
                "setting": setting,
                "alg": alg,
                "vertex_cost": round(v, 1),
                "edge_cost": round(e, 1),
            }
        )
    return rows

