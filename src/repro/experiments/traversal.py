"""Per-sample traversal cost (§5.3, Table 8) and the identical-accuracy
conditioning (§6, Table 9).

Table 8 measures, averaged over T independent runs, the cost of the first
greedy iteration at k = 1 with sample number 1:

* Oneshot — Estimate for every candidate with β = 1: one simulation per
  vertex (E[vertex cost] = Σ_v Inf(v), edge cost = Σ d⁺ over activated).
* Snapshot — one live graph, reachability scan from every candidate
  (same expected vertex cost; edge cost only touches live edges → ×m̃/m).
* RIS — generating a single RR set (E[vertex cost] = EPT, edge cost = w(R)).

Table 9 is arithmetic on Tables 6/7/8, exactly as the paper does: with
comparable number ratios cr₁ (Oneshot→Snapshot) and cr₂ (RIS→Snapshot),
running β = cr₁γ, τ = γ, θ = cr₂γ equalizes accuracy, so each approach's
cost per γ is its Table 8 (vertex+edge) cost × its ratio (Snapshot's is 1).
"""
import numpy as np
import pandas as pd

from repro.algorithms import ALGORITHMS, make_estimator
from repro.graphs.csr import CSRGraph
from repro.util import trial_rng


def sample_cost(
    graph: CSRGraph, alg: str, trials: int, base_seed: int = 11
) -> tuple[float, float]:
    """Mean (vertex, edge) cost per sample of ``alg``'s own estimator.

    Oneshot and Snapshot: a fresh estimator at sample number 1 per trial,
    charged for Estimate(∅) over every candidate. RIS: one estimator
    holding ``trials`` RR sets, charged for its Build.
    """
    a = ALGORITHMS.index(alg)
    if alg == "ris":
        est = make_estimator(alg, graph, trials, trial_rng(base_seed, a))
        return est.vertex_cost / trials, est.edge_cost / trials
    v = e = 0
    for t in range(trials):
        est = make_estimator(alg, graph, 1, trial_rng(base_seed, a, t))
        est.estimate_all(np.empty(0, dtype=np.int64))
        v += est.vertex_cost
        e += est.edge_cost
    return v / trials, e / trials


def ris_cost(
    graph: CSRGraph, trials: int, base_seed: int = 11
) -> tuple[float, float]:
    """Mean (vertex, edge) cost of generating one RR set."""
    return sample_cost(graph, "ris", trials, base_seed)


def table8_rows(
    graph: CSRGraph,
    network: str,
    setting: str,
    trials: int,
    include_oneshot: bool = True,
    base_seed: int = 11,
) -> list[dict]:
    """Table 8 rows for one influence graph (paper omits Oneshot on ★)."""
    rows = []
    for alg in ALGORITHMS:
        if alg == "oneshot" and not include_oneshot:
            continue
        v, e = sample_cost(graph, alg, trials, base_seed)
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


def table9_rows(
    table8: pd.DataFrame, table6: pd.DataFrame, table7: pd.DataFrame
) -> pd.DataFrame:
    """Conditioned traversal cost per γ from Tables 6/7/8 (k = 1 ratios)."""
    cols = ["network", "setting", "median_number_ratio"]
    ratio = pd.concat(
        [t.loc[t["k"] == 1, cols].assign(alg=alg)
         for alg, t in (("oneshot", table6), ("ris", table7))]
    )
    out = table8.merge(ratio, on=["network", "setting", "alg"], how="left")
    cr = out["median_number_ratio"].astype(float)
    cr = cr.where(out["alg"] != "snapshot", 1.0)
    return out[["network", "setting", "alg"]].assign(
        cost_per_gamma=(out["vertex_cost"] + out["edge_cost"]) * cr
    )
