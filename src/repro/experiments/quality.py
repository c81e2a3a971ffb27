"""Influence-distribution quality analysis (§5.2, Table 5).

* Exact Greedy reference: the paper takes the unique seed set obtained once
  the seed-set distribution degenerates (H = 0). We take one algorithm's
  modal seed set at the instance's largest sample number (they agree
  across algorithms when converged — asserted by the convergence test) and
  its shared-oracle influence as the reference.
* A trial is *near-optimal* if its influence ≥ 0.95 × reference.
* Table 5 reports, per algorithm, the least sample number s* whose
  near-optimal fraction over T trials is ≥ 99%, and the entropy H* at s*.

Everything here works on the trial rows collected to the driver as one
pandas frame (``tables.table5`` collects them once).
"""
import numpy as np
import pandas as pd

from repro.experiments.entropy import GROUP, seed_set_entropy

NEAR_OPTIMAL = 0.95
CONFIDENCE = 0.99
INSTANCE = ["network", "setting", "k"]


def reference_influence(trials_pdf: pd.DataFrame) -> pd.DataFrame:
    """Per instance: the modal seed set of one algorithm at the instance's
    largest sample number, and its oracle influence. The algorithm is
    'ris' if it ran at that sample number (the paper's deepest grid), else
    the first by name; a tie for the mode goes to the smallest seed-set
    string."""
    rows = []
    for keys, g in trials_pdf.groupby(INSTANCE):
        smax = g["sample_number"].max()
        at_max = g[g["sample_number"] == smax]
        # Prefer ris if it is among the algs at the deepest sample number.
        algs = at_max["alg"].unique()
        alg = "ris" if "ris" in algs else sorted(algs)[0]
        sel = at_max[at_max["alg"] == alg]
        mode = sel["seed_set"].mode().iloc[0]
        inf_ref = float(sel.loc[sel["seed_set"] == mode, "influence"].iloc[0])
        rows.append(dict(zip(INSTANCE, keys)) | {
            "ref_seed_set": mode, "ref_influence": inf_ref,
        })
    return pd.DataFrame(rows)


def near_optimal_fraction(
    trials: pd.DataFrame, refs: pd.DataFrame
) -> pd.DataFrame:
    """Fraction of near-optimal trials per experiment group."""
    df = trials.merge(refs[INSTANCE + ["ref_influence"]], on=INSTANCE)
    ok = df["influence"] >= NEAR_OPTIMAL * df["ref_influence"]
    return df.assign(ok=ok).groupby(GROUP, as_index=False).agg(
        frac_near_optimal=("ok", "mean"), trials=("ok", "size")
    )


def least_sample_number(
    trials: pd.DataFrame, refs: pd.DataFrame
) -> pd.DataFrame:
    """Table 5 rows: per (instance, alg) the least s with ≥99% near-optimal
    trials, plus entropy at that s. NaN when no grid value qualifies."""
    frac = near_optimal_fraction(trials, refs)
    ent = seed_set_entropy(trials)
    merged = frac.merge(ent[GROUP + ["entropy"]], on=GROUP)
    rows = []
    for keys, g in merged.groupby(INSTANCE + ["alg"]):
        g = g.sort_values("sample_number")
        need = np.ceil(CONFIDENCE * g["trials"]) / g["trials"]
        ok = g[g["frac_near_optimal"] >= need]
        rec = dict(zip(INSTANCE + ["alg"], keys))
        if len(ok):
            best = ok.iloc[0]
            rec |= {
                "least_sample_number": int(best["sample_number"]),
                "log2_s": float(np.log2(best["sample_number"])),
                "entropy_at_s": float(best["entropy"]),
            }
        else:
            rec |= {
                "least_sample_number": None,
                "log2_s": None,
                "entropy_at_s": None,
            }
        rows.append(rec)
    return pd.DataFrame(rows)
