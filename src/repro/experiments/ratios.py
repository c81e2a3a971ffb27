"""Comparable number/size ratios between approaches (§5.2.3, Tables 6–7).

The paper declares influence distribution I₁ better than I₂ if its mean is
greater (the mean dominates the other statistics — Figure 6). For a fixed
instance, alg₂'s sample number s₂ is *comparable* to alg₁'s s₁ if s₂ is the
least grid value whose mean influence is ≥ alg₁'s mean at s₁; the number
ratio is s₂/s₁ and the size ratio uses the measured mean sample sizes.
Tables 6/7 report the median ratio over the s₁ grid (the ratio is stable in
s₁ — "improves at the same rate up to scaling").

The mean statistics are aggregated with pandas over the trial rows that
``tables.table6_and_7`` collects once.
"""
import numpy as np
import pandas as pd

from repro.experiments.entropy import GROUP

INSTANCE = ["network", "setting", "k"]


def mean_stats(trials: pd.DataFrame) -> pd.DataFrame:
    """Mean influence and mean sample size per experiment group."""
    return trials.groupby(GROUP, as_index=False).agg(
        mean_influence=("influence", "mean"),
        mean_sample_size=("sample_size", "mean"),
        trials=("influence", "size"),
    )


def comparable_ratios(
    stats: pd.DataFrame, alg_from: str, alg_to: str
) -> pd.DataFrame:
    """Per instance: median comparable number (and size) ratio of
    ``alg_from`` to ``alg_to`` — "how many samples does alg_from need to
    match alg_to at each of alg_to's sample numbers".

    Ratios are only defined at s₁ values alg_from can match within its grid;
    instances where no s₁ is matchable yield NaN (paper's "-").
    """
    rows = []
    for keys, g in stats.groupby(INSTANCE):
        base = g[g["alg"] == alg_to].sort_values("sample_number")
        other = g[g["alg"] == alg_from].sort_values("sample_number")
        if base.empty or other.empty:
            continue
        num_ratios, size_ratios = [], []
        for _, b in base.iterrows():
            match = other[other["mean_influence"] >= b["mean_influence"]]
            if match.empty:
                continue
            m = match.iloc[0]
            num_ratios.append(m["sample_number"] / b["sample_number"])
            if b["mean_sample_size"] > 0:
                size_ratios.append(
                    m["mean_sample_size"] / b["mean_sample_size"]
                )
        rec = dict(zip(INSTANCE, keys))
        rec["n_points"] = len(num_ratios)
        rec["median_number_ratio"] = (
            float(np.median(num_ratios)) if num_ratios else np.nan
        )
        rec["median_size_ratio"] = (
            float(np.median(size_ratios)) if size_ratios else np.nan
        )
        rows.append(rec)
    cols = INSTANCE + ["n_points", "median_number_ratio", "median_size_ratio"]
    return pd.DataFrame(rows, columns=cols)


def table6(stats: pd.DataFrame) -> pd.DataFrame:
    """Median comparable number ratio of Oneshot to Snapshot."""
    t = comparable_ratios(stats, "oneshot", "snapshot")
    return t.drop(columns=["median_size_ratio"])


def table7(stats: pd.DataFrame) -> pd.DataFrame:
    """Median comparable number and size ratio of RIS to Snapshot."""
    return comparable_ratios(stats, "ris", "snapshot")
