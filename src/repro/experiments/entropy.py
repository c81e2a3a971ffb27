"""Seed-set distribution entropy (§5.1) over collected trial rows.

The diversity of the empirical seed-set distribution from T trials is its
Shannon entropy H = −Σ_S p_S log₂ p_S; an empirical distribution from T
trials caps at log₂ T. Computed per (network, setting, alg, sample_number,
k) group with pandas on the driver: the trial rows are few, and each Spark
job over them costs far more than the aggregation (see DESIGN.md §6).
"""
import numpy as np
import pandas as pd

GROUP = ["network", "setting", "alg", "sample_number", "k"]


def seed_set_entropy(trials: pd.DataFrame) -> pd.DataFrame:
    """Entropy per experiment group; columns GROUP + (trials, entropy)."""
    cnt = trials.groupby(GROUP + ["seed_set"]).size()
    p = cnt / cnt.groupby(level=GROUP).transform("sum")
    return pd.DataFrame({
        "trials": cnt.groupby(level=GROUP).sum(),
        "entropy": -(p * np.log2(p)).groupby(level=GROUP).sum(),
    }).reset_index()
