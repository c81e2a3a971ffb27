"""Tables 6/7 analytics on synthetic mean-influence curves."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments import ratios
from tests.duckdb_oracle import assert_equivalent


def _stats(rows):
    return pd.DataFrame(
        rows,
        columns=[
            "network", "setting", "alg", "sample_number", "k",
            "mean_influence", "mean_sample_size", "trials",
        ],
    )


def test_known_4x_ratio():
    # alg_from needs 4× the samples of alg_to for the same mean.
    rows = []
    for s in [1, 2, 4, 8, 16, 32, 64]:
        rows.append(("N", "S", "snapshot", s, 1, np.log2(s) + 1, s * 10.0, 5))
        rows.append(("N", "S", "oneshot", s, 1, np.log2(s) / 2 + 1, 0.0, 5))
    t = ratios.comparable_ratios(_stats(rows), "oneshot", "snapshot")
    # mean_to(s) = log2(s)+1; oneshot reaches it at log2(s')/2+1 ≥ log2(s)+1
    # → s' = s². Ratios: s²/s = s at each matchable point → median over
    # matchable s1 ∈ {1,2,4,8}: ratios {1,2,4,8} → median 3.
    assert t.loc[0, "median_number_ratio"] == pytest.approx(3.0)


def test_equal_curves_ratio_one():
    rows = []
    for s in [1, 2, 4, 8]:
        for alg in ("snapshot", "ris"):
            rows.append(("N", "S", alg, s, 1, float(s), s * 2.0, 5))
    t = ratios.comparable_ratios(_stats(rows), "ris", "snapshot")
    assert t.loc[0, "median_number_ratio"] == 1.0
    assert t.loc[0, "median_size_ratio"] == 1.0


def test_unmatchable_gives_nan():
    rows = [
        ("N", "S", "snapshot", 1, 1, 100.0, 10.0, 5),
        ("N", "S", "oneshot", 1, 1, 1.0, 0.0, 5),
        ("N", "S", "oneshot", 2, 1, 2.0, 0.0, 5),
    ]
    t = ratios.comparable_ratios(_stats(rows), "oneshot", "snapshot")
    assert np.isnan(t.loc[0, "median_number_ratio"])
    assert t.loc[0, "n_points"] == 0


def test_size_ratio_uses_sample_sizes():
    # ris matches snapshot 1:1 in sample number but with 10× smaller samples.
    rows = []
    for s in [1, 2, 4]:
        rows.append(("N", "S", "snapshot", s, 1, float(s), s * 100.0, 5))
        rows.append(("N", "S", "ris", s, 1, float(s), s * 10.0, 5))
    t = ratios.comparable_ratios(_stats(rows), "ris", "snapshot")
    assert t.loc[0, "median_size_ratio"] == pytest.approx(0.1)


def test_table6_drops_size_column():
    rows = [
        ("N", "S", "snapshot", 1, 1, 1.0, 10.0, 5),
        ("N", "S", "oneshot", 1, 1, 1.0, 0.0, 5),
    ]
    t6 = ratios.table6(_stats(rows))
    assert "median_size_ratio" not in t6.columns


def test_multiple_instances_grouped():
    rows = []
    for net in ("A", "B"):
        mult = 1 if net == "A" else 2
        for s in [1, 2, 4, 8]:
            rows.append((net, "S", "snapshot", s, 1, float(s), 1.0, 5))
            rows.append((net, "S", "ris", s * mult, 1, float(s), 1.0, 5))
    t = ratios.comparable_ratios(_stats(rows), "ris", "snapshot")
    byname = t.set_index("network")["median_number_ratio"]
    assert byname["A"] == 1.0
    assert byname["B"] == 2.0


def test_mean_stats_spark():
    pdf = pd.DataFrame(
        {
            "network": ["N"] * 4,
            "setting": ["S"] * 4,
            "alg": ["ris"] * 4,
            "sample_number": [8, 8, 16, 16],
            "k": [1] * 4,
            "trial": [0, 1, 0, 1],
            "seed_set": ["0"] * 4,
            "influence": [2.0, 4.0, 6.0, 8.0],
            "sample_size": [10, 20, 40, 40],
        }
    )
    stats = ratios.mean_stats(pdf)
    row8 = stats[stats["sample_number"] == 8].iloc[0]
    assert row8["mean_influence"] == 3.0
    assert row8["mean_sample_size"] == 15.0


def test_mean_stats_against_duckdb():
    rng = np.random.default_rng(11)
    rows = []
    for net, setting, k in [("A", "IWC", 1), ("A", "IWC", 4),
                            ("B", "UC_0.01", 1)]:
        for alg in ("oneshot", "snapshot", "ris"):
            for s in (1, 2, 4, 8, 16):
                for t in range(int(rng.integers(3, 25))):
                    rows.append((
                        net, setting, alg, s, k, t, "0",
                        float(rng.uniform(1, 50)), int(rng.integers(0, 500)),
                    ))
    trials = pd.DataFrame(rows, columns=[
        "network", "setting", "alg", "sample_number", "k", "trial",
        "seed_set", "influence", "sample_size",
    ])
    assert_equivalent(
        ratios.mean_stats(trials),
        """
        SELECT network, setting, alg, sample_number, k,
               AVG(influence) AS mean_influence,
               AVG(sample_size) AS mean_sample_size,
               COUNT(*) AS trials
        FROM trials GROUP BY ALL
        """,
        trials=trials,
    )
