"""Table 5 analytics on synthetic trial data with known answers."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments import quality
from tests.duckdb_oracle import assert_equivalent


def _mk_trials(rows):
    return pd.DataFrame(
        rows,
        columns=[
            "network", "setting", "alg", "sample_number", "k", "trial",
            "seed_set", "influence",
        ],
    )


def test_reference_influence_takes_mode_at_max_s():
    rows = (
        [("N", "S", "ris", 1024, 1, t, "7", 9.0) for t in range(8)]
        + [("N", "S", "ris", 1024, 1, 8, "3", 5.0)]
        + [("N", "S", "ris", 2, 1, 9, "1", 2.0)]
    )
    refs = quality.reference_influence(_mk_trials(rows))
    assert refs.loc[0, "ref_seed_set"] == "7"
    assert refs.loc[0, "ref_influence"] == 9.0


def test_reference_prefers_ris():
    rows = [
        ("N", "S", "oneshot", 1024, 1, 0, "2", 4.0),
        ("N", "S", "ris", 1024, 1, 0, "9", 8.0),
    ]
    refs = quality.reference_influence(_mk_trials(rows))
    assert refs.loc[0, "ref_seed_set"] == "9"


def test_least_sample_number_basic():
    # alg "a": at s=1 half the trials are near-optimal; at s=2 all are.
    rows = []
    for t in range(10):
        rows.append(("N", "S", "ris", 4, 1, t, "0", 10.0))
        rows.append(("N", "S", "a", 1, 1, t, str(t % 2), 10.0 if t % 2 else 5.0))
        rows.append(("N", "S", "a", 2, 1, t, "0", 10.0))
    trials = _mk_trials(rows)
    refs = quality.reference_influence(_mk_trials(rows))
    t5 = quality.least_sample_number(trials, refs)
    a_row = t5[t5["alg"] == "a"].iloc[0]
    assert a_row["least_sample_number"] == 2
    assert a_row["entropy_at_s"] == pytest.approx(0.0)


def test_least_sample_number_none_when_never_reached():
    rows = [
        ("N", "S", "ris", 4, 1, t, "0", 10.0) for t in range(5)
    ] + [("N", "S", "b", 1, 1, t, "1", 1.0) for t in range(5)]
    trials = _mk_trials(rows)
    refs = quality.reference_influence(_mk_trials(rows))
    t5 = quality.least_sample_number(trials, refs)
    b_row = t5[t5["alg"] == "b"].iloc[0]
    assert b_row["least_sample_number"] is None or pd.isna(
        b_row["least_sample_number"]
    )


def test_near_optimal_threshold_is_95_percent():
    # influence 9.5 of ref 10.0 counts; 9.4 does not.
    rows = (
        [("N", "S", "ris", 4, 1, 0, "0", 10.0)]
        + [("N", "S", "c", 1, 1, t, "1", 9.5) for t in range(5)]
        + [("N", "S", "d", 1, 1, t, "2", 9.4) for t in range(5)]
    )
    trials = _mk_trials(rows)
    refs = quality.reference_influence(_mk_trials(rows))
    frac = quality.near_optimal_fraction(trials, refs)
    c = frac[frac["alg"] == "c"]["frac_near_optimal"].iloc[0]
    d = frac[frac["alg"] == "d"]["frac_near_optimal"].iloc[0]
    assert c == 1.0 and d == 0.0


def test_confidence_requires_99_percent():
    # 99/100 passes, 98/100 fails.
    rows = [("N", "S", "ris", 4, 1, 0, "0", 10.0)]
    for t in range(100):
        rows.append(("N", "S", "e", 1, 1, t, "1", 10.0 if t < 99 else 1.0))
        rows.append(("N", "S", "f", 1, 1, t, "2", 10.0 if t < 98 else 1.0))
    trials = _mk_trials(rows)
    refs = quality.reference_influence(_mk_trials(rows))
    t5 = quality.least_sample_number(trials, refs)
    e = t5[t5["alg"] == "e"].iloc[0]
    f = t5[t5["alg"] == "f"].iloc[0]
    assert e["least_sample_number"] == 1
    assert pd.isna(f["least_sample_number"])


def test_near_optimal_fraction_against_duckdb():
    # Three instances with references and one without (dropped by the
    # join); about a third of the trials sit exactly on the 0.95 threshold.
    rng = np.random.default_rng(7)
    refs = pd.DataFrame({
        "network": ["A", "A", "B"],
        "setting": ["IWC", "UC_0.1", "IWC"],
        "k": [1, 4, 1],
        "ref_influence": [10.0, 7.3, 123.4],
    })
    rows = []
    for net, setting, k, ref in [*refs.itertuples(index=False),
                                 ("C", "IWC", 1, 5.0)]:
        for alg in ("oneshot", "snapshot", "ris"):
            for s in (1, 2, 4, 8):
                for t in range(int(rng.integers(5, 30))):
                    u = rng.random()
                    inf = (quality.NEAR_OPTIMAL * ref if u < 0.3
                           else ref * rng.uniform(0.85, 1.0))
                    rows.append((net, setting, alg, s, k, t, "0", inf))
    trials = _mk_trials(rows)
    ties = trials.merge(refs, on=quality.INSTANCE)
    assert (
        ties["influence"] == quality.NEAR_OPTIMAL * ties["ref_influence"]
    ).sum() > 100
    assert_equivalent(
        quality.near_optimal_fraction(trials, refs),
        """
        SELECT t.network, t.setting, t.alg, t.sample_number, t.k,
               AVG(CASE WHEN t.influence >= CAST(0.95 AS DOUBLE)
                                            * r.ref_influence
                        THEN 1.0 ELSE 0.0 END) AS frac_near_optimal,
               COUNT(*) AS trials
        FROM trials t JOIN refs r USING (network, setting, k)
        GROUP BY ALL
        """,
        trials=trials,
        refs=refs,
    )
