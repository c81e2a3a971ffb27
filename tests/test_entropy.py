"""Entropy analytics: util function and the pandas aggregation vs DuckDB."""
import math

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.entropy import seed_set_entropy
from tests.duckdb_oracle import assert_equivalent
from repro.util import entropy_bits


class TestEntropyBits:
    def test_degenerate(self):
        assert entropy_bits([10]) == 0.0

    def test_uniform(self):
        assert entropy_bits([5, 5, 5, 5]) == pytest.approx(2.0)

    def test_binary(self):
        assert entropy_bits([1, 1]) == pytest.approx(1.0)

    def test_ignores_zeros(self):
        assert entropy_bits([3, 0, 3]) == pytest.approx(1.0)

    def test_empty(self):
        assert entropy_bits([]) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=30))
    def test_bounds(self, counts):
        h = entropy_bits(counts)
        assert -1e-9 <= h <= math.log2(len(counts)) + 1e-9


def _trials_df(rows):
    return pd.DataFrame(
        rows,
        columns=[
            "network", "setting", "alg", "sample_number", "k", "seed_set",
        ],
    ).assign(trial=0, influence=0.0)


def test_spark_entropy_matches_util():
    rows = (
        [("N", "S", "a", 1, 1, "0")] * 6
        + [("N", "S", "a", 1, 1, "1")] * 2
        + [("N", "S", "a", 2, 1, "0")] * 8
    )
    df = _trials_df(rows)
    got = {
        (r["sample_number"]): r["entropy"]
        for r in seed_set_entropy(df).to_dict("records")
    }
    assert got[1] == pytest.approx(entropy_bits([6, 2]))
    assert got[2] == pytest.approx(0.0)


def test_spark_entropy_against_duckdb():
    rng = np.random.default_rng(0)
    rows = [
        ("N", "S", "a", int(s), 1, str(rng.integers(0, 5)))
        for s in rng.integers(1, 4, 200)
    ]
    df = _trials_df(rows)
    got = seed_set_entropy(df)[
        ["network", "setting", "alg", "sample_number", "k", "entropy"]
    ]
    assert_equivalent(
        got,
        """
        WITH counts AS (
          SELECT network, setting, alg, sample_number, k, seed_set,
                 COUNT(*) AS cnt
          FROM trials
          GROUP BY ALL
        ), tot AS (
          SELECT network, setting, alg, sample_number, k,
                 SUM(cnt) AS total
          FROM counts GROUP BY ALL
        )
        SELECT c.network, c.setting, c.alg, c.sample_number, c.k,
               -SUM((cnt / total) * LOG2(cnt / total)) AS entropy
        FROM counts c JOIN tot USING (network, setting, alg, sample_number, k)
        GROUP BY ALL
        """,
        trials=df,
    )


def test_entropy_capped_by_log_trials():
    rows = [("N", "S", "a", 1, 1, str(i)) for i in range(32)]
    df = _trials_df(rows)
    h = seed_set_entropy(df)["entropy"].iloc[0]
    assert h == pytest.approx(5.0)  # log2(32), all distinct
