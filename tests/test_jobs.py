"""Smoke tests: every table runs end-to-end at the test profile."""
import os
import sys

import pandas as pd
import pytest

from repro.experiments import tables

JOBS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "jobs")
if JOBS_DIR not in sys.path:
    sys.path.insert(0, JOBS_DIR)


@pytest.fixture(scope="module")
def trials(spark, tmp_path_factory):
    import cli

    # A relative --out from another working directory: the CLI must hand
    # Spark a path resolved against this process's directory.
    tmp = tmp_path_factory.mktemp("trials")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        cli.main(["sweeps", "--profile", "test", "--out", "trials"])
    return cli.load_trials(spark, str(tmp / "trials")).cache()


def test_table3_job(spark):
    t3 = tables.table3(spark, networks=["Karate", "BA_s"])
    assert list(t3["network"]) == ["Karate", "BA_s"]
    karate = t3[t3["network"] == "Karate"].iloc[0]
    assert karate["n"] == 34 and karate["m"] == 156
    assert karate["max_out"] == 17


def test_table4_job(spark):
    t4 = tables.table4(spark, theta=1 << 13)
    assert len(t4) == 8  # 2 networks × 4 settings
    assert (t4["inf_1st"] >= t4["inf_2nd"]).all()
    assert (t4["inf_2nd"] >= t4["inf_3rd"]).all()
    # Paper Table 4 ordering on both BA networks: IWC > OWC > UC_0.01
    # (UC_0.1 can exceed IWC on BA_d where a giant component emerges).
    for net in ("BA_s", "BA_d"):
        sub = t4[t4["network"] == net].set_index("setting")["inf_1st"]
        assert sub["IWC"] > sub["OWC"] > sub["UC_0.01"]


def test_sweep_parquet_shape(trials):
    pdf = trials.toPandas()
    assert set(pdf["alg"].unique()) == {"oneshot", "snapshot", "ris"}
    assert pdf.groupby(["setting", "alg", "sample_number"]).size().min() == 20


def test_table5_job(spark, trials):
    t5 = tables.table5(trials)
    assert set(t5["alg"]) == {"oneshot", "snapshot", "ris"}
    # Each (setting, alg) appears once for k=1.
    assert len(t5) == 6


def test_table6_job(spark, trials):
    t6 = tables.table6_and_7(trials)[0]
    assert len(t6) == 2  # two settings in the test profile
    assert "median_number_ratio" in t6.columns


def test_table7_job(spark, trials):
    t7 = tables.table6_and_7(trials)[1]
    assert len(t7) == 2
    # RIS samples are smaller than Snapshot's on Karate (size ratio < 1 is
    # the paper's space-saving finding; keep a loose bound here).
    assert (t7["median_size_ratio"] < 10).all()


def test_table8_job(spark):
    t8 = tables.table8(spark, profile="test")
    assert set(t8["alg"]) == {"oneshot", "snapshot", "ris"}
    k = t8.set_index("alg")
    # Karate UC_0.1 shape: vertex cost Oneshot ≈ Snapshot ≫ RIS.
    assert k.loc["oneshot", "vertex_cost"] == pytest.approx(
        k.loc["snapshot", "vertex_cost"], rel=0.15
    )
    assert k.loc["ris", "vertex_cost"] < k.loc["oneshot", "vertex_cost"] / 5


def test_table9_job(spark, trials):
    t8 = tables.table8(spark, profile="test")
    t9 = tables.table9(trials, t8)
    assert set(t9["alg"]) == {"oneshot", "snapshot", "ris"}
    assert (t9["cost_per_gamma"].dropna() > 0).all()


def test_to_markdown_renders():
    md = tables.to_markdown(pd.DataFrame({"a": [1.23456], "b": ["x"]}))
    assert md.splitlines()[0] == "| a | b |"
    assert "1.235" in md
