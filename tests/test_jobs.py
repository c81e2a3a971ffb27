"""Smoke tests: every table runs end-to-end at the test profile."""
import os
import shutil
import subprocess
import sys

import pandas as pd
import pytest

from repro.experiments import tables

JOBS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "jobs")
RESULTS_DIR = os.path.join(os.path.dirname(JOBS_DIR), "results")
if JOBS_DIR not in sys.path:
    sys.path.insert(0, JOBS_DIR)


@pytest.fixture(scope="module")
def trials_dir(spark, tmp_path_factory):
    import cli

    # A relative --out from another working directory: the CLI must hand
    # Spark a path resolved against this process's directory.
    tmp = tmp_path_factory.mktemp("trials")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        cli.main(["sweeps", "--profile", "test", "--out", "trials"])
    return tmp / "trials"


@pytest.fixture(scope="module")
def trials(spark, trials_dir):
    import cli

    return cli.load_trials(spark, str(trials_dir)).cache()


def test_table3_and_table8_start_no_spark(tmp_path):
    # Both tables run on the driver alone: the CLI must not start a JVM.
    code = f"""
import sys
sys.path.insert(0, {JOBS_DIR!r})
import cli
from pyspark import SparkContext
cli.main(["table8", "--profile", "test"])
cli.main(["table3", "--out", {str(tmp_path / "table3.md")!r}])
assert SparkContext._active_spark_context is None
"""
    src = os.path.join(os.path.dirname(JOBS_DIR), "src")
    subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src},
    )
    with open(os.path.join(RESULTS_DIR, "table3.md")) as f:
        assert (tmp_path / "table3.md").read_text() == f.read()


def test_sweeps_redo_a_crashed_sweep(spark, trials_dir, tmp_path, capsys):
    import cli

    # A sweep whose write crashed: Spark leaves the directory with
    # _temporary/ and no _SUCCESS. Only that sweep is written again.
    out = tmp_path / "trials"
    shutil.copytree(trials_dir, out)
    parts = sorted(p.name for p in out.iterdir())
    crashed = out / parts[0]
    shutil.rmtree(crashed)
    (crashed / "_temporary").mkdir(parents=True)
    capsys.readouterr()
    cli.main(["sweeps", "--profile", "test", "--out", str(out)])
    log = capsys.readouterr().out
    assert (crashed / "_SUCCESS").exists()
    assert f"skip (exists): {crashed}" not in log
    for name in parts[1:]:
        assert f"skip (exists): {out / name}" in log
    redone = spark.read.parquet(str(crashed)).toPandas()
    before = spark.read.parquet(str(trials_dir / parts[0])).toPandas()
    key = ["alg", "sample_number", "trial"]
    pd.testing.assert_frame_equal(
        redone.sort_values(key).reset_index(drop=True),
        before.sort_values(key).reset_index(drop=True),
    )


def test_table3_job():
    t3 = tables.table3()
    karate = t3[t3["network"] == "Karate"].iloc[0]
    assert karate["n"] == 34 and karate["m"] == 156
    assert karate["max_out"] == 17
    with open(os.path.join(RESULTS_DIR, "table3.md")) as f:
        assert tables.to_markdown(t3) + "\n" == f.read()


def test_table4_job(spark):
    cached = dict(tables._ORACLE_CACHE)
    t4 = tables.table4(spark, theta=1 << 13)
    assert tables._ORACLE_CACHE == cached  # Table 4's oracles are not kept
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


def test_table8_job():
    t8 = tables.table8(profile="test")
    assert set(t8["alg"]) == {"oneshot", "snapshot", "ris"}
    k = t8.set_index("alg")
    # Karate UC_0.1 shape: vertex cost Oneshot ≈ Snapshot ≫ RIS.
    assert k.loc["oneshot", "vertex_cost"] == pytest.approx(
        k.loc["snapshot", "vertex_cost"], rel=0.15
    )
    assert k.loc["ris", "vertex_cost"] < k.loc["oneshot", "vertex_cost"] / 5


def test_table9_job(spark, trials):
    t8 = tables.table8(profile="test")
    t9 = tables.table9(*tables.table6_and_7(trials), t8)
    assert set(t9["alg"]) == {"oneshot", "snapshot", "ris"}
    assert (t9["cost_per_gamma"].dropna() > 0).all()


def test_to_markdown_renders():
    md = tables.to_markdown(pd.DataFrame({"a": [1.23456], "b": ["x"]}))
    assert md.splitlines()[0] == "| a | b |"
    assert "1.235" in md
