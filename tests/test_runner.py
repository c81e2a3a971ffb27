"""Distributed trial runner: end-to-end fan-out, determinism, schema."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.experiments.rr_oracle import build_oracle_local
from repro.experiments.runner import (
    TRIAL_SEED,
    TrialTask,
    run_trial_local,
    run_trials,
    sweep_tasks,
)
from repro.graphs import assign_probabilities, build_network_pandas, from_pandas


@pytest.fixture(scope="module")
def karate():
    g = from_pandas(
        assign_probabilities(build_network_pandas("Karate"), "UC_0.1")
    )
    oracle = build_oracle_local(g, 1 << 12)
    return g, oracle


def test_sweep_tasks_cartesian():
    tasks = sweep_tasks("N", "S", 2, {"oneshot": [1, 2], "ris": [4]}, 3)
    assert len(tasks) == 9
    assert {t.alg for t in tasks} == {"oneshot", "ris"}
    assert all(t.k == 2 for t in tasks)


def test_run_trial_local_deterministic(karate):
    g, oracle = karate
    task = TrialTask("Karate", "UC_0.1", "ris", 256, 2, 7)
    a = run_trial_local(g, oracle, task, base_seed=1)
    b = run_trial_local(g, oracle, task, base_seed=1)
    assert a == b
    c = run_trial_local(g, oracle, task, base_seed=2)
    assert c["seed_set"] != a["seed_set"] or c["influence"] == a["influence"]


def test_trials_differ_across_trial_ids(karate):
    g, oracle = karate
    sets = {
        run_trial_local(
            g, oracle, TrialTask("K", "S", "oneshot", 1, 1, t), 1
        )["seed_set"]
        for t in range(25)
    }
    assert len(sets) > 3  # β=1 is noisy → diverse solutions


def test_seed_set_sorted_format(karate):
    g, oracle = karate
    row = run_trial_local(
        g, oracle, TrialTask("K", "S", "snapshot", 4, 3, 0), 1
    )
    vs = [int(x) for x in row["seed_set"].split(",")]
    assert vs == sorted(vs) and len(vs) == 3


def test_run_trials_spark(spark, karate):
    g, oracle = karate
    tasks = sweep_tasks(
        "Karate", "UC_0.1", 1, {"oneshot": [1, 4], "snapshot": [2], "ris": [8]},
        5,
    )
    df = run_trials(spark, g, oracle, tasks).cache()
    assert df.count() == len(tasks)
    # Schema sanity.
    assert set(df.columns) == {
        "network", "setting", "alg", "sample_number", "k", "trial",
        "seed_set", "influence", "vertex_cost", "edge_cost", "sample_size",
    }
    # Every (alg, s) cell has exactly 5 trials.
    cells = df.groupBy("alg", "sample_number").count().collect()
    assert all(r["count"] == 5 for r in cells)
    # Oneshot stores nothing; snapshot/ris store samples.
    sizes = {
        r["alg"]: r["s"]
        for r in df.groupBy("alg").agg(F.sum("sample_size").alias("s")).collect()
    }
    assert sizes["oneshot"] == 0
    assert sizes["ris"] > 0
    df.unpersist()


def test_run_trials_matches_local(spark, karate):
    # The distributed path must produce identical rows to the local path
    # (same SeedSequence per task), whichever partition runs a trial; with
    # more trials than cores, every partition runs several of each cell.
    g, oracle = karate
    cores = spark.sparkContext.defaultParallelism
    tasks = sweep_tasks(
        "Karate", "UC_0.1", 2,
        {"oneshot": [1, 4], "snapshot": [1, 4], "ris": [16, 64]},
        cores + 1,
    )
    df = run_trials(spark, g, oracle, tasks)
    assert df.rdd.getNumPartitions() == min(len(tasks), cores)
    key = ("alg", "sample_number", "trial")
    dist = {tuple(r[c] for c in key): r.asDict() for r in df.collect()}
    assert len(dist) == len(tasks)
    for t in tasks:
        local = run_trial_local(g, oracle, t, base_seed=TRIAL_SEED)
        assert dist[tuple(local[c] for c in key)] == local


def test_influence_uses_shared_oracle(karate):
    # Identical seed sets get identical influence estimates (§5.2).
    g, oracle = karate
    rows = [
        run_trial_local(
            g, oracle, TrialTask("K", "S", "snapshot", 64, 1, t), 3
        )
        for t in range(10)
    ]
    by_set = {}
    for r in rows:
        by_set.setdefault(r["seed_set"], set()).add(r["influence"])
    assert all(len(v) == 1 for v in by_set.values())
