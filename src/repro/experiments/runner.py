"""Distributed trial fan-out (§4's methodology).

One experiment = run algorithm ``alg`` with sample number ``s`` T times and
record each random seed set with its oracle influence. Trials are
independent, so they fan out as one ``mapInPandas`` task per core: the task
list, the CSR graph and the RR oracle are broadcast, and partition p of P
runs ``tasks[p::P]``. That round-robin deal gives every partition ⌊T/P⌋ or
⌈T/P⌉ trials of every (alg, s) cell, so the static split stays balanced.
One task per core, and no task DataFrame or shuffle, because on local Spark
the cost is the number of tasks, not the trials: a trivial ``mapInPandas``
job took 0.19–0.34 s with 2 tasks, 0.80–0.87 s with 8 and 1.5–1.8 s with
16 (4 vCPUs, ``local[2]``), while a test-profile trial takes under a
millisecond. Each trial's randomness is keyed by its task (``trial_rng``),
so rows do not depend on the deal. The downstream statistics (entropy,
means, least sample numbers) collect the columns they need from the
returned trial table once and aggregate them in pandas (``tables.py``).

Trial-result schema:
  network, setting, alg, sample_number, k, trial,
  seed_set (sorted ','-joined), influence (shared-oracle estimate),
  vertex_cost, edge_cost, sample_size
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.algorithms import ALGORITHMS, make_estimator, run_greedy
from repro.graphs.csr import CSRGraph
from repro.ic.rr import RRSets
from repro.util import trial_rng

# The sweeps' RNG root: the committed trial tables were drawn from it.
TRIAL_SEED = 2020

RESULT_SCHEMA = (
    "network string, setting string, alg string, sample_number long, "
    "k long, trial long, seed_set string, influence double, "
    "vertex_cost long, edge_cost long, sample_size long"
)


@dataclass(frozen=True)
class TrialTask:
    network: str
    setting: str
    alg: str  # "oneshot" | "snapshot" | "ris"
    sample_number: int
    k: int
    trial: int


def run_trial_local(
    graph: CSRGraph,
    oracle: RRSets,
    task: TrialTask,
    base_seed: int,
) -> dict:
    """Run one greedy trial (used by workers and directly in tests)."""
    rng = trial_rng(
        base_seed,
        ALGORITHMS.index(task.alg),
        task.sample_number,
        task.k,
        task.trial,
    )
    est = make_estimator(task.alg, graph, task.sample_number, rng)
    res = run_greedy(est, graph.n, task.k, rng)
    seed_set = ",".join(str(v) for v in sorted(res.seeds))
    return {
        "network": task.network,
        "setting": task.setting,
        "alg": task.alg,
        "sample_number": task.sample_number,
        "k": task.k,
        "trial": task.trial,
        "seed_set": seed_set,
        "influence": oracle.estimate(np.array(res.seeds)),
        "vertex_cost": res.vertex_cost,
        "edge_cost": res.edge_cost,
        "sample_size": res.sample_size,
    }


def run_trials(
    spark: SparkSession,
    graph: CSRGraph,
    oracle: RRSets,
    tasks: list[TrialTask],
) -> DataFrame:
    """Fan trials out over the cluster, one task per core; returns the
    trial-result DataFrame."""
    sc = spark.sparkContext
    bc_graph = sc.broadcast(graph)
    bc_oracle = sc.broadcast(oracle)
    bc_tasks = sc.broadcast(tasks)
    n_parts = max(1, min(len(tasks), sc.defaultParallelism))

    def work(batches):
        g = bc_graph.value
        orc = bc_oracle.value
        for pdf in batches:
            for p in pdf["id"]:
                yield pd.DataFrame([
                    run_trial_local(g, orc, task, TRIAL_SEED)
                    for task in bc_tasks.value[int(p)::n_parts]
                ])

    return spark.range(n_parts, numPartitions=n_parts).mapInPandas(
        work, schema=RESULT_SCHEMA
    )


def sweep_tasks(
    network: str,
    setting: str,
    k: int,
    grids: dict[str, list[int]],
    trials: int,
) -> list[TrialTask]:
    """Cartesian task list: every algorithm × its sample-number grid × T."""
    return [
        TrialTask(network, setting, alg, s, k, t)
        for alg, grid in grids.items()
        for s in grid
        for t in range(trials)
    ]
