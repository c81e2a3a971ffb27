"""Local workloads: greedy trials through ``run_trial_local``, no Spark.

``greedy_lowp`` runs UC_0.01 graphs, where the expected RR-set size is close
to 1 and fixed costs per kernel call (dense ``bool[B·n]`` bitmaps, Snapshot's
per-candidate arrays) dominate. ``greedy_highp`` runs the same trial shapes
on IWC graphs, where the traversal itself dominates. A round runs every
(network, algorithm, k, sample number) cell once; the workload seed orders
each cell's pool of trial indices, whose results are pinned in
``golden.json``, so every ``POOL`` rounds run each pinned trial once. Each
round is timed between two speed probes (``common.Speed``) and scaled by
them.
"""
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.experiments import quality, ratios
from repro.experiments.entropy import GROUP
from repro.experiments.rr_oracle import RROracle, build_oracle_local
from repro.experiments.runner import TrialTask, run_trial_local
from repro.graphs.csr import CSRGraph, from_pandas
from repro.graphs.networks import NETWORKS, build_network_pandas
from repro.ic.rr import rr_sets
from repro.util import trial_rng

import common
import tracing

INSTANCES = {
    "greedy_lowp": (("BA_d", "UC_0.01"), ("youtube_lite", "UC_0.01")),
    "greedy_highp": (("BA_s", "IWC"), ("youtube_lite", "IWC")),
}
# (algorithm, k, sample number). ★ networks run Snapshot and RIS only, as
# in the paper. youtube_lite Snapshot runs k = 1 only: at k = 4 one trial
# takes seconds and its cost varies by a third between trials.
SMALL_CELLS = tuple(
    [("oneshot", k, s) for k in (1, 4) for s in (1, 16)]
    + [("snapshot", k, s) for k in (1, 4) for s in (1, 16)]
    + [("ris", k, s) for k in (1, 4) for s in (64, 16384)]
)
LARGE_CELLS = (
    ("snapshot", 1, 1), ("snapshot", 1, 4),
    ("ris", 1, 64), ("ris", 1, 16384), ("ris", 4, 64), ("ris", 4, 16384),
)
# build_oracle_local allocates θ·n bitmap cells in one call; keep it ≤ 2^26.
ORACLE_THETA = {"BA_d": 1 << 16, "BA_s": 1 << 16, "youtube_lite": 1 << 13}
ORACLE_SEED = 7
POOL = 16  # trial indices per cell pinned in golden.json
SETUP_REPEATS = 9
ANALYTICS_REPEATS = 15  # blocks of ANALYTICS_BLOCK runs
ANALYTICS_BLOCK = 8
INVARIANT_TRIALS = {"BA_d": 50, "BA_s": 50, "youtube_lite": 10}


@dataclass
class Instance:
    network: str
    setting: str
    graph: CSRGraph
    oracle: RROracle
    cells: tuple

    def task(self, alg: str, k: int, s: int, trial: int) -> TrialTask:
        return TrialTask(self.network, self.setting, alg, s, k, trial)


def influence_graph(network: str, setting: str) -> CSRGraph:
    """pandas twin of ``assign_probabilities`` for UC_x and IWC."""
    edges = build_network_pandas(network)
    if setting == "IWC":
        p = 1.0 / edges.groupby("dst")["dst"].transform("size")
    else:
        p = float(setting.removeprefix("UC_"))
    return from_pandas(edges[["src", "dst"]].assign(p=p))


@dataclass
class SetupTimes:
    """Scaled seconds of one set-up and of its oracle builds, and its
    measured seconds."""
    setup_s: float = 0.0
    oracle_s: float = 0.0
    raw_s: float = 0.0

    def add(self, scaled: float, raw: float) -> None:
        self.setup_s += scaled
        self.raw_s += raw


def setup(workload: str, speed: common.Speed):
    """Graphs, oracles and a warm-up round of one trial per algorithm, each
    step closed by a probe; returns the instances and their ``SetupTimes``."""
    instances, times = [], SetupTimes()
    for network, setting in INSTANCES[workload]:
        graph, *t = speed.run(influence_graph, network, setting)
        times.add(*t)
        oracle, *t = speed.run(
            build_oracle_local, graph, ORACLE_THETA[network], ORACLE_SEED
        )
        times.add(*t)
        times.oracle_s += t[0]
        cells = LARGE_CELLS if NETWORKS[network].large else SMALL_CELLS
        instances.append(Instance(network, setting, graph, oracle, cells))
    _, *t = speed.run(warm_up, instances)
    times.add(*t)
    return instances, times


def warm_up(instances: list[Instance]) -> None:
    for inst in instances:
        for alg in sorted({c[0] for c in inst.cells}):
            run_trial_local(
                inst.graph, inst.oracle, inst.task(alg, 1, 1, 0), common.BASE_SEED
            )


def all_tasks(instances: list[Instance]):
    """Every pinned trial: ``(instance, task)`` for each cell and pool index."""
    return [
        (inst, inst.task(alg, k, s, t))
        for inst in instances
        for alg, k, s in inst.cells
        for t in range(POOL)
    ]


@dataclass
class Round:
    """One round; ``wall_s`` and ``trial_s`` are scaled to the probe's
    nominal speed, ``raw_s`` is the round's measured wall time."""
    wall_s: float
    trial_s: list[float]
    units: int
    failed: int
    rows: list[dict]
    raw_s: float


def schedule(instances, seed: int) -> np.ndarray:
    """Trial index of each cell (row) in each round (column, modulo POOL):
    a permutation of the pool per cell, so every POOL rounds run each
    pinned trial once."""
    n_cells = sum(len(inst.cells) for inst in instances)
    pool = np.tile(np.arange(POOL), (n_cells, 1))
    return np.random.default_rng(seed).permuted(pool, axis=1)


def run_round(instances, trials, golden: dict, speed: common.Speed,
              wrap_oracle=None) -> Round:
    """Every cell once, cell ``i`` at pool index ``trials[i]``."""
    t0 = time.perf_counter()
    trial_s, rows, units, failed = [], [], 0, 0
    picks = iter(trials)
    for inst in instances:
        oracle = wrap_oracle(inst.oracle) if wrap_oracle else inst.oracle
        for alg, k, s in inst.cells:
            task = inst.task(alg, k, s, int(next(picks)))
            t1 = time.perf_counter()
            row = run_trial_local(inst.graph, oracle, task, common.BASE_SEED)
            trial_s.append(time.perf_counter() - t1)
            units += row["vertex_cost"] + row["edge_cost"]
            failed += golden.get(common.trial_key(row)) != common.trial_digest(row)
            rows.append(row)
    raw_s = time.perf_counter() - t0
    f = speed.factor()
    return Round(
        raw_s * f, [t * f for t in trial_s], units, failed, rows, raw_s
    )


def run_rounds(instances, plan, golden, seconds, speed, first=0,
               wrap_oracle=None) -> list[Round]:
    """Whole rounds of the ``schedule`` ``plan`` from round ``first``, each
    with its closing probe, that fit in ``seconds`` (at least two)."""
    out: list[Round] = []
    t0 = step = time.perf_counter()
    while len(out) < 2 or common.fits(t0, seconds, time.perf_counter() - step):
        step = time.perf_counter()
        trials = plan[:, (first + len(out)) % POOL]
        out.append(run_round(instances, trials, golden, speed, wrap_oracle))
    return out


def analytics(rows: list[dict], speed: common.Speed) -> tuple[float, float]:
    """Driver-side stages of the Table 5 and Table 6/7 analytics over the
    workload's trials: the reference influence and the comparable ratios
    (mean statistics aggregated in pandas, as ``ratios.mean_stats`` does
    in Spark). Runs them ``ANALYTICS_BLOCK`` times, closed by one probe;
    returns the scaled seconds of one run of each stage."""
    pdf = pd.DataFrame(rows)
    table5_s = table67_s = 0.0
    for _ in range(ANALYTICS_BLOCK):
        t0 = time.perf_counter()
        quality.reference_influence(pdf)
        t1 = time.perf_counter()
        stats = pdf.groupby(GROUP, as_index=False).agg(
            mean_influence=("influence", "mean"),
            mean_sample_size=("sample_size", "mean"),
            trials=("trial", "size"),
        )
        ratios.table6(stats)
        ratios.table7(stats)
        table5_s += t1 - t0
        table67_s += time.perf_counter() - t1
    f = speed.factor() / ANALYTICS_BLOCK
    return table5_s * f, table67_s * f


def run(workload: str, seed: int, seconds: float, trace: bool):
    speed = common.Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        instances, times = setup(workload, speed)
        setups.append(times)
    oracle_builds = [t.oracle_s for t in setups]

    golden = common.load_golden()[workload]
    plan = schedule(instances, seed)
    plain = run_rounds(
        instances, plan, golden, seconds / 2 if trace else seconds, speed
    )
    rounds = list(plain)
    tracer = tracing.Tracer()
    if trace:
        with tracing.traced(tracer) as wrap_oracle:
            traced = run_rounds(
                instances, plan, golden, seconds / 2, speed, len(plain),
                wrap_oracle,
            )
        rounds += traced

    # The same number of rows on every run, however many rounds fit.
    rows = [r for rd in rounds[:2] for r in rd.rows]
    an = [analytics(rows, speed) for _ in range(ANALYTICS_REPEATS)]
    # Percentiles and time per unit over the first POOL rounds, which run
    # each pinned trial once: the same work on every run that gets that far.
    trial_ms = [t * 1e3 for rd in plain[:POOL] for t in rd.trial_s]
    attempted = sum(len(rd.rows) for rd in rounds)
    failed = sum(rd.failed for rd in rounds)
    summary = {
        "workload": workload,
        "rounds": len(rounds),
        "trials": attempted,
        "fail_frac": failed / attempted,
        "raw_setup_s": common.median([t.raw_s for t in setups]),
        "raw_wall_s": common.median([rd.raw_s for rd in plain]),
        "probe_s_p50": common.median(speed.probes),
    }
    if trace:
        metrics = _per_layer(instances, tracer, plain, traced, oracle_builds, an)
    else:
        metrics = {
            "setup_s": (common.median([t.setup_s for t in setups]), "s"),
            "wall_s": (common.median([rd.wall_s for rd in plain]), "s"),
            "ns_per_unit": (common.ns_per_unit(plain[:POOL]), "ns"),
            "trial_ms_p50": (common.percentile(trial_ms, 50), "ms"),
            "trial_ms_p90": (common.percentile(trial_ms, 90), "ms"),
            "oracle_build_s": (common.median(oracle_builds), "s"),
            "sweep_s": (
                common.median([sum(rd.trial_s) for rd in plain]), "s"
            ),
            "analytics_s": (common.median([a + b for a, b in an]), "s"),
            "peak_rss_mb": (common.peak_rss_mb(), "MB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    return summary, attempted, failed, metrics


def _per_layer(instances, tracer, plain, traced, oracle_builds, an):
    metrics = tracer.layer_metrics()
    traced_wall = sum(rd.wall_s for rd in traced)
    task_sum = sum(sum(rd.trial_s) for rd in traced)
    metrics["runner.task_sum_s"] = (task_sum, "s")
    metrics["runner.parallel_efficiency"] = (task_sum / traced_wall, "ratio")
    metrics["runner.overhead_s"] = (traced_wall - task_sum, "s")

    kernel_s = 0.0
    for inst in instances:
        t0 = time.perf_counter()
        rr_sets(inst.graph, inst.oracle.theta, trial_rng(ORACLE_SEED, 0))
        kernel_s += time.perf_counter() - t0
    entries = sum(len(inst.oracle.rr_ids) for inst in instances)
    metrics["rr_oracle.build_s"] = (common.median(oracle_builds), "s")
    metrics["rr_oracle.entries"] = (entries, "count")
    # The local build collects nothing; this is what the membership rows
    # (two int64 columns) would move.
    metrics["rr_oracle.collect_bytes"] = (entries * 16, "bytes_computed")
    metrics["rr_oracle.kernel_s"] = (kernel_s, "s")
    metrics["analytics.table5_s"] = (common.median([a for a, _ in an]), "s")
    metrics["analytics.table67_s"] = (common.median([b for _, b in an]), "s")
    metrics["trace.overhead_frac"] = (
        common.ns_per_unit(traced) / common.ns_per_unit(plain) - 1.0, "ratio",
    )
    metrics.update(common.cost_invariants([
        (
            inst.network, inst.setting, inst.graph, inst.oracle,
            not NETWORKS[inst.network].large, INVARIANT_TRIALS[inst.network],
        )
        for inst in instances
    ]))
    return metrics
