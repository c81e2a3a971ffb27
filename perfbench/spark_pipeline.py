"""Spark workload: the oracle build, the test-profile sweeps and their tables.

One iteration builds the RR oracle of a quick-profile network with
``build_oracle`` (θ large enough that the driver's ``toPandas`` collect
matters), runs both ``sweeps("test")`` through ``run_sweep`` (many cheap
Karate trials fanned out with ``mapInPandas``), and computes ``table5`` and
``table6_and_7`` over the result. The kernels do little here; broadcast,
task scheduling, the Arrow collect and the DataFrame analytics dominate.
The workload seed picks the oracle's build seed from a pool pinned in
``golden.json``; the sweeps always use the runner's fixed seeds. After the
JVM exits, the sweeps' tasks are replayed serially on the driver through
``run_trial_local`` for the per-trial times; that replay is scaled by the
speed probe (``common.Speed``), the Spark phases by a power of it.
"""
import gc
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.experiments.instances import sweeps
from repro.experiments.rr_oracle import build_oracle
from repro.experiments.runner import run_trial_local, sweep_tasks
from repro.experiments.tables import (
    cached_graph, cached_oracle, run_sweep, table5, table6_and_7,
)
from repro.ic.rr import rr_sets
from repro.util import trial_rng

import common
import tracing

ORACLE_NETWORK = ("pokec_lite", "IWC")
ORACLE_THETA = 1 << 15
ORACLE_SEEDS = (7, 8, 9, 10)
INVARIANT_TRIALS = 200
# The replayed trials take under a millisecond; percentiles are taken per
# pass and their median over the timed passes is reported; the first pass
# is a warm-up.
REPLAY_PASSES = 11
DRIVER_MEMORY = "2g"
# The Spark phases wait on the JVM, the Python workers and the disk as much
# as they compute, so they follow the host's speed about half as strongly as
# the probe: over 30 runs on a 4-vCPU VM, their log time rose by 0.34-0.51
# per unit of the probe's log time. They (and set-up) are scaled by the probe
# ratio to this power, with the median of the run's probes (before Spark
# starts, before each iteration and around each replay pass).
SPARK_SPEED_EXPONENT = 0.5


def cores() -> int:
    """Half the CPUs, at most two: the driver, the JVM's own threads and
    the probe keep the rest, so timings do not measure the scheduler."""
    return max(1, min(2, len(os.sched_getaffinity(0)) // 2))


def start_spark():
    """Local Spark with at most ``nproc`` cores; scratch files stay in the
    checkout."""
    scratch = os.path.join(common.ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SPARK_LOCAL_DIRS"] = scratch
    # Every JVM, the launcher's too: temp files in the checkout, and no
    # hsperfdata files under the system temp directory.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={scratch}"
    os.environ["PYSPARK_PYTHON"] = os.environ["PYSPARK_DRIVER_PYTHON"] = (
        os.environ.get("PYSPARK_PYTHON") or sys.executable
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores()}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={scratch} "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    # The job entrypoints' session settings (jobs/_common.get_spark).
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()
        SparkContext._gateway = None
        SparkContext._jvm = None


def oracle_digest(oracle) -> str:
    """Digest of the oracle's membership, RR ids sorted within each vertex
    (their order follows task partitioning, which is not part of the
    result)."""
    vertex = np.repeat(np.arange(oracle.n), np.diff(oracle.vert_indptr))
    order = np.lexsort((oracle.rr_ids, vertex))
    return common.array_digest(oracle.vert_indptr, oracle.rr_ids[order])


@dataclass
class Iteration:
    """One iteration's measured phase seconds."""
    oracle_s: float
    sweep_s: float
    table5_s: float
    table67_s: float
    units: int
    digests: dict[str, str]
    failed: int

    @property
    def wall_s(self) -> float:
        return self.oracle_s + self.sweep_s + self.table5_s + self.table67_s


def iteration(spark, graph, oracle_seed: int, golden: dict, tracer=None):
    span = tracer.span if tracer else (lambda name: nullcontext())
    phases = []
    t0 = time.perf_counter()
    with span("rr_oracle.build"):
        oracle = build_oracle(spark, graph, ORACLE_THETA, base_seed=oracle_seed)
    phases.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    with span("runner.sweep"):
        pdf = pd.concat(
            [run_sweep(spark, sw).toPandas() for sw in sweeps("test")],
            ignore_index=True,
        )
    phases.append(time.perf_counter() - t0)
    trials = spark.createDataFrame(pdf)
    t0 = time.perf_counter()
    with span("analytics.table5"):
        t5 = table5(trials)
    phases.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    with span("analytics.table67"):
        t6, t7 = table6_and_7(trials)
    phases.append(time.perf_counter() - t0)

    digests = {f"oracle|{oracle_seed}": oracle_digest(oracle)}
    for name, df in (("table5", t5), ("table6", t6), ("table7", t7)):
        digests[name] = common.frame_digest(df)
    for r in pdf.to_dict("records"):
        digests[common.trial_key(r)] = common.trial_digest(r)
    rr_edges = int(np.diff(oracle.vert_indptr) @ graph.in_degree())
    units = int(pdf["vertex_cost"].sum() + pdf["edge_cost"].sum())
    units += len(oracle.rr_ids) + rr_edges
    return Iteration(
        *phases, units, digests, common.mismatches(golden, digests)
    ), oracle


def replay(instances, golden: dict, speed: common.Speed, wrap_oracle=None):
    """Serial replay of the sweeps' tasks through ``run_trial_local``,
    ``REPLAY_PASSES`` times, on ``(sweep, graph, oracle)`` instances;
    returns the per-trial seconds of each pass after the first, scaled by
    the probes around the pass, and the number of mismatches."""
    gc.collect()
    passes, failed = [], 0
    for _ in range(REPLAY_PASSES):
        trial_s = []
        for sw, graph, oracle in instances:
            if wrap_oracle:
                oracle = wrap_oracle(oracle)
            tasks = sweep_tasks(sw.network, sw.setting, sw.k, sw.grids, sw.trials)
            for task in tasks:
                t0 = time.perf_counter()
                row = run_trial_local(graph, oracle, task, common.BASE_SEED)
                trial_s.append(time.perf_counter() - t0)
                failed += golden.get(common.trial_key(row)) != (
                    common.trial_digest(row)
                )
        f = speed.factor()
        passes.append([t * f for t in trial_s])
    return passes[1:], failed


def run(workload: str, seed: int, seconds: float, trace: bool):
    golden = common.load_golden()[workload]
    speed = common.Speed()
    t0 = time.perf_counter()
    spark = start_spark()
    try:
        graph = cached_graph(spark, *ORACLE_NETWORK)
        # Warm-up: the first iteration starts the Python workers and fills
        # the sweeps' graph and oracle caches; it is part of set-up.
        iteration(spark, graph, ORACLE_SEEDS[0], golden)
        setup_s = time.perf_counter() - t0

        instances = [
            (
                sw,
                cached_graph(spark, sw.network, sw.setting),
                cached_oracle(spark, sw.network, sw.setting, sw.oracle_theta),
            )
            for sw in sweeps("test")
        ]
        tracer = tracing.Tracer()

        seeds = np.random.default_rng(seed).permutation(ORACLE_SEEDS)
        plain, traced = [], []
        t_run = step = time.perf_counter()
        while (
            len(plain) < 2
            or (trace and len(traced) < 2)
            or common.fits(t_run, seconds, time.perf_counter() - step)
        ):
            # Start each iteration with no garbage left by the previous one,
            # in the driver or in the JVM, and probe the speed while both
            # are idle.
            gc.collect()
            spark.sparkContext._jvm.System.gc()
            speed.factor()
            step = time.perf_counter()
            oracle_seed = int(seeds[(len(plain) + len(traced)) % len(seeds)])
            if trace and len(traced) < len(plain):
                with tracing.traced(tracer):
                    it, oracle = iteration(spark, graph, oracle_seed, golden, tracer)
                traced.append(it)
            else:
                it, oracle = iteration(spark, graph, oracle_seed, golden)
                plain.append(it)
        sc = spark.sparkContext
        env = {
            "spark_master": sc.master,
            "spark_default_parallelism": sc.defaultParallelism,
            "spark_driver_memory": sc.getConf().get(
                "spark.driver.memory", DRIVER_MEMORY
            ),
        }
    finally:
        stop_spark(spark)

    # Replay the sweeps' tasks once the JVM has exited, so that its
    # leftover work does not share the cores; each pass is scaled by the
    # probes around it, as the greedy rounds are.
    speed.factor()
    with tracing.traced(tracer) if trace else nullcontext() as wrap_oracle:
        passes, replay_failed = replay(instances, golden, speed, wrap_oracle)

    iters = plain + traced
    attempted = sum(len(it.digests) for it in iters)
    attempted += REPLAY_PASSES * len(passes[0])
    failed = sum(it.failed for it in iters) + replay_failed
    summary = {
        "workload": workload,
        "iterations": len(iters),
        "operations": attempted,
        "fail_frac": failed / attempted,
        "raw_setup_s": setup_s,
        "raw_wall_s": common.median([i.wall_s for i in plain]),
        "probe_s_p50": common.median(speed.probes),
        "env": env,
    }
    if trace:
        metrics = _per_layer(
            env["spark_default_parallelism"], graph, oracle, instances,
            tracer, plain, traced, passes,
        )
    else:
        def trial_ms(q: float) -> float:
            return common.median([common.percentile(p, q) * 1e3 for p in passes])

        f = (
            common.PROBE_NOMINAL_S / common.median(speed.probes)
        ) ** SPARK_SPEED_EXPONENT
        metrics = {
            "setup_s": (f * setup_s, "s"),
            "wall_s": (f * common.median([i.wall_s for i in plain]), "s"),
            "ns_per_unit": (
                f * common.median([common.ns_per_unit([i]) for i in plain]),
                "ns",
            ),
            "trial_ms_p50": (trial_ms(50), "ms"),
            "trial_ms_p90": (trial_ms(90), "ms"),
            "oracle_build_s": (
                f * common.median([i.oracle_s for i in plain]), "s",
            ),
            "sweep_s": (f * common.median([i.sweep_s for i in plain]), "s"),
            "analytics_s": (
                f * common.median([i.table5_s + i.table67_s for i in plain]),
                "s",
            ),
            "peak_rss_mb": (common.peak_rss_mb(), "MB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    return summary, attempted, failed, metrics


def _per_layer(n_cores, graph, oracle, instances, tracer, plain, traced, passes):
    metrics = tracer.layer_metrics()
    sweep_wall = common.median(tracer.durations("runner.sweep"))
    task_sum = common.median([sum(p) for p in passes])
    metrics["runner.task_sum_s"] = (task_sum, "s")
    metrics["runner.parallel_efficiency"] = (
        task_sum / (sweep_wall * n_cores), "ratio",
    )
    metrics["runner.overhead_s"] = (sweep_wall - task_sum / n_cores, "s")

    t0 = time.perf_counter()
    rr_sets(graph, ORACLE_THETA, trial_rng(ORACLE_SEEDS[0], 0))
    kernel_s = time.perf_counter() - t0
    entries = len(oracle.rr_ids)
    metrics["rr_oracle.build_s"] = (
        common.median(tracer.durations("rr_oracle.build")), "s",
    )
    metrics["rr_oracle.entries"] = (entries, "count")
    # Two int64 columns per membership row cross the toPandas collect.
    metrics["rr_oracle.collect_bytes"] = (entries * 16, "bytes_computed")
    metrics["rr_oracle.kernel_s"] = (kernel_s, "s")
    for name in ("table5", "table67"):
        metrics[f"analytics.{name}_s"] = (
            common.median(tracer.durations(f"analytics.{name}")), "s",
        )
    metrics["trace.overhead_frac"] = (
        common.ns_per_unit(traced) / common.ns_per_unit(plain) - 1.0, "ratio",
    )
    metrics.update(common.cost_invariants([
        (sw.network, sw.setting, g, o, True, INVARIANT_TRIALS)
        for sw, g, o in instances
    ]))
    return metrics
