"""Regenerate ``golden.json``: the digest of every trial, oracle and table
the benchmark can meet, at the fixed seeds.

Usage, from the root of a checkout::

    python3 perfbench/make_golden.py [workload ...]

Only regenerate when a change is meant to alter the results; otherwise a
mismatch is a failed operation of the benchmark.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
sys.dont_write_bytecode = True

import common  # noqa: E402
import greedy  # noqa: E402
import spark_pipeline  # noqa: E402

from repro.experiments.runner import run_trial_local  # noqa: E402
from repro.experiments.tables import cached_graph  # noqa: E402


def greedy_golden(workload: str) -> dict[str, str]:
    instances, _ = greedy.setup(workload, common.Speed())
    out = {}
    for inst, task in greedy.all_tasks(instances):
        row = run_trial_local(inst.graph, inst.oracle, task, common.BASE_SEED)
        out[common.trial_key(row)] = common.trial_digest(row)
    return out


def spark_golden() -> dict[str, str]:
    spark = spark_pipeline.start_spark()
    try:
        graph = cached_graph(spark, *spark_pipeline.ORACLE_NETWORK)
        out: dict[str, str] = {}
        for seed in spark_pipeline.ORACLE_SEEDS:
            it, _ = spark_pipeline.iteration(spark, graph, seed, out)
            # Iterations share the sweeps and tables: they must agree.
            clash = [k for k, v in it.digests.items() if out.get(k, v) != v]
            if clash:
                raise RuntimeError(f"nondeterministic results: {clash[:5]}")
            out.update(it.digests)
        return out
    finally:
        spark_pipeline.stop_spark(spark)


def main(workloads: list[str]) -> None:
    golden = common.load_golden() if os.path.exists(common.GOLDEN_PATH) else {}
    for w in workloads:
        golden[w] = spark_golden() if w == "spark_pipeline" else greedy_golden(w)
        print(f"{w}: {len(golden[w])} digests", flush=True)
    with open(common.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:] or ["greedy_lowp", "greedy_highp", "spark_pipeline"])
