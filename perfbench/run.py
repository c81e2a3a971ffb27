"""Layered benchmark of the influence-maximization reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload greedy_lowp --seed 1 --seconds 20 --trace 0

Workloads: ``greedy_lowp`` and ``greedy_highp`` (local greedy trials, see
``greedy.py``) and ``spark_pipeline`` (oracle build, sweeps and tables on
local Spark, see ``spark_pipeline.py``). With ``--trace 0`` the last line of
standard output is the end-to-end result; with ``--trace 1`` the run also
wraps the layers' public functions and reports per-layer metrics. Every
trial, oracle and table is checked against ``golden.json``.
"""
import argparse
import os
import sys

# Single-threaded kernels; set before NumPy loads. Spark's Python workers
# inherit the environment.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("greedy_lowp", "greedy_highp", "spark_pipeline")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )

    import common

    if args.workload == "spark_pipeline":
        import spark_pipeline as workload
    else:
        import greedy as workload
    summary, attempted, failed, metrics = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    env = common.environment() | summary.pop("env", {})
    common.emit(env, summary, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
