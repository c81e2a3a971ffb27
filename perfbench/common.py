"""Helpers shared by the workloads: digests, statistics, invariants, output."""
import hashlib
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import pandas as pd

from repro.experiments.traversal import ris_cost, table8_rows

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# The runner's default base seed: the sweeps use it, so the local trials do too.
BASE_SEED = 2020

# Relative tolerance of each cost invariant (Table 8 identities, §5.3).
INVARIANT_TOL = {
    "oneshot_snapshot_vertex": 0.10,
    "snapshot_edge_vs_mtilde": 0.10,
    "rr_vertex_vs_ept": 0.05,
}
RR_SETS_FOR_EPT = 1 << 14


def trial_key(row) -> str:
    return "|".join(
        str(row[c])
        for c in ("network", "setting", "alg", "sample_number", "k", "trial")
    )


def trial_digest(row) -> str:
    """Digest of the fields a trial reports: seed set, Table 8 counters,
    sample size and oracle influence (bit-exact)."""
    fields = [
        str(row["seed_set"]),
        int(row["vertex_cost"]),
        int(row["edge_cost"]),
        int(row["sample_size"]),
        float(row["influence"]).hex(),
    ]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


def array_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def frame_digest(df: pd.DataFrame) -> str:
    """Digest of a result table, rows sorted, floats to 9 significant digits
    (Spark may sum a group in any order)."""
    text = df.sort_values(list(df.columns[:4])).to_csv(
        index=False, float_format="%.9g"
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mismatches(golden: dict, digests: dict) -> int:
    return sum(golden.get(k) != v for k, v in digests.items())


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


# Speed probe. The cores of a shared host run this process a third faster or
# slower for seconds to minutes at a time, and every timing moves with them.
# Work that runs in this process (the greedy rounds and set-ups, the replayed
# Spark trials) is therefore timed between two runs of a fixed probe that uses
# no code of the program (a Python loop, and scattered writes into a freshly
# allocated bitmap, like the kernels' page-faulting dense bitmaps), and
# reported scaled by PROBE_NOMINAL_S over the mean of the two probes: in
# seconds at the probe's nominal speed. The measured times are printed in the
# summary. Spark's phases, which also wait on the JVM and the Python workers,
# are scaled by a power of the probe ratio (spark_pipeline.py).
# PROBE_NOMINAL_S is the probe's median on a 4-vCPU 2.0 GHz Xeon VM; it only
# sets the scale.
PROBE_NOMINAL_S = 0.030
_PROBE_CELLS = 1 << 21
_PROBE_IDX = np.random.default_rng(0).integers(0, _PROBE_CELLS, 1 << 17)


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(120_000):
        x += i * i % 7
    for _ in range(8):
        cells = np.zeros(_PROBE_CELLS, dtype=bool)
        cells[_PROBE_IDX] = True
        x += int(cells.sum())
    return time.perf_counter() - t0


class Speed:
    """The probes of a run, and scale factors to the nominal speed."""

    def __init__(self) -> None:
        self.probes = [probe()]

    def factor(self) -> float:
        """Probe again; the factor for the step since the previous probe
        (the nominal time over the mean of the two)."""
        self.probes.append(probe())
        return 2.0 * PROBE_NOMINAL_S / (self.probes[-2] + self.probes[-1])

    def run(self, fn, *args):
        """``fn(*args)`` closed by a probe: its result, its scaled seconds
        and its measured seconds."""
        t0 = time.perf_counter()
        res = fn(*args)
        raw = time.perf_counter() - t0
        return res, raw * self.factor(), raw


def fits(started: float, seconds: float, step: float) -> bool:
    """Whether one more step as long as ``step`` ends within ``seconds``."""
    return time.perf_counter() - started + step <= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def ns_per_unit(steps) -> float:
    """Wall time of the rounds or iterations per traversal unit."""
    return sum(s.wall_s for s in steps) * 1e9 / sum(s.units for s in steps)


def cost_invariants(instances) -> dict[str, tuple[float, str]]:
    """Check the paper's cost identities on each ``(network, setting, graph,
    oracle, include_oneshot, trials)`` instance.

    Oneshot vertex cost ≈ Snapshot vertex cost; Snapshot/Oneshot edge cost
    ≈ m̃/m; RR vertex cost per set ≈ the oracle's mean singleton estimate
    (EPT). Each reports its largest deviation |ratio − 1| and 1/0 for
    pass/fail.
    """
    ratios: dict[str, list[float]] = {k: [] for k in INVARIANT_TOL}
    for network, setting, graph, oracle, with_oneshot, trials in instances:
        if with_oneshot:
            rows = {
                r["alg"]: r
                for r in table8_rows(graph, network, setting, trials, True)
            }
            one, snap = rows["oneshot"], rows["snapshot"]
            ratios["oneshot_snapshot_vertex"].append(
                one["vertex_cost"] / snap["vertex_cost"]
            )
            ratios["snapshot_edge_vs_mtilde"].append(
                (snap["edge_cost"] / one["edge_cost"])
                / (graph.m_tilde / graph.m)
            )
        # table8_rows draws as many RR sets as trials; EPT needs more sets.
        rr_vertex, _ = ris_cost(graph, RR_SETS_FOR_EPT)
        ept = float(oracle.singleton_estimates().mean())
        ratios["rr_vertex_vs_ept"].append(rr_vertex / ept)
    out: dict[str, tuple[float, str]] = {}
    for name, tol in INVARIANT_TOL.items():
        worst = max(abs(r - 1.0) for r in ratios[name])
        out[f"invariant.{name}.deviation"] = (worst, "ratio")
        out[f"invariant.{name}.pass"] = (1.0 if worst <= tol else 0.0, "pass")
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import pyarrow
    import pyspark

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pd.__version__,
        "pyarrow": pyarrow.__version__,
        "pyspark": pyspark.__version__,
        "git_sha": git_sha(),
        "kernel_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def emit(env: dict, summary: dict, attempted: int, failed: int,
         metrics: dict[str, tuple[float, str]]) -> None:
    """Print the environment, a readable summary, then the result line."""
    print(json.dumps({"env": env}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
        },
    }))
    sys.stdout.flush()
