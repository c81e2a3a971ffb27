"""Table assembly: one call per evaluation table (Tables 3–9).

Each ``tableN`` builds its table from the sweeps, the shared oracle and the
analytics modules; ``jobs/cli.py`` only parses arguments and writes files.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.experiments import quality, ratios
from repro.experiments.entropy import GROUP
from repro.experiments.instances import Sweep, traversal_instances
from repro.experiments.rr_oracle import RROracle, build_oracle
from repro.experiments.runner import run_trials, sweep_tasks
from repro.experiments.traversal import table8_rows, table9_rows
from repro.graphs import NETWORKS, assign_probabilities, build_network, to_csr
from repro.graphs.csr import CSRGraph
from repro.graphs.stats import table3_row


def load_influence_graph(
    spark: SparkSession, network: str, setting: str
) -> CSRGraph:
    """Network + probability setting → broadcastable CSR influence graph."""
    edges = build_network(spark, network)
    return to_csr(assign_probabilities(edges, setting))


_ORACLE_CACHE: dict[tuple[str, str, int], RROracle] = {}
_GRAPH_CACHE: dict[tuple[str, str], CSRGraph] = {}


def cached_graph(spark, network: str, setting: str) -> CSRGraph:
    key = (network, setting)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = load_influence_graph(spark, network, setting)
    return _GRAPH_CACHE[key]


def cached_oracle(spark, network: str, setting: str, theta: int) -> RROracle:
    key = (network, setting, theta)
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = build_oracle(
            spark, cached_graph(spark, network, setting), theta
        )
    return _ORACLE_CACHE[key]


def run_sweep(spark: SparkSession, sweep: Sweep) -> DataFrame:
    """Execute one sweep: all (alg × sample number × trial) tasks."""
    graph = cached_graph(spark, sweep.network, sweep.setting)
    oracle = cached_oracle(
        spark, sweep.network, sweep.setting, sweep.oracle_theta
    )
    tasks = sweep_tasks(
        sweep.network, sweep.setting, sweep.k, sweep.grids, sweep.trials
    )
    return run_trials(spark, graph, oracle, tasks)


def table3(spark: SparkSession, networks=None) -> pd.DataFrame:
    """Network statistics for every registered network (or ``networks``)."""
    rows = []
    for name in networks or NETWORKS:
        spec = NETWORKS[name]
        edges = build_network(spark, name)
        row = table3_row(
            edges, to_csr(edges),
            with_distance=name in ("Karate", "BA_s", "BA_d"),
        )
        rows.append(
            {
                "network": name,
                "kind": spec.kind,
                "paper_n": spec.paper_n,
                "paper_m": spec.paper_m,
                **row,
            }
        )
    return pd.DataFrame(rows)


def table4(
    spark: SparkSession,
    networks=("BA_s", "BA_d"),
    settings=("UC_0.1", "UC_0.01", "IWC", "OWC"),
    theta: int = 1 << 18,
) -> pd.DataFrame:
    """Top-3 single-vertex influence per (network, setting)."""
    rows = []
    for net in networks:
        for setting in settings:
            oracle = cached_oracle(spark, net, setting, theta)
            inf = np.sort(oracle.singleton_estimates())[::-1]
            rows.append(
                {
                    "network": net,
                    "setting": setting,
                    "inf_1st": round(float(inf[0]), 4),
                    "inf_2nd": round(float(inf[1]), 4),
                    "inf_3rd": round(float(inf[2]), 4),
                }
            )
    return pd.DataFrame(rows)


def table5(trials: DataFrame) -> pd.DataFrame:
    """Collect the trial columns Table 5 needs once; aggregate in pandas."""
    pdf = trials.select(*GROUP, "seed_set", "influence").toPandas()
    return quality.least_sample_number(pdf, quality.reference_influence(pdf))


def table6_and_7(trials: DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Collect the trial columns Tables 6–7 need once; aggregate in pandas."""
    pdf = trials.select(*GROUP, "influence", "sample_size").toPandas()
    stats = ratios.mean_stats(pdf)
    return ratios.table6(stats), ratios.table7(stats)


def table8(spark: SparkSession, profile: str = "quick") -> pd.DataFrame:
    """Per-sample traversal cost at k = 1, sample number 1."""
    rows = []
    for net, setting, trials, with_oneshot in traversal_instances(profile):
        graph = cached_graph(spark, net, setting)
        rows.extend(table8_rows(graph, net, setting, trials, with_oneshot))
    return pd.DataFrame(rows)


def table9(trials: DataFrame, t8: pd.DataFrame) -> pd.DataFrame:
    """Traversal cost conditioned on identical accuracy: Table 8's cost
    times the comparable number ratio to Snapshot (Tables 6–7), as in §6."""
    t6, t7 = table6_and_7(trials)
    return table9_rows(t8, t6, t7)


def to_markdown(df: pd.DataFrame, floatfmt: str = "{:.4g}") -> str:
    """Minimal markdown renderer (no tabulate dependency offline)."""
    cols = list(df.columns)
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for _, r in df.iterrows():
        cells = []
        for c in cols:
            v = r[c]
            if isinstance(v, float) and not pd.isna(v):
                cells.append(floatfmt.format(v))
            else:
                cells.append(str(v))
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)
