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
from repro.experiments.rr_oracle import RRSets, build_oracle
from repro.experiments.runner import run_trials, sweep_tasks
from repro.experiments.traversal import table8_rows
from repro.graphs import (
    NETWORKS, CSRGraph, assign_probabilities, build_network_pandas,
    from_pandas,
)
from repro.graphs.probability import SETTINGS
from repro.graphs.stats import table3_row

# The paper's Table 4 reports the two BA networks, under every setting.
TABLE4_NETWORKS = ("BA_s", "BA_d")
# Four significant digits, as in the committed results/table*.md.
FLOAT_FORMAT = "{:.4g}"

_ORACLE_CACHE: dict[tuple[str, str, int], RRSets] = {}
_GRAPH_CACHE: dict[tuple[str, str], CSRGraph] = {}


def cached_graph(spark, network: str, setting: str) -> CSRGraph:
    """Network + probability setting → broadcastable CSR influence graph."""
    # ``spark`` is unused: graphs are built on the driver. It stays only
    # because the perfbench/ scripts pass it positionally.
    key = (network, setting)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = from_pandas(
            assign_probabilities(build_network_pandas(network), setting)
        )
    return _GRAPH_CACHE[key]


def cached_oracle(spark, network: str, setting: str, theta: int) -> RRSets:
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


def table3() -> pd.DataFrame:
    """Network statistics for every registered network."""
    rows = []
    for name, spec in NETWORKS.items():
        row = table3_row(
            from_pandas(build_network_pandas(name)),
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


def table4(spark: SparkSession, theta: int = 1 << 18) -> pd.DataFrame:
    """Top-3 single-vertex influence per (network, setting). Its oracles
    stay out of the cache: no sweep uses its θ."""
    rows = []
    for net in TABLE4_NETWORKS:
        for setting in SETTINGS:
            graph = cached_graph(spark, net, setting)
            oracle = build_oracle(spark, graph, theta)
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


def table8(profile: str = "quick") -> pd.DataFrame:
    """Per-sample traversal cost at k = 1, sample number 1."""
    rows = []
    for net, setting, trials, with_oneshot in traversal_instances(profile):
        graph = cached_graph(None, net, setting)
        rows.extend(table8_rows(graph, net, setting, trials, with_oneshot))
    return pd.DataFrame(rows)


def table9(
    t6: pd.DataFrame, t7: pd.DataFrame, t8: pd.DataFrame
) -> pd.DataFrame:
    """Traversal cost per γ at identical accuracy, arithmetic on Tables
    6–8 as in §6: with the k = 1 comparable number ratios cr₁ (Oneshot →
    Snapshot) and cr₂ (RIS → Snapshot), β = cr₁γ, τ = γ and θ = cr₂γ
    equalize accuracy, so each approach costs its Table 8 (vertex + edge)
    cost × its ratio (Snapshot's is 1); a missing ratio gives NaN."""
    cols = ["network", "setting", "median_number_ratio"]
    ratio = pd.concat(
        [t.loc[t["k"] == 1, cols].assign(alg=alg)
         for alg, t in (("oneshot", t6), ("ris", t7))]
    )
    out = t8.merge(ratio, on=["network", "setting", "alg"], how="left")
    cr = out["median_number_ratio"].astype(float)
    cr = cr.where(out["alg"] != "snapshot", 1.0)
    return out[["network", "setting", "alg"]].assign(
        cost_per_gamma=(out["vertex_cost"] + out["edge_cost"]) * cr
    )


def to_markdown(df: pd.DataFrame) -> str:
    """Minimal markdown renderer (no tabulate dependency offline)."""
    cols = list(df.columns)
    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for _, r in df.iterrows():
        cells = []
        for c in cols:
            v = r[c]
            if isinstance(v, float) and not pd.isna(v):
                cells.append(FLOAT_FORMAT.format(v))
            else:
                cells.append(str(v))
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)
