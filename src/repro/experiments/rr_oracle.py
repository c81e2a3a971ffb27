"""The shared RR-set influence oracle (§5.2).

The paper evaluates every recorded seed set with one fixed unbiased
estimator per influence graph — 10⁷ RR sets ℛ_𝒢, Inf(S) ≈ n · F_ℛ(S) — so
identical seed sets get identical estimates across algorithms and trials.
We build the collection distributed (batches of RR sets generated in
``mapInPandas`` workers over the broadcast graph) and evaluate either
locally (distinct RR ids over the seeds' vertex ranges; used inside the
trial runner) or as a Spark join (used to verify the dataflow path against
DuckDB in tests).

The 99% confidence half-width for an estimate is 1.288·n/√θ (a Bernoulli
proportion at z = 2.576), as in the paper.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.csr import CSRGraph
from repro.ic.rr import rr_batch, random_targets
from repro.util import trial_rng


@dataclass(frozen=True)
class RROracle:
    """RR membership grouped by vertex for O(Σ|R_v|) seed-set evaluation."""

    n: int
    theta: int
    vert_indptr: np.ndarray  # int64[n+1]
    rr_ids: np.ndarray  # int64[K], grouped by vertex

    @property
    def ci99_halfwidth(self) -> float:
        return 1.288 * self.n / np.sqrt(self.theta)

    def estimate(self, seeds) -> float:
        """Inf(S) ≈ n · F_ℛ(S) for one seed set."""
        seeds = np.atleast_1d(np.asarray(seeds, dtype=np.int64))
        ids = np.concatenate(
            [
                self.rr_ids[self.vert_indptr[v] : self.vert_indptr[v + 1]]
                for v in seeds
            ]
        ) if len(seeds) else np.empty(0, dtype=np.int64)
        covered = len(np.unique(ids))
        return self.n * covered / self.theta

    def singleton_estimates(self) -> np.ndarray:
        """Inf({v}) for all v in one pass (Table 4's workhorse)."""
        counts = np.diff(self.vert_indptr)
        return self.n * counts / self.theta

    def membership_pandas(self) -> pd.DataFrame:
        vertex = np.repeat(np.arange(self.n), np.diff(self.vert_indptr))
        return pd.DataFrame({"rr_id": self.rr_ids, "vertex": vertex})


def _from_membership(n: int, theta: int, rr_id, vertex) -> RROracle:
    order = np.argsort(vertex, kind="stable")
    v_sorted = np.asarray(vertex)[order]
    ids_sorted = np.asarray(rr_id)[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, v_sorted + 1, 1)
    np.cumsum(indptr, out=indptr)
    return RROracle(n, theta, indptr, ids_sorted.astype(np.int64))


def build_oracle_local(
    graph: CSRGraph, theta: int, base_seed: int = 7
) -> RROracle:
    """Single-process build: one ``rr_batch`` call over all θ targets
    (its memory follows the Σ|R| entries, not θ·n)."""
    rng = trial_rng(base_seed, 0)
    res = rr_batch(graph, random_targets(graph.n, theta, rng), rng)
    return _from_membership(graph.n, theta, res.rr_id, res.vertex)


def build_oracle(
    spark: SparkSession,
    graph: CSRGraph,
    theta: int,
    base_seed: int = 7,
    batch_size: int = 8192,
) -> RROracle:
    """Distributed build: RR batches fan out over executors."""
    n_batches = (theta + batch_size - 1) // batch_size
    tasks = spark.createDataFrame(
        pd.DataFrame(
            {
                "batch": np.arange(n_batches, dtype=np.int64),
                "count": np.minimum(
                    batch_size, theta - np.arange(n_batches) * batch_size
                ).astype(np.int64),
            }
        )
    ).repartition(max(1, min(n_batches, spark.sparkContext.defaultParallelism)))
    bc = spark.sparkContext.broadcast(graph)

    def gen(batches):
        g = bc.value
        for pdf in batches:
            for batch, count in zip(pdf["batch"], pdf["count"]):
                rng = trial_rng(base_seed, int(batch))
                res = rr_batch(
                    g, random_targets(g.n, int(count), rng), rng
                )
                yield pd.DataFrame(
                    {
                        "rr_id": res.rr_id + int(batch) * batch_size,
                        "vertex": res.vertex,
                    }
                )

    membership = tasks.mapInPandas(gen, schema="rr_id long, vertex long")
    pdf = membership.toPandas()
    # Re-densify rr ids (per-batch offsets leave gaps when a batch is short).
    uniq, dense = np.unique(pdf["rr_id"].to_numpy(), return_inverse=True)
    assert len(uniq) == theta, "every RR set contains its target"
    return _from_membership(
        graph.n, theta, dense, pdf["vertex"].to_numpy()
    )


def estimate_df(
    spark: SparkSession, oracle: RROracle, seed_sets: DataFrame
) -> DataFrame:
    """Spark-join evaluation: seed_sets (set_id, vertex) → (set_id, influence).

    The dataflow twin of :meth:`RROracle.estimate`; oracle-checked against
    DuckDB in tests. Sets whose vertices cover no RR set get influence 0.
    """
    membership = spark.createDataFrame(oracle.membership_pandas())
    covered = (
        seed_sets.join(membership, "vertex")
        .select("set_id", "rr_id")
        .distinct()
        .groupBy("set_id")
        .agg(F.count("*").alias("covered"))
    )
    return (
        seed_sets.select("set_id").distinct()
        .join(covered, "set_id", "left")
        .select(
            "set_id",
            (
                F.coalesce(F.col("covered"), F.lit(0))
                * oracle.n / oracle.theta
            ).alias("influence"),
        )
    )
