"""The shared RR-set influence oracle (§5.2).

The paper evaluates every recorded seed set with one fixed unbiased
estimator per influence graph — 10⁷ RR sets ℛ_𝒢, Inf(S) ≈ n · F_ℛ(S) — so
identical seed sets get identical estimates across algorithms and trials.
We build the collection distributed (batches of RR sets generated in
one ``mapInPandas`` stage over the broadcast graph, at most one task per
core, each batch shipped as int32 membership sorted by vertex so the
driver's stable sort only merges sorted runs) and evaluate it locally:
distinct RR ids over the seeds' vertex ranges, inside the trial runner.

The 99% confidence half-width for an estimate is 1.288·n/√θ (a Bernoulli
proportion at z = 2.576), as in the paper.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

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


def _from_membership(n: int, theta: int, rr_id, vertex) -> RROracle:
    order = np.argsort(vertex, kind="stable")
    v_sorted = np.asarray(vertex)[order]
    ids_sorted = np.asarray(rr_id)[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(v_sorted, minlength=n), out=indptr[1:])
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
    """Distributed build: RR batches fan out over executors in one stage.

    Batch b holds the RR sets ``b·batch_size …`` (only the last batch is
    short, so the ids are dense) drawn from ``trial_rng(base_seed, b)``.
    """
    assert max(theta, graph.n) < 2**31, "membership travels as int32"
    n_batches = (theta + batch_size - 1) // batch_size
    n_parts = max(1, min(n_batches, spark.sparkContext.defaultParallelism))
    bc = spark.sparkContext.broadcast(graph)

    def gen(batches):
        g = bc.value
        for pdf in batches:
            for batch in pdf["id"]:
                first = int(batch) * batch_size
                count = min(batch_size, theta - first)
                rng = trial_rng(base_seed, int(batch))
                res = rr_batch(g, random_targets(g.n, count, rng), rng)
                # Members come sorted by (rr id, vertex); a stable sort by
                # vertex keeps the rr ids ascending within each vertex.
                order = np.argsort(res.vertex, kind="stable")
                yield pd.DataFrame(
                    {
                        "rr_id": (res.rr_id[order] + first).astype(np.int32),
                        "vertex": res.vertex[order].astype(np.int32),
                    }
                )

    membership = spark.range(n_batches, numPartitions=n_parts).mapInPandas(
        gen, schema="rr_id int, vertex int"
    )
    pdf = membership.toPandas()
    rr_id = pdf["rr_id"].to_numpy()
    assert np.bincount(rr_id, minlength=theta).all(), (
        "every RR set contains its target"
    )
    return _from_membership(graph.n, theta, rr_id, pdf["vertex"].to_numpy())
