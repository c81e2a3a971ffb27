"""The shared RR-set influence oracle (§5.2).

The paper evaluates every recorded seed set with one fixed unbiased
estimator per influence graph — 10⁷ RR sets ℛ_𝒢, Inf(S) ≈ n · F_ℛ(S) — so
identical seed sets get identical estimates across algorithms and trials.
We build the collection distributed (batches of RR sets generated in
one ``mapInPandas`` stage over the broadcast graph, at most one task per
core, each batch shipped as int32 membership that the driver groups by
vertex once) and evaluate it locally as an ``RRSets``, the type RIS
samples: distinct RR ids over the seeds' vertex ranges.

The 99% confidence half-width for an estimate is 1.288·n/√θ (a Bernoulli
proportion at z = 2.576), as in the paper.
"""
import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.graphs.csr import CSRGraph
from repro.ic.rr import RRSets, check_ids, random_targets, rr_batch
from repro.util import trial_rng

# The benchmark imports the oracle type by this name.
RROracle = RRSets
# RR sets per distributed batch. Batch b draws from its own stream
# trial_rng(base_seed, b), so a new value yields a different oracle.
BATCH_SETS = 8192


def _batch(
    graph: CSRGraph, theta: int, base_seed: int, batch_size: int, b: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batch b of an oracle of θ RR sets: the sets ``b·batch_size …`` (only
    the last batch is short, so the ids are dense), drawn from
    ``trial_rng(base_seed, b)``. Returns (rr_id, vertex), sorted by
    (rr id, vertex)."""
    first = b * batch_size
    rng = trial_rng(base_seed, b)
    targets = random_targets(graph.n, min(batch_size, theta - first), rng)
    rr_id, vertex, _ = rr_batch(graph, targets, rng)
    return rr_id + first, vertex


def build_oracle_local(
    graph: CSRGraph, theta: int, base_seed: int = 7
) -> RRSets:
    """Single-process build: batch 0 of ``build_oracle`` with one batch of
    θ sets (its memory follows the Σ|R| entries, not θ·n)."""
    check_ids(graph.n, theta)
    rr_id, vertex = _batch(graph, theta, base_seed, theta, 0)
    return RRSets.group(graph, theta, rr_id, vertex)


def build_oracle(
    spark: SparkSession,
    graph: CSRGraph,
    theta: int,
    base_seed: int = 7,
) -> RRSets:
    """Distributed build: the batches of :func:`_batch`, ``BATCH_SETS``
    sets each, fan out over executors in one stage."""
    check_ids(graph.n, theta)
    n_batches = (theta + BATCH_SETS - 1) // BATCH_SETS
    n_parts = max(1, min(n_batches, spark.sparkContext.defaultParallelism))
    bc = spark.sparkContext.broadcast(graph)

    def gen(batches):
        g = bc.value
        for pdf in batches:
            for b in pdf["id"]:
                rr_id, vertex = _batch(g, theta, base_seed, BATCH_SETS, int(b))
                yield pd.DataFrame({"rr_id": rr_id, "vertex": vertex},
                                   dtype=np.int32)

    membership = spark.range(n_batches, numPartitions=n_parts).mapInPandas(
        gen, schema="rr_id int, vertex int"
    )
    pdf = membership.toPandas()
    rr_id, vertex = pdf["rr_id"].to_numpy(), pdf["vertex"].to_numpy()
    assert np.bincount(rr_id, minlength=theta).all(), "an RR set is empty"
    return RRSets.group(graph, theta, rr_id, vertex)
