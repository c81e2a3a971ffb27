"""Shared RR influence oracle: build paths and evaluation."""
import numpy as np
import pytest

from repro.experiments.rr_oracle import (
    BATCH_SETS, build_oracle, build_oracle_local,
)
from repro.graphs import assign_probabilities, build_network_pandas, from_pandas
from repro.ic.rr import random_targets, rr_batch
from repro.util import trial_rng
from tests.helpers import (
    exact_influence, exact_singleton_influences, path_graph, random_tiny_graph,
)


@pytest.fixture(scope="module")
def karate_graph():
    return from_pandas(
        assign_probabilities(build_network_pandas("Karate"), "UC_0.1")
    )


def test_local_build_unbiased():
    rng = np.random.default_rng(0)
    g = random_tiny_graph(rng, n=6, m=9)
    oracle = build_oracle_local(g, 40_000)
    exact = exact_singleton_influences(g)
    assert np.allclose(oracle.singleton_estimates(), exact, atol=0.12)


def test_seed_set_estimate_matches_exact():
    rng = np.random.default_rng(1)
    g = random_tiny_graph(rng, n=6, m=9)
    oracle = build_oracle_local(g, 40_000)
    S = [0, 4]
    assert oracle.estimate(S) == pytest.approx(
        exact_influence(g, S), abs=0.12
    )


def test_estimate_monotone():
    g = path_graph(5, p=0.5)
    oracle = build_oracle_local(g, 5000)
    assert oracle.estimate([0, 1]) >= oracle.estimate([0]) - 1e-9


def test_distributed_build_matches_local_statistics(spark, karate_graph):
    theta = 1 << 13
    dist = build_oracle(spark, karate_graph, theta)
    local = build_oracle_local(karate_graph, theta)
    assert dist.theta == local.theta == theta
    # Same graph, independent randomness → singleton estimates agree to CI.
    ci = dist.ci99_halfwidth + local.ci99_halfwidth
    d = np.abs(dist.singleton_estimates() - local.singleton_estimates())
    assert (d < 2 * ci + 0.3).all()


def test_distributed_build_matches_batchwise_reference(spark, karate_graph):
    # More batches than cores, and a short last batch: the Spark build must
    # equal the batches generated one by one, with batch b's RR ids offset
    # by b·batch_size and the ids ascending within each vertex.
    batch_size = BATCH_SETS
    n_batches = 2 * spark.sparkContext.defaultParallelism + 1
    theta = (n_batches - 1) * batch_size + 37
    base_seed = 11
    n = karate_graph.n
    dist = build_oracle(spark, karate_graph, theta, base_seed)

    rr_id, vertex = [], []
    for b in range(n_batches):
        count = min(batch_size, theta - b * batch_size)
        rng = trial_rng(base_seed, b)
        r, v, _ = rr_batch(karate_graph, random_targets(n, count, rng), rng)
        rr_id.append(r + b * batch_size)
        vertex.append(v)
    rr_id, vertex = np.concatenate(rr_id), np.concatenate(vertex)
    order = np.lexsort((rr_id, vertex))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(vertex, minlength=n))))

    assert dist.theta == theta
    assert np.array_equal(dist.vert_indptr, indptr)
    assert np.array_equal(dist.rr_ids, rr_id[order])
    assert dist.vert_indptr.dtype == np.int64
    assert dist.rr_ids.dtype == np.int32


def test_single_batch_build_equals_local(spark, karate_graph):
    # The local build is batch 0 of the distributed one.
    theta, base_seed = 3000, 5
    assert theta <= BATCH_SETS  # one batch
    dist = build_oracle(spark, karate_graph, theta, base_seed)
    local = build_oracle_local(karate_graph, theta, base_seed)
    assert (dist.n, dist.theta) == (local.n, local.theta)
    assert np.array_equal(dist.vert_indptr, local.vert_indptr)
    assert np.array_equal(dist.rr_ids, local.rr_ids)
    assert dist.rr_ids.dtype == local.rr_ids.dtype == np.int32


def test_distributed_build_refuses_theta_beyond_int32(spark, karate_graph):
    # Membership ships as int32: θ = 2³¹ is refused before any batch runs.
    with pytest.raises(ValueError, match="2\\*\\*31"):
        build_oracle(spark, karate_graph, 2**31)


def test_ci_formula(karate_graph):
    oracle = build_oracle_local(karate_graph, 1 << 12)
    assert oracle.ci99_halfwidth == pytest.approx(
        1.288 * 34 / np.sqrt(1 << 12)
    )

