"""Shared RR influence oracle: build paths and evaluation."""
import numpy as np
import pytest

from repro.experiments.rr_oracle import build_oracle, build_oracle_local
from repro.graphs import assign_probabilities, build_network, to_csr
from repro.ic.rr import random_targets, rr_batch
from repro.ic.exact import exact_influence, exact_singleton_influences
from repro.util import trial_rng
from tests.helpers import path_graph, random_tiny_graph


@pytest.fixture(scope="module")
def karate_graph(spark):
    return to_csr(
        assign_probabilities(build_network(spark, "Karate"), "UC_0.1")
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
    batch_size = 64
    n_batches = 2 * spark.sparkContext.defaultParallelism + 1
    theta = (n_batches - 1) * batch_size + 37
    base_seed = 11
    n = karate_graph.n
    dist = build_oracle(spark, karate_graph, theta, base_seed, batch_size)

    rr_id, vertex = [], []
    for b in range(n_batches):
        count = min(batch_size, theta - b * batch_size)
        rng = trial_rng(base_seed, b)
        res = rr_batch(karate_graph, random_targets(n, count, rng), rng)
        rr_id.append(res.rr_id + b * batch_size)
        vertex.append(res.vertex)
    rr_id, vertex = np.concatenate(rr_id), np.concatenate(vertex)
    order = np.lexsort((rr_id, vertex))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(vertex, minlength=n))))

    assert dist.theta == theta
    assert np.array_equal(dist.vert_indptr, indptr)
    assert np.array_equal(dist.rr_ids, rr_id[order])
    assert dist.vert_indptr.dtype == dist.rr_ids.dtype == np.int64


def test_ci_formula(karate_graph):
    oracle = build_oracle_local(karate_graph, 1 << 12)
    assert oracle.ci99_halfwidth == pytest.approx(
        1.288 * 34 / np.sqrt(1 << 12)
    )

