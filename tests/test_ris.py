"""RIS estimator (Algorithm 3.4): coverage semantics and greedy behavior."""
import itertools

import numpy as np
import pytest

from repro.algorithms.base import argmax_last, run_greedy
from repro.algorithms.ris import RISEstimator
from repro.graphs import assign_probabilities, build_network_pandas, from_pandas
from tests.helpers import (
    exact_singleton_influences, path_graph, random_tiny_graph, rr_membership,
)


def test_unbiased_singletons():
    rng = np.random.default_rng(0)
    g = random_tiny_graph(rng, n=6, m=9)
    exact = exact_singleton_influences(g)
    est = RISEstimator(g, 40_000, rng)
    vals = est.estimate_all(np.empty(0, dtype=np.int64))
    assert np.allclose(vals, exact, atol=0.15)


def test_update_removes_covered_sets():
    g = path_graph(3, p=1.0)
    est = RISEstimator(g, 1000, np.random.default_rng(1))
    before = est.estimate_all(np.empty(0, dtype=np.int64))
    est.update(0)
    after = est.estimate_all(np.array([0]))
    # Vertex 0 reaches everything on a p=1 path: every RR set contains 0,
    # so all sets are covered and every marginal drops to 0.
    assert before[0] == pytest.approx(3.0)
    assert after.max() == 0.0


def test_marginal_semantics():
    # Two disjoint p=1 components {0→1} and {2}: after choosing 0, the
    # marginal of 2 must be Inf(2) restricted to uncovered sets = n·(#sets
    # with target 2)/θ.
    from tests.helpers import graph_from_edges

    g = graph_from_edges([(0, 1, 1.0)], n=3)
    theta = 3000
    est = RISEstimator(g, theta, np.random.default_rng(2))
    est.update(0)
    vals = est.estimate_all(np.array([0]))
    # Targets 0 and 1 both yield sets containing 0 (covered); target 2 → {2}.
    assert vals[0] == 0.0 and vals[1] == 0.0
    assert vals[2] == pytest.approx(1.0, abs=0.15)


def test_greedy_solves_max_coverage():
    # Greedy on RIS = greedy max coverage over the drawn RR sets. Verify
    # against brute force on the same collection.
    rng = np.random.default_rng(3)
    g = random_tiny_graph(rng, n=7, m=14)
    est = RISEstimator(g, 300, rng)
    rr_sets = {}
    for r, v in zip(*rr_membership(est.sets)):
        rr_sets.setdefault(int(r), set()).add(int(v))
    res = run_greedy(est, g.n, 2, np.random.default_rng(4))

    def coverage(pair):
        return sum(1 for s in rr_sets.values() if s & set(pair))

    greedy_cov = coverage(res.seeds)
    best = max(
        coverage(c) for c in itertools.combinations(range(g.n), 2)
    )
    # Greedy max coverage is a (1 - 1/e)-approximation; on tiny instances it
    # is near-exact. Allow the classical bound with slack.
    assert greedy_cov >= (1 - 1 / np.e) * best
    # And the first greedy pick must be the max-frequency vertex.
    freq = np.bincount(
        np.array([v for s in rr_sets.values() for v in s]), minlength=g.n
    )
    assert freq[res.seeds[0]] == freq.max()


def _karate_iwc():
    return from_pandas(
        assign_probabilities(build_network_pandas("Karate"), "IWC")
    )


@pytest.mark.parametrize("graph", ["tiny", "Karate IWC"])
def test_marginals_are_coverage_differences(graph):
    # At every step of a k=4 greedy, each candidate's estimate is n/θ times
    # the number of the estimator's own RR sets it newly covers.
    rng = np.random.default_rng(7)
    g = random_tiny_graph(rng, n=7, m=14) if graph == "tiny" else _karate_iwc()
    theta = 2000
    est = RISEstimator(g, theta, rng)
    ptr, ids = est.sets.vert_indptr, est.sets.rr_ids
    sets_of = [set(ids[ptr[v] : ptr[v + 1]].tolist()) for v in range(g.n)]
    order = rng.permutation(g.n)
    seeds, covered = [], set()
    for _ in range(4):
        vals = est.estimate_all(np.array(seeds, dtype=np.int64))
        for v in set(range(g.n)) - set(seeds):
            gain = len(covered | sets_of[v]) - len(covered)
            assert vals[v] == g.n * gain / theta, v
            assert int(round(vals[v] * theta / g.n)) == gain
        vals[seeds] = -np.inf
        chosen = argmax_last(vals, order)
        seeds.append(chosen)
        covered |= sets_of[chosen]
        est.update(chosen)


def test_sample_size_counts_membership():
    g = path_graph(4, p=0.5)
    est = RISEstimator(g, 500, np.random.default_rng(5))
    assert est.sample_size == len(est.sets.rr_ids)
    assert est.sample_size >= 500  # every set contains its target


def test_costs_charged_to_build():
    g = path_graph(4, p=0.5)
    est = RISEstimator(g, 100, np.random.default_rng(6))
    v0, e0 = est.vertex_cost, est.edge_cost
    assert v0 >= 100
    est.estimate_all(np.empty(0, dtype=np.int64))
    est.update(0)
    assert (est.vertex_cost, est.edge_cost) == (v0, e0)  # no graph touches


def test_rejects_bad_theta():
    with pytest.raises(ValueError):
        RISEstimator(path_graph(2), 0, np.random.default_rng(0))
