"""Integration: the paper's headline findings on Karate (§5.1/§5.4).

1. For large sample numbers the three algorithms return the same unique
   seed set (same limit behaviour).
2. Entropy decreases with the sample number.
3. Mean influence increases with the sample number.
"""
import numpy as np
import pytest

from repro.algorithms import make_estimator, run_greedy
from repro.experiments.rr_oracle import build_oracle_local
from repro.graphs import assign_probabilities, build_network_pandas, from_pandas
from tests.helpers import entropy_bits


@pytest.fixture(scope="module")
def iwc_graph():
    # Karate IWC k=1: the paper reports eventual convergence to a unique
    # seed with a clear winner (Table 5 row Karate/IWC has H* = 0.06).
    return from_pandas(
        assign_probabilities(build_network_pandas("Karate"), "IWC")
    )


def _run_many(graph, alg, s, trials, k=1, seed0=0):
    sets = []
    for t in range(trials):
        rng = np.random.default_rng(seed0 + t)
        est = make_estimator(alg, graph, s, rng)
        sets.append(tuple(sorted(run_greedy(est, graph.n, k, rng).seeds)))
    return sets


def _mode(sets):
    from collections import Counter

    return Counter(sets).most_common(1)[0][0]


def test_unique_limit_solution_across_algorithms(iwc_graph):
    # At large sample numbers all three approaches pick the same seed.
    one = _run_many(iwc_graph, "oneshot", 4096, 8)
    snap = _run_many(iwc_graph, "snapshot", 4096, 8)
    ris = _run_many(iwc_graph, "ris", 1 << 16, 8)
    assert _mode(one) == _mode(snap) == _mode(ris)
    # And the limit is (essentially) degenerate for each.
    for sets in (one, snap, ris):
        counts = list(
            np.unique([str(s) for s in sets], return_counts=True)[1]
        )
        assert max(counts) >= 7


def test_limit_matches_best_singleton(iwc_graph):
    oracle = build_oracle_local(iwc_graph, 1 << 16)
    best = int(np.argmax(oracle.singleton_estimates()))
    ris = _run_many(iwc_graph, "ris", 1 << 16, 5)
    assert _mode(ris) == (best,)


@pytest.mark.parametrize("alg,lo,hi", [
    ("oneshot", 1, 1024),
    ("snapshot", 1, 1024),
    ("ris", 4, 1 << 14),
])
def test_entropy_decreases(iwc_graph, alg, lo, hi):
    T = 30
    h_lo = entropy_bits(
        list(np.unique([str(s) for s in _run_many(iwc_graph, alg, lo, T)],
                       return_counts=True)[1])
    )
    h_hi = entropy_bits(
        list(np.unique([str(s) for s in _run_many(iwc_graph, alg, hi, T)],
                       return_counts=True)[1])
    )
    assert h_hi < h_lo


@pytest.mark.parametrize("alg,lo,hi", [
    ("oneshot", 1, 512),
    ("snapshot", 1, 512),
    ("ris", 4, 1 << 13),
])
def test_mean_influence_increases(iwc_graph, alg, lo, hi):
    oracle = build_oracle_local(iwc_graph, 1 << 14)
    T = 25
    mean_lo = np.mean(
        [oracle.estimate(list(s)) for s in _run_many(iwc_graph, alg, lo, T)]
    )
    mean_hi = np.mean(
        [oracle.estimate(list(s)) for s in _run_many(iwc_graph, alg, hi, T)]
    )
    assert mean_hi > mean_lo
