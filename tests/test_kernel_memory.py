"""Memory of the batched kernels follows the keys visited, not B·n.

A dense visited bitmap over B disjoint graph copies costs B·n bytes —
about 100 MB for 2048 sets on a 50k-vertex graph — even when each set
visits a handful of vertices. These checks bound the peak allocation of
one kernel call on such a sparse instance.
"""
import tracemalloc

import numpy as np
import pandas as pd
import pytest

from repro.graphs.csr import from_pandas
from repro.ic.live import reach_batch, sample_live_set
from repro.ic.rr import random_targets, rr_batch

N = 50_000
BATCH = 2048
LIMIT = 10 << 20  # bytes; B·n = 2048 · 50k ≈ 100 MB


@pytest.fixture(scope="module")
def sparse_graph():
    rng = np.random.default_rng(31)
    src = rng.integers(0, N, 3 * N)
    dst = rng.integers(0, N, 3 * N)
    return from_pandas(pd.DataFrame({"src": src, "dst": dst, "p": 0.05}), N)


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rr_batch_peak_memory(sparse_graph):
    rng = np.random.default_rng(32)
    targets = random_targets(N, BATCH, rng)
    res = None

    def run():
        nonlocal res
        res = rr_batch(sparse_graph, targets, rng)

    assert _peak_bytes(run) < LIMIT
    assert res.sizes.min() >= 1 and len(res.sizes) == BATCH


def test_reach_batch_peak_memory(sparse_graph):
    rng = np.random.default_rng(33)
    live = sample_live_set(sparse_graph, 4, rng)
    layer = np.arange(BATCH) % 4
    seeds = rng.integers(0, N, BATCH)
    res = None

    def run():
        nonlocal res
        res = reach_batch(live, layer, np.arange(BATCH), seeds, BATCH)

    assert _peak_bytes(run) < LIMIT
    assert res.reached.min() >= 1 and len(res.reached) == BATCH
