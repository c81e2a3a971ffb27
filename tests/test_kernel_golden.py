"""Golden counters and outputs of the IC kernels under fixed seeds.

The traversal counters are results in their own right (Table 8), so a
kernel rewrite must reproduce them — and the sampled outputs — bit for bit
under the same seeds. Each case pins ``vertex_cost``, ``edge_cost`` and an
int64 digest of the output arrays; any change to the RNG draw order, the
chunk boundaries or the visited-set semantics shows up here.
"""
import hashlib

import numpy as np
import pytest

from repro.algorithms.snapshot import SnapshotEstimator
from repro.experiments.rr_oracle import build_oracle_local
from repro.graphs import generators
from repro.graphs.csr import CSRGraph, from_pandas
from repro.ic.forward import simulate_single_seeds
from repro.ic.rr import rr_sets


def _digest(*arrays) -> int:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        a = np.asarray(a)
        h.update(a.astype(np.float64 if a.dtype.kind == "f" else np.int64)
                 .tobytes())
    return int.from_bytes(h.digest(), "little", signed=True)


def _ba(m_per_vertex: int, seed: int, setting: str) -> CSRGraph:
    edges = generators.barabasi_albert(1000, m_per_vertex, seed=seed)
    if setting == "IWC":
        p = 1.0 / edges.groupby("dst")["dst"].transform("size")
    elif setting == "OWC":
        p = 1.0 / edges.groupby("src")["src"].transform("size")
    else:
        p = float(setting.removeprefix("UC_"))
    return from_pandas(edges[["src", "dst"]].assign(p=p), 1000)


@pytest.fixture(scope="module")
def graphs():
    return {
        "BA_s IWC": _ba(1, 46, "IWC"),
        "BA_s OWC": _ba(1, 46, "OWC"),
        "BA_d UC_0.1": _ba(11, 47, "UC_0.1"),
        "BA_d UC_0.01": _ba(11, 47, "UC_0.01"),
    }


# Recorded from the dense-bitmap kernels that preceded ``expand`` (the two
# BA_s OWC entries from ``expand``'s per-edge coins, before row-constant
# coins); a kernel change must reproduce them, not regenerate them.
GOLDEN = {
    # "<case> <graph>": (vertex_cost, edge_cost, digest); the oracle keeps
    # no counters, so it pins its entry count Σ|R| (its RR vertex cost).
    "forward BA_s IWC": (26359, 27146, -565993119226105619),
    "forward BA_d UC_0.1": (1099299, 15304615, 2274137261219788008),
    "forward BA_d UC_0.01": (11730, 274841, 3701334916212655742),
    "forward BA_s OWC": (19855, 37876, -5897213288568510503),
    "oracle BA_s IWC": (9544, 7729075550391115398),
    "oracle BA_d UC_0.1": (596331, -24039013780734819),
    "oracle BA_d UC_0.01": (4654, -9137368373637659980),
    "rr BA_s IWC": (7055, 9491, 7862565367862840863),
    "rr BA_d UC_0.1": (442248, 6130128, 4598092860585091877),
    "rr BA_d UC_0.01": (3395, 39598, 1809684453123372212),
    "rr BA_s OWC": (6757, 5557, -1873429929975598785),
    "snapshot BA_s IWC": (112033, 88142, -4808401250791282908),
    "snapshot BA_d UC_0.1": (3098746, 4285414, 6435273147431535373),
    "snapshot BA_d UC_0.01": (37525, 13546, 3559445910486651809),
    # From the full-scan Snapshot Estimate (a BFS from S+v per candidate
    # and layer), before the scan of R_i(S) was computed instead of walked.
    "snapshot|S|=4 BA_s IWC": (1255799, 1167118, -4468811443393111317),
    "snapshot|S|=4 BA_d UC_0.01": (161425, 71534, 3206717524258941010),
}


def _forward(g):
    res = simulate_single_seeds(
        g, np.arange(g.n, dtype=np.int64), 3, np.random.default_rng(11),
        base_seeds=np.array([5, 0, 5], dtype=np.int64),
        max_batch_cells=400_000,  # 400 simulations per chunk: 8 chunks
    )
    return res.vertex_cost, res.edge_cost, _digest(res.activated)


def _snapshot(g):
    est = SnapshotEstimator(g, 6, np.random.default_rng(12),
                            max_batch_cells=700_000)
    empty = est.estimate_all(np.empty(0, dtype=np.int64))
    pair = est.estimate_all(np.array([17, 3], dtype=np.int64))
    return est.vertex_cost, est.edge_cost, _digest(
        empty, pair, est.sample_size
    )


def _snapshot_s4(g):
    # Greedy's own seeds up to |S| = 4 (first max), so R_i(S) holds the
    # hubs' reach and most (candidate, layer) pairs start inside it.
    est = SnapshotEstimator(g, 6, np.random.default_rng(15),
                            max_batch_cells=700_000)
    seeds, vals = [], []
    for _ in range(5):
        vals.append(est.estimate_all(np.array(seeds, dtype=np.int64)))
        seeds.append(int(vals[-1].argmax()))
    return est.vertex_cost, est.edge_cost, _digest(*vals, seeds)


def _rr(g):
    res = rr_sets(g, 3000, np.random.default_rng(13),
                  max_batch_cells=1_000_000)  # 1000 RR sets per chunk
    return res.vertex_cost, res.edge_cost, _digest(
        res.rr_id, res.vertex, res.sizes, res.weights
    )


def _oracle(g):
    o = build_oracle_local(g, 4096, base_seed=14)
    return len(o.rr_ids), _digest(
        o.vert_indptr, o.rr_ids
    )


CASES = {"forward": _forward, "snapshot": _snapshot,
         "snapshot|S|=4": _snapshot_s4, "rr": _rr, "oracle": _oracle}


@pytest.mark.parametrize(
    "case,graph_name", [tuple(k.split(" ", 1)) for k in sorted(GOLDEN)]
)
def test_kernel_golden(graphs, case, graph_name):
    got = CASES[case](graphs[graph_name])
    assert tuple(int(x) for x in got) == GOLDEN[f"{case} {graph_name}"]
