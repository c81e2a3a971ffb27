"""Independent-cascade (IC) model substrate.

One frontier-expansion BFS, :func:`expand`, runs B traversals at once over
B disjoint copies of one graph direction, an ``Adjacency`` (vertex key =
b·n + v); :func:`reach` counts what each copy reaches. Oneshot's forward
diffusions (:mod:`repro.algorithms.oneshot`) and Snapshot's reachability
over its live graphs (:mod:`repro.algorithms.snapshot`) are both
``reach``; the RR sets of RIS and the shared oracle (:mod:`repro.ic.rr`)
are ``expand`` over the in-edges. All three run in :func:`batches`.

Coins are drawn per examined edge, as in the paper's naive simulations;
:func:`draw_hits` draws and tests every coin, in cache-sized blocks. The
adjacency alone fixes the coins: where every edge of a row shares one p
(UC; IWC in-edges; OWC out-edges; ``Adjacency.p_row``), a level tests its
draws against the rows' p — against one scalar p when the whole graph
shares it (UC) — and builds edge indices only for the surviving edges;
other rows gather every edge's index and p. All give the same draws and
the same edges. Snapshot's τ live graphs draw no coins: they are one
adjacency without ``p`` whose rows are (live graph, vertex) pairs.

The visited set is a sorted key array, so memory is proportional to the
keys visited, not to B·n. Traversal cost follows the paper (§3.2): every
visited vertex is scanned once (vertex cost); edges examined = edge cost.
"""
from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import Adjacency

_END = np.iinfo(np.int64).max  # sentinel closing the visited array
# Coins drawn and tested per block (512 KiB of draws): a block is tested
# while it is still in cache, and n coins never hold 8n bytes of draws.
_BLOCK = 1 << 16
# Cells (traversals × n) per batch. A batch holds every key it visits at
# once, up to one per cell, so this bounds a batch's visited set; and the
# batch boundaries fix the order of the coins, so a new value changes
# every sampled output.
BATCH_CELLS = 50_000_000


def batches(total: int, n: int):
    """``(lo, hi)`` ranges over ``total`` traversals of an n-vertex graph,
    ``BATCH_CELLS // n`` traversals each (at least one)."""
    size = max(1, BATCH_CELLS // max(1, n))
    for lo in range(0, total, size):
        yield lo, min(total, lo + size)


def draw_hits(
    rng: np.random.Generator, n: int, p: np.ndarray | float
) -> np.ndarray:
    """Indices i < n whose draw i falls below ``p`` (a float, or ``p[i]``):
    n coins, coin i a hit with probability p or ``p[i]``.

    More than ``_BLOCK`` draws come in blocks of ``_BLOCK``, in order: the
    same numbers and the same ``Generator`` state as one ``rng.random(n)``.
    """
    if n <= _BLOCK:
        return (rng.random(n) < p).nonzero()[0]
    hits = []
    for lo in range(0, n, _BLOCK):
        hi = min(n, lo + _BLOCK)
        q = p if isinstance(p, float) else p[lo:hi]
        hits.append((rng.random(hi - lo) < q).nonzero()[0] + lo)
    return np.concatenate(hits)


def expand(
    adj: Adjacency,
    key: np.ndarray,
    rng: np.random.Generator | None = None,
    blocked: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """BFS over ``adj`` from the keys ``key`` (b·n + v, n the rows of
    ``adj``; any order, duplicates allowed).

    Copy b reads v's edges from row v. With ``adj.p``, edge e survives a
    coin with probability ``p[e]``; coins are drawn per level in
    sorted-frontier order, then adjacency order. Returns the sorted visited
    keys and the number of edges examined.

    Every level reads its frontier rows' edge counts once; only the coins
    differ:

    * no ``p`` (live graphs): no coins, every edge survives;
    * no ``p_row``: ``p[e]``, gathered for every edge of the level;
    * a ``float`` ``p_row``: the p every edge shares;
    * ``p_row[r]``: the p every edge of row r shares, repeated over the row.

    The first two index every edge of the level, repeating each row over
    its edges; the last two locate only the surviving edges, by binary
    search over the rows' running edge ends.

    ``blocked``, a ``bool`` mask over the rows, counts as already visited:
    a new key whose row is blocked is dropped, so it is neither returned
    nor expanded. Edges into blocked rows are still examined and counted.
    The start keys are not tested.
    """
    indptr, nbr, p, p_row = adj.indptr, adj.nbr, adj.p, adj.p_row
    n = len(indptr) - 1
    frontier = np.unique(key)
    seen = np.append(frontier, _END)
    edges = 0
    while len(frontier):
        v = frontier % n
        hi = indptr[v + 1]
        cnt = hi - indptr[v]
        ends = cnt.cumsum()
        n_edges = int(ends[-1])
        edges += n_edges
        if not n_edges:
            break
        # The level's edge pos, held by frontier row owner, is CSR edge
        # pos + shift[owner].
        shift = hi - ends
        if p_row is None:
            owner = np.arange(len(frontier)).repeat(cnt)
            pos = np.arange(n_edges)
            if p is not None:
                pos = draw_hits(rng, n_edges, p[pos + shift[owner]])
                owner = owner[pos]
        else:
            coin = (p_row if isinstance(p_row, float)
                    else p_row[v].repeat(cnt))
            pos = draw_hits(rng, n_edges, coin)
            owner = ends.searchsorted(pos, side="right")
        tkey = (frontier - v)[owner] + nbr[pos + shift[owner]]
        tkey.sort()
        # New keys: not visited yet, first of each run of duplicates.
        fresh = seen[np.searchsorted(seen, tkey)] != tkey
        fresh[1:] &= tkey[1:] != tkey[:-1]
        frontier = tkey[fresh]
        if blocked is not None:
            frontier = frontier[~blocked[frontier % n]]
        # Timsort merges the two sorted runs in linear time.
        seen = np.concatenate((seen, frontier))
        seen.sort(kind="stable")
    return seen[:-1], edges


@dataclass(frozen=True)
class Reach:
    """Rows reached per traversal, start rows included (or summed per
    candidate, without ``keys``), and the traversal cost."""

    counts: np.ndarray  # int64[B]
    vertex_cost: int  # keys reached, each scanned once
    edge_cost: int  # edges examined
    keys: np.ndarray | None = None  # int64 — the sorted reached keys


def reach(
    adj: Adjacency,
    seed_b: np.ndarray,
    seed_v: np.ndarray,
    n_batches: int,
    rng: np.random.Generator | None = None,
    blocked: np.ndarray | None = None,
) -> Reach:
    """``n_batches`` traversals of ``adj`` at once: traversal b starts from
    the rows ``seed_v[seed_b == b]`` and counts the rows it reaches. See
    :func:`expand` for the coins, ``rng`` and ``blocked``."""
    n = len(adj.indptr) - 1
    keys, edge_cost = expand(adj, seed_b.astype(np.int64) * n + seed_v, rng,
                             blocked)
    counts = np.bincount(keys // n, minlength=n_batches).astype(np.int64)
    return Reach(counts, len(keys), edge_cost, keys)
