"""Independent-cascade (IC) model substrate.

One frontier-expansion BFS, :func:`expand`, runs B traversals at once over
the disjoint union of B copies of a graph (vertex key = b·n + v). The
primitives wrap it:

* :mod:`repro.ic.forward` — forward Monte-Carlo diffusion (Oneshot).
* :mod:`repro.ic.live` — live-edge sampling + reachability (Snapshot).
* :mod:`repro.ic.rr` — reverse-reachable set generation (RIS).
* :mod:`repro.ic.exact` — exact influence by live-graph enumeration (tiny
  graphs; test oracle).

Coins are drawn per examined edge, as in the paper's naive simulations;
:func:`draw_hits` draws and tests every coin, in cache-sized blocks. Where
every edge of a row shares one p (UC; IWC in-edges; OWC out-edges; see
``CSRGraph.out_p_row``), a level tests its draws against the rows' p —
against one scalar p when the whole graph shares it (UC) — and builds edge
indices only for the surviving edges; other rows gather every edge's index
and p. All give the same draws and the same edges.

The visited set is a sorted key array, so memory is proportional to the
keys visited, not to B·n. Traversal cost follows the paper (§3.2): every
visited vertex is scanned once (vertex cost); edges examined = edge cost.
"""
import numpy as np

from repro.graphs.csr import gather_edges

_END = np.iinfo(np.int64).max  # sentinel closing the visited array
# Coins drawn and tested per block (512 KiB of draws): a block is tested
# while it is still in cache, and n coins never hold 8n bytes of draws.
_BLOCK = 1 << 16


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
    indptr: np.ndarray,
    nbr: np.ndarray,
    p: np.ndarray | None,
    key: np.ndarray,
    n: int,
    rng: np.random.Generator | None = None,
    layer: np.ndarray | None = None,
    p_row: np.ndarray | float | None = None,
    blocked: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """BFS from the keys ``key`` (b·n + v; any order, duplicates allowed).

    Copy b reads v's edges from ``indptr`` row v, or row ``layer[b]·n + v``
    for stacked live graphs; ``nbr`` holds copy-local vertex ids. With
    ``p``, edge e survives a coin with probability ``p[e]``; coins are drawn
    per level in sorted-frontier order, then adjacency order. Returns the
    sorted visited keys and the number of edges examined.

    ``p_row[r]``, when given, is the probability every edge of row r
    shares (``CSRGraph.out_p_row`` / ``in_p_row``); a ``float`` ``p_row``
    is the p every edge shares. The level then tests the same draws, block
    by block, against that p, or against the frontier rows' p repeated
    over their edges, and locates only the surviving edges, by binary
    search over the rows' running edge ends; no per-edge index or ``p``
    gather is built. Without it (rows of varying p, live layers without
    coins) a level gathers all its edges with :func:`gather_edges`.

    ``blocked``, a ``bool`` mask over the rows, counts as already visited:
    a new key whose row is blocked is dropped, so it is neither returned
    nor expanded. Edges into blocked rows are still examined and counted.
    The start keys are not tested.
    """
    frontier = np.unique(key)
    seen = np.append(frontier, _END)
    edges = 0
    while len(frontier):
        b, v = np.divmod(frontier, n)
        row = v if layer is None else layer[b] * n + v
        if p_row is None:
            eidx, owner = gather_edges(indptr, row)
            edges += len(eidx)
            if not len(eidx):
                break
            if p is not None:
                hit = draw_hits(rng, len(eidx), p[eidx])
                eidx, owner = eidx[hit], owner[hit]
        else:
            hi = indptr[row + 1]
            cnt = hi - indptr[row]
            ends = cnt.cumsum()
            n_edges = int(ends[-1])
            edges += n_edges
            if not n_edges:
                break
            coin = (p_row if isinstance(p_row, float)
                    else p_row[row].repeat(cnt))
            pos = draw_hits(rng, n_edges, coin)
            owner = ends.searchsorted(pos, side="right")
            # Edge pos of the level is row owner's edge hi − (ends − pos).
            eidx = pos + (hi - ends)[owner]
        tkey = (frontier - v)[owner] + nbr[eidx]
        tkey.sort()
        # New keys: not visited yet, first of each run of duplicates.
        fresh = seen[np.searchsorted(seen, tkey)] != tkey
        fresh[1:] &= tkey[1:] != tkey[:-1]
        frontier = tkey[fresh]
        if blocked is not None:
            b, v = np.divmod(frontier, n)
            row = v if layer is None else layer[b] * n + v
            frontier = frontier[~blocked[row]]
        # Timsort merges the two sorted runs in linear time.
        seen = np.concatenate((seen, frontier))
        seen.sort(kind="stable")
    return seen[:-1], edges
