"""Independent-cascade (IC) model substrate.

One frontier-expansion BFS, :func:`expand`, runs B traversals at once over
the disjoint union of B copies of a graph (vertex key = b·n + v). The
primitives wrap it:

* :mod:`repro.ic.forward` — forward Monte-Carlo diffusion (Oneshot).
* :mod:`repro.ic.live` — live-edge sampling + reachability (Snapshot).
* :mod:`repro.ic.rr` — reverse-reachable set generation (RIS).
* :mod:`repro.ic.exact` — exact influence by live-graph enumeration (tiny
  graphs; test oracle).

Coins are drawn per examined edge, as in the paper's naive simulations.
Where every edge of a row shares one p (UC; IWC in-edges; OWC out-edges;
see ``CSRGraph.out_p_row``), a level tests its draws against the rows' p
and builds edge indices only for the surviving edges; other rows gather
every edge's index and p. Both give the same draws and the same edges.

The visited set is a sorted key array, so memory is proportional to the
keys visited, not to B·n. Traversal cost follows the paper (§3.2): every
visited vertex is scanned once (vertex cost); edges examined = edge cost.
"""
import numpy as np

_END = np.iinfo(np.int64).max  # sentinel closing the visited array


def gather_edges(indptr: np.ndarray, frontier: np.ndarray):
    """Flatten the adjacency ranges of ``frontier`` vertices.

    Returns ``(eidx, owner)`` where ``eidx`` are edge indices into the CSR
    arrays and ``owner[i]`` is the position in ``frontier`` owning edge i.
    """
    start = indptr[frontier]
    cnt = indptr[frontier + 1] - start
    owner = np.repeat(np.arange(len(frontier)), cnt)
    # Edge i of owner o is start[o] + (i − index of o's first edge).
    shift = start - (np.cumsum(cnt) - cnt)
    return np.arange(len(owner)) + shift[owner], owner


def expand(
    indptr: np.ndarray,
    nbr: np.ndarray,
    p: np.ndarray | None,
    key: np.ndarray,
    n: int,
    rng: np.random.Generator | None = None,
    layer: np.ndarray | None = None,
    p_row: np.ndarray | None = None,
    blocked: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """BFS from the keys ``key`` (b·n + v; any order, duplicates allowed).

    Copy b reads v's edges from ``indptr`` row v, or row ``layer[b]·n + v``
    for stacked live graphs; ``nbr`` holds copy-local vertex ids. With
    ``p``, edge e survives a coin with probability ``p[e]``; coins are drawn
    per level in sorted-frontier order, then adjacency order. Returns the
    sorted visited keys and the number of edges examined.

    ``p_row[r]``, when given, is the probability every edge of row r
    shares (``CSRGraph.out_p_row`` / ``in_p_row``). The level then tests
    the same draws against the frontier rows' p repeated over their edges
    and locates only the surviving edges, by binary search over the rows'
    running edge ends; no per-edge index or ``p`` gather is built. Without
    it (rows of varying p, live layers without coins) a level gathers all
    its edges with :func:`gather_edges`.

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
                hit = rng.random(len(eidx)) < p[eidx]
                eidx, owner = eidx[hit], owner[hit]
        else:
            hi = indptr[row + 1]
            cnt = hi - indptr[row]
            ends = cnt.cumsum()
            n_edges = int(ends[-1])
            edges += n_edges
            if not n_edges:
                break
            pos = (rng.random(n_edges) < p_row[row].repeat(cnt)).nonzero()[0]
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
