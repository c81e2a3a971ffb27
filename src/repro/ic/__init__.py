"""Independent-cascade (IC) model substrate.

One frontier-expansion BFS, :func:`expand`, runs B traversals at once over
the disjoint union of B copies of a graph (vertex key = b·n + v). The
primitives wrap it:

* :mod:`repro.ic.forward` — forward Monte-Carlo diffusion (Oneshot).
* :mod:`repro.ic.live` — live-edge sampling + reachability (Snapshot).
* :mod:`repro.ic.rr` — reverse-reachable set generation (RIS).
* :mod:`repro.ic.exact` — exact influence by live-graph enumeration (tiny
  graphs; test oracle).
* :mod:`repro.ic.dataflow` — pure Spark DataFrame implementations of the
  same primitives (iterative-join BFS), cross-checked against the kernels.

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
) -> tuple[np.ndarray, int]:
    """BFS from the keys ``key`` (b·n + v; any order, duplicates allowed).

    Copy b reads v's edges from ``indptr`` row v, or row ``layer[b]·n + v``
    for stacked live graphs; ``nbr`` holds copy-local vertex ids. With
    ``p``, edge e survives a coin with probability ``p[e]``; coins are drawn
    per level in sorted-frontier order, then adjacency order. Returns the
    sorted visited keys and the number of edges examined.
    """
    frontier = np.unique(key)
    seen = np.append(frontier, _END)
    edges = 0
    while len(frontier):
        b, v = np.divmod(frontier, n)
        eidx, owner = gather_edges(
            indptr, v if layer is None else layer[b] * n + v
        )
        edges += len(eidx)
        if not len(eidx):
            break
        if p is not None:
            hit = rng.random(len(eidx)) < p[eidx]
            eidx, owner = eidx[hit], owner[hit]
        tkey = (frontier - v)[owner] + nbr[eidx]
        tkey.sort()
        # New keys: not visited yet, first of each run of duplicates.
        fresh = seen[np.searchsorted(seen, tkey)] != tkey
        fresh[1:] &= tkey[1:] != tkey[:-1]
        frontier = tkey[fresh]
        # Timsort merges the two sorted runs in linear time.
        seen = np.concatenate((seen, frontier))
        seen.sort(kind="stable")
    return seen[:-1], edges
