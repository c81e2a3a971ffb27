"""pandas edge list → immutable CSR/CSC arrays for executor-side kernels.

The sampling kernels (``repro.ic``) are NumPy frontier-expansion loops; they
need O(1) neighbour lookup. ``from_pandas`` lays a driver-side (src, dst, p)
edge list out as CSR (out-adjacency, for forward simulation) and CSC
(in-adjacency, for reverse/RR sampling); a stable sort keeps each row's
neighbours in edge-list order. The result is a plain dataclass of NumPy
arrays, cheap to broadcast to ``mapInPandas`` workers.

Where every edge of a row shares one probability — UC in both directions,
IWC in-edges (1/d⁻(v)), OWC out-edges (1/d⁺(u)) — the graph also carries
that probability per row (``out_p_row`` / ``in_p_row``), so the coin
kernels can test a level's coins without gathering ``p`` per edge. Where
every edge of the graph shares one p (UC), it is carried as that one
``float``.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class CSRGraph:
    """Influence graph in CSR (out) + CSC (in) form. Vertices are 0..n-1."""

    n: int
    out_indptr: np.ndarray  # int64[n+1]
    out_dst: np.ndarray  # int64[m], sorted by src
    out_p: np.ndarray  # float64[m]
    in_indptr: np.ndarray  # int64[n+1]
    in_src: np.ndarray  # int64[m], sorted by dst
    in_p: np.ndarray  # float64[m]
    # float: the p shared by every edge; else float64[n]: the p shared by
    # every edge of row v (0 for empty rows); else None (some row's edges
    # differ in p).
    out_p_row: np.ndarray | float | None
    in_p_row: np.ndarray | float | None

    @property
    def m(self) -> int:
        return len(self.out_dst)

    @property
    def m_tilde(self) -> float:
        """Expected number of live edges, m̃ = Σ_e p(e)."""
        return float(self.out_p.sum())

    def out_degree(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    def in_degree(self) -> np.ndarray:
        return np.diff(self.in_indptr)


def group_rows(row: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lay keyed entries out as CSR rows: ``order`` sorts the entries by
    ``row`` (0 ≤ row < n), stably, and row r holds the entries
    ``order[indptr[r] : indptr[r + 1]]``. ``order`` is a linear-time LSD
    radix sort: one stable ``uint16`` argsort (NumPy radix-sorts those)
    per 16 bits of n − 1."""
    order = np.argsort(row.astype(np.uint16), kind="stable")
    for shift in range(16, (n - 1).bit_length(), 16):
        digit = (row[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
    return order, row_indptr(row, n)


def row_indptr(row: np.ndarray, n: int) -> np.ndarray:
    """CSR ``indptr`` of entries keyed by ``row`` (0 ≤ row < n): row r
    holds ``indptr[r + 1] − indptr[r]`` of them."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    return indptr


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


def _pack(by: np.ndarray, other: np.ndarray, p: np.ndarray, n: int):
    order, indptr = group_rows(by, n)
    return indptr, other[order].astype(np.int64), p[order].astype(np.float64)


def _row_p(indptr: np.ndarray, p: np.ndarray) -> np.ndarray | float | None:
    """The p every edge shares exactly, as a ``float``; else each row's p
    if all of the row's edges share it exactly; else None."""
    if len(p) and (p == p[0]).all():
        return float(p[0])
    deg = np.diff(indptr)
    row = np.zeros(len(deg))
    nonempty = deg > 0
    row[nonempty] = p[indptr[:-1][nonempty]]
    return row if np.array_equal(np.repeat(row, deg), p) else None


def from_pandas(pdf: pd.DataFrame, n: int | None = None) -> CSRGraph:
    """Build a :class:`CSRGraph` from a pandas (src, dst, p) edge list."""
    src = pdf["src"].to_numpy(dtype=np.int64)
    dst = pdf["dst"].to_numpy(dtype=np.int64)
    p = (
        pdf["p"].to_numpy(dtype=np.float64)
        if "p" in pdf.columns
        else np.ones(len(src))
    )
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    out_indptr, out_dst, out_p = _pack(src, dst, p, n)
    in_indptr, in_src, in_p = _pack(dst, src, p, n)
    return CSRGraph(
        n, out_indptr, out_dst, out_p, in_indptr, in_src, in_p,
        _row_p(out_indptr, out_p), _row_p(in_indptr, in_p),
    )
