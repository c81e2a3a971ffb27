"""pandas edge list → immutable CSR/CSC arrays for executor-side kernels.

The sampling kernels (``repro.ic``) are NumPy frontier-expansion loops; they
need O(1) neighbour lookup. ``from_pandas`` lays a driver-side (src, dst, p)
edge list out as two :class:`Adjacency` directions: ``out`` (CSR, for
forward simulation) and ``in_`` (CSC, for reverse/RR sampling); a stable
sort keeps each row's neighbours in edge-list order. The result is a plain
dataclass of NumPy arrays, cheap to broadcast to ``mapInPandas`` workers.

Where every edge of a row shares one probability — UC in both directions,
IWC in-edges (1/d⁻(v)), OWC out-edges (1/d⁺(u)) — a direction also carries
that probability per row (``Adjacency.p_row``), so the coin kernels can
test a level's coins without gathering ``p`` per edge. Where every edge of
the graph shares one p (UC), it is carried as that one ``float``.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd


@dataclass(frozen=True)
class Adjacency:
    """One direction of a graph: row r's edges are ``indptr[r] …
    indptr[r + 1]``, leading to rows ``nbr``. Every edge survives a coin of
    ``p[e]``; ``p_row`` is the p every edge shares (a ``float``), or the p
    every edge of row r shares (``float64[rows]``, 0 for empty rows), or
    None (some row's edges differ). Without ``p`` the edges are live: they
    draw no coin."""

    indptr: np.ndarray  # int64[rows + 1]
    nbr: np.ndarray  # int64[edges], grouped by row
    p: np.ndarray | None = None  # float64[edges]
    p_row: np.ndarray | float | None = None


@dataclass(frozen=True)
class CSRGraph:
    """Influence graph as its out- and in-adjacency. Vertices are 0..n-1."""

    n: int
    out: Adjacency  # rows by src, nbr = dst
    in_: Adjacency  # rows by dst, nbr = src

    @property
    def m(self) -> int:
        return len(self.out.nbr)

    @property
    def m_tilde(self) -> float:
        """Expected number of live edges, m̃ = Σ_e p(e)."""
        return float(self.out.p.sum())

    def out_degree(self) -> np.ndarray:
        return np.diff(self.out.indptr)

    def in_degree(self) -> np.ndarray:
        return np.diff(self.in_.indptr)


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


def _direction(
    by: np.ndarray, other: np.ndarray, p: np.ndarray, n: int
) -> Adjacency:
    """The edges by → other as rows by ``by``. ``p_row`` is the p every
    edge shares exactly, as a ``float``; else each row's p if all of the
    row's edges share it exactly; else None."""
    order, indptr = group_rows(by, n)
    nbr, p = other[order].astype(np.int64), p[order].astype(np.float64)
    if len(p) and (p == p[0]).all():
        return Adjacency(indptr, nbr, p, float(p[0]))
    deg = np.diff(indptr)
    row = np.zeros(n)
    nonempty = deg > 0
    row[nonempty] = p[indptr[:-1][nonempty]]
    same = np.array_equal(np.repeat(row, deg), p)
    return Adjacency(indptr, nbr, p, row if same else None)


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
    return CSRGraph(n, _direction(src, dst, p, n), _direction(dst, src, p, n))
