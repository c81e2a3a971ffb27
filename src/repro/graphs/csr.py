"""Edge-list DataFrame → immutable CSR/CSC arrays for executor-side kernels.

The sampling kernels (``repro.ic``) are NumPy frontier-expansion loops; they
need O(1) neighbour lookup, which Spark rows cannot give. ``to_csr``
collects an influence-graph DataFrame once on the driver and lays it out as
CSR (out-adjacency, for forward simulation) and CSC (in-adjacency, for
reverse/RR sampling). The result is a plain dataclass of NumPy arrays, cheap
to broadcast to ``mapInPandas`` workers.

Where every edge of a row shares one probability — UC in both directions,
IWC in-edges (1/d⁻(v)), OWC out-edges (1/d⁺(u)) — the graph also carries
that probability per row (``out_p_row`` / ``in_p_row``), so the coin
kernels can test a level's coins without gathering ``p`` per edge.
"""
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


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
    # float64[n]: the p shared by every edge of row v (0 for empty rows),
    # or None when some row's edges differ in p.
    out_p_row: np.ndarray | None
    in_p_row: np.ndarray | None

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


def _pack(by: np.ndarray, other: np.ndarray, p: np.ndarray, n: int):
    order = np.argsort(by, kind="stable")
    by, other, p = by[order], other[order], p[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, by + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, other.astype(np.int64), p.astype(np.float64)


def _row_p(indptr: np.ndarray, p: np.ndarray) -> np.ndarray | None:
    """Each row's p if all of the row's edges share it exactly, else None."""
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


def to_csr(influence_df: DataFrame, n: int | None = None) -> CSRGraph:
    """Collect a Spark (src, dst[, p]) DataFrame into a :class:`CSRGraph`."""
    return from_pandas(influence_df.toPandas(), n)
