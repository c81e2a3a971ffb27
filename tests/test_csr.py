"""CSR/CSC construction: exact agreement with the pandas edge list."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.csr import from_pandas, group_rows
from tests.helpers import graph_from_edges


def test_small_graph_layout():
    g = graph_from_edges([(0, 1, 0.5), (0, 2, 0.25), (2, 1, 1.0)], n=3)
    assert g.n == 3 and g.m == 3
    assert list(g.out.indptr) == [0, 2, 2, 3]
    assert sorted(g.out.nbr[0:2].tolist()) == [1, 2]
    assert list(g.in_.indptr) == [0, 0, 2, 3]
    assert g.m_tilde == pytest.approx(1.75)


def test_out_and_in_describe_same_edges():
    rng = np.random.default_rng(0)
    pdf = pd.DataFrame(
        {
            "src": rng.integers(0, 50, 300),
            "dst": rng.integers(0, 50, 300),
            "p": rng.uniform(0.01, 1.0, 300),
        }
    )
    g = from_pandas(pdf, n=50)
    out_edges = set()
    for v in range(g.n):
        for e in range(g.out.indptr[v], g.out.indptr[v + 1]):
            out_edges.add((v, int(g.out.nbr[e]), round(float(g.out.p[e]), 9)))
    in_edges = set()
    for v in range(g.n):
        for e in range(g.in_.indptr[v], g.in_.indptr[v + 1]):
            in_edges.add((int(g.in_.nbr[e]), v, round(float(g.in_.p[e]), 9)))
    assert out_edges == in_edges
    assert len(out_edges) == len(pdf)  # duplicates kept as parallel edges


def test_degrees_match_pandas():
    rng = np.random.default_rng(1)
    pdf = pd.DataFrame(
        {"src": rng.integers(0, 20, 100), "dst": rng.integers(0, 20, 100)}
    )
    g = from_pandas(pdf, n=20)
    out_counts = pdf.groupby("src").size()
    for v in range(20):
        assert g.out_degree()[v] == out_counts.get(v, 0)


def test_default_p_is_one():
    g = from_pandas(pd.DataFrame({"src": [0], "dst": [1]}))
    assert g.out.p[0] == 1.0


def test_n_inferred():
    g = from_pandas(pd.DataFrame({"src": [0, 7], "dst": [3, 2]}))
    assert g.n == 8


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 9), st.integers(0, 9), st.floats(0.01, 1.0)
        ),
        min_size=1,
        max_size=40,
    )
)
def test_roundtrip_property(edges):
    pdf = pd.DataFrame(edges, columns=["src", "dst", "p"])
    g = from_pandas(pdf, n=10)
    assert g.m == len(pdf)
    assert g.out_degree().sum() == g.in_degree().sum() == g.m
    assert g.m_tilde == pytest.approx(pdf["p"].sum())


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("n", [1, 34, 1 << 16, (1 << 16) + 1, 1 << 20])
def test_group_rows_is_stable_argsort(n, dtype):
    # Radix passes over 16-bit digits: one for n ≤ 2¹⁶, two beyond. Rows
    # repeat (the order within a row is the input order) and include the
    # extremes 0 and n − 1.
    rng = np.random.default_rng(n)
    row = np.concatenate(
        [rng.integers(0, n, 200_000), [0, n - 1, n - 1, 0]]
    ).astype(dtype)
    order, indptr = group_rows(row, n)
    np.testing.assert_array_equal(order, np.argsort(row, kind="stable"))
    np.testing.assert_array_equal(
        indptr, np.searchsorted(np.sort(row), np.arange(n + 1))
    )
    assert indptr.dtype == np.int64


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_group_rows_empty(dtype):
    order, indptr = group_rows(np.empty(0, dtype=dtype), 5)
    assert len(order) == 0
    np.testing.assert_array_equal(indptr, np.zeros(6))
