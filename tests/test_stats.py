"""Table 3 statistics: degrees (oracle-checked), clustering, distances."""
from itertools import combinations

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import build_network_pandas, from_pandas
from repro.graphs.stats import (
    average_distance,
    clustering_coefficient,
    degree_stats,
    table3_row,
)
from tests.duckdb_oracle import assert_equivalent
from tests.helpers import graph_from_edges, path_graph


@pytest.fixture(scope="module")
def karate_df():
    return build_network_pandas("Karate")


def test_degree_stats_karate(karate_df):
    s = degree_stats(from_pandas(karate_df))
    assert s == {"n": 34, "m": 156, "max_out": 17, "max_in": 17}


def test_degree_query_against_duckdb(karate_df):
    d = from_pandas(karate_df).out_degree()
    got = pd.DataFrame({"src": np.flatnonzero(d), "d": d[d > 0]})
    assert_equivalent(
        got,
        "SELECT src, COUNT(*) AS d FROM edges GROUP BY src",
        edges=karate_df,
    )


def test_clustering_triangle_spark():
    pdf = pd.DataFrame(
        {"src": [0, 1, 1, 2, 0, 2], "dst": [1, 0, 2, 1, 2, 0]}
    )
    assert clustering_coefficient(from_pandas(pdf)) == pytest.approx(1.0)


def test_clustering_path_spark():
    # Path 0-1-2 has a wedge but no triangle: coefficient 0.
    pdf = pd.DataFrame({"src": [0, 1, 1, 2], "dst": [1, 0, 2, 1]})
    assert clustering_coefficient(from_pandas(pdf)) == 0.0


def test_clustering_karate(karate_df):
    # Paper Table 3: 0.26 for Karate (global clustering).
    c = clustering_coefficient(from_pandas(karate_df))
    assert c == pytest.approx(0.2557, abs=0.02)


def _ref_clustering(arcs) -> float:
    """Naive global clustering of the undirected simple graph under arcs."""
    und = {frozenset(a) for a in arcs if a[0] != a[1]}
    nbrs: dict[int, set[int]] = {}
    for u, v in map(tuple, und):
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    closed = triplets = 0
    for v, nb in nbrs.items():
        for a, b in combinations(sorted(nb), 2):
            triplets += 1
            closed += frozenset((a, b)) in und
    return closed / triplets if triplets else 0.0


@settings(max_examples=40, deadline=None)
@given(
    arcs=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)),
        min_size=1, max_size=60,
    )
)
def test_clustering_matches_naive(arcs):
    # Self-loops, both directions and parallel arcs all collapse to one
    # undirected edge; each closed triplet is one triangle corner.
    g = graph_from_edges(arcs, n=12)
    assert clustering_coefficient(g) == pytest.approx(_ref_clustering(arcs))


def test_average_distance_path():
    # Undirected path of 3: distances 1,1,2 → mean 4/3.
    g = path_graph(3)
    assert average_distance(g) == pytest.approx(4 / 3)


def test_average_distance_karate(karate_df):
    # Paper Table 3: 2.41.
    g = from_pandas(karate_df)
    assert average_distance(g) == pytest.approx(2.41, abs=0.02)


def test_table3_row_karate(karate_df):
    g = from_pandas(karate_df)
    row = table3_row(g, with_distance=True)
    assert row["n"] == 34 and row["m"] == 156
    assert row["avg_distance"] == pytest.approx(2.41, abs=0.02)


def test_disconnected_distance():
    g = graph_from_edges([(0, 1, 1.0), (2, 3, 1.0)], n=4)
    # Only connected pairs count: all at distance 1.
    assert average_distance(g) == pytest.approx(1.0)
