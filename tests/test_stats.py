"""Table 3 statistics: degrees (oracle-checked), clustering, distances."""
import pandas as pd
import pytest

from repro.graphs import build_network, to_csr
from repro.graphs.stats import (
    average_distance,
    clustering_coefficient,
    degree_stats,
    table3_row,
)
from tests.duckdb_oracle import assert_equivalent
from pyspark.sql import functions as F

from tests.helpers import graph_from_edges, path_graph


@pytest.fixture(scope="module")
def karate_df(spark):
    return build_network(spark, "Karate").cache()


def test_degree_stats_karate(karate_df):
    s = degree_stats(karate_df)
    assert s == {"n": 34, "m": 156, "max_out": 17, "max_in": 17}


def test_degree_query_against_duckdb(spark, karate_df):
    got = karate_df.groupBy("src").agg(F.count("*").alias("d"))
    assert_equivalent(
        got,
        "SELECT src, COUNT(*) AS d FROM edges GROUP BY src",
        edges=karate_df,
    )


def test_clustering_triangle_spark(spark):
    pdf = pd.DataFrame(
        {"src": [0, 1, 1, 2, 0, 2], "dst": [1, 0, 2, 1, 2, 0]}
    )
    assert clustering_coefficient(spark.createDataFrame(pdf)) == pytest.approx(1.0)


def test_clustering_path_spark(spark):
    # Path 0-1-2 has a wedge but no triangle: coefficient 0.
    pdf = pd.DataFrame({"src": [0, 1, 1, 2], "dst": [1, 0, 2, 1]})
    assert clustering_coefficient(spark.createDataFrame(pdf)) == 0.0


def test_clustering_karate(karate_df):
    # Paper Table 3: 0.26 for Karate (global clustering).
    c = clustering_coefficient(karate_df)
    assert c == pytest.approx(0.2557, abs=0.02)


def test_average_distance_path():
    # Undirected path of 3: distances 1,1,2 → mean 4/3.
    g = path_graph(3)
    assert average_distance(g) == pytest.approx(4 / 3)


def test_average_distance_karate(spark, karate_df):
    # Paper Table 3: 2.41.
    g = to_csr(karate_df.withColumn("p", F.lit(1.0)))
    assert average_distance(g) == pytest.approx(2.41, abs=0.02)


def test_average_distance_skips_large():
    g = path_graph(3)
    assert average_distance(g, max_n=2) is None


def test_table3_row_karate(spark, karate_df):
    g = to_csr(karate_df.withColumn("p", F.lit(1.0)))
    row = table3_row(karate_df, g, with_distance=True)
    assert row["n"] == 34 and row["m"] == 156
    assert row["avg_distance"] == pytest.approx(2.41, abs=0.02)


def test_disconnected_distance():
    g = graph_from_edges([(0, 1, 1.0), (2, 3, 1.0)], n=4)
    # Only connected pairs count: all at distance 1.
    assert average_distance(g) == pytest.approx(1.0)
