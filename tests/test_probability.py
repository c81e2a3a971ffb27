"""Edge-probability settings (§4.3), DuckDB-oracle-checked."""
import pytest
from pyspark.sql import functions as F

from repro.graphs import assign_probabilities, build_network
from repro.graphs.probability import SETTINGS
from tests.duckdb_oracle import assert_equivalent


@pytest.fixture(scope="module")
def edges(spark):
    return build_network(spark, "Karate").cache()


@pytest.mark.parametrize("setting,value", [("UC_0.1", 0.1), ("UC_0.01", 0.01)])
def test_uniform_cascade(edges, setting, value):
    probs = assign_probabilities(edges, setting)
    rows = probs.select("p").distinct().collect()
    assert [r["p"] for r in rows] == [value]
    assert probs.count() == edges.count()


def test_iwc_against_duckdb(spark, edges):
    got = assign_probabilities(edges, "IWC").select("src", "dst", "p")
    assert_equivalent(
        got,
        """
        SELECT e.src, e.dst, 1.0 / d.cnt AS p
        FROM edges e
        JOIN (SELECT dst, COUNT(*) cnt FROM edges GROUP BY dst) d
        USING (dst)
        """,
        edges=edges,
    )


def test_owc_against_duckdb(spark, edges):
    got = assign_probabilities(edges, "OWC").select("src", "dst", "p")
    assert_equivalent(
        got,
        """
        SELECT e.src, e.dst, 1.0 / d.cnt AS p
        FROM edges e
        JOIN (SELECT src, COUNT(*) cnt FROM edges GROUP BY src) d
        USING (src)
        """,
        edges=edges,
    )


def test_iwc_in_probabilities_sum_to_one(edges):
    # The paper: Σ_{u∈Γ⁻(v)} p(u,v) = 1 for every v.
    sums = (
        assign_probabilities(edges, "IWC")
        .groupBy("dst").agg(F.sum("p").alias("s"))
        .collect()
    )
    assert all(abs(r["s"] - 1.0) < 1e-9 for r in sums)


def test_owc_out_probabilities_sum_to_one(edges):
    sums = (
        assign_probabilities(edges, "OWC")
        .groupBy("src").agg(F.sum("p").alias("s"))
        .collect()
    )
    assert all(abs(r["s"] - 1.0) < 1e-9 for r in sums)


@pytest.mark.parametrize("setting", SETTINGS)
def test_probabilities_in_unit_interval(edges, setting):
    probs = assign_probabilities(edges, setting)
    bad = probs.where((F.col("p") <= 0) | (F.col("p") > 1)).count()
    assert bad == 0


def test_unknown_setting_raises(edges):
    with pytest.raises(ValueError):
        assign_probabilities(edges, "nope")


def test_m_tilde_iwc_equals_n(spark, edges):
    # IWC: m̃ = Σ_e p(e) = Σ_v 1 = n (every vertex with in-edges contributes 1).
    from repro.graphs import to_csr

    g = to_csr(assign_probabilities(edges, "IWC"))
    n_with_in = int((g.in_degree() > 0).sum())
    assert abs(g.m_tilde - n_with_in) < 1e-6
