"""Edge-probability settings (§4.3), DuckDB-oracle-checked."""
import pytest

from repro.graphs import assign_probabilities, build_network_pandas, from_pandas
from repro.graphs.probability import SETTINGS
from tests.duckdb_oracle import assert_equivalent


@pytest.fixture(scope="module")
def edges():
    return build_network_pandas("Karate")


@pytest.mark.parametrize("setting,value", [("UC_0.1", 0.1), ("UC_0.01", 0.01)])
def test_uniform_cascade(edges, setting, value):
    probs = assign_probabilities(edges, setting)
    assert list(probs["p"].unique()) == [value]
    assert len(probs) == len(edges)


def test_iwc_against_duckdb(edges):
    got = assign_probabilities(edges, "IWC")[["src", "dst", "p"]]
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


def test_owc_against_duckdb(edges):
    got = assign_probabilities(edges, "OWC")[["src", "dst", "p"]]
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
    sums = assign_probabilities(edges, "IWC").groupby("dst")["p"].sum()
    assert all(abs(s - 1.0) < 1e-9 for s in sums)


def test_owc_out_probabilities_sum_to_one(edges):
    sums = assign_probabilities(edges, "OWC").groupby("src")["p"].sum()
    assert all(abs(s - 1.0) < 1e-9 for s in sums)


@pytest.mark.parametrize("setting", SETTINGS)
def test_probabilities_in_unit_interval(edges, setting):
    p = assign_probabilities(edges, setting)["p"]
    bad = int(((p <= 0) | (p > 1)).sum())
    assert bad == 0


def test_unknown_setting_raises(edges):
    with pytest.raises(ValueError):
        assign_probabilities(edges, "nope")


def test_m_tilde_iwc_equals_n(edges):
    # IWC: m̃ = Σ_e p(e) = Σ_v 1 = n (every vertex with in-edges contributes 1).
    g = from_pandas(assign_probabilities(edges, "IWC"))
    n_with_in = int((g.in_degree() > 0).sum())
    assert abs(g.m_tilde - n_with_in) < 1e-6
