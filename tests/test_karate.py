"""Karate club network: exact structure per the paper's Table 3."""
import numpy as np
import pytest

from repro.graphs import karate
from repro.graphs.csr import from_pandas


@pytest.fixture(scope="module")
def pdf():
    return karate.karate_edges_pandas()


def test_vertex_and_edge_counts(pdf):
    assert karate.N == 34
    assert karate.M_DIRECTED == 156
    assert len(pdf) == 156
    verts = set(pdf["src"]) | set(pdf["dst"])
    assert verts == set(range(34))


def test_symmetric(pdf):
    arcs = set(zip(pdf["src"], pdf["dst"]))
    assert all((v, u) in arcs for u, v in arcs)


def test_no_self_loops_or_duplicates(pdf):
    assert (pdf["src"] != pdf["dst"]).all()
    assert not pdf.duplicated().any()


def test_max_degree_17(pdf):
    # Paper Table 3: Δ⁺ = Δ⁻ = 17 (vertex 33, the instructor).
    g = from_pandas(pdf.assign(p=1.0))
    assert g.out_degree().max() == 17
    assert g.in_degree().max() == 17
    assert int(np.argmax(g.out_degree())) == 33


def test_known_hubs(pdf):
    g = from_pandas(pdf.assign(p=1.0))
    deg = g.out_degree()
    assert deg[0] == 16  # Mr. Hi
    assert deg[33] == 17  # the instructor
    assert deg[32] == 12
