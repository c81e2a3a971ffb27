"""Network registry: every entry builds and matches its documented shape."""
import json
import os
import subprocess
import sys

import pytest

from repro.graphs.networks import NETWORKS, build_network_pandas

SMALL = ["Karate", "Physicians_syn", "GrQc_syn", "WikiVote_syn", "BA_s", "BA_d"]


@pytest.mark.parametrize("name", list(NETWORKS))
def test_builds_and_simple(name):
    pdf = build_network_pandas(name)
    assert (pdf["src"] != pdf["dst"]).all()
    assert not pdf.duplicated().any()
    assert pdf["src"].min() >= 0 and pdf["dst"].min() >= 0


@pytest.mark.parametrize("name", ["Karate", "BA_s", "BA_d"])
def test_exact_networks_match_paper(name):
    spec = NETWORKS[name]
    pdf = build_network_pandas(name)
    n = len(set(pdf["src"]) | set(pdf["dst"]))
    assert n == spec.paper_n
    assert len(pdf) == spec.paper_m


@pytest.mark.parametrize("name", ["Physicians_syn"])
def test_substitutes_match_paper_scale(name):
    spec = NETWORKS[name]
    pdf = build_network_pandas(name)
    assert 0.8 * spec.paper_m <= len(pdf) <= 1.1 * spec.paper_m


@pytest.mark.parametrize("name", ["GrQc_syn", "WikiVote_syn"])
def test_scaled_substitutes_keep_density(name):
    spec = NETWORKS[name]
    pdf = build_network_pandas(name)
    n = len(set(pdf["src"]) | set(pdf["dst"]))
    ours = len(pdf) / n
    paper = spec.paper_m / spec.paper_n
    assert 0.5 * paper <= ours <= 2.0 * paper


@pytest.mark.parametrize("name", ["youtube_lite", "pokec_lite"])
def test_large_substitutes(name):
    spec = NETWORKS[name]
    assert spec.large
    pdf = build_network_pandas(name)
    n = len(set(pdf["src"]) | set(pdf["dst"]))
    assert n >= 10_000  # big enough to behave like a ★ instance locally
    ours = len(pdf) / n
    paper = spec.paper_m / spec.paper_n
    assert 0.4 * paper <= ours <= 2.5 * paper


@pytest.mark.parametrize("name", ["GrQc_syn", "youtube_lite"])
def test_symmetric_substitutes(name):
    pdf = build_network_pandas(name)
    arcs = set(zip(pdf["src"], pdf["dst"]))
    assert all((v, u) in arcs for u, v in arcs)


def test_graph_layer_imports_no_pyspark():
    # Graphs are built on the driver in NumPy/pandas; Spark stays out of
    # the graph layer entirely, and the graph layer imports no other repro
    # package. The kernels, the estimators and the Table 8/9 code need no
    # Spark either.
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys, json, repro.graphs, repro.graphs.stats\n"
        "graphs = sorted(m for m in sys.modules if m.startswith('repro'))\n"
        "import repro.ic, repro.algorithms, repro.experiments.traversal\n"
        "print(json.dumps([graphs, 'pyspark' in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    )
    graphs, spark = json.loads(out.stdout)
    assert [m for m in graphs if m not in ("repro", "repro.graphs")
            and not m.startswith("repro.graphs.")] == []
    assert "repro.graphs.stats" in graphs
    assert spark is False


def test_every_module_serves_the_jobs():
    # No library code that only tests call: importing the tables, which
    # jobs/cli.py drives, loads every module of the package.
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys, json, pkgutil, repro, repro.experiments.tables\n"
        "mods = [m.name for m in pkgutil.walk_packages(repro.__path__,"
        " 'repro.')]\n"
        "print(json.dumps([m for m in mods if m not in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert json.loads(out.stdout) == []
