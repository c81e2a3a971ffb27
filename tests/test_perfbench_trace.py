"""Smoke test of the benchmark's traced mode (``perfbench/tracing.py``).

The tracer wraps the kernels the estimators call and reads the counters of
their results, so a change to what a kernel returns must keep it working.
One Karate trial per algorithm runs under ``tracing.traced``.
"""
import sys
from pathlib import Path

import pytest

from repro.algorithms import ALGORITHMS
from repro.experiments import runner
from repro.experiments.rr_oracle import build_oracle_local
from repro.graphs import assign_probabilities, build_network_pandas, from_pandas

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def traced_rows():
    graph = from_pandas(
        assign_probabilities(build_network_pandas("Karate"), "UC_0.1")
    )
    oracle = build_oracle_local(graph, 1 << 12)
    tracer = tracing.Tracer()
    with tracing.traced(tracer) as wrap_oracle:
        rows = {
            alg: runner.run_trial_local(
                graph, wrap_oracle(oracle),
                runner.TrialTask("Karate", "UC_0.1", alg, 4, 2, 0), 2020,
            )
            for alg in ALGORITHMS
        }
    return tracer, rows


@pytest.mark.parametrize("layer,alg", [("ic.forward", "oneshot"),
                                       ("ic.rr", "ris")])
def test_kernel_counters_equal_trial_rows(traced_rows, layer, alg):
    tracer, rows = traced_rows
    assert tracer.calls(layer) > 0
    for cost in ("vertex_cost", "edge_cost"):
        assert tracer.counts[f"{layer}.{cost}"] == rows[alg][cost]


def test_every_layer_is_traced(traced_rows):
    tracer, rows = traced_rows
    assert tracer.calls("ic.live") > 0
    assert tracer.calls("ic.live.sample") == 1
    metrics = tracer.layer_metrics()
    for alg in ALGORITHMS:
        assert tracer.calls(f"algorithms.{alg}.build") == 1
        assert tracer.calls(f"algorithms.{alg}.estimate") == 2
        assert metrics[f"algorithms.{alg}.build_s"][0] > 0
    assert metrics["rr_oracle.estimate_calls"][0] == len(rows)
    assert (metrics["algorithms.ris.sample_size"][0]
            == rows["ris"]["sample_size"])
