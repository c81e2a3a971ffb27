"""In-memory spans and counters recorded around calls into ``repro`` layers.

The benchmark does not edit the program to trace it. ``traced(tracer)``
swaps the public functions the estimators and the runner call for timed
wrappers, under the names those modules import them by, and restores them
on exit. Every wrapper records a span (name, start, end, parent span) and,
for the IC kernels, the traversal counters of the result and the dense
bitmap cells the call allocates (computed as B·n from its arguments).
"""
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import repro.algorithms.oneshot as oneshot_mod
import repro.algorithms.ris as ris_mod
import repro.algorithms.snapshot as snapshot_mod
import repro.experiments.runner as runner_mod

IC_LAYERS = ("ic.forward", "ic.live", "ic.rr")
ALGS = ("oneshot", "snapshot", "ris")


def _forward_cells(a) -> int:
    # One n-cell row per simulation: |candidates| · β simulations in total.
    return len(a["candidates"]) * a["beta"] * a["graph"].n


def _live_cells(a) -> int:
    return a["n_batches"] * a["live"].n


def _rr_cells(a) -> int:
    return a["theta"] * a["graph"].n


# (module, attribute, span name, cells from the bound arguments)
KERNELS = (
    (oneshot_mod, "simulate_single_seeds", "ic.forward", _forward_cells),
    (snapshot_mod, "reach_batch", "ic.live", _live_cells),
    (ris_mod, "rr_sets", "ic.rr", _rr_cells),
)


class Tracer:
    """Spans as ``[name, start, end, parent index]`` plus named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def busy(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def calls(self, name: str) -> int:
        return len(self.durations(name))

    def _kernel(self, name: str, fn, cells):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name):
                res = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs).arguments
            self.counts[name + ".vertex_cost"] += res.vertex_cost
            self.counts[name + ".edge_cost"] += res.edge_cost
            self.counts[name + ".bitmap_cells"] += cells(bound)
            return res

        return wrapper

    def _make_estimator(self, fn):
        def wrapper(alg, graph, sample_number, rng):
            with self.span(f"algorithms.{alg}.build"):
                est = fn(alg, graph, sample_number, rng)
            self.counts[f"algorithms.{alg}.sample_size"] += est.sample_size
            est.estimate_all = self.timed(
                f"algorithms.{alg}.estimate", est.estimate_all
            )
            est.update = self.timed(f"algorithms.{alg}.update", est.update)
            return est

        return wrapper

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the IC kernels, estimators and greedy."""
        out: dict[str, tuple[float, str]] = {}
        for layer in IC_LAYERS:
            busy = self.busy(layer)
            v = self.counts[layer + ".vertex_cost"]
            e = self.counts[layer + ".edge_cost"]
            cells = self.counts[layer + ".bitmap_cells"]
            out[layer + ".calls"] = (self.calls(layer), "count")
            out[layer + ".busy_s"] = (busy, "s")
            out[layer + ".vertex_cost"] = (v, "count")
            out[layer + ".edge_cost"] = (e, "count")
            out[layer + ".ns_per_unit"] = (busy * 1e9 / (v + e), "ns")
            out[layer + ".bitmap_cells"] = (cells, "computed_cells")
            out[layer + ".useful_ratio"] = ((v + e) / cells, "ratio")
        out["ic.live.sample_s"] = (self.busy("ic.live.sample"), "s")
        for alg in ALGS:
            base = f"algorithms.{alg}"
            for step in ("build", "estimate", "update"):
                out[f"{base}.{step}_s"] = (self.busy(f"{base}.{step}"), "s")
            builds = self.calls(f"{base}.build")
            if alg != "oneshot":  # Oneshot stores no samples (size 0)
                out[f"{base}.sample_size"] = (
                    self.counts[f"{base}.sample_size"] / builds, "count",
                )
        out["algorithms.greedy.select_s"] = (
            self.busy("algorithms.greedy.select"), "s",
        )
        est = self.durations("rr_oracle.estimate")
        out["rr_oracle.estimate_calls"] = (len(est), "count")
        out["rr_oracle.estimate_us_p50"] = (float(np.median(est)) * 1e6, "us")
        return out


class _TimedOracle:
    """Stands in for an ``RROracle`` where the runner calls ``estimate``."""

    def __init__(self, oracle, tracer: Tracer) -> None:
        self.estimate = tracer.timed("rr_oracle.estimate", oracle.estimate)


@contextmanager
def traced(tracer: Tracer):
    """Route the estimators' and the runner's calls through ``tracer``.

    Yields a function that wraps an oracle so its ``estimate`` is timed.
    """
    saved = [(m, a, getattr(m, a)) for m, a, _, _ in KERNELS]
    saved += [
        (snapshot_mod, "sample_live_set", snapshot_mod.sample_live_set),
        (runner_mod, "make_estimator", runner_mod.make_estimator),
        (runner_mod, "run_greedy", runner_mod.run_greedy),
    ]
    try:
        for mod, attr, name, cells in KERNELS:
            setattr(mod, attr, tracer._kernel(name, getattr(mod, attr), cells))
        snapshot_mod.sample_live_set = tracer.timed(
            "ic.live.sample", snapshot_mod.sample_live_set
        )
        runner_mod.make_estimator = tracer._make_estimator(
            runner_mod.make_estimator
        )
        runner_mod.run_greedy = tracer.timed(
            "algorithms.greedy.select", runner_mod.run_greedy
        )
        yield lambda oracle: _TimedOracle(oracle, tracer)
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
