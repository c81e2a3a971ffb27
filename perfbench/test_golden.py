"""The golden digests pin the greedy workloads' trials, Table 8 counters
included. Recomputes a small slice; run with ``PYTHONPATH=src pytest perfbench``.
"""
import pytest

import common
import greedy
from repro.experiments.runner import run_trial_local


@pytest.fixture(scope="module", params=sorted(greedy.INSTANCES))
def workload(request):
    instances, _ = greedy.setup(request.param, common.Speed())
    return request.param, instances


def test_golden_covers_every_pool_trial(workload):
    name, instances = workload
    golden = common.load_golden()[name]
    keys = {
        common.trial_key(task.__dict__)
        for _, task in greedy.all_tasks(instances)
    }
    assert keys == set(golden)


def test_small_slice_matches_golden(workload):
    name, instances = workload
    golden = common.load_golden()[name]
    cheap = [(i, t) for i, t in greedy.all_tasks(instances)
             if t.sample_number <= 64 and t.k == 1 and t.trial < 3]
    assert len(cheap) >= 12
    for inst, task in cheap:
        row = run_trial_local(inst.graph, inst.oracle, task, common.BASE_SEED)
        assert golden[common.trial_key(row)] == common.trial_digest(row)


def test_digest_sees_a_changed_counter(workload):
    name, instances = workload
    inst, task = greedy.all_tasks(instances)[0]
    row = run_trial_local(inst.graph, inst.oracle, task, common.BASE_SEED)
    row["edge_cost"] += 1
    assert common.load_golden()[name][common.trial_key(row)] != (
        common.trial_digest(row)
    )
