"""The benchmark's workloads still run correctly on this package.

Each workload in ``perfbench/workloads.py`` builds its first two seed-0
inputs, runs each op once and checks the output as a benchmark run
does: no problem from the workload's own invariants (and its reference
re-check, on the ops a run re-checks), and a record that matches the
committed golden digest in ``perfbench/golden/``.  So a change that
breaks a workload, or moves an output the benchmark pins, fails here and
not only in a benchmark run.  The quality evaluations of each
workload's first ops (20 of ``clear-direct``, ``nash-enum`` and
``clear-indirect``, 10 ``cli-mix`` sessions) are pinned too, work
budgets that a noisy host still shows.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
OPS = 2


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads_outputs", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_first_ops_match_the_golden_digests(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name](0, str(tmp_path))
    golden = json.loads((PERFBENCH / "golden" / f"{name}.json").read_text())
    assert golden["seed"] == 0
    pool = workload.build_pool(range(OPS))
    for k in range(OPS):
        result = workload.run(pool[k])
        problems = workload.problems(pool[k], result)
        if workload.reference_every and k % workload.reference_every == 0:
            problems += workload.reference_problems(pool[k], result)
        assert problems == [], (name, k)
        assert WORKLOADS.digests_match(workload.record(pool[k], result),
                                       golden["ops"][k]), (name, k)


def test_clear_direct_quality_evaluations_are_pinned(count_q_calls):
    # A work budget that a noisy host still shows: the first 20 seed-0
    # clear-direct ops, one truthful direct VCG run each at n=30, m=5 and
    # 8 grid prices, make exactly this many quality evaluations.
    workload = WORKLOADS.WORKLOADS["clear-direct"](0, None)
    pool = workload.build_pool(range(20))
    with count_q_calls() as calls:
        for k in range(20):
            workload.run(pool[k])
    assert calls() == 11750


def test_nash_enum_quality_evaluations_are_pinned(count_q_calls):
    # The same budget for the equilibrium engine: the first 20 seed-0
    # nash-enum ops, each one 3-agent game of 1728 profiles analysed
    # under indirect VCG and GSP, make exactly this many quality
    # evaluations.  Scoring the other agents' bids per line, as the walk
    # once did, made 20921.
    workload = WORKLOADS.WORKLOADS["nash-enum"](0, None)
    pool = workload.build_pool(range(20))
    with count_q_calls() as calls:
        for k in range(20):
            workload.run(pool[k])
    assert calls() == 11505


def test_clear_indirect_quality_evaluations_are_pinned(count_q_calls):
    # The same budget for the indirect search at scale: the first 20
    # seed-0 clear-indirect ops, each one 1000-bid page cleared by
    # indirect VCG and GSP, make exactly this many quality evaluations.
    workload = WORKLOADS.WORKLOADS["clear-indirect"](0, None)
    pool = workload.build_pool(range(20))
    with count_q_calls() as calls:
        for k in range(20):
            workload.run(pool[k])
    assert calls() == 13315


def test_cli_mix_quality_evaluations_are_pinned(count_q_calls, tmp_path):
    # The same budget for the CLI: the first 10 seed-0 cli-mix sessions,
    # each fourteen pda commands over its own JSON files, make exactly
    # this many quality evaluations.
    workload = WORKLOADS.WORKLOADS["cli-mix"](0, str(tmp_path))
    pool = workload.build_pool(range(10))
    with count_q_calls() as calls:
        for k in range(10):
            workload.run(pool[k])
    assert calls() == 16173
