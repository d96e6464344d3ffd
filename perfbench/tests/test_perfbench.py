"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]

import lattice_rearrange as lr  # noqa: E402
from lattice_rearrange import cli  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

_RUNS: dict = {}
# scratch space inside the checkout, ignored by git like the benchmark's output
SCRATCH = ROOT / ".perfbench" / "tests"


def bench(workload: str, trace: int, seed: int = 3) -> tuple[int, dict, dict]:
    """(exit code, full report, summary line) of one short benchmark run, cached."""
    key = (workload, trace, seed)
    if key not in _RUNS:
        done = subprocess.run(
            [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = done.stdout.strip().splitlines()
        _RUNS[key] = (done.returncode, json.loads(lines[-2]), json.loads(lines[-1]))
    return _RUNS[key]


def _spec(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(workload, trace):
    code, _, summary = bench(workload, trace)
    assert code == 0
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    want = _spec("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in summary["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in summary["metrics"].values())


def test_code_metric_tables_match_benchmark_json():
    assert harness.END_TO_END == _spec("end_to_end")
    assert harness.PER_LAYER == _spec("per_layer")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_gives_same_digests_travel_and_counts():
    first = bench("row", 1)
    again = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "row", "--seed", "3",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    second = json.loads(again.stdout.strip().splitlines()[-2])
    assert [(i["digest"], i["travel"]) for i in first[1]["instances"]] == \
        [(i["digest"], i["travel"]) for i in second["instances"]]
    assert first[1]["travel_ratio"] == second["travel_ratio"]
    counted = [n for n, unit in harness.PER_LAYER.items() if unit in ("count", "dist")
               and n != "import.modules"]
    assert {n: first[2]["metrics"][n]["value"] for n in counted} == \
        {n: second["metrics"][n]["value"] for n in counted}


def test_grid_trace_separates_arborescence_assignment_and_switch():
    _, report, summary = bench("grid", 1)
    metrics = {n: m["value"] for n, m in summary["metrics"].items()}
    assert metrics["graphs.min_arborescence.s"] > 0
    assert metrics["graphs.linear_sum_assignment.calls"] > 0
    assert metrics["lattice2d.switch_cycles_ltr.s"] > 0
    assert metrics["graphs.min_arborescence.calls"] >= 2
    assert report["spans"] > 0


def test_checkout_without_sources_fails():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(PERFBENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "row", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def _small_request(instance, solver=("lor", "opt_plan_lor", "opt-lor"), metric="euclidean"):
    module, name, cli_name = solver
    return workloads.Request("t", module, name, cli_name, "test", {}, instance, metric)


@pytest.mark.parametrize("drop", [0, 5, -1])
def test_plan_with_a_dropped_step_fails(drop):
    inst = lr.gen_uniform_permutation(30, 11)
    req = _small_request(inst)
    plan = lr.opt_plan_lor(inst)
    expect = checks.expectation(req)
    assert checks.replay(req, plan, expect).failure is None
    steps = list(plan.steps)
    del steps[drop]
    assert checks.replay(req, lr.Plan(tuple(steps)), expect).failure is not None


def test_reported_cost_must_match_replay():
    inst = lr.gen_uniform_permutation(20, 5)
    req = _small_request(inst)
    plan = lr.opt_plan_lor(inst)
    cost = lr.plan_cost(inst, plan)
    expect = checks.expectation(req)
    good = {"picks": cost.picks, "travel": cost.travel, "total": cost.total}
    assert checks.replay(req, plan, expect, reported=good).failure is None
    bad = dict(good, travel=cost.travel + 1.0)
    assert checks.replay(req, plan, expect, reported=bad).failure is not None


def _binding_ids() -> dict:
    ids = {(m.__name__, k): id(v) for m in layertrace.MODULES for k, v in vars(m).items()}
    ids.update({("cli.SOLVERS", k): id(fn) for k, (fn, _) in cli.SOLVERS.items()})
    return ids


def test_no_wrapper_remains_after_traced_and_counting_passes():
    before = _binding_ids()
    run = harness.Run("grid", 5, SCRATCH)
    run.requests = [r for r in run.requests if r.id == "ptr-k4-20x20-blocks"]
    tracer = layertrace.Tracer()
    with tracer.active():
        assert _binding_ids() != before
        run.library_pass(tracer)
    counters = layertrace.Counters()
    with counters.active():
        run.library_pass()
    with pytest.raises(RuntimeError):
        with tracer.active():
            raise RuntimeError("interrupted pass")
    assert _binding_ids() == before
    assert not run.failures
    assert counters.counts["graphs.linear_sum_assignment.calls"] > 0
    names = {s[0] for s in tracer.spans}
    assert {"lattice2d.plan_ptr", "graphs.min_cost_assignment",
            "graphs.linear_sum_assignment", "core.simulate"} <= names
    assert all(s[4] == "ptr-k4-20x20-blocks" for s in tracer.spans)


def test_self_time_subtracts_children():
    tracer = layertrace.Tracer()
    tracer.spans[:] = [["a", 0.0, 10.0, None, "x"], ["b", 1.0, 4.0, 0, "x"],
                       ["c", 2.0, 3.0, 1, "x"], ["b", 5.0, 6.0, 0, "x"]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_min_matching_cost_is_minimal():
    rng = np.random.default_rng(0)
    for n in range(1, 7):
        cost = rng.random((n, n))
        brute = min(sum(cost[i, p[i]] for i in range(n))
                    for p in itertools.permutations(range(n)))
        assert checks.min_matching_cost(cost) == pytest.approx(brute)


def test_carry_bound_never_exceeds_the_optimum():
    for seed in range(4):
        labeled = lr.LabeledInstance(lr.LatticeDims(2, 3),
                                     lr.gen_uniform_permutation(6, seed).pi)
        typed = lr.gen_typed((3, 2), 2, (3, 3), lr.GoalPattern("columns"), seed)
        for inst in (labeled, typed):
            for metric in ("euclidean", "manhattan"):
                best = lr.oracle_optimal(inst, lr.CostModel(metric=metric)).cost.travel
                assert checks.carry_lower_bound(inst, metric) <= best + 1e-9


def test_tail_percentile_keeps_ten_samples_beyond():
    out = harness.tail([float(i) for i in range(25)])
    assert out["tail"] == 14.0 and out["samples"] == 25
    assert out["tail_percentile"] == pytest.approx(60.0)
    assert harness.tail([1.0] * 10)["tail"] is None
