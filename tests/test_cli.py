"""CLI tests driven through main(argv): exit codes, JSON shapes, pipes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lattice_rearrange
from lattice_rearrange import (
    CostModel,
    GoalPattern,
    LabeledInstance,
    LatticeDims,
    TypedInstance,
    gen_block_random,
    gen_tsp_clusters,
    gen_typed,
    gen_uniform_permutation,
    instance_to_dict,
    oracle_optimal,
    plan_cost,
    plan_to_dict,
)
from lattice_rearrange.cli import GENERATORS, SOLVERS, main, resolve_solver
from lattice_rearrange.core import (
    JsonFormatError,
    SolverMismatch,
    instance_from_dict,
    instance_to_json,
    simulate,
)
from conftest import with_rest


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


CYCLE_INSTANCE = {"kind": "labeled", "dims": [4, 1],
                  "pi": [3, 2, 4, 1], "rest": 1}
CYCLE_PLAN = {"steps": [{"cell": 1, "action": "pick"},
                        {"cell": 3, "action": "swap"},
                        {"cell": 4, "action": "swap"},
                        {"cell": 1, "action": "place"}]}


# one happy path per gen invocation form; together they cover every
# distribution in GENERATORS
GEN_HAPPY_PATHS = [
    ("gen", "uniform", "--m", "6"),
    ("gen", "x-random", "--m", "12", "--x", "3"),
    ("gen", "column-random", "--m1", "3", "--m2", "4"),
    ("gen", "block-random", "--m", "4"),
    ("gen", "typed", "--m1", "4", "--m2", "4", "--k", "4"),
    ("gen", "typed", "--m1", "3", "--m2", "3", "--k", "3", "--pattern", "columns"),
    ("gen", "typed", "--m", "12", "--k", "4"),
    ("gen", "tsp-clusters", "--m1", "5", "--m2", "5", "--points", "2,2;2,4"),
]


class TestGen:
    def test_uniform_writes_versioned_instance(self, capsys):
        code, out, _ = run(capsys, "gen", "uniform", "--m", "8", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["format_version"] == 1
        assert doc["kind"] == "labeled" and sorted(doc["pi"]) == list(range(1, 9))

    def test_every_distribution_has_a_happy_path(self, capsys):
        assert {argv[1] for argv in GEN_HAPPY_PATHS} == set(GENERATORS)
        for argv in GEN_HAPPY_PATHS:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert json.loads(out)["format_version"] == 1
            assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_help_lists_the_distributions_in_table_order(self, capsys):
        assert tuple(GENERATORS) == ("uniform", "x-random", "column-random",
                                     "block-random", "typed", "tsp-clusters")
        code, out, _ = run(capsys, "gen", "--help")
        assert code == 0 and "{" + ",".join(GENERATORS) + "}" in out

    @pytest.mark.parametrize("argv,flag", [
        (argv, flag) for argv in GEN_HAPPY_PATHS
        for flag in GENERATORS[argv[1]][0].split()])
    def test_each_required_flag_is_a_usage_error_when_missing(self, capsys, argv, flag):
        at = argv.index(f"--{flag}")
        code, out, err = run(capsys, *argv[:at], *argv[at + 2:])
        assert code == 2 and out == ""
        assert err == f"usage error: gen {argv[1]!r} requires --{flag}\n"

    @pytest.mark.parametrize("dims", [
        ("--m", "12", "--m1", "3", "--m2", "4"),
        ("--m", "12", "--m2", "4"),
        (),
    ], ids=["both-forms", "m-and-m2", "neither-form"])
    def test_typed_takes_one_form_of_dims(self, capsys, dims):
        code, out, err = run(capsys, "gen", "typed", *dims, "--k", "3")
        assert code == 2 and out == ""
        assert err == "usage error: gen 'typed' requires --m or --m1 with --m2, not both\n"

    def test_typed_grid_needs_both_sides(self, capsys):
        code, _, err = run(capsys, "gen", "typed", "--m1", "3", "--k", "3")
        assert code == 2 and err == "usage error: gen 'typed' requires --m2\n"

    @pytest.mark.parametrize("points", ["2,2;2", "2,2;", "2,2,2", "", "a,b", "2;2"])
    def test_malformed_points_are_usage_errors(self, capsys, points):
        code, out, err = run(capsys, "gen", "tsp-clusters", "--m1", "5", "--m2", "5",
                             "--points", points)
        assert code == 2 and out == ""
        assert "argument --points" in err and repr(points) in err

    @pytest.mark.parametrize("inst", [
        gen_uniform_permutation(200, 3),
        with_rest(gen_uniform_permutation(200, 3), 77),
        gen_block_random(9, 2),
        gen_typed((4, 6), 4, (6, 6, 6, 6), GoalPattern("blocks"), 5),
        with_rest(gen_typed((4, 6), 4, (6, 6, 6, 6), GoalPattern("blocks"), 5), 24),
        gen_typed(7, 3, (3, 2, 2), GoalPattern("explicit", (1, 2, 3, 1, 2, 3, 1)), 1),
        LabeledInstance(LatticeDims(1, 1), (1,)),
        TypedInstance(LatticeDims(1, 1), 1, (1,), (1,)),
        LabeledInstance(LatticeDims(5, 1), (2, 1, 3, 5, 4), rest=4),
        LabeledInstance(LatticeDims(1, 5), (5, 4, 3, 2, 1), rest=5),
        gen_tsp_clusters([(2, 2), (3, 4)], (5, 6)),
    ])
    def test_instance_json_is_the_indent_2_bytes(self, inst):
        doc = {"format_version": 1, **instance_to_dict(inst)}
        assert instance_to_json(inst) == json.dumps(doc, indent=2) + "\n"

    def test_same_seed_same_bytes(self, capsys):
        a = run(capsys, "gen", "uniform", "--m", "30", "--seed", "3")
        b = run(capsys, "gen", "uniform", "--m", "30", "--seed", "3")
        assert a == b

    def test_env_var_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICE_REARRANGE_SEED", "9")
        _, from_env, _ = run(capsys, "gen", "uniform", "--m", "10")
        monkeypatch.delenv("LATTICE_REARRANGE_SEED")
        _, from_flag, _ = run(capsys, "gen", "uniform", "--m", "10",
                              "--seed", "9")
        assert from_env == from_flag

    @pytest.mark.parametrize("command", [["gen", "uniform", "--m", "5"],
                                         ["bench", "--experiment", "lor_ratio", "--sizes", "5",
                                          "--trials", "1"]])
    def test_malformed_env_var_seed_is_usage_error(self, capsys, monkeypatch, command):
        # it exited 1 with int()'s message, which named no variable
        monkeypatch.setenv("LATTICE_REARRANGE_SEED", "abc")
        code, out, err = run(capsys, *command)
        assert code == 2 and out == ""
        assert err == "usage error: $LATTICE_REARRANGE_SEED must be an integer, got 'abc'\n"
        # a --seed flag is read first, so the variable is never parsed
        code, _, _ = run(capsys, *command, "--seed", "3")
        assert code == 0

    def test_missing_conditional_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "x-random", "--m", "12")
        assert code == 2 and "--x" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "gen", "uniform", "--m", "5", "--bogus")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--input", "-i"])
    def test_gen_reads_no_input(self, capsys, flag):
        code, out, err = run(capsys, "gen", "uniform", "--m", "4", flag, "x.json")
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err
        _, usage, _ = run(capsys, "gen", "--help")
        assert "--input" not in usage and "--output" in usage

    def test_infeasible_pattern_is_domain_error(self, capsys):
        code, _, err = run(capsys, "gen", "typed", "--m1", "4", "--m2", "4",
                           "--k", "3", "--pattern", "columns")
        assert code == 1
        assert json.loads(err)["error"] == "PatternInfeasible"

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_no_types_is_bad_counts(self, capsys, k):
        code, out, err = run(capsys, "gen", "typed", "--m", "12", "--k", k)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "BadCounts"


class TestSolveAndValidate:
    def test_identity_solves_to_empty_plan(self, capsys, tmp_path):
        inst = write_instance(tmp_path, "id.json", {
            "kind": "labeled", "dims": [5, 1],
            "pi": [1, 2, 3, 4, 5], "rest": 1})
        code, out, err = run(capsys, "solve", "--solver", "opt-lor",
                             "-i", inst)
        assert code == 0
        doc = json.loads(out)
        assert doc["steps"] == []
        assert doc["cost"] == {"picks": 0, "travel": 0.0, "total": 0.0}
        assert "picks=0" in err

    @pytest.mark.parametrize("solver,instance", [
        ("sweep-lor", CYCLE_INSTANCE),
        ("opt-lor", CYCLE_INSTANCE),
        ("sweep-ltr", {"kind": "labeled", "dims": [2, 2],
                       "pi": [2, 1, 4, 3], "rest": 1}),
        ("switch-ltr", {"kind": "labeled", "dims": [2, 2],
                        "pi": [2, 1, 4, 3], "rest": 1}),
        ("opt-por", {"kind": "typed", "dims": [6, 1], "k": 2,
                     "start_types": [2, 1, 2, 1, 1, 2],
                     "goal_types": [1, 1, 1, 2, 2, 2], "rest": 1}),
        ("greedy-por", {"kind": "typed", "dims": [6, 1], "k": 2,
                        "start_types": [2, 1, 2, 1, 1, 2],
                        "goal_types": [1, 1, 1, 2, 2, 2], "rest": 1}),
        ("plan-ptr", {"kind": "typed", "dims": [3, 3], "k": 3,
                      "start_types": [3, 1, 2, 2, 3, 1, 1, 2, 3],
                      "goal_types": [1, 1, 1, 2, 2, 2, 3, 3, 3], "rest": 1}),
        ("greedy-2d", {"kind": "typed", "dims": [3, 3], "k": 3,
                       "start_types": [3, 1, 2, 2, 3, 1, 1, 2, 3],
                       "goal_types": [1, 1, 1, 2, 2, 2, 3, 3, 3], "rest": 1}),
    ])
    def test_every_solver_output_passes_validate(self, capsys, tmp_path,
                                                 solver, instance):
        inst = write_instance(tmp_path, "inst.json", instance)
        plan_path = str(tmp_path / "plan.json")
        code, _, _ = run(capsys, "solve", "--solver", solver, "-i", inst,
                         "-o", plan_path)
        assert code == 0
        code, out, _ = run(capsys, "validate", "--instance", inst,
                           "--plan", plan_path)
        assert code == 0
        assert json.loads(out)["solved"] is True

    def test_validate_reports_cost_of_cycle_plan(self, capsys, tmp_path):
        inst = write_instance(tmp_path, "i.json", CYCLE_INSTANCE)
        plan = write_instance(tmp_path, "p.json", CYCLE_PLAN)
        code, out, _ = run(capsys, "validate", "--instance", inst,
                           "--plan", plan)
        assert code == 0
        doc = json.loads(out)
        assert doc["picks"] == 4 and doc["travel"] == pytest.approx(6.0)

    def test_validate_simulates_the_plan_once(self, capsys, tmp_path, monkeypatch):
        from lattice_rearrange import cli
        calls = []

        def counting(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("simulate", "plan_cost"):
            monkeypatch.setattr(cli, name, counting(name))
        inst = gen_uniform_permutation(30, 1)
        inst_path = write_instance(tmp_path, "i.json", instance_to_dict(inst))
        plan = resolve_solver("opt-lor")(inst, CostModel())
        plan_path = write_instance(tmp_path, "p.json", plan_to_dict(plan))
        code, out, _ = run(capsys, "validate", "--instance", inst_path, "--plan", plan_path)
        assert code == 0
        assert calls == ["simulate"]
        cost = plan_cost(inst, plan)
        assert out == json.dumps({"format_version": 1, "solved": True, "picks": cost.picks,
                                  "travel": cost.travel, "total": cost.total}, indent=2) + "\n"

    def test_validate_refuses_two_documents_on_stdin(self, capsys, monkeypatch):
        # stdin holds one document: reading it as both would parse the plan
        # as the instance
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(CYCLE_PLAN)))
        code, out, err = run(capsys, "validate", "--instance", "-", "--plan", "-")
        assert code == 2 and out == ""
        assert err == "usage error: --instance and --plan cannot both read stdin\n"

    def test_validate_flags_illegal_step(self, capsys, tmp_path):
        inst = write_instance(tmp_path, "i.json", CYCLE_INSTANCE)
        plan = write_instance(tmp_path, "p.json", {
            "steps": [{"cell": 2, "action": "swap"}]})
        code, _, err = run(capsys, "validate", "--instance", inst,
                           "--plan", plan)
        assert code == 1
        assert json.loads(err)["error"] == "IllegalStep"

    def test_validate_flags_unsolving_plan(self, capsys, tmp_path):
        inst = write_instance(tmp_path, "i.json", CYCLE_INSTANCE)
        plan = write_instance(tmp_path, "p.json", {
            "steps": [{"cell": 1, "action": "pick"},
                      {"cell": 1, "action": "place"}]})
        code, _, err = run(capsys, "validate", "--instance", inst,
                           "--plan", plan)
        assert code == 1
        assert json.loads(err)["error"] == "PlanDoesNotSolve"

    def test_solver_kind_mismatch_is_domain_error(self, capsys, tmp_path):
        # a wrong kind and a wrong lattice both end in the planner's gate
        row = write_instance(tmp_path, "i.json", CYCLE_INSTANCE)
        grid = write_instance(tmp_path, "g.json", {"kind": "labeled", "dims": [2, 2],
                                                   "pi": [2, 1, 4, 3]})
        for solver, inst, detail in [
                ("opt-por", row, "this planner handles typed instances only, got a labeled one"),
                ("opt-lor", grid, _LATTICE_FAULTS["1D"])]:
            code, out, err = run(capsys, "solve", "--solver", solver, "-i", inst)
            assert code == 1 and out == ""
            assert json.loads(err) == {"format_version": 1, "error": "SolverMismatch",
                                       "detail": detail}

    def test_non_integer_values_are_format_errors(self, capsys, tmp_path):
        inst = write_instance(tmp_path, "i.json", {"kind": "labeled", "dims": [2, 1],
                                                   "pi": [2, 1]})
        plan = write_instance(tmp_path, "p.json", {
            "steps": [{"cell": 1.7, "action": "pick"}, {"cell": True, "action": "place"}]})
        coerced = write_instance(tmp_path, "c.json", {"kind": "labeled", "dims": [2.9, 1],
                                                      "pi": [2.2, 1.0], "rest": True})
        for argv in (("validate", "--instance", inst, "--plan", plan),
                     ("solve", "--solver", "opt-lor", "-i", coerced)):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            doc = json.loads(err)
            assert doc["format_version"] == 1 and doc["error"] == "JsonFormatError"

    def test_malformed_json_never_panics(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "solve", "--solver", "opt-lor",
                           "-i", str(bad))
        assert code == 1
        assert "error" in json.loads(err)


# a document per instance_from_dict fault -> the JsonFormatError message
_BAD_DOCS = {
    "no-dims": ({"kind": "labeled", "pi": [1]}, "bad instance document: 'dims'"),
    "no-kind": ({"dims": [1, 1], "pi": [1]}, "bad instance document: 'kind'"),
    "no-pi": ({"dims": [1, 1], "kind": "labeled"}, "bad instance document: 'pi'"),
    "no-k": ({"dims": [1, 1], "kind": "typed", "start_types": [1], "goal_types": [1]},
             "bad instance document: 'k'"),
    "list": ([[1, 1], "labeled", [1]],
             "bad instance document: list indices must be integers or slices, not str"),
    "null": (None, "bad instance document: 'NoneType' object is not subscriptable"),
    "unknown-kind": ({"dims": [1, 1], "kind": "partial", "pi": [1]},
                     "unknown instance kind 'partial'"),
}


@pytest.mark.parametrize("case", _BAD_DOCS)
def test_malformed_instance_documents_are_format_errors(capsys, tmp_path, case):
    doc, detail = _BAD_DOCS[case]
    with pytest.raises(JsonFormatError) as err:
        instance_from_dict(doc)
    assert str(err.value) == detail
    code, out, err = run(capsys, "solve", "--solver", "opt-lor",
                         "-i", write_instance(tmp_path, "i.json", doc))
    assert code == 1 and out == ""
    assert json.loads(err) == {"format_version": 1, "error": "JsonFormatError", "detail": detail}


@pytest.mark.parametrize("flag", ["--cp", "--ct"])
@pytest.mark.parametrize("command", ["solve", "validate", "oracle"])
def test_overflowing_cost_total_is_domain_error(capsys, tmp_path, command, flag):
    # a finite coefficient whose total overflows would print Infinity,
    # which is not JSON: no document is written
    inst = str(tmp_path / "six.json")
    plan = str(tmp_path / "plan.json")
    assert run(capsys, "gen", "uniform", "--m", "6", "--seed", "3", "-o", inst)[0] == 0
    assert run(capsys, "solve", "--solver", "opt-lor", "-i", inst, "-o", plan)[0] == 0
    out_path = tmp_path / "out.json"
    argv = {"solve": ("solve", "--solver", "opt-lor", "-i", inst),
            "validate": ("validate", "--instance", inst, "--plan", plan),
            "oracle": ("oracle", "-i", inst)}[command]
    for output in ("-", str(out_path)):
        code, out, err = run(capsys, *argv, flag, "1e308", "-o", output)
        assert code == 1 and out == "" and not out_path.exists()
        assert json.loads(err) == {"format_version": 1, "error": "ValueError",
                                   "detail": "cost total is inf, which JSON cannot hold"}


# one instance per kind and lattice, each with something to move
_KIND_CASES = {
    ("labeled", "1D"): LabeledInstance(LatticeDims(4, 1), (3, 2, 4, 1)),
    ("typed", "1D"): TypedInstance(LatticeDims(6, 1), 2, (2, 1, 2, 1, 1, 2), (1, 1, 1, 2, 2, 2)),
    ("labeled", "2D"): LabeledInstance(LatticeDims(2, 2), (2, 1, 4, 3)),
    ("typed", "2D"): TypedInstance(LatticeDims(2, 2), 2, (2, 1, 1, 2), (1, 2, 2, 1)),
}
_LATTICE_FAULTS = {
    "1D": "this planner handles 1D instances only (m2 must be 1)",
    "2D": "this planner handles 2D instances only (use the 1D planners for m2 = 1)",
}


def _refused(fn, inst, detail):
    # the gate's error is a domain error that still reads as a ValueError
    with pytest.raises(SolverMismatch) as err:
        fn(inst)
    assert isinstance(err.value, ValueError)
    assert str(err.value) == detail


@pytest.mark.parametrize("case", _KIND_CASES, ids="-".join)
@pytest.mark.parametrize("solver", SOLVERS)
def test_planners_refuse_the_kinds_cli_solvers_do_not_list(solver, case):
    # the planner's gate is the only check a solve makes: a wrong lattice
    # keeps its message, and a wrong kind names the one SOLVERS lists
    kind, lattice = case
    inst = _KIND_CASES[case]
    planner = resolve_solver(solver)
    wants = SOLVERS[solver][1]
    planner_lattice = "2D" if planner.__module__.endswith("lattice2d") else "1D"
    if lattice != planner_lattice:
        _refused(planner, inst, _LATTICE_FAULTS[planner_lattice])
    elif wants in ("any", kind):
        assert simulate(inst, planner(inst)).config == inst.goal_config()
    else:
        _refused(planner, inst, f"this planner handles {wants} instances only, got a {kind} one")


# public functions outside SOLVERS that read an instance -> (kind, lattice)
_GATED = {
    "form_cycles": ("typed", "1D"),
    "form_cycles_ptr": ("typed", "any"),
    "cycle_edge_length": ("labeled", "any"),
    "cycle_distance_statistic": ("labeled", "any"),
}


@pytest.mark.parametrize("case", _KIND_CASES, ids="-".join)
@pytest.mark.parametrize("name", _GATED)
def test_phase_and_statistic_functions_pass_through_the_gate(name, case):
    kind, lattice = case
    wants, wants_lattice = _GATED[name]
    fn = getattr(lattice_rearrange, name)
    inst = _KIND_CASES[case]
    if wants_lattice not in ("any", lattice):
        _refused(fn, inst, _LATTICE_FAULTS[wants_lattice])
    elif kind != wants:
        _refused(fn, inst, f"this planner handles {wants} instances only, got a {kind} one")
    else:
        fn(inst)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--cp", "--ct"])
@pytest.mark.parametrize("command", ["solve", "validate", "oracle"])
def test_non_finite_cost_is_domain_error(capsys, tmp_path, command, flag, value):
    # a non-finite coefficient would print NaN or Infinity, which is not JSON
    inst = write_instance(tmp_path, "i.json", CYCLE_INSTANCE)
    plan = write_instance(tmp_path, "p.json", CYCLE_PLAN)
    argv = {"solve": ("solve", "--solver", "opt-lor", "-i", inst),
            "validate": ("validate", "--instance", inst, "--plan", plan),
            "oracle": ("oracle", "-i", inst)}[command]
    code, out, err = run(capsys, *argv, f"{flag}={value}")
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ValueError" and "finite" in doc["detail"]


class TestOracle:
    def test_matches_exact_solver(self, capsys, tmp_path):
        inst = write_instance(tmp_path, "i.json", CYCLE_INSTANCE)
        code, out, _ = run(capsys, "oracle", "-i", inst)
        assert code == 0
        oracle_doc = json.loads(out)
        code, out, _ = run(capsys, "solve", "--solver", "opt-lor", "-i", inst)
        solve_doc = json.loads(out)
        assert oracle_doc["picks"] == solve_doc["cost"]["picks"]
        assert oracle_doc["travel"] == pytest.approx(solve_doc["cost"]["travel"])

    @pytest.mark.parametrize("ct", ["1e300", "1.2e307"])
    def test_total_objective_with_a_huge_finite_cost(self, capsys, tmp_path, ct):
        # the optimum (travel 12) is finite, but divided by the comparison
        # quantum it overflows a float (ct = 1e300), or a longer path's total
        # is inf (ct = 1.2e307); the search still orders both exactly
        inst = str(tmp_path / "six.json")
        assert run(capsys, "gen", "uniform", "--m", "6", "--seed", "3", "-o", inst)[0] == 0
        code, out, _ = run(capsys, "oracle", "--objective", "total", "--ct", ct, "-i", inst)
        assert code == 0
        doc = json.loads(out)
        assert math.isfinite(doc["total"]) and doc["total"] == pytest.approx(12 * float(ct))
        model = CostModel(c_t=float(ct))
        blind = oracle_optimal(instance_from_dict(json.loads(Path(inst).read_text())),
                               model, "total", heuristic=False)
        assert blind.cost.total == doc["total"]

    def test_total_objective(self, capsys, tmp_path):
        inst = write_instance(tmp_path, "i.json", CYCLE_INSTANCE)
        code, out, _ = run(capsys, "oracle", "-i", inst,
                           "--objective", "total", "--cap", "100000")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == pytest.approx(doc["picks"] + doc["travel"])


class TestBench:
    def test_repeat_runs_are_byte_identical(self, capsys):
        argv = ("bench", "--experiment", "lor_ratio", "--sizes", "20",
                "--trials", "5", "--seed", "7")
        a = run(capsys, *argv)
        b = run(capsys, *argv)
        assert a == b
        assert a[0] == 0 and a[1].startswith("size,statistic,mean,std")

    def test_json_format_and_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "bench", "--experiment", "cycle_stats",
                         "--sizes", "30", "40", "--trials", "4",
                         "--seed", "1", "--format", "json",
                         "-o", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["format_version"] == 1
        assert {r["size"] for r in doc["rows"]} == {30, 40}

    def test_bad_distribution_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bench", "--experiment", "lor_ratio",
                             "--sizes", "10", "--distribution", "pattern-a")
        assert code == 2 and out == ""
        assert err == ("usage error: bench: distribution 'pattern-a' not valid for 'lor_ratio' "
                       "(allowed: uniform, 10-random, sqrt-random)\n")

    @pytest.mark.parametrize("counts", [("--sizes", "0"), ("--sizes", "10", "--trials", "0")],
                             ids=["sizes", "trials"])
    def test_nonpositive_count_is_usage_error(self, capsys, counts):
        code, out, err = run(capsys, "bench", "--experiment", "lor_ratio", *counts)
        assert code == 2 and out == ""
        assert err.startswith("usage error: bench: ") and "must be" in err


class TestTopLevel:
    def test_help_exits_zero_and_names_everything(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        flat = out.replace("\n", "")  # argparse wraps long epilog lines
        for name in ("gen", "solve", "validate", "oracle", "bench",
                     "plan-ptr", "lor_ratio"):
            assert name in flat

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


_LIBRARY = ("bench", "core", "gen", "graphs", "lattice2d", "lor", "oracle", "por")


@pytest.mark.parametrize("module,loads", [
    ("lattice_rearrange", ["lattice_rearrange"]),
    ("lattice_rearrange.cli", ["lattice_rearrange", "lattice_rearrange.cli", "lattice_rearrange.core"]),
    (", ".join(f"lattice_rearrange.{m}" for m in _LIBRARY),
     ["lattice_rearrange", *(f"lattice_rearrange.{m}" for m in _LIBRARY)]),
], ids=["lattice_rearrange", "lattice_rearrange.cli", "every-library-module"])
def test_import_loads_no_scipy(module, loads):
    # every CLI process pays for what the package imports: the package
    # itself loads no submodule, cli only core, and neither scipy (the
    # assignment solver is in-repo) nor numpy; no module loads dataclasses
    # (the value classes are slotted), or logging (gen loads it to warn)
    src = str(Path(lattice_rearrange.__file__).resolve().parents[1])
    code = (f"import sys, {module}; "
            "print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('lattice_rearrange', 'numpy', 'scipy') "
            "or m in ('dataclasses', 'logging')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert done.stdout.split() == loads


def test_module_entry_point_warns_nothing():
    # `python -m lattice_rearrange.cli` runs cli as __main__; importing the
    # package must not have imported cli already, or runpy warns about it
    src = str(Path(lattice_rearrange.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "lattice_rearrange.cli", "gen", "uniform",
                           "--m", "4", "--seed", "1"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert done.stderr == ""
    assert json.loads(done.stdout)["kind"] == "labeled"


def _loaded_after(argv) -> tuple[int, list[str], str]:
    """Run main(argv) in a fresh interpreter: its exit status, the package
    modules, dataclasses, logging and numpy it has loaded at exit, and what
    it wrote to stderr."""
    code = "\n".join([
        "import sys",
        "from lattice_rearrange.cli import main",
        f"status = main({argv!r})",
        "print(status, *sorted(m for m in sys.modules if m.split('.')[0] == 'lattice_rearrange'",
        "                      or m in ('dataclasses', 'logging', 'numpy')))",
    ])
    src = str(Path(lattice_rearrange.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    status, *modules = done.stdout.split()
    return int(status), modules, done.stderr


# a gen process loads the generators and nothing of the planners, numpy or
# dataclasses
GEN_MODULES = ["lattice_rearrange", "lattice_rearrange.cli", "lattice_rearrange.core",
               "lattice_rearrange.gen"]
_FALLBACK = "blocks pattern fell back to contiguous index runs for {} (no square tiling fits)\n"
# gen arguments -> what the process writes to stderr.  The blocks layout
# falls back to index runs, with a warning, when no square tiling fits (on a
# row with k > 1, or on 4x4 with k = 2); gen loads logging only to warn.
GEN_STDERR = {
    ("typed", "--m", "12", "--k", "3"): _FALLBACK.format("12x1, k=3"),
    ("typed", "--m1", "4", "--m2", "4", "--k", "2"): _FALLBACK.format("4x4, k=2"),
    ("typed", "--m1", "4", "--m2", "4", "--k", "4"): "",
    ("uniform", "--m", "12"): "",
    ("block-random", "--m", "16"): "",
}
_1D = ("cli", "core", "graphs", "lor")
_TYPED = _1D + ("por",)
_2D = _TYPED + ("lattice2d",)
# solver -> (gen arguments of its instance, the package modules a solve
# process ends with, whether the solve runs numpy code); no solve loads
# bench, gen, oracle, dataclasses or logging
SOLVE_CASES = {
    "opt-lor": (["uniform", "--m", "12"], _1D, False),
    "sweep-lor": (["uniform", "--m", "12"], _1D, False),
    "opt-por": (["typed", "--m", "12", "--k", "3"], _TYPED, False),
    "greedy-por": (["typed", "--m", "12", "--k", "3"], _TYPED, False),
    "sweep-ltr": (["block-random", "--m", "16"], _2D, False),
    "greedy-2d": (["typed", "--m1", "4", "--m2", "4", "--k", "2"], _2D, False),
    "switch-ltr": (["block-random", "--m", "16"], _2D, True),
    "plan-ptr": (["typed", "--m1", "4", "--m2", "4", "--k", "2"], _2D, True),
}


@pytest.mark.parametrize("solver", sorted(SOLVE_CASES))
def test_numpy_loads_only_for_2d_scheduling_and_assignment(solver, tmp_path):
    # import alone costs a CLI process more than most solves: a solve loads
    # only its planner's modules, and numpy only for the arc-weight slabs,
    # the arborescence and the assignment; gen loads exactly GEN_MODULES
    gen_args, modules, loads = SOLVE_CASES[solver]
    inst = str(tmp_path / "inst.json")
    status, loaded, err = _loaded_after(["gen", *gen_args, "--seed", "5", "-o", inst])
    assert status == 0 and err == GEN_STDERR[tuple(gen_args)]
    assert loaded == GEN_MODULES + ["logging"] * bool(err)
    status, loaded, _ = _loaded_after(
        ["solve", "--solver", solver, "-i", inst, "-o", str(tmp_path / "plan.json")])
    assert status == 0
    expected = {"lattice_rearrange", *(f"lattice_rearrange.{m}" for m in modules)}
    assert loaded == sorted(expected | ({"numpy"} if loads else set()))


def test_paid_1d_fusion_loads_no_numpy():
    # the 1D trade model stays pure Python: this row has fusions left after
    # the free ones, so merge_cycles_mst runs the shared engine's paid path
    code = "\n".join([
        "import sys",
        "from lattice_rearrange import LatticeDims, TypedInstance, gen_x_random",
        "from lattice_rearrange.por import form_cycles, merge_cycles, merge_cycles_mst, opt_plan_por",
        "goal = tuple(c // 16 + 1 for c in range(256))",
        "start = tuple(goal[p - 1] for p in gen_x_random(256, 24, 1).pi)",
        "inst = TypedInstance(LatticeDims(256, 1), 16, start, goal)",
        "opt_plan_por(inst)",
        "free = merge_cycles(form_cycles(inst))",
        "print(len(free), len(merge_cycles_mst(free)))",
        "print(any(m.split('.')[0] == 'numpy' for m in sys.modules))",
    ])
    src = str(Path(lattice_rearrange.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    free, paid, loaded = done.stdout.split()
    assert int(paid) < int(free)
    assert loaded == "False"


def test_all_lists_every_public_name():
    # each export is listed under exactly one home module, where it is a
    # public name
    import importlib
    listed = [name for names in lattice_rearrange._HOMES.values() for name in names.split()]
    assert sorted(listed) == lattice_rearrange.__all__
    for name in listed:
        home = importlib.import_module(f"lattice_rearrange.{lattice_rearrange._EXPORTS[name]}")
        assert not name.startswith("_") and name in vars(home)


@pytest.mark.parametrize("gen_args", sorted(GEN_STDERR))
def test_gen_loads_logging_only_to_warn(gen_args, tmp_path):
    out = tmp_path / "inst.json"
    status, loaded, err = _loaded_after(["gen", *gen_args, "--seed", "7", "-o", str(out)])
    assert status == 0 and json.loads(out.read_text(encoding="utf-8"))
    assert err == GEN_STDERR[gen_args]
    assert loaded == GEN_MODULES + ["logging"] * bool(err)


@pytest.mark.parametrize("argv,loads", [
    (["gen", "typed", "--m", "12", "--k", "3"], "gen"),
    (["oracle", "-i", "{inst}"], "oracle"),
    (["bench", "--experiment", "lor_ratio", "--sizes", "8", "--trials", "2"], "bench"),
    (["validate", "--instance", "{inst}", "--plan", "{plan}"], "core"),
])
def test_other_subcommands_import_what_they_run(argv, loads, tmp_path):
    # gen, oracle and bench import their modules inside the command; no
    # subcommand loads dataclasses, and only gen loads logging, to warn that
    # the blocks layout fell back
    inst = write_instance(tmp_path, "inst.json", CYCLE_INSTANCE)
    plan = write_instance(tmp_path, "plan.json", CYCLE_PLAN)
    argv = [a.format(inst=inst, plan=plan) for a in argv] + ["-o", str(tmp_path / "out")]
    status, modules, err = _loaded_after(argv)
    assert status == 0 and f"lattice_rearrange.{loads}" in modules
    assert "dataclasses" not in modules
    assert ("logging" in modules) == bool(err) == (argv[0] == "gen")
    assert (tmp_path / "out").read_text(encoding="utf-8")


class TestLazyExports:
    def test_each_name_is_its_home_object(self):
        import importlib
        for name in lattice_rearrange.__all__:
            home = importlib.import_module(
                f"lattice_rearrange.{lattice_rearrange._EXPORTS[name]}")
            assert getattr(lattice_rearrange, name) is getattr(home, name)

    def test_dir_and_star_import(self):
        assert set(lattice_rearrange.__all__) <= set(dir(lattice_rearrange))
        namespace = {}
        exec("from lattice_rearrange import *", namespace)
        assert set(lattice_rearrange.__all__) <= set(namespace)
        assert namespace["opt_plan_lor"] is lattice_rearrange.lor.opt_plan_lor

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError) as info:
            lattice_rearrange.no_such_name  # noqa: B018
        assert str(info.value) == "module 'lattice_rearrange' has no attribute 'no_such_name'"
        assert not hasattr(lattice_rearrange, "no_such_name")

    def test_access_leaves_module_namespace_unchanged(self):
        for name in lattice_rearrange.__all__:  # imports every home submodule
            getattr(lattice_rearrange, name)
        before = dict(vars(lattice_rearrange))
        for name in lattice_rearrange.__all__:
            getattr(lattice_rearrange, name)
        assert vars(lattice_rearrange) == before
        assert not set(lattice_rearrange.__all__) & set(before)

    def test_cli_experiment_names_match_bench(self):
        from lattice_rearrange import bench, cli
        assert cli.EXPERIMENT_NAMES == tuple(bench.EXPERIMENTS)


def _solved(inst):
    if inst.kind == "labeled":
        return LabeledInstance(inst.dims, tuple(range(1, inst.dims.n + 1)), inst.rest)
    return TypedInstance(inst.dims, inst.k, inst.goal_types, inst.goal_types, inst.rest)


def _typed(dims, k, seed):
    n = dims if isinstance(dims, int) else dims[0] * dims[1]
    return gen_typed(dims, k, (n // k,) * k, GoalPattern("blocks"), seed)


# solver -> a seeded instance of the kind it takes; the writer test also
# solves it with an interior rest cell, and already solved
WRITER_CASES = {
    "sweep-lor": lambda: gen_uniform_permutation(30, 1),
    "opt-lor": lambda: gen_uniform_permutation(30, 1),
    "opt-por": lambda: _typed(24, 3, 3),
    "greedy-por": lambda: _typed(24, 3, 3),
    "sweep-ltr": lambda: gen_block_random(9, 2),
    "switch-ltr": lambda: gen_block_random(9, 2),
    "plan-ptr": lambda: _typed((6, 6), 4, 4),
    "greedy-2d": lambda: _typed((6, 6), 4, 4),
}


@pytest.mark.parametrize("costs", [("1", "1"), ("2.5", "0.3")])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("solver", sorted(WRITER_CASES))
def test_solve_writes_the_indent_2_json_bytes(solver, metric, costs, tmp_path, capsys):
    model = CostModel(float(costs[0]), float(costs[1]), metric)
    base = WRITER_CASES[solver]()
    solved = _solved(base)
    for inst in (base, with_rest(base, base.dims.n // 2 + 1), solved):
        path = write_instance(tmp_path, "inst.json", instance_to_dict(inst))
        code, out, _ = run(capsys, "solve", "--solver", solver, "-i", path,
                           "--metric", metric, "--cp", costs[0], "--ct", costs[1])
        assert code == 0
        plan = resolve_solver(solver)(inst, model)
        cost = plan_cost(inst, plan, model)
        doc = {"format_version": 1, **plan_to_dict(plan),
               "cost": {"picks": cost.picks, "travel": cost.travel, "total": cost.total}}
        assert out == json.dumps(doc, indent=2) + "\n"
        assert ('"steps": [],' in out) == (inst is solved)
