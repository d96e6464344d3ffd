"""Command-line interface: gen / solve / validate / oracle / bench.

JSON in, JSON out.  Exit status 0 on success, 1 on a domain error (with a
machine-readable error document on stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    FORMAT_VERSION,
    CostModel,
    _cost_fields,
    instance_from_dict,
    instance_to_json,
    is_solved,
    plan_cost,
    plan_from_dict,
    plan_to_dict,
    plan_to_json,
    simulate,
)

# solver name -> (package export, instance kind); the export's module is
# imported only when a solve runs, so a process loads just its own planner
SOLVERS = {
    "sweep-lor": ("sweep_cycles_lor", "labeled"),
    "opt-lor": ("opt_plan_lor", "labeled"),
    "opt-por": ("opt_plan_por", "typed"),
    "greedy-por": ("greedy_por", "typed"),
    "sweep-ltr": ("sweep_cycles_ltr", "labeled"),
    "switch-ltr": ("switch_cycles_ltr", "labeled"),
    "plan-ptr": ("plan_ptr", "typed"),
    "greedy-2d": ("greedy_2d", "any"),
}

# the keys of bench.EXPERIMENTS, which the parser offers without importing bench
EXPERIMENT_NAMES = ("lor_ratio", "lor_greedy_vs_opt", "ltr_cycle_dist", "ltr_total_vs_cycles",
                    "por_ratios", "ptr_ratios", "cycle_stats")


class UsageError(Exception):
    """Bad flag combination; maps to exit status 2."""


class PlanDoesNotSolve(Exception):
    """Plan is legal but leaves the instance unsolved."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("LATTICE_REARRANGE_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise UsageError(f"$LATTICE_REARRANGE_SEED must be an integer, got {env!r}") from None


def _cost_model(args) -> CostModel:
    return CostModel(args.cp, args.ct, args.metric)


def _load_instance(text: str):
    return instance_from_dict(json.loads(text))


def _need(args, names: str):
    for name in names.split():
        if getattr(args, name) is None:
            raise UsageError(f"gen {args.distribution!r} requires --{name}")


def _typed_dims(args):
    """typed's lattice: a row of --m cells, or --m1 rows by --m2 columns."""
    if (args.m is None) == (args.m1 is None and args.m2 is None):
        raise UsageError("gen 'typed' requires --m or --m1 with --m2, not both")
    if args.m is None:
        _need(args, "m1 m2")
    return (args.m1, args.m2) if args.m is None else args.m


def _points(text: str) -> list:
    """--points 'x1,x2;x1,x2;...' as (x1, x2) pairs."""
    try:
        return [(int(x1), int(x2)) for x1, x2 in (c.split(",") for c in text.split(";"))]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'x1,x2;x1,x2;...', got {text!r}") from None


# distribution -> (the flags it requires, maker); a maker takes the gen
# module, the parsed arguments and the seed, and returns the instance
GENERATORS = {
    "uniform": ("m", lambda gen, a, seed: gen.gen_uniform_permutation(a.m, seed)),
    "x-random": ("m x", lambda gen, a, seed: gen.gen_x_random(a.m, a.x, seed)),
    "column-random": ("m1 m2", lambda gen, a, seed: gen.gen_column_random(a.m1, a.m2, seed)),
    "block-random": ("m", lambda gen, a, seed: gen.gen_block_random(a.m, seed)),
    "typed": ("k", lambda gen, a, seed: gen.gen_typed(dims := _typed_dims(a), a.k,
              gen._even_counts(dims, a.k), gen.GoalPattern(a.pattern), seed)),
    "tsp-clusters": ("m1 m2 points",
                     lambda gen, a, seed: gen.gen_tsp_clusters(a.points, (a.m1, a.m2))),
}


def _cmd_gen(args) -> int:
    from . import gen

    flags, make = GENERATORS[args.distribution]
    _need(args, flags)
    _write_text(args.output, instance_to_json(make(gen, args, _resolve_seed(args.seed))))
    return 0


def resolve_solver(name: str):
    """The planner function behind a solver name, importing its module.

    Looked up through the package's lazy exports at call time, so a
    rebinding of the home module's attribute (a tracer's wrapper, say) is
    what runs.
    """
    return getattr(sys.modules[__package__], SOLVERS[name][0])


def _cmd_solve(args) -> int:
    inst = _load_instance(_read_text(args.input))
    model = _cost_model(args)
    plan = resolve_solver(args.solver)(inst, model)
    cost = plan_cost(inst, plan, model)
    _write_text(args.output, plan_to_json(plan, cost))
    sys.stderr.write(
        f"picks={cost.picks} travel={cost.travel:.6g} "
        f"total={cost.total:.6g}\n")
    return 0


def _cmd_validate(args) -> int:
    if args.instance == args.plan == "-":
        raise UsageError("--instance and --plan cannot both read stdin")
    inst = _load_instance(_read_text(args.instance))
    plan = plan_from_dict(json.loads(_read_text(args.plan)))
    model = _cost_model(args)
    result = simulate(inst, plan, model)  # raises on the first violation
    if not is_solved(result.config, inst):
        raise PlanDoesNotSolve("plan executes legally but the final "
                               "configuration is not the goal")
    doc = {"format_version": FORMAT_VERSION, "solved": True, **_cost_fields(result.cost)}
    _write_text(args.output, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import DEFAULT_STATE_CAP, oracle_optimal

    inst = _load_instance(_read_text(args.input))
    objective = "lexicographic" if args.objective == "lex" else "total"
    cap = DEFAULT_STATE_CAP if args.cap is None else args.cap
    result = oracle_optimal(inst, _cost_model(args), objective, cap=cap)
    doc = {"format_version": FORMAT_VERSION, **_cost_fields(result.cost),
           "plan": plan_to_dict(result.plan)}
    _write_text(args.output, json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0


def _cmd_bench(args) -> int:
    from .bench import ExperimentSpec, report_to_csv, report_to_json, run_experiment

    try:
        spec = ExperimentSpec(args.experiment, tuple(args.sizes), args.trials,
                              args.distribution, _resolve_seed(args.seed))
    except ValueError as exc:
        raise UsageError(f"bench: {exc}") from None
    report = run_experiment(spec)
    text = report_to_csv(report) if args.format == "csv" \
        else report_to_json(report)
    _write_text(args.output, text)
    return 0


def _add_io(sub, *reads: str):
    """--output, and a path flag for each document the subcommand reads:
    "input" is one instance, from stdin by default; any other name is a
    required path."""
    for name in reads:
        if name == "input":
            sub.add_argument("--input", "-i", default="-",
                             help="instance JSON path (default: stdin)")
        else:
            sub.add_argument(f"--{name}", required=True,
                             help=f"{name} JSON path ('-' for stdin)")
    sub.add_argument("--output", "-o", default="-",
                     help="output path (default: stdout)")


def _add_cost_flags(sub):
    sub.add_argument("--cp", type=float, default=1.0,
                     help="cost per pick-style action (default 1)")
    sub.add_argument("--ct", type=float, default=1.0,
                     help="cost per unit travel (default 1)")
    sub.add_argument("--metric", choices=("euclidean", "manhattan"),
                     default="euclidean")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-rearrange",
        description="Rearrangement planning on 1D/2D lattices "
                    "(pick-n-swap cost model).",
        epilog=f"solvers: {', '.join(SOLVERS)}; "
               f"experiments: {', '.join(EXPERIMENT_NAMES)}")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser(
        "gen", help="generate a seeded instance",
        description="Distributions: " + ", ".join(GENERATORS))
    gen.add_argument("distribution", choices=tuple(GENERATORS))
    gen.add_argument("--m", type=int, help="1D length or square side")
    gen.add_argument("--m1", type=int, help="rows")
    gen.add_argument("--m2", type=int, help="columns")
    gen.add_argument("--k", type=int, help="number of item types")
    gen.add_argument("--x", type=int, help="shuffle block width")
    gen.add_argument("--pattern", choices=("blocks", "columns"),
                     default="blocks", help="typed goal layout")
    gen.add_argument("--points", type=_points,
                     help="cluster points as 'x1,x2;x1,x2;...'")
    gen.add_argument("--seed", type=int, default=None,
                     help="falls back to $LATTICE_REARRANGE_SEED, then 0")
    _add_io(gen)
    gen.set_defaults(func=_cmd_gen)

    solve = commands.add_parser("solve", help="plan a rearrangement")
    solve.add_argument("--solver", required=True, choices=tuple(SOLVERS))
    _add_cost_flags(solve)
    _add_io(solve, "input")
    solve.set_defaults(func=_cmd_solve)

    validate = commands.add_parser(
        "validate", help="check a plan against an instance")
    _add_cost_flags(validate)
    _add_io(validate, "instance", "plan")
    validate.set_defaults(func=_cmd_validate)

    oracle = commands.add_parser(
        "oracle", help="exhaustive optimum for small instances")
    oracle.add_argument("--objective", choices=("lex", "total"),
                        default="lex")
    oracle.add_argument("--cap", type=int,
                        help="most search states to store (default: oracle.DEFAULT_STATE_CAP)")
    _add_cost_flags(oracle)
    _add_io(oracle, "input")
    oracle.set_defaults(func=_cmd_oracle)

    bench = commands.add_parser("bench", help="run a seeded experiment")
    bench.add_argument("--experiment", required=True,
                       choices=EXPERIMENT_NAMES)
    bench.add_argument("--sizes", type=int, nargs="+", required=True)
    bench.add_argument("--trials", type=int, default=100)
    bench.add_argument("--distribution", default=None)
    bench.add_argument("--seed", type=int, default=None,
                       help="falls back to $LATTICE_REARRANGE_SEED, then 0")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_io(bench)
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except Exception as exc:  # domain errors become machine-readable JSON
        sys.stderr.write(json.dumps({
            "format_version": FORMAT_VERSION,
            "error": type(exc).__name__,
            "detail": str(exc),
        }) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
