"""Benchmark harness: seeded experiments over the planners.

Each experiment draws `trials` instances per size from a named distribution,
runs the designated solver pair, and reports mean/std per statistic.  Trial
seeds come from derive_seed(seed, experiment, size, trial), so reports are
reproducible byte for byte and independent of execution order.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import time

from .core import (
    FORMAT_VERSION,
    LabeledInstance,
    LatticeDims,
    TypedInstance,
    _Value,
    _store,
    plan_cost,
)
from .gen import (
    GoalPattern,
    _even_counts,
    derive_seed,
    gen_block_random,
    gen_column_random,
    gen_typed,
    gen_uniform_permutation,
    gen_x_random,
)
from .graphs import permutation_cycles
from .lattice2d import (
    cycle_distance_statistic,
    cycle_edge_length,
    greedy_2d,
    plan_ptr,
    sweep_cycles_ltr,
    switch_cycles_ltr,
)
from .lor import opt_plan_lor, sweep_cycles_lor
from .por import greedy_por, opt_plan_por

__all__ = [
    "EXPERIMENTS",
    "ExperimentReport",
    "ExperimentSpec",
    "ReportRow",
    "report_to_csv",
    "report_to_json",
    "run_experiment",
]

# experiment id -> (allowed distributions, default distribution, statistics)
EXPERIMENTS = {
    "lor_ratio": (
        ("uniform", "10-random", "sqrt-random"), "uniform",
        ("opt_travel_over_m_squared",)),
    "lor_greedy_vs_opt": (
        ("uniform", "10-random", "sqrt-random"), "uniform",
        ("sweep_over_opt_travel",)),
    "ltr_cycle_dist": (
        ("uniform", "column-random", "block-random"), "uniform",
        ("cycle_distance_stat",)),
    "ltr_total_vs_cycles": (
        ("uniform", "column-random", "block-random"), "uniform",
        ("sweep_total_over_cycle_edges", "switch_total_over_cycle_edges")),
    "por_ratios": (
        ("typed-k4",), "typed-k4",
        ("greedy_over_opt_travel", "greedy_over_opt_picks")),
    "ptr_ratios": (
        ("typed-k4", "pattern-a", "pattern-b"), "pattern-a",
        ("greedy_over_plan_travel", "greedy_over_plan_picks")),
    "cycle_stats": (
        ("uniform", "10-random", "sqrt-random"), "uniform",
        ("cycle_count", "opt_picks", "opt_travel")),
}


class ExperimentSpec(_Value):
    """What to run: experiment id, sizes, trials per size, distribution, seed."""

    __slots__ = ("experiment", "sizes", "trials", "distribution", "seed")
    experiment: str
    sizes: tuple
    trials: int
    distribution: str
    seed: int

    def __init__(self, experiment: str, sizes: tuple, trials: int = 100,
                 distribution: str | None = None, seed: int = 0):
        if experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {experiment!r}")
        sizes = tuple(sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"sizes must be positive, got {sizes!r}")
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        allowed, default, _ = EXPERIMENTS[experiment]
        dist = distribution if distribution is not None else default
        if dist not in allowed:
            raise ValueError(
                f"distribution {dist!r} not valid for {experiment!r} "
                f"(allowed: {', '.join(allowed)})")
        _store(self, "experiment", experiment)
        _store(self, "sizes", sizes)
        _store(self, "trials", trials)
        _store(self, "distribution", dist)
        _store(self, "seed", seed)

    @property
    def statistics(self) -> tuple:
        return EXPERIMENTS[self.experiment][2]


class ReportRow(_Value):
    __slots__ = ("size", "statistic", "mean", "std", "trials", "seed")
    size: int
    statistic: str
    mean: float
    std: float
    trials: int
    seed: int

    def __init__(self, size: int, statistic: str, mean: float, std: float,
                 trials: int, seed: int):
        _store(self, "size", size)
        _store(self, "statistic", statistic)
        _store(self, "mean", mean)
        _store(self, "std", std)
        _store(self, "trials", trials)
        _store(self, "seed", seed)


class ExperimentReport(_Value):
    """Aggregated rows, per-trial failures, and a wall-clock runtime.

    The runtime is informational only: it is excluded from equality and
    hashing and from both emitted formats, so identical (spec, seed) runs
    still emit identical bytes.
    """

    __slots__ = ("spec", "rows", "failures", "runtime_seconds")
    spec: ExperimentSpec
    rows: tuple
    failures: tuple
    runtime_seconds: float

    def __init__(self, spec: ExperimentSpec, rows: tuple, failures: tuple = (),
                 runtime_seconds: float = 0.0):
        _store(self, "spec", spec)
        _store(self, "rows", rows)
        _store(self, "failures", failures)
        _store(self, "runtime_seconds", runtime_seconds)

    def _key(self) -> tuple:
        return self.spec, self.rows, self.failures


def _typed_quarters(dims: LatticeDims, seed: int) -> TypedInstance:
    # k=4, contiguous index runs as the (aggregated) goal
    counts = _even_counts(dims, 4)
    goal = tuple(t + 1 for t in range(4) for _ in range(counts[t]))
    return gen_typed(dims, 4, counts, GoalPattern("explicit", goal), seed)


def _make_instance(spec: ExperimentSpec, size: int, seed: int):
    dist = spec.distribution
    if spec.experiment in ("lor_ratio", "lor_greedy_vs_opt", "cycle_stats"):
        if dist == "uniform":
            return gen_uniform_permutation(size, seed)
        if dist == "10-random":
            return gen_x_random(size, 10, seed)
        return gen_x_random(size, max(1, math.isqrt(size)), seed)
    if spec.experiment in ("ltr_cycle_dist", "ltr_total_vs_cycles"):
        if dist == "uniform":
            return LabeledInstance(LatticeDims(size, size),
                                   gen_uniform_permutation(size * size, seed).pi)
        if dist == "column-random":
            return gen_column_random(size, size, seed)
        return gen_block_random(size, seed)
    if spec.experiment == "por_ratios":
        return _typed_quarters(LatticeDims(size, 1), seed)
    # ptr_ratios
    dims = LatticeDims(size, size)
    if dist == "typed-k4":
        return _typed_quarters(dims, seed)
    pattern = GoalPattern("blocks" if dist == "pattern-a" else "columns")
    return gen_typed(dims, size, (size,) * size, pattern, seed)


def _ratio(num: float, den: float) -> float:
    # a pair of zero-cost plans counts as a perfect tie
    return 1.0 if den == 0 else num / den


def _trial_values(spec: ExperimentSpec, inst) -> tuple:
    exp = spec.experiment
    if exp == "lor_ratio":
        travel = plan_cost(inst, opt_plan_lor(inst)).travel
        return (travel / (inst.dims.n ** 2),)
    if exp == "lor_greedy_vs_opt":
        sweep = plan_cost(inst, sweep_cycles_lor(inst)).travel
        opt = plan_cost(inst, opt_plan_lor(inst)).travel
        return (_ratio(sweep, opt),)
    if exp == "ltr_cycle_dist":
        return (cycle_distance_statistic(inst),)
    if exp == "ltr_total_vs_cycles":
        edges = cycle_edge_length(inst)
        sweep = plan_cost(inst, sweep_cycles_ltr(inst)).travel
        switch = plan_cost(inst, switch_cycles_ltr(inst)).travel
        return (_ratio(sweep, edges), _ratio(switch, edges))
    if exp == "por_ratios":
        greedy = plan_cost(inst, greedy_por(inst))
        opt = plan_cost(inst, opt_plan_por(inst))
        return (_ratio(greedy.travel, opt.travel), _ratio(greedy.picks, opt.picks))
    if exp == "ptr_ratios":
        greedy = plan_cost(inst, greedy_2d(inst))
        planned = plan_cost(inst, plan_ptr(inst))
        return (_ratio(greedy.travel, planned.travel),
                _ratio(greedy.picks, planned.picks))
    # cycle_stats
    cs = permutation_cycles(inst.pi)
    count = len(cs.cycles) + len(cs.fixed_points)
    cost = plan_cost(inst, opt_plan_lor(inst))
    return (float(count), float(cost.picks), cost.travel)


def _mean_std(values) -> tuple:
    # sums run left to right: sum() of floats is compensated from Python
    # 3.12 on, which would move report bytes with the interpreter
    n = len(values)
    mean = functools.reduce(operator.add, values, 0) / n
    if n < 2:
        return mean, 0.0
    var = functools.reduce(operator.add, ((v - mean) ** 2 for v in values), 0) / (n - 1)
    return mean, math.sqrt(var)


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every (size, trial) cell and aggregate by fixed trial order."""
    t0 = time.perf_counter()
    rows = []
    failures = []
    names = spec.statistics
    for size in spec.sizes:
        samples = [[] for _ in names]
        for trial in range(spec.trials):
            trial_seed = derive_seed(spec.seed, spec.experiment, size, trial)
            try:
                inst = _make_instance(spec, size, trial_seed)
                values = _trial_values(spec, inst)
            except Exception as exc:  # record and keep going
                failures.append((size, trial, f"{type(exc).__name__}: {exc}"))
                continue
            for bucket, value in zip(samples, values):
                bucket.append(value)
        for name, bucket in zip(names, samples):
            if not bucket:
                continue
            mean, std = _mean_std(bucket)
            rows.append(ReportRow(size, name, mean, std, len(bucket), spec.seed))
    return ExperimentReport(spec, tuple(rows), tuple(failures),
                            time.perf_counter() - t0)


def report_to_csv(report: ExperimentReport) -> str:
    lines = ["size,statistic,mean,std,trials,seed"]
    for r in report.rows:
        lines.append(f"{r.size},{r.statistic},{r.mean!r},{r.std!r},"
                     f"{r.trials},{r.seed}")
    return "\n".join(lines) + "\n"


def report_to_json(report: ExperimentReport) -> str:
    spec = report.spec
    doc = {
        "format_version": FORMAT_VERSION,
        "experiment": spec.experiment,
        "distribution": spec.distribution,
        "sizes": list(spec.sizes),
        "trials": spec.trials,
        "seed": spec.seed,
        "rows": [
            {"size": r.size, "statistic": r.statistic, "mean": r.mean,
             "std": r.std, "trials": r.trials, "seed": r.seed}
            for r in report.rows
        ],
        "failures": [
            {"size": s, "trial": t, "error": msg}
            for s, t, msg in report.failures
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
