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


def _typed_quarters(dims: LatticeDims, seed: int) -> TypedInstance:
    # k=4, contiguous index runs as the (aggregated) goal
    counts = _even_counts(dims, 4)
    goal = tuple(t + 1 for t in range(4) for _ in range(counts[t]))
    return gen_typed(dims, 4, counts, GoalPattern("explicit", goal), seed)


@functools.lru_cache(maxsize=None)
def _square_layout(pattern: str, size: int) -> GoalPattern:
    # one draw per size lays out the goal, so a blocks layout that falls
    # back to index runs warns once, not once per trial
    return GoalPattern("explicit", gen_typed(
        LatticeDims(size, size), size, (size,) * size, GoalPattern(pattern), 0).goal_types)


def _square_types(pattern: str):
    # size types of size items on a size x size grid, goal laid out by pattern
    return lambda size, seed: gen_typed(
        LatticeDims(size, size), size, (size,) * size, _square_layout(pattern, size), seed)


def _ratio(num: float, den: float) -> float:
    # a pair of zero-cost plans counts as a perfect tie
    return 1.0 if den == 0 else num / den


def _travel(inst, planner) -> float:
    return plan_cost(inst, planner(inst)).travel


def _ratios(greedy, planner):
    # greedy's travel and picks over planner's
    def trial(inst) -> tuple:
        base, planned = plan_cost(inst, greedy(inst)), plan_cost(inst, planner(inst))
        return _ratio(base.travel, planned.travel), _ratio(base.picks, planned.picks)
    return trial


def _total_vs_cycles(inst) -> tuple:
    edges = cycle_edge_length(inst)
    return (_ratio(_travel(inst, sweep_cycles_ltr), edges),
            _ratio(_travel(inst, switch_cycles_ltr), edges))


def _cycle_stats(inst) -> tuple:
    cs = permutation_cycles(inst.pi)
    cost = plan_cost(inst, opt_plan_lor(inst))
    return float(len(cs.cycles) + len(cs.fixed_points)), float(cost.picks), cost.travel


# the labeled distributions over size-cell rows and size x size grids
_ROWS = {
    "uniform": gen_uniform_permutation,
    "10-random": lambda size, seed: gen_x_random(size, 10, seed),
    "sqrt-random": lambda size, seed: gen_x_random(size, max(1, math.isqrt(size)), seed),
}
_GRIDS = {
    "uniform": lambda size, seed: LabeledInstance(
        LatticeDims(size, size), gen_uniform_permutation(size * size, seed).pi),
    "column-random": lambda size, seed: gen_column_random(size, size, seed),
    "block-random": gen_block_random,
}

# experiment id -> (distributions, statistics, trial).  distributions maps
# each allowed name to a (size, seed) -> instance maker, the default first;
# trial maps an instance to one value per statistic.
EXPERIMENTS = {
    "lor_ratio": (_ROWS, ("opt_travel_over_m_squared",),
                  lambda inst: (_travel(inst, opt_plan_lor) / inst.dims.n ** 2,)),
    "lor_greedy_vs_opt": (_ROWS, ("sweep_over_opt_travel",), lambda inst: (
        _ratio(_travel(inst, sweep_cycles_lor), _travel(inst, opt_plan_lor)),)),
    "ltr_cycle_dist": (_GRIDS, ("cycle_distance_stat",),
                       lambda inst: (cycle_distance_statistic(inst),)),
    "ltr_total_vs_cycles": (
        _GRIDS, ("sweep_total_over_cycle_edges", "switch_total_over_cycle_edges"),
        _total_vs_cycles),
    "por_ratios": (
        {"typed-k4": lambda size, seed: _typed_quarters(LatticeDims(size, 1), seed)},
        ("greedy_over_opt_travel", "greedy_over_opt_picks"), _ratios(greedy_por, opt_plan_por)),
    "ptr_ratios": (
        {"pattern-a": _square_types("blocks"), "pattern-b": _square_types("columns"),
         "typed-k4": lambda size, seed: _typed_quarters(LatticeDims(size, size), seed)},
        ("greedy_over_plan_travel", "greedy_over_plan_picks"), _ratios(greedy_2d, plan_ptr)),
    "cycle_stats": (_ROWS, ("cycle_count", "opt_picks", "opt_travel"), _cycle_stats),
}


def _int(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: expected an integer, got {value!r}") from None


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
        sizes = tuple(_int("sizes", s) for s in sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"sizes must be positive, got {sizes!r}")
        trials = _int("trials", trials)
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        distributions = EXPERIMENTS[experiment][0]
        dist = next(iter(distributions)) if distribution is None else distribution
        if dist not in distributions:
            raise ValueError(
                f"distribution {dist!r} not valid for {experiment!r} "
                f"(allowed: {', '.join(distributions)})")
        super().__init__(experiment, sizes, trials, dist, _int("seed", seed))

    @property
    def statistics(self) -> tuple:
        return EXPERIMENTS[self.experiment][1]


class ReportRow(_Value):
    __slots__ = ("size", "statistic", "mean", "std", "trials", "seed")
    size: int
    statistic: str
    mean: float
    std: float
    trials: int
    seed: int


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
    _defaults = {"failures": (), "runtime_seconds": 0.0}

    def _key(self) -> tuple:
        return self.spec, self.rows, self.failures


def _make_instance(spec: ExperimentSpec, size: int, seed: int):
    return EXPERIMENTS[spec.experiment][0][spec.distribution](size, seed)


def _trial_values(spec: ExperimentSpec, inst) -> tuple:
    return EXPERIMENTS[spec.experiment][2](inst)


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
    rows, failures = [], []
    names = spec.statistics
    for size in spec.sizes:
        samples = [[] for _ in names]
        for trial in range(spec.trials):
            trial_seed = derive_seed(spec.seed, spec.experiment, size, trial)
            try:
                values = _trial_values(spec, _make_instance(spec, size, trial_seed))
            except Exception as exc:  # record and keep going
                failures.append((size, trial, f"{type(exc).__name__}: {exc}"))
                continue
            for bucket, value in zip(samples, values):
                bucket.append(value)
        for name, bucket in zip(names, samples):
            if bucket:
                rows.append(ReportRow(size, name, *_mean_std(bucket), len(bucket), spec.seed))
    return ExperimentReport(spec, tuple(rows), tuple(failures), time.perf_counter() - t0)


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
        "rows": [dict(zip(r._fields, r._values())) for r in report.rows],
        "failures": [
            {"size": s, "trial": t, "error": msg}
            for s, t, msg in report.failures
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
