"""Minimum-cost rearrangement planning on 1D/2D lattices (pick-n-swap model).

Submodules:
    core       domain types, simulator, plan/instance JSON
    graphs     cycles, arborescence, assignment
    lor        labeled 1D planners (exact)
    por        typed 1D planners (exact) and the best-first greedy
    lattice2d  labeled/typed 2D planners (asymptotically optimal heuristics)
    oracle     exhaustive optimal search for small instances
    gen        seeded instance generators
    bench      benchmark experiments and reports
    cli        command-line interface
"""

from .bench import (
    EXPERIMENTS,
    ExperimentReport,
    ExperimentSpec,
    ReportRow,
    emit_report,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .cli import main as cli_main
from .core import (
    Action,
    Cell,
    CostModel,
    DEFAULT_COST,
    HandNotEmptyAtEnd,
    IllegalStep,
    Instance,
    JsonFormatError,
    LabeledInstance,
    LatticeDims,
    MalformedPermutation,
    Plan,
    PlanCost,
    PlanStep,
    RearrangeError,
    SimResult,
    TypedInstance,
    TypeMismatch,
    distance,
    instance_from_dict,
    instance_to_dict,
    is_solved,
    plan_cost,
    plan_from_dict,
    plan_to_dict,
    reverse_plan,
    reversed_instance,
    simulate,
)
from .gen import (
    BadCounts,
    ClusterOverlap,
    NotPerfectSquare,
    PatternInfeasible,
    PointOnBoundary,
    SplitMix64,
    derive_seed,
    gen_block_random,
    gen_column_random,
    gen_tsp_clusters,
    gen_typed,
    gen_uniform_permutation,
    gen_x_random,
)
from .lattice2d import (
    GoalPattern,
    cycle_distance_statistic,
    cycle_edge_length,
    form_cycles_ptr,
    greedy_2d,
    merge_cycles_ptr,
    pattern_blocks_types,
    pattern_columns_types,
    plan_ptr,
    sweep_cycles_ltr,
    sweep_cycles_ptr,
    switch_cycles_ltr,
)
from .lor import CycleGroup, group_cycles, opt_plan_lor, sweep_cycles_lor
from .oracle import OracleResult, TooLarge, oracle_min_picks, oracle_optimal
from .por import (
    MoveCycle,
    cycle_distance,
    form_cycles,
    greedy_plan,
    greedy_por,
    merge_cycles,
    merge_cycles_mst,
    opt_plan_por,
)

__all__ = [
    "Action", "BadCounts", "Cell", "ClusterOverlap", "CostModel", "CycleGroup",
    "DEFAULT_COST", "EXPERIMENTS", "ExperimentReport", "ExperimentSpec",
    "GoalPattern",
    "HandNotEmptyAtEnd", "IllegalStep", "Instance", "JsonFormatError",
    "LabeledInstance", "LatticeDims", "MalformedPermutation", "MoveCycle",
    "NotPerfectSquare", "OracleResult", "PatternInfeasible", "Plan", "PlanCost",
    "PlanStep", "PointOnBoundary", "RearrangeError", "ReportRow", "SimResult",
    "SplitMix64", "TooLarge", "TypeMismatch", "TypedInstance",
    "cli_main", "cycle_distance", "cycle_distance_statistic",
    "cycle_edge_length", "derive_seed", "distance", "emit_report",
    "form_cycles", "form_cycles_ptr", "gen_block_random", "gen_column_random",
    "gen_tsp_clusters", "gen_typed", "gen_uniform_permutation", "gen_x_random",
    "greedy_2d", "greedy_plan",
    "greedy_por", "group_cycles", "instance_from_dict", "instance_to_dict",
    "is_solved", "merge_cycles", "merge_cycles_mst", "merge_cycles_ptr",
    "opt_plan_lor", "opt_plan_por", "oracle_min_picks", "oracle_optimal",
    "pattern_blocks_types", "pattern_columns_types", "plan_cost", "plan_from_dict",
    "plan_ptr", "plan_to_dict", "report_from_json", "report_to_csv",
    "report_to_json", "reverse_plan", "reversed_instance", "run_experiment",
    "simulate", "sweep_cycles_lor", "sweep_cycles_ltr", "sweep_cycles_ptr",
    "switch_cycles_ltr",
]

__version__ = "0.1.0"
