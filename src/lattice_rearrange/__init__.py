"""Minimum-cost rearrangement planning on 1D/2D lattices (pick-n-swap model).

Submodules:
    core       domain types, simulator, plan/instance JSON
    graphs     cycles, arborescence, assignment
    lor        labeled 1D planners (exact)
    por        typed 1D planners (exact) and the best-first greedy
    lattice2d  labeled/typed 2D planners (asymptotically optimal heuristics)
    oracle     exhaustive optimal search for small instances
    gen        seeded instance generators and typed goal layouts
    bench      benchmark experiments and reports
    cli        command-line interface

Importing the package loads no submodule.  Each name in ``__all__`` resolves
on first access by importing its home submodule (PEP 562), so a process pays
only for the modules it uses; ``lattice_rearrange.opt_plan_lor`` is
``lattice_rearrange.lor.opt_plan_lor``.
"""

# home submodule -> the public names it exports
_HOMES = {
    "bench": """EXPERIMENTS ExperimentReport ExperimentSpec ReportRow report_to_csv
        report_to_json run_experiment""",
    "core": """Action CostModel DEFAULT_COST HandNotEmptyAtEnd IllegalStep Instance
        JsonFormatError LabeledInstance LatticeDims MalformedPermutation Plan PlanCost
        PlanStep RearrangeError SimResult SolverMismatch TypedInstance TypeMismatch distance
        instance_from_dict instance_to_dict is_solved plan_cost plan_from_dict
        plan_to_dict reverse_plan reversed_instance simulate""",
    "gen": """BadCounts ClusterOverlap GoalPattern NotPerfectSquare PatternInfeasible
        PointOnBoundary SplitMix64 derive_seed gen_block_random gen_column_random
        gen_tsp_clusters gen_typed gen_uniform_permutation gen_x_random
        pattern_blocks_types pattern_columns_types""",
    "lattice2d": """cycle_distance_statistic cycle_edge_length form_cycles_ptr greedy_2d
        merge_cycles_ptr plan_ptr sweep_cycles_ltr sweep_cycles_ptr switch_cycles_ltr""",
    "lor": "opt_plan_lor sweep_cycles_lor",
    "oracle": "OracleResult TooLarge oracle_min_picks oracle_optimal",
    "por": """MoveCycle form_cycles greedy_plan greedy_por merge_cycles merge_cycles_mst
        opt_plan_por""",
}
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached in the module globals: the attribute always reads the
    # submodule's current binding
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
