"""Seeded instance sets for the three benchmark workloads.

Every instance comes from a public generator of `lattice_rearrange`, seeded
with ``derive_seed(seed, workload, index)``; the program never sees the
workload seed itself.  The reasons for each instance are in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import lattice_rearrange as lr

WORKLOADS = ("row", "grid", "cli")


@dataclass(frozen=True)
class Request:
    """One solve: a solver applied to one seeded instance.

    ``module``/``solver`` name the library function (looked up at call time,
    so the tracer's wrappers apply); ``cli_solver`` is its CLI name.
    ``generator`` and ``params`` record how the instance was made.
    """

    id: str
    module: str
    solver: str
    cli_solver: str
    generator: str
    params: dict
    instance: object
    metric: str = "euclidean"

    @property
    def model(self):
        return lr.CostModel(metric=self.metric)

    def describe(self) -> dict:
        inst = self.instance
        return {"id": self.id, "solver": self.cli_solver, "metric": self.metric,
                "kind": inst.kind, "generator": self.generator,
                "params": self.params, "dims": [inst.dims.m1, inst.dims.m2],
                "cells": inst.dims.n, "rest": inst.rest}


def _runs(m: int, run: int) -> tuple[int, ...]:
    """Goal types as contiguous runs of `run` cells: 1..1, 2..2, ..."""
    return tuple(c // run + 1 for c in range(m))


def _typed_row_runs(m: int, k: int, seed: int):
    goal = _runs(m, m // k)
    return lr.gen_typed(m, k, (m // k,) * k, lr.GoalPattern("explicit", goal), seed)


def _typed_row_local(m: int, run: int, x: int, seed: int):
    # item at cell c carries the goal type of its home cell pi[c]
    goal = _runs(m, run)
    pi = lr.gen_x_random(m, x, seed).pi
    start = tuple(goal[p - 1] for p in pi)
    return lr.TypedInstance(lr.LatticeDims(m, 1), m // run, start, goal)


def _grid_of_row(m: int, row):
    # an m*m row laid out column-major on an m x m grid
    return lr.LabeledInstance(lr.LatticeDims(m, m), row.pi)


def _with_rest(instance, rest: int):
    return lr.LabeledInstance(instance.dims, instance.pi, rest)


def _typed_grid(m1: int, m2: int, k: int, pattern: str, seed: int):
    n = m1 * m2
    return lr.gen_typed((m1, m2), k, (n // k,) * k, lr.GoalPattern(pattern), seed)


# (request id, library module, library solver, CLI solver, generator name,
#  parameters, builder taking (params, seed), metric)
_LOR = ("lor", "opt_plan_lor", "opt-lor")
_POR = ("por", "opt_plan_por", "opt-por")
_SWITCH = ("lattice2d", "switch_cycles_ltr", "switch-ltr")
_PTR = ("lattice2d", "plan_ptr", "plan-ptr")

_SPECS = {
    "row": [
        ("lor-uniform-100000", _LOR, "gen_uniform_permutation", {"m": 100_000},
         lambda p, s: lr.gen_uniform_permutation(p["m"], s)),
        ("lor-xrandom-100000", _LOR, "gen_x_random", {"m": 100_000, "x": 10},
         lambda p, s: lr.gen_x_random(p["m"], p["x"], s)),
        ("lor-uniform-20000-rest", _LOR, "gen_uniform_permutation+rest",
         {"m": 20_000, "rest": 10_000},
         lambda p, s: _with_rest(lr.gen_uniform_permutation(p["m"], s), p["rest"])),
        *[(f"por-typed-k4-600-{j}", _POR, "gen_typed(explicit runs)", {"m": 600, "k": 4},
           lambda p, s: _typed_row_runs(p["m"], p["k"], s)) for j in range(2)],
        *[(f"por-local-256-{j}", _POR, "gen_x_random->typed runs",
           {"m": 256, "run": 16, "x": 24},
           lambda p, s: _typed_row_local(p["m"], p["run"], p["x"], s)) for j in range(16)],
    ],
    "grid": [
        *[(f"switch-block-25-{j}", _SWITCH, "gen_block_random", {"m": 25},
           lambda p, s: lr.gen_block_random(p["m"], s)) for j in range(4)],
        ("switch-xrandom-60", _SWITCH, "gen_x_random->grid", {"m": 60, "x": 360},
         lambda p, s: _grid_of_row(p["m"], lr.gen_x_random(p["m"] ** 2, p["x"], s))),
        ("ptr-k4-20x20-blocks", _PTR, "gen_typed", {"dims": [20, 20], "k": 4, "pattern": "blocks"},
         lambda p, s: _typed_grid(*p["dims"], p["k"], p["pattern"], s)),
        ("ptr-k16-32x32-blocks", _PTR, "gen_typed", {"dims": [32, 32], "k": 16, "pattern": "blocks"},
         lambda p, s: _typed_grid(*p["dims"], p["k"], p["pattern"], s)),
        ("ptr-k32-32x32-columns", _PTR, "gen_typed", {"dims": [32, 32], "k": 32, "pattern": "columns"},
         lambda p, s: _typed_grid(*p["dims"], p["k"], p["pattern"], s)),
    ],
    "cli": [
        ("cli-opt-lor", _LOR, "gen_uniform_permutation", {"m": 20_000},
         lambda p, s: lr.gen_uniform_permutation(p["m"], s)),
        ("cli-sweep-lor", ("lor", "sweep_cycles_lor", "sweep-lor"), "gen_uniform_permutation",
         {"m": 2000}, lambda p, s: lr.gen_uniform_permutation(p["m"], s)),
        ("cli-opt-por", _POR, "gen_typed(explicit runs)", {"m": 1000, "k": 4},
         lambda p, s: _typed_row_runs(p["m"], p["k"], s)),
        ("cli-greedy-por", ("por", "greedy_por", "greedy-por"), "gen_typed(explicit runs)",
         {"m": 300, "k": 3}, lambda p, s: _typed_row_runs(p["m"], p["k"], s)),
        ("cli-sweep-ltr", ("lattice2d", "sweep_cycles_ltr", "sweep-ltr"), "gen_block_random",
         {"m": 16}, lambda p, s: lr.gen_block_random(p["m"], s)),
        ("cli-switch-ltr", _SWITCH, "gen_block_random", {"m": 16},
         lambda p, s: lr.gen_block_random(p["m"], s)),
        ("cli-switch-ltr-manhattan", _SWITCH, "gen_column_random", {"m1": 12, "m2": 12},
         lambda p, s: lr.gen_column_random(p["m1"], p["m2"], s), "manhattan"),
        ("cli-plan-ptr", _PTR, "gen_typed", {"dims": [12, 12], "k": 4, "pattern": "blocks"},
         lambda p, s: _typed_grid(*p["dims"], p["k"], p["pattern"], s)),
        ("cli-greedy-2d", ("lattice2d", "greedy_2d", "greedy-2d"), "gen_typed",
         {"dims": [10, 10], "k": 4, "pattern": "blocks"},
         lambda p, s: _typed_grid(*p["dims"], p["k"], p["pattern"], s)),
    ],
}


def build(workload: str, seed: int) -> list[Request]:
    """The workload's requests, instances generated from `seed`."""
    requests = []
    for index, (rid, (module, solver, cli_solver), generator, params, make, *metric) \
            in enumerate(_SPECS[workload]):
        instance = make(params, lr.derive_seed(seed, workload, index))
        requests.append(Request(rid, module, solver, cli_solver, generator, params,
                                instance, *metric))
    return requests


def write_cli_inputs(requests: list[Request], directory: Path) -> list[Path]:
    """Write each request's instance document, as `lattice-rearrange gen` does."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for req in requests:
        path = directory / f"{req.id}.json"
        doc = {"format_version": 1, **lr.instance_to_dict(req.instance)}
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
