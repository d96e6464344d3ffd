"""Correctness gate for every benchmark attempt.

An attempt fails if it raises, if its plan does not replay or does not reach
the goal, if its pick count differs from ``oracle_min_picks`` (or, for the
greedy baselines, which promise no minimum, falls below it), if its travel
falls below the carry lower bound, or if the cost the CLI reports differs
from the replay.

The carry lower bound is computed here, independently of the library: for
each item type, the minimum-cost matching from misplaced sources to the goal
cells that need that type, under the instance's metric.  The arm carries one
item at a time, so its travel can never be shorter.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

import lattice_rearrange as lr

# solvers whose pick count is only bounded below by the minimum
GREEDY_SOLVERS = frozenset({"greedy_por", "greedy_2d"})
_REL_TOL = 1e-9


def plan_digest(plan) -> str:
    """sha256 of the plan's ``plan_to_dict`` document in compact JSON."""
    text = json.dumps(lr.plan_to_dict(plan), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _coords(dims, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 1-based column-major index -> (row, col)
    return (cells - 1) % dims.m1 + 1, (cells - 1) // dims.m1 + 1


def _pair_costs(dims, a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    ra, ca = _coords(dims, a)
    rb, cb = _coords(dims, b)
    dr = np.abs(ra[:, None] - rb[None, :]).astype(float)
    dc = np.abs(ca[:, None] - cb[None, :]).astype(float)
    return dr + dc if metric == "manhattan" else np.hypot(dr, dc)


def min_matching_cost(cost: np.ndarray) -> float:
    """Minimum-cost perfect matching of a square matrix (Hungarian method,
    shortest augmenting paths with potentials, O(n^3))."""
    n = len(cost)
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match = np.zeros(n + 1, dtype=int)  # match[j]: row (1-based) on column j
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, math.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match[j0]
            free = ~used[1:]
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            reach = np.where(free, minv[1:], math.inf)
            j1 = int(np.argmin(reach)) + 1
            delta = reach[j1 - 1]
            done = np.nonzero(used)[0]
            u[match[done]] += delta
            v[done] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return float(sum(cost[match[j] - 1, j - 1] for j in range(1, n + 1)))


def carry_lower_bound(instance, metric: str = "euclidean") -> float:
    """Least total carrying distance any plan for the instance needs."""
    dims = instance.dims
    start = np.asarray(instance.start_config())
    goal = np.asarray(instance.goal_config())
    cells = np.arange(1, dims.n + 1)
    wrong = start != goal
    if isinstance(instance, lr.LabeledInstance):
        # item x sits at cell c and belongs at cell x
        src, dst = cells[wrong], start[wrong]
        ra, ca = _coords(dims, src)
        rb, cb = _coords(dims, dst)
        dr, dc = np.abs(ra - rb).astype(float), np.abs(ca - cb).astype(float)
        return float((dr + dc).sum() if metric == "manhattan" else np.hypot(dr, dc).sum())
    total = 0.0
    for t in np.unique(start[wrong]):
        src = cells[wrong & (start == t)]
        dst = cells[wrong & (goal == t)]
        if dims.m2 == 1:
            # on a line the in-order pairing is a minimum matching
            total += float(np.abs(src - dst).sum())
        else:
            total += min_matching_cost(_pair_costs(dims, src, dst, metric))
    return total


@dataclass(frozen=True)
class Expect:
    """What a correct plan for one request must satisfy."""

    min_picks: int
    bound: float
    exact_picks: bool


def expectation(request) -> Expect:
    return Expect(lr.oracle_min_picks(request.instance),
                  carry_lower_bound(request.instance, request.metric),
                  request.solver not in GREEDY_SOLVERS)


@dataclass
class Outcome:
    """Result of replaying one attempt's plan."""

    verify_s: float = 0.0
    travel: float = 0.0
    digest: str = ""
    failure: str | None = None


def replay(request, plan, expect: Expect, reported: dict | None = None) -> Outcome:
    """Replay `plan` with ``simulate`` + ``is_solved`` and apply every check.

    `reported` is the cost document the CLI printed, when there is one.
    Only the replay itself is timed.
    """
    out = Outcome()
    t0 = time.perf_counter()
    try:
        result = lr.simulate(request.instance, plan, request.model)
        solved = lr.is_solved(result.config, request.instance)
    except lr.RearrangeError as exc:
        out.verify_s = time.perf_counter() - t0
        out.failure = f"replay: {type(exc).__name__}: {exc}"
        return out
    out.verify_s = time.perf_counter() - t0
    cost = result.cost
    out.travel = cost.travel
    out.digest = plan_digest(plan)
    if not solved:
        out.failure = "plan does not reach the goal"
    elif cost.picks < expect.min_picks or (expect.exact_picks and cost.picks != expect.min_picks):
        out.failure = f"picks {cost.picks} != oracle_min_picks {expect.min_picks}"
    elif cost.travel < expect.bound - _REL_TOL * max(1.0, expect.bound):
        out.failure = f"travel {cost.travel} below carry lower bound {expect.bound}"
    elif reported is not None and not _same_cost(reported, cost):
        out.failure = f"reported cost {reported} differs from replay {cost}"
    return out


def _same_cost(reported: dict, cost) -> bool:
    try:
        return (int(reported["picks"]) == cost.picks
                and math.isclose(float(reported["travel"]), cost.travel, rel_tol=_REL_TOL)
                and math.isclose(float(reported["total"]), cost.total, rel_tol=_REL_TOL))
    except (KeyError, TypeError, ValueError):
        return False
