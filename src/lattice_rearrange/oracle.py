"""Exhaustive optimal search for small instances.

States are (cell occupancy, held item, effector position) triples packed into
integers.  The search is A* over the exact state graph with an elementary
admissible heuristic (number of cells whose content differs from the goal,
plus the travel back to rest), so results are provably optimal for the
chosen objective:

    "lexicographic"  minimize picks, then travel (travel compared at 1e-9)
    "total"          minimize picks * c_p + travel * c_t

The heuristic is consistent: one operation rewrites exactly one cell, so the
mismatch count changes by at most one per unit pick cost, and the
distance-to-rest term obeys the triangle inequality.  Frontier ties break on
the packed state integer, so reruns explore in the same order and return
byte-identical plans.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .core import (
    Action,
    CostModel,
    DEFAULT_COST,
    Instance,
    LabeledInstance,
    Plan,
    PlanCost,
    PlanStep,
    RearrangeError,
    distance,
)
from .graphs import permutation_cycles

DEFAULT_STATE_CAP = 50_000_000
_Q = 1e-9  # travel comparison quantum


class TooLarge(RearrangeError):
    """The instance's state space exceeds the configured cap."""


@dataclass(frozen=True)
class OracleResult:
    plan: Plan
    cost: PlanCost


def state_space_estimate(instance: Instance) -> int:
    """Upper-bound estimate: arrangements x (n+1) held options x n positions."""
    n = instance.dims.n
    arrangements = math.factorial(n)
    if not isinstance(instance, LabeledInstance):
        for t in range(1, instance.k + 1):
            arrangements //= math.factorial(instance.start_types.count(t))
    return arrangements * (n + 1) * n


def oracle_min_picks(instance: Instance) -> int:
    """Minimum pick-n-swap count by counting argument rather than search.

    Labeled: every misplaced item needs one operation and every nontrivial
    cycle one extra.  Typed: same idea, with the minimum achievable cycle
    count equal to the number of connected components of the type multigraph
    (one edge per misplaced cell, from the item's type to the cell's goal
    type): displacement cycles are closed walks in that multigraph, walks
    sharing a type can always be merged into one, and walks in different
    components never can.
    """
    start = instance.start_config()
    goal = instance.goal_config()
    if isinstance(instance, LabeledInstance):
        misplaced = sum(1 for a, b in zip(start, goal) if a != b)
        return misplaced + permutation_cycles(instance.pi).count
    edges = [(a, b) for a, b in zip(start, goal) if a != b]
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        parent[find(a)] = find(b)
    components = len({find(x) for x in parent})
    return len(edges) + components


def oracle_optimal(instance: Instance,
                   model: CostModel = DEFAULT_COST,
                   objective: str = "lexicographic",
                   cap: int = DEFAULT_STATE_CAP,
                   heuristic: bool = True) -> OracleResult:
    """Optimal plan by exhaustive state-space search.

    Raises TooLarge when the state-space estimate exceeds `cap`.  The
    `heuristic` knob lets tests cross-check A* against plain uniform-cost
    search; both must return the same cost.
    """
    if objective not in ("lexicographic", "total"):
        raise ValueError(f"unknown objective {objective!r}")
    estimate = state_space_estimate(instance)
    if estimate > cap:
        raise TooLarge(f"state space estimate {estimate} exceeds cap {cap}")

    dims = instance.dims
    n = dims.n
    rest = instance.rest
    goal = list(instance.goal_config())
    start_config = list(instance.start_config())
    base = max(start_config) + 1  # digit base for packing occupants
    lexicographic = objective == "lexicographic"
    cp, ct = model.c_p, model.c_t
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE

    dist = [[0.0] * (n + 1) for _ in range(n + 1)]
    for a in range(1, n + 1):
        row = dist[a]
        for b in range(1, n + 1):
            row[b] = distance(dims, a, b, model)
    to_rest = [dist[c][rest] if c else 0.0 for c in range(n + 1)]

    # state = ((sum_i config[i] * base^i) * base + held) * n + (pos - 1)
    digit_weight = [base ** i * base * n for i in range(n)]

    def pack(config, held, pos):
        code = 0
        for x in reversed(config):
            code = code * base + x
        return (code * base + held) * n + (pos - 1)

    def unpack(state):
        state, p = divmod(state, n)
        state, held = divmod(state, base)
        config = []
        for _ in range(n):
            state, d = divmod(state, base)
            config.append(d)
        return config, held, p + 1

    use_h = heuristic
    start_state = pack(start_config, 0, rest)
    mism0 = sum(1 for c, g in zip(start_config, goal) if c != g)
    if lexicographic:
        k0 = ((mism0, round(to_rest[rest] / _Q)) if use_h else (0, 0))
        heap = [(k0[0], k0[1], start_state, 0, 0.0)]
    else:
        k0 = round((mism0 * cp + to_rest[rest] * ct) / _Q) if use_h else 0
        heap = [(k0, start_state, 0, 0.0)]
    best_g: dict[int, tuple[int, float]] = {start_state: (0, 0.0)}
    parents: dict[int, tuple[int, int, Action]] = {}
    closed: set[int] = set()

    while heap:
        entry = heapq.heappop(heap)
        if lexicographic:
            state, g_picks, g_travel = entry[2], entry[3], entry[4]
        else:
            state, g_picks, g_travel = entry[1], entry[2], entry[3]
        if state in closed:
            continue
        closed.add(state)
        config, held, pos = unpack(state)
        mism = 0
        for c, g in zip(config, goal):
            if c != g:
                mism += 1
        if held == 0 and mism == 0:
            travel = g_travel + to_rest[pos]
            steps = []
            emit = steps.append
            s = state
            while s in parents:
                s, cell, act = parents[s]
                emit(PlanStep(cell, act))
            steps.reverse()
            return OracleResult(Plan(tuple(steps)),
                                PlanCost(g_picks, travel, g_picks * cp + travel * ct))
        drow = dist[pos]
        ng_picks = g_picks + 1
        for cell in range(1, n + 1):
            occ = config[cell - 1]
            if held == 0:
                if occ == 0:
                    continue
                act = pick
                new_held, new_occ = occ, 0
            elif occ != 0:
                act = swap
                new_held, new_occ = occ, held
            else:
                act = place
                new_held, new_occ = 0, held
            nstate = (state + (new_occ - occ) * digit_weight[cell - 1]
                      + (new_held - held) * n + (cell - pos))
            if nstate in closed:
                continue
            ng_travel = g_travel + drow[cell]
            known = best_g.get(nstate)
            if known is not None:
                if lexicographic:
                    if ng_picks > known[0] or (ng_picks == known[0]
                                               and ng_travel >= known[1] - _Q):
                        continue
                elif ng_picks * cp + ng_travel * ct >= known[0] * cp + known[1] * ct - _Q:
                    continue
            best_g[nstate] = (ng_picks, ng_travel)
            parents[nstate] = (state, cell, act)
            g_cell = goal[cell - 1]
            if use_h:
                new_mism = mism - (occ != g_cell) + (new_occ != g_cell)
                back = to_rest[cell]
            else:
                new_mism, back = 0, 0.0
            if lexicographic:
                heapq.heappush(heap, (ng_picks + new_mism,
                                      round((ng_travel + back) / _Q),
                                      nstate, ng_picks, ng_travel))
            else:
                f = ng_picks * cp + ng_travel * ct + new_mism * cp + back * ct
                heapq.heappush(heap, (round(f / _Q), nstate, ng_picks, ng_travel))
    raise RearrangeError("search exhausted without reaching the goal")  # pragma: no cover
