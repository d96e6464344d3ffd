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

One table holds each reached state's best cost and the step that reached
it, and `cap` bounds its entries.  By consistency an expanded state's entry
never improves by more than the quantum, so every later path to it fails
the dominance test.
"""

from __future__ import annotations

import heapq
from operator import mul, ne

from .core import (
    Action,
    CostModel,
    DEFAULT_COST,
    Instance,
    LabeledInstance,
    Plan,
    PlanCost,
    RearrangeError,
    _Value,
    _cell_distance,
)
from .graphs import _cycle_spans, _find

DEFAULT_STATE_CAP = 1_000_000  # table entries; about 350 bytes of RSS each
_Q = 1e-9  # travel comparison quantum


class TooLarge(RearrangeError):
    """The search would store more states than the configured cap."""


class OracleResult(_Value):
    __slots__ = ("plan", "cost")
    plan: Plan
    cost: PlanCost


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
    edges = [(a, b) for a, b in zip(instance.start_config(), instance.goal_config()) if a != b]
    if isinstance(instance, LabeledInstance):
        return len(edges) + len(_cycle_spans([0, *instance.pi])[0])
    parent = list(range(instance.k + 1))    # type ids are 1..k
    for a, b in edges:
        parent[_find(parent, a)] = _find(parent, b)
    # both ends of an edge share a component, so its item type names it
    components = len({_find(parent, a) for a, _ in edges})
    return len(edges) + components


def oracle_optimal(instance: Instance,
                   model: CostModel = DEFAULT_COST,
                   objective: str = "lexicographic",
                   cap: int = DEFAULT_STATE_CAP,
                   heuristic: bool = True) -> OracleResult:
    """Optimal plan by exhaustive state-space search.

    Raises TooLarge when the search would store more than `cap` states.
    The `heuristic` knob lets tests cross-check A* against plain
    uniform-cost search; both must return the same cost.
    """
    if objective not in ("lexicographic", "total"):
        raise ValueError(f"unknown objective {objective!r}")

    dims = instance.dims
    n = dims.n
    rest = instance.rest
    goal = list(instance.goal_config())
    start_config = list(instance.start_config())
    base = max(start_config) + 1  # digit base for packing occupants
    lexicographic = objective == "lexicographic"
    cp, ct = model.c_p, model.c_t
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE

    d = _cell_distance(dims, model)
    # dist[a][b] for cells a and b; row 0 and column 0 pad the 1-based index
    dist = [[0.0] * (n + 1)] + [[0.0] + [d(a, b) for b in dims.cells()] for a in dims.cells()]
    to_rest = [row[rest] for row in dist]

    # state = ((sum_i config[i] * base^i) * base + held) * n + (pos - 1)
    digit_weight = [base ** i * base * n for i in range(n)]

    def unpack(state):
        state, p = divmod(state, n)
        state, held = divmod(state, base)
        config = []
        for _ in range(n):
            state, d = divmod(state, base)
            config.append(d)
        return config, held, p + 1

    def priority(picks, travel, mism, back):
        # cost so far plus the heuristic's rest of it, rounded to _Q; the
        # total objective's key stays a bare int, which the heap compares faster
        if lexicographic:
            return picks + mism, round((travel + back) / _Q)
        try:
            return round((total := picks * cp + travel * ct + mism * cp + back * ct) / _Q)
        except OverflowError:  # an integer float, scaled exactly, or inf: it sorts last
            return total if total == float("inf") else int(total) * 10**9

    start_state = sum(map(mul, start_config, digit_weight)) + rest - 1
    mism0 = sum(map(ne, start_config, goal))
    k0 = priority(0, 0.0, mism0, to_rest[rest]) if heuristic else priority(0, 0.0, 0, 0.0)
    # heap entries: (key, state, picks, travel)
    heap = [(k0, start_state, 0, 0.0)]
    # table[state] = (picks, travel, parent state, cell, action) of the best
    # path stored so far; the start state has no parent
    table: dict[int, tuple] = {start_state: (0, 0.0, None, 0, None)}

    while heap:
        _, state, g_picks, g_travel = heapq.heappop(heap)
        known = table[state]
        if known[0] != g_picks or known[1] != g_travel:
            continue  # stale: a cheaper path to state was stored since
        config, held, pos = unpack(state)
        mism = sum(map(ne, config, goal))
        if held == 0 and mism == 0:
            travel = g_travel + to_rest[pos]
            cells, actions = [], []
            _, _, s, cell, act = known
            while s is not None:
                cells.append(cell)
                actions.append(act)
                _, _, s, cell, act = table[s]
            return OracleResult(Plan.from_columns(reversed(cells), reversed(actions)),
                                PlanCost(g_picks, travel, g_picks * cp + travel * ct))
        drow = dist[pos]
        ng_picks = g_picks + 1
        for cell in range(1, n + 1):
            occ = config[cell - 1]
            if held == 0:
                # with an empty hand all n items sit on the n cells
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
            ng_travel = g_travel + drow[cell]
            known = table.get(nstate)
            if known is None:
                if len(table) >= cap:
                    raise TooLarge(f"search would store more than {cap} states")
            elif lexicographic:
                if ng_picks > known[0] or (ng_picks == known[0]
                                           and ng_travel >= known[1] - _Q):
                    continue
            elif ng_picks * cp + ng_travel * ct >= known[0] * cp + known[1] * ct - _Q:
                continue
            table[nstate] = (ng_picks, ng_travel, state, cell, act)
            g_cell = goal[cell - 1]
            if heuristic:
                new_mism = mism - (occ != g_cell) + (new_occ != g_cell)
                back = to_rest[cell]
            else:
                new_mism, back = 0, 0.0
            heapq.heappush(heap, (priority(ng_picks, ng_travel, new_mism, back),
                                  nstate, ng_picks, ng_travel))
    raise RearrangeError("search exhausted without reaching the goal")  # pragma: no cover
