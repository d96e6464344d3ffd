"""Shared helpers for the test suite.

The leg-summing and brute-force helpers here are deliberately independent of
the library's own cost accounting so expected values come from a second
route.  _group_max_per_cycle is the span grouping lor's single-pass walk
read before it derived the group hand-off from a running maximum; the
reference walk in test_walks and the single-group test in test_lor still
read it.  reference_simulate is simulate as it stood before its loop was cut
down to the hand exchange: one step at a time, range check, travel leg and
precondition together; the differential tests in test_simulate compare the
two bit for bit.  reference_distance and reference_greedy_plan are
distance() and greedy_plan as they stood before every scalar distance went
through core._cell_distance: each cell decoded through LatticeDims.rowcol
on every call.  test_core compares the floats bit for bit and test_por the
greedy plans.  ReferenceSplitMix64 carries SplitMix64's below and shuffle
as they stood before shuffle's draws were inlined: every draw one next_u64
call, checked against the exact rejection limit; test_gen compares the
streams, the shuffled lists and every generator's output against it.
reference_oracle_optimal is oracle_optimal as it stood before its search
moved into one state table counted by `cap`: best_g, parents and a closed
set, behind an up-front n!-based refusal; test_oracle compares plans and
costs with == on a corpus of small rows and grids.  model_input gives a
trade model the (orbits, dest, types) that por.fuse_cycles hands it.
moves_of reads the moves off MoveCycles as dicts keyed by source, and
reference_cycles_from_assignment is por's orbit loop over such dicts as
it stood before the typed pipelines held one destination table; the
references in test_por and test_walks rebuild cycles through it.
"""

from __future__ import annotations

import heapq
import json
import math
from itertools import count

from lattice_rearrange.core import (
    DEFAULT_COST,
    Action,
    CostModel,
    HandNotEmptyAtEnd,
    IllegalStep,
    Instance,
    LabeledInstance,
    LatticeDims,
    Plan,
    PlanCost,
    RearrangeError,
    SimResult,
    TypedInstance,
    _cell_distance,
    _manhattan_leg,
)
from lattice_rearrange.gen import SplitMix64
from lattice_rearrange.oracle import _Q, OracleResult, TooLarge
from lattice_rearrange.graphs import _walk_orbits
from lattice_rearrange.por import MoveCycle, _assignment_of


class ReferenceSplitMix64(SplitMix64):
    """SplitMix64 whose bounded draws and shuffle go through next_u64."""

    __slots__ = ()

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must lie in 1..2**64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def model_input(cycles):
    """(orbits, dest, types) of MoveCycles, as fuse_cycles builds a trade
    model from their destination table."""
    dest, types = _assignment_of(cycles)
    return _walk_orbits(dest), dest, types


def moves_of(cycles) -> tuple[dict[int, int], dict[int, int]]:
    """(assign, types) of MoveCycles: each move's source -> its goal, and
    -> the type it carries."""
    assign, types = {}, {}
    for cyc in cycles:
        for (s, g), t in zip(cyc.edges, cyc.edge_types):
            assign[s], types[s] = g, t
    return assign, types


def reference_cycles_from_assignment(assign, types):
    """The MoveCycles of a dict assignment, min-first in min-cell order, as
    por._cycles_from_assignment read with its own orbit loop."""
    seen: set[int] = set()
    cycles = []
    for start in sorted(assign):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        cur = assign[start]
        while cur != start:
            orbit.append(cur)
            seen.add(cur)
            cur = assign[cur]
        edges = tuple((orbit[i], orbit[(i + 1) % len(orbit)]) for i in range(len(orbit)))
        cycles.append(MoveCycle(edges, tuple(types[s] for s, _ in edges)))
    return cycles


def with_rest(inst: Instance, rest: int) -> Instance:
    """inst with the arm resting at `rest`, built by its constructor."""
    if inst.kind == "labeled":
        return LabeledInstance(inst.dims, inst.pi, rest)
    return TypedInstance(inst.dims, inst.k, inst.start_types, inst.goal_types, rest)


def dumps(doc: dict) -> str:
    """Serialize a document deterministically (fixed key order, no spaces)."""
    return json.dumps(doc, separators=(",", ":"))


def leg_travel(dims: LatticeDims, cells: list[int], rest: int = 1, metric: str = "euclidean") -> float:
    """Travel of the closed walk rest -> cells... -> rest, summed by hand."""
    total = 0.0
    walk = [rest] + list(cells) + [rest]
    for a, b in zip(walk, walk[1:]):
        ra, ca = divmod(a - 1, dims.m1)[1] + 1, divmod(a - 1, dims.m1)[0] + 1
        rb, cb = divmod(b - 1, dims.m1)[1] + 1, divmod(b - 1, dims.m1)[0] + 1
        if metric == "manhattan":
            total += abs(ra - rb) + abs(ca - cb)
        else:
            total += math.hypot(ra - rb, ca - cb)
    return total


def reference_distance(dims: LatticeDims, a: int, b: int, model: CostModel = DEFAULT_COST) -> float:
    """Metric distance between two cells given as indices."""
    ra, ca = dims.rowcol(a)
    rb, cb = dims.rowcol(b)
    if model.metric == "manhattan":
        return _manhattan_leg(ra - rb, ca - cb)
    return math.hypot(ra - rb, ca - cb)


def reference_greedy_plan(instance: Instance, model: CostModel = DEFAULT_COST) -> Plan:
    """Best-first baseline, usable on any instance kind or dimension.

    Empty hand: pick the nearest misplaced item.  Holding an item: deposit
    it at the nearest goal cell of its type that is not already correct
    (Swap if occupied, Place if empty).  Distance ties break toward the
    smaller cell index.  Every deposit fixes a cell for good, so the loop
    ends after at most one pick and one deposit per cell.
    """
    dims = instance.dims
    goal = list(instance.goal_config())
    config: list = list(instance.start_config())
    pos = instance.rest
    held = None
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    cells: list[int] = []
    actions: list[Action] = []
    at, act = cells.append, actions.append

    def nearest(candidates):
        return min(candidates, key=lambda c: (reference_distance(dims, pos, c, model), c))

    while True:
        if held is None:
            misplaced = [c for c in dims.cells()
                         if config[c - 1] is not None and config[c - 1] != goal[c - 1]]
            if not misplaced:
                break
            cell = nearest(misplaced)
            at(cell)
            act(pick)
            held, config[cell - 1] = config[cell - 1], None
        else:
            targets = [c for c in dims.cells()
                       if goal[c - 1] == held and config[c - 1] != held]
            cell = nearest(targets)
            if config[cell - 1] is None:
                at(cell)
                act(place)
                config[cell - 1], held = held, None
            else:
                at(cell)
                act(swap)
                held, config[cell - 1] = config[cell - 1], held
        pos = cell
    return Plan.from_columns(cells, actions)


def _group_max_per_cycle(cycles: tuple[tuple[int, ...], ...]) -> list[int]:
    """Rightmost cell of each cycle's group: cycles whose [min, max] spans
    chain-overlap.  One pass suffices because cycles arrive ordered by their
    minimum cell."""
    out = [0] * len(cycles)
    i = 0
    while i < len(cycles):
        hi = max(cycles[i])
        j = i + 1
        while j < len(cycles) and cycles[j][0] <= hi:
            hi = max(hi, max(cycles[j]))
            j += 1
        for t in range(i, j):
            out[t] = hi
        i = j
    return out


def apply_plan_by_hand(start: list, steps: list[tuple[int, str]]):
    """Minimal re-implementation of plan execution for cross-checking.

    start: occupant list (1-based cells at index-1); steps: (cell, action).
    Returns final occupant list, or raises AssertionError on a bad step.
    """
    config = list(start)
    held = None
    for cell, action in steps:
        occ = config[cell - 1]
        if action == "pick":
            assert held is None and occ is not None
            held, config[cell - 1] = occ, None
        elif action == "swap":
            assert held is not None and occ is not None
            held, config[cell - 1] = occ, held
        else:
            assert held is not None and occ is None
            config[cell - 1], held = held, None
    assert held is None
    return config


def reference_simulate(instance: Instance, plan: Plan, model: CostModel = DEFAULT_COST) -> SimResult:
    """Execute a plan from the instance's start arrangement.

    Raises IllegalStep if any step's precondition fails (pick needs an empty
    hand and an occupied cell, swap a held item and an occupied cell, place a
    held item and an empty cell) and HandNotEmptyAtEnd if the effector is
    still holding an item after the last step.  The returned cost includes
    the closing leg back to the rest cell.
    """
    dims = instance.dims
    n, m1 = dims.n, dims.m1
    # distance() inlined: each cell is decoded once, after its range check
    leg = _manhattan_leg if model.metric == "manhattan" else math.hypot
    config: list[Optional[int]] = list(instance.start_config())
    held: Optional[int] = None
    rest_col, rest_row = col, row = divmod(instance.rest - 1, m1)
    travel = 0.0
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    for idx, cell, action in zip(count(), plan.cells, plan.actions):
        if not 1 <= cell <= n:
            raise IllegalStep(idx, f"cell {cell} outside lattice")
        c, r = divmod(cell - 1, m1)
        travel += leg(row - r, col - c)
        col, row = c, r
        occupant = config[cell - 1]
        if action is pick:
            if held is not None:
                raise IllegalStep(idx, "pick with an item already in hand")
            if occupant is None:
                raise IllegalStep(idx, f"pick at empty cell {cell}")
            held, config[cell - 1] = occupant, None
        elif action is swap:
            if held is None:
                raise IllegalStep(idx, "swap with an empty hand")
            if occupant is None:
                raise IllegalStep(idx, f"swap at empty cell {cell}")
            held, config[cell - 1] = occupant, held
        elif action is place:
            if held is None:
                raise IllegalStep(idx, "place with an empty hand")
            if occupant is not None:
                raise IllegalStep(idx, f"place at occupied cell {cell}")
            config[cell - 1], held = held, None
        else:
            raise IllegalStep(idx, f"unknown action {action!r}")
    if held is not None:
        raise HandNotEmptyAtEnd(f"item {held} still in hand after final step")
    travel += leg(row - rest_row, col - rest_col)
    picks = len(plan)
    cost = PlanCost(picks, travel, picks * model.c_p + travel * model.c_t)
    return SimResult(tuple(config), cost)


# oracle_optimal as it stood with three per-state structures (best_g,
# parents, closed) and the n! state-space estimate as its size gate
REFERENCE_STATE_CAP = 50_000_000


def reference_state_space_estimate(instance: Instance) -> int:
    """Upper-bound estimate: arrangements x (n+1) held options x n positions."""
    n = instance.dims.n
    arrangements = math.factorial(n)
    if not isinstance(instance, LabeledInstance):
        for t in range(1, instance.k + 1):
            arrangements //= math.factorial(instance.start_types.count(t))
    return arrangements * (n + 1) * n


def reference_oracle_optimal(instance: Instance,
                             model: CostModel = DEFAULT_COST,
                             objective: str = "lexicographic",
                             cap: int = REFERENCE_STATE_CAP,
                             heuristic: bool = True) -> OracleResult:
    """Optimal plan by exhaustive state-space search.

    Raises TooLarge when the state-space estimate exceeds `cap`.  The
    `heuristic` knob lets tests cross-check A* against plain uniform-cost
    search; both must return the same cost.
    """
    if objective not in ("lexicographic", "total"):
        raise ValueError(f"unknown objective {objective!r}")
    estimate = reference_state_space_estimate(instance)
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

    d = _cell_distance(dims, model)
    # dist[a][b] for cells a and b; row 0 and column 0 pad the 1-based index
    dist = [[0.0] * (n + 1)] + [[0.0] + [d(a, b) for b in dims.cells()] for a in dims.cells()]
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

    def priority(picks, travel, mism, back):
        # cost so far plus the heuristic's rest of it, rounded to _Q; the
        # total objective's key stays a bare int, which the heap compares faster
        if lexicographic:
            return picks + mism, round((travel + back) / _Q)
        return round((picks * cp + travel * ct + mism * cp + back * ct) / _Q)

    use_h = heuristic
    start_state = pack(start_config, 0, rest)
    mism0 = sum(1 for c, g in zip(start_config, goal) if c != g)
    k0 = priority(0, 0.0, mism0, to_rest[rest]) if use_h else priority(0, 0.0, 0, 0.0)
    # heap entries: (key, state, picks, travel)
    heap = [(k0, start_state, 0, 0.0)]
    best_g: dict[int, tuple[int, float]] = {start_state: (0, 0.0)}
    parents: dict[int, tuple[int, int, Action]] = {}
    closed: set[int] = set()

    while heap:
        _, state, g_picks, g_travel = heapq.heappop(heap)
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
            cells, actions = [], []
            s = state
            while s in parents:
                s, cell, act = parents[s]
                cells.append(cell)
                actions.append(act)
            return OracleResult(Plan.from_columns(reversed(cells), reversed(actions)),
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
            heapq.heappush(heap, (priority(ng_picks, ng_travel, new_mism, back),
                                  nstate, ng_picks, ng_travel))
    raise RearrangeError("search exhausted without reaching the goal")
