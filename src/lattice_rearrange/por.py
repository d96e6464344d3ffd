"""Planner for partially labeled (typed) 1D instances.

Items of the same type are interchangeable, so the planner first decides
which item goes to which goal cell and only then plans motion.  Four phases:

1. form_cycles: match each misplaced item to the leftmost free goal cell of
   its type.  In 1D this in-order pairing minimizes summed move distance per
   type, and the chosen moves close into displacement cycles.
2. merge_cycles: while two cycles contain same-type moves that can trade
   destinations without changing total distance, trade them.  Each trade
   fuses two cycles into one, saving one operation for free.  One
   left-to-right sweep over the sources finds every such trade in order,
   with a union-find tracking which cycles have fused.
3. merge_cycles_mst: remaining fusions cost travel.  The cheapest fusion of
   two cycles trades the pair of same-type moves with the smallest span gap
   and costs twice that gap.  A minimum spanning forest over these gap
   weights gives the cheapest schedule that reaches the minimum possible
   cycle count.  The forest is built by fuse_cycles, which asks a
   TradeModel two questions, the weight of every cycle pair and the
   cheapest trade between two components, and splices the two orbits of
   each fusion in O(|A| + |B|).  TradeModel states the tie rule every model
   follows.  Here the model scans edge pairs in pure Python, so the 1D
   planners never load numpy; the typed 2D planner
   (lattice2d.merge_cycles_ptr) runs the same loop with a model that
   answers from per-type numpy matrices of the travel a trade adds.
4. group_sweep_cycles_por: walk the final cycles exactly like the labeled
   1D planner (nested entries, parking, group hand-off).

The resulting plan has the fewest operations achievable, and, when the
arm rests at cell 1, the least travel among such plans (ROADMAP item 2).
A best-first greedy baseline is included for benchmark comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

from .core import (
    Action,
    CostModel,
    DEFAULT_COST,
    Instance,
    Plan,
    PlanStep,
    TypedInstance,
    distance,
)
from .lor import follow_cycles

Edge = tuple[int, int]

# cost(e1, e2) of trading the destinations of two same-type moves
TradeCost = Callable[[Edge, Edge], float]


@dataclass(frozen=True)
class MoveCycle:
    """A closed chain of item moves: each move's destination is the next
    move's source.  edge_types[j] is the type carried by edges[j].  The
    chain starts at its smallest source cell, min_cell."""

    edges: tuple[tuple[int, int], ...]
    edge_types: tuple[int, ...]

    @property
    def types(self) -> frozenset:
        return frozenset(self.edge_types)

    @property
    def min_cell(self) -> int:
        return self.edges[0][0]


def _require_1d(instance: TypedInstance) -> None:
    if instance.dims.m2 != 1:
        raise ValueError("this planner handles 1D instances only (m2 must be 1)")


def _cycles_from_assignment(assign: dict[int, int], types: dict[int, int]) -> list[MoveCycle]:
    """Decompose a destination assignment into min-first move cycles."""
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


def form_cycles(instance: TypedInstance) -> list[MoveCycle]:
    """Phase 1: leftmost-available matching of misplaced items to goals.

    Per type, the i-th misplaced item from the left goes to the i-th open
    goal cell from the left.  In-order pairing never crosses, which makes
    the per-type total distance minimal in 1D.
    """
    _require_1d(instance)
    sources: dict[int, list[int]] = {}
    goals: dict[int, list[int]] = {}
    for cell, (have, want) in enumerate(zip(instance.start_types, instance.goal_types), start=1):
        if have != want:
            sources.setdefault(have, []).append(cell)
            goals.setdefault(want, []).append(cell)
    assign: dict[int, int] = {}
    types: dict[int, int] = {}
    for t, srcs in sources.items():
        for s, g in zip(srcs, goals[t]):
            assign[s] = g
            types[s] = t
    return _cycles_from_assignment(assign, types)


def _assignment_of(cycles) -> tuple[dict[int, int], dict[int, int]]:
    assign: dict[int, int] = {}
    types: dict[int, int] = {}
    for cyc in cycles:
        for (s, g), t in zip(cyc.edges, cyc.edge_types):
            assign[s] = g
            types[s] = t
    return assign, types


def _pair_gap(e1: tuple[int, int], e2: tuple[int, int]) -> float:
    """Half the distance added by trading the two edges' destinations."""
    (s1, g1), (s2, g2) = e1, e2
    delta = abs(s1 - g2) + abs(s2 - g1) - abs(s1 - g1) - abs(s2 - g2)
    return max(0.0, delta / 2.0)


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def merge_cycles(cycles) -> list[MoveCycle]:
    """Phase 2: perform every free fusion.

    Two same-type moves can trade destinations at zero distance cost when
    both sources sit on the same side of both destinations; the trade links
    their cycles.  Trades to a fixed point, always taking the eligible pair
    with the leftmost (smaller source, larger source), so reruns produce
    identical output.  One left-to-right sweep over the sources finds them
    in that order: source a trades with its leftmost free partner b > a in
    another cycle until it has none.  Destinations are traded in place and
    the cycles rebuilt once.

    Precondition: each type's moves are the in-order pairing of its sources
    and goals, as form_cycles produces.  The bounded partner scans rely on
    it; on other input (say, two same-type moves that cross) the sweep still
    makes only trades of delta <= 0, but it can pick other trades than the
    fixed-point rule or stop before it.
    """
    cycles = list(cycles)
    assign, types = _assignment_of(cycles)
    cycle_of = {s: i for i, cyc in enumerate(cycles) for s, _ in cyc.edges}
    parent = list(range(len(cycles)))
    order = sorted(assign)
    by_type: dict[int, list[int]] = {}
    for s in order:
        by_type.setdefault(types[s], []).append(s)
    rank = {s: i for srcs in by_type.values() for i, s in enumerate(srcs)}
    left = len(cycles)
    # Free trades keep every type's total distance, so the in-order pairing
    # of form_cycles stays per-type optimal and no trade has delta < 0.
    # Hence, for same-type sources a < b: if a moves right, b is free
    # exactly when b < g_a; if a moves left, b is free exactly when
    # g_b < a, and no such b lies past a source moving right.  Both bound
    # the scan.  A trade at (a, b) only swaps g_a and g_b and joins their
    # cycles, so no source left of a gains a partner: the sweep resumes
    # at a instead of restarting.

    def partner(a: int):
        ga, ra = assign[a], _find(parent, cycle_of[a])
        srcs = by_type[types[a]]
        for j in range(rank[a] + 1, len(srcs)):
            b = srcs[j]
            gb = assign[b]
            if (b > ga) if ga > a else (gb > b):
                return None
            if (abs(a - gb) + abs(b - ga) <= abs(a - ga) + abs(b - gb)
                    and _find(parent, cycle_of[b]) != ra):
                return b
        return None

    for a in order:
        while left > 1 and (b := partner(a)) is not None:
            assign[a], assign[b] = assign[b], assign[a]
            parent[_find(parent, cycle_of[a])] = _find(parent, cycle_of[b])
            left -= 1
    if left == len(cycles):
        return cycles
    return _cycles_from_assignment(assign, types)


class TradeModel(Protocol):
    """What fuse_cycles asks about destination trades.

    A trade exchanges the destinations of two same-type moves e1 = (s1, g1)
    and e2 = (s2, g2) of different cycles, which fuses the cycles into one.
    The cheapest trade between two cycles, or two fused components, has
    the least key (cost, min(s1, s2), max(s1, s2)).  Sources are distinct,
    so ties in cost go to the smallest source pair and the key names one
    trade.  Every model answers by this rule.
    """

    def pair_weights(self) -> Iterable[tuple[float, int, int]]:
        """(cost of the cheapest trade, i, j) for each pair i < j of the
        model's cycles that shares a type."""

    def trade(self, ri: int, rj: int, a: MoveCycle, b: MoveCycle) -> tuple[int, Edge, Edge]:
        """(type, e1 of a, e2 of b): the cheapest trade between the
        components rooted at ri and rj, whose orbits are a and b.  The
        caller makes the trade, and ri's component joins rj's."""


def _cheapest_trade(c1: MoveCycle, c2: MoveCycle, cost: TradeCost):
    """The same-type edge pair (e1 of c1, e2 of c2) whose destination trade
    has the least cost(e1, e2), as (cost, type, e1, e2), by TradeModel's
    tie rule.  None when the cycles share no type."""
    shared = c1.types & c2.types
    if not shared:
        return None
    best = None
    for e1, t in zip(c1.edges, c1.edge_types):
        if t not in shared:
            continue
        for e2, t2 in zip(c2.edges, c2.edge_types):
            if t2 == t:
                key = (cost(e1, e2), min(e1[0], e2[0]), max(e1[0], e2[0]))
                if best is None or key < best[0]:
                    best = (key, t, e1, e2)
    key, t, e1, e2 = best
    return key[0], t, e1, e2


class _GapTrades:
    """1D trade model: _pair_gap, scanned edge pair by edge pair."""

    def __init__(self, cycles):
        self.cycles = cycles

    def pair_weights(self):
        cycles = self.cycles
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                trade = _cheapest_trade(cycles[i], cycles[j], _pair_gap)
                if trade is not None:
                    yield trade[0], i, j

    def trade(self, ri, rj, a, b):
        return _cheapest_trade(a, b, _pair_gap)[1:]


def _splice(a: MoveCycle, b: MoveCycle, e1: Edge, e2: Edge) -> MoveCycle:
    """The one cycle left by trading the destinations of e1 (in a) and e2
    (in b), min-first like its parts: a up to e1, then e1 bent to g2, b
    from g2 around to e2, e2 bent to g1, and the rest of a."""
    if b.min_cell < a.min_cell:
        a, b, e1, e2 = b, a, e2, e1
    p, q = a.edges.index(e1), b.edges.index(e2)
    edges = (a.edges[:p] + ((e1[0], e2[1]),) + b.edges[q + 1:] + b.edges[:q]
             + ((e2[0], e1[1]),) + a.edges[p + 1:])
    types = (a.edge_types[:p + 1] + b.edge_types[q + 1:] + b.edge_types[:q + 1]
             + a.edge_types[p + 1:])
    return MoveCycle(edges, types)


def _min_first(c: MoveCycle) -> MoveCycle:
    """c rotated to start at its smallest source, as MoveCycle states."""
    p = c.edges.index(min(c.edges))
    if p == 0:
        return c
    return MoveCycle(c.edges[p:] + c.edges[:p], c.edge_types[p:] + c.edge_types[:p])


def fuse_cycles(cycles, trades: Callable[[list[MoveCycle]], TradeModel]):
    """Fuse cycles along a minimum spanning forest of trade costs.

    trades(cycles) builds the TradeModel.  Each pair of cycles sharing a
    type weighs its cheapest trade; pairs are fused in ascending (weight,
    min cells) order, each fusion making the model's cheapest trade between
    the two components and splicing their orbits.  Returns (cycles sorted
    by min cell, log), where each log entry is (type, goal_cell_1,
    goal_cell_2): the two goals that exchanged owners.  A cycle that does
    not start at its smallest source is rotated first, since the pair key
    and the splice read min_cell from the first edge.
    """
    cycles = [_min_first(c) for c in cycles]
    n = len(cycles)
    log: list[tuple[int, int, int]] = []
    if n <= 1:
        return cycles, log
    model = trades(cycles)
    pair_edges = sorted((w, cycles[i].min_cell, cycles[j].min_cell, i, j)
                        for w, i, j in model.pair_weights())
    comp = list(range(n))
    current: dict[int, MoveCycle] = dict(enumerate(cycles))
    for _, _, _, i, j in pair_edges:
        if len(current) == 1:
            break
        ri, rj = _find(comp, i), _find(comp, j)
        if ri == rj:
            continue
        a, b = current.pop(ri), current[rj]
        t, e1, e2 = model.trade(ri, rj, a, b)
        log.append((t, e1[1], e2[1]))
        current[rj] = _splice(a, b, e1, e2)
        comp[ri] = rj
    return sorted(current.values(), key=lambda c: c.min_cell), log


def merge_cycles_mst(cycles) -> list[MoveCycle]:
    """Phase 3: fuse remaining cycles along a minimum spanning forest.

    Pair weights are the smallest destination-trade gap over shared types
    (_pair_gap); fusing two cycles adds twice that gap in travel.  Fusions
    happen in ascending weight order, which makes every realized gap equal
    its forest edge weight, so total added travel is exactly twice the
    forest weight, the minimum over all fusion schedules.
    """
    return fuse_cycles(cycles, _GapTrades)[0]


def group_sweep_cycles_por(cycles, model: CostModel = DEFAULT_COST) -> Plan:
    """Phase 4: emit the walk, reusing the labeled 1D sweep/switch engine."""
    cycles = sorted(cycles, key=lambda c: c.min_cell)
    dest: dict[int, int] = {}
    cell_cycles = []
    for cyc in cycles:
        for s, g in cyc.edges:
            dest[s] = g
        cell_cycles.append(tuple(s for s, _ in cyc.edges))
    return follow_cycles(tuple(cell_cycles), dest, switching=True)


def opt_plan_por(instance: TypedInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Minimum-operation, minimum-travel plan for a typed 1D instance.

    Runs the four phases in order.  Every cycle fusion the instance admits
    is performed, which is what makes the operation count minimal.

    Travel is minimal only for rest = 1: the walk enters each cycle at its
    leftmost cell, so with another rest cell it can travel more than the
    optimum (ROADMAP item 2).
    """
    _require_1d(instance)
    cycles = form_cycles(instance)
    cycles = merge_cycles(cycles)
    cycles = merge_cycles_mst(cycles)
    return group_sweep_cycles_por(cycles, model)


# --- greedy baseline --------------------------------------------------------

def greedy_plan(instance: Instance, model: CostModel = DEFAULT_COST) -> Plan:
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
    steps: list[PlanStep] = []
    emit = steps.append

    def nearest(cells):
        return min(cells, key=lambda c: (distance(dims, pos, c, model), c))

    while True:
        if held is None:
            misplaced = [c for c in dims.cells()
                         if config[c - 1] is not None and config[c - 1] != goal[c - 1]]
            if not misplaced:
                break
            cell = nearest(misplaced)
            emit(PlanStep(cell, pick))
            held, config[cell - 1] = config[cell - 1], None
        else:
            targets = [c for c in dims.cells()
                       if goal[c - 1] == held and config[c - 1] != held]
            cell = nearest(targets)
            if config[cell - 1] is None:
                emit(PlanStep(cell, place))
                config[cell - 1], held = held, None
            else:
                emit(PlanStep(cell, swap))
                held, config[cell - 1] = config[cell - 1], held
        pos = cell
    return Plan(tuple(steps))


def greedy_por(instance: TypedInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Greedy best-first baseline for typed 1D instances."""
    _require_1d(instance)
    return greedy_plan(instance, model)
