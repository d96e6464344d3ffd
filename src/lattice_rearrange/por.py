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
   cheapest trade between two components.  Each fusion swaps two
   destinations of one assignment, and the fused cycles are read off it
   once at the end.  TradeModel states the tie rule every model follows.
   Here the model scans move pairs in pure Python, so the 1D planners
   never load numpy; the typed 2D planner (lattice2d.merge_cycles_ptr)
   runs the same loop with a model that answers from per-type numpy
   matrices of the travel a trade adds.
4. group_sweep_cycles_por: walk the final cycles with the labeled 1D
   planner's single pass, lor.follow_cycles (nested entries, parking, and
   the hand-off at the farthest cell entered so far).

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
    TypedInstance,
    _cell_distance,
)
from .graphs import _find, _walk_orbits
from .lor import _require_1d, follow_cycles

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
    def min_cell(self) -> int:
        return self.edges[0][0]


def _cycles_from_assignment(assign: dict[int, int], types: dict[int, int]) -> list[MoveCycle]:
    """Decompose a destination assignment, a bijection on its sources that
    sends none to itself, into min-first move cycles: the orbit walk splits
    it laid over the identity on 1..max(assign), starting only at the
    moved cells, in increasing order."""
    sources = sorted(assign)
    pi = list(range(1, sources[-1] + 1)) if sources else []
    for s, g in assign.items():
        pi[s - 1] = g
    return [MoveCycle(tuple(zip(orbit, orbit[1:] + orbit[:1])), tuple(types[s] for s in orbit))
            for orbit in _walk_orbits(pi, sources)[0]]


def _misplaced_by_type(instance: TypedInstance) -> tuple[dict[int, list[int]],
                                                         dict[int, list[int]]]:
    """(sources, goals): per type, the misplaced cells holding it and the
    misplaced cells wanting it, each in cell order."""
    sources: dict[int, list[int]] = {}
    goals: dict[int, list[int]] = {}
    for cell, (have, want) in enumerate(zip(instance.start_types, instance.goal_types), start=1):
        if have != want:
            sources.setdefault(have, []).append(cell)
            goals.setdefault(want, []).append(cell)
    return sources, goals


def form_cycles(instance: TypedInstance) -> list[MoveCycle]:
    """Phase 1: leftmost-available matching of misplaced items to goals.

    Per type, the i-th misplaced item from the left goes to the i-th open
    goal cell from the left.  In-order pairing never crosses, which makes
    the per-type total distance minimal in 1D.
    """
    _require_1d(instance)
    sources, goals = _misplaced_by_type(instance)
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

    def trade(self, ri: int, rj: int) -> tuple[int, Edge, Edge]:
        """(type, e1, e2): the cheapest trade between the components rooted
        at ri and rj, e1 a move of ri's and e2 of rj's as they were.  The
        model makes the trade on its own moves; ri's component joins rj's."""


def _cheapest_trade(m1, m2, cost: TradeCost):
    """The same-type move pair (e1 of m1, e2 of m2) whose destination trade
    has the least cost(e1, e2), as (cost, type, e1, e2), by TradeModel's
    tie rule.  m1 and m2 list (move, type) pairs.  None when they share no
    type."""
    shared = {t for _, t in m1} & {t for _, t in m2}
    if not shared:
        return None
    best = None
    for e1, t in m1:
        if t not in shared:
            continue
        for e2, t2 in m2:
            if t2 == t:
                key = (cost(e1, e2), min(e1[0], e2[0]), max(e1[0], e2[0]))
                if best is None or key < best[0]:
                    best = (key, t, e1, e2)
    key, t, e1, e2 = best
    return key[0], t, e1, e2


class _GapTrades:
    """1D trade model: _pair_gap, scanned move pair by move pair.  Each
    component's (move, type) pairs are one list under its root."""

    def __init__(self, cycles):
        self.members = [list(zip(c.edges, c.edge_types)) for c in cycles]

    def pair_weights(self):
        members = self.members
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                trade = _cheapest_trade(members[i], members[j], _pair_gap)
                if trade is not None:
                    yield trade[0], i, j

    def trade(self, ri, rj):
        x, y = self.members[ri], self.members[rj]
        _, t, (s1, g1), (s2, g2) = _cheapest_trade(x, y, _pair_gap)
        x[x.index(((s1, g1), t))] = (s1, g2), t
        y[y.index(((s2, g2), t))] = (s2, g1), t
        self.members[rj] = x + y
        return t, (s1, g1), (s2, g2)


def fuse_cycles(cycles, trades: Callable[[list[MoveCycle]], TradeModel]):
    """Fuse cycles along a minimum spanning forest of trade costs.

    trades(cycles) builds the TradeModel over the cycles sorted by smallest
    source, so index order is min-cell order.  Each pair of cycles sharing
    a type weighs its cheapest trade; pairs are fused in ascending (weight,
    i, j) order, each fusion swapping the destinations of the model's
    cheapest trade between the two components in one assignment, the only
    state kept.  The fused cycles are read off it once, min-first and in
    min-cell order, whatever source a hand-built input cycle starts at.
    Returns (cycles, log), where each log entry is (type, goal_cell_1,
    goal_cell_2): the two goals that exchanged owners.
    """
    cycles = sorted(cycles, key=lambda c: min(c.edges))
    assign, types = _assignment_of(cycles)
    log: list[tuple[int, int, int]] = []
    if len(cycles) > 1:
        model = trades(cycles)
        comp = list(range(len(cycles)))
        for _, i, j in sorted(model.pair_weights()):
            if len(log) == len(cycles) - 1:
                break
            ri, rj = _find(comp, i), _find(comp, j)
            if ri == rj:
                continue
            t, (s1, g1), (s2, g2) = model.trade(ri, rj)
            assign[s1], assign[s2] = g2, g1
            log.append((t, g1, g2))
            comp[ri] = rj
    return _cycles_from_assignment(assign, types), log


def merge_cycles_mst(cycles) -> list[MoveCycle]:
    """Phase 3: fuse remaining cycles along a minimum spanning forest.

    Pair weights are the smallest destination-trade gap over shared types
    (_pair_gap); fusing two cycles adds twice that gap in travel.  Fusions
    happen in ascending weight order, which makes every realized gap equal
    its forest edge weight, so total added travel is exactly twice the
    forest weight, the minimum over all fusion schedules.
    """
    return fuse_cycles(cycles, _GapTrades)[0]


def _orbits(cycles) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """(cells, dest): each cycle's source cells, cycles in min-cell order,
    and the destination of every source, as the walk emitters read them."""
    cycles = sorted(cycles, key=lambda c: c.min_cell)
    dest = {s: g for cyc in cycles for s, g in cyc.edges}
    return tuple(tuple(s for s, _ in cyc.edges) for cyc in cycles), dest


def group_sweep_cycles_por(cycles) -> Plan:
    """Phase 4: emit the walk with the labeled 1D planner's engine."""
    cells, dest = _orbits(cycles)
    return follow_cycles(cells, dest)


def opt_plan_por(instance: TypedInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Minimum-operation, minimum-travel plan for a typed 1D instance.

    Runs the four phases in order.  Every cycle fusion the instance admits
    is performed, which is what makes the operation count minimal.

    Travel is minimal only for rest = 1: the walk enters each cycle at its
    leftmost cell, so with another rest cell it can travel more than the
    optimum (ROADMAP item 2).
    """
    cycles = form_cycles(instance)
    cycles = merge_cycles(cycles)
    cycles = merge_cycles_mst(cycles)
    return group_sweep_cycles_por(cycles)


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
    d = _cell_distance(dims, model)
    goal = list(instance.goal_config())
    config: list = list(instance.start_config())
    pos = instance.rest
    held = None
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    cells: list[int] = []
    actions: list[Action] = []
    at, act = cells.append, actions.append

    def nearest(candidates):
        return min(candidates, key=lambda c: (d(pos, c), c))

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


def greedy_por(instance: TypedInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Greedy best-first baseline for typed 1D instances."""
    _require_1d(instance)
    return greedy_plan(instance, model)
