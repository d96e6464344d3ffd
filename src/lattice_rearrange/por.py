"""Planner for partially labeled (typed) 1D instances.

Items of the same type are interchangeable, so the planner first decides
which item goes to which goal cell and only then plans motion.  Three
phases pass one destination table: dest[cell], the goal of cell's item.

1. form_cycles: match each misplaced item to the leftmost free goal cell of
   its type.  In 1D this in-order pairing minimizes summed move distance per
   type; _form writes the table for both typed planners.
2. merge_cycles_mst: fuse cycles, each fusion saving one operation, by
   trading the destinations of two same-type moves of different cycles.
   The trade adds twice the gap between the moves' spans [min(s, g),
   max(s, g)], so a minimum spanning forest over these gaps reaches the
   fewest cycles at the least added travel.  Overlapping spans trade for
   free: their fusions are the forest's weight-0 prefix, which
   merge_cycles runs alone.  fuse_cycles builds the forest, Kruskal's loop
   over the cycle pairs a TradeModel offers, swapping two destinations of
   the table in place per fusion.  The 1D model offers one candidate
   per move, per type each span paired with the earlier span reaching
   farthest right, and runs in pure Python, so the 1D planners never load
   numpy; the typed 2D planner (lattice2d.plan_ptr) runs the same loop
   with a model that answers from per-type numpy matrices.
3. group_sweep_cycles_por: walk the final cycles with the labeled 1D
   planner's single pass, lor.follow_cycles (nested entries, parking, and
   the hand-off at the farthest cell entered so far), which reads each
   cycle only as its first and largest cell.

MoveCycles exist only at the public phase functions; cycles passed in
enter through one check, _assignment_of, which writes their table.

The resulting plan has the fewest operations achievable, and, when the
arm rests at cell 1, the least travel among such plans (ROADMAP item 2).
A best-first greedy baseline is included for benchmark comparisons.
"""

from __future__ import annotations

import math
from operator import index
from typing import Callable, Iterable, Protocol

from .core import (
    Action,
    CostModel,
    DEFAULT_COST,
    Instance,
    MalformedPermutation,
    Plan,
    TypedInstance,
    _Value,
    _cell_distance,
    _require_input,
)
from .graphs import _cycle_spans, _find, _walk_orbits
from .lor import follow_cycles

Edge = tuple[int, int]


class MoveCycle(_Value):
    """A closed chain of item moves: each move's destination is the next
    move's source.  edge_types[j] is the type carried by edges[j].  Every
    phase reads a chain only as its moves, whatever source it starts at."""

    __slots__ = ("edges", "edge_types")
    edges: tuple[tuple[int, int], ...]
    edge_types: tuple[int, ...]


def _move_cycles(dest, types) -> list[MoveCycle]:
    """The MoveCycle of each orbit of a table: a public phase's output."""
    return [MoveCycle(tuple(zip(orbit, orbit[1:] + orbit[:1])), tuple(types[s] for s in orbit))
            for orbit in _walk_orbits(dest)]


def _assignment_of(cycles, n: float = math.inf) -> tuple[list[int], list[int]]:
    """(dest, types) of caller-supplied cycles, tables over 0..max cell in
    which an unmoved cell maps to itself.  MalformedPermutation names the
    first cycle with a cell operator.index refuses, that repeats a source
    (its own or an earlier cycle's), whose goals are not its sources, whose
    edge_types differ in length, or with a cell outside 1..n (the 1D phases
    take no dims, so they check only the lower end)."""
    moves: dict[int, tuple[int, int]] = {}
    for cyc in cycles:
        try:
            edges = [(index(s), index(g)) for s, g in cyc.edges]
        except TypeError:
            raise MalformedPermutation(f"a cycle with a non-integer cell: {cyc!r}") from None
        sources = {s for s, _ in edges}
        if (len(sources) < len(edges) or not moves.keys().isdisjoint(sources)
                or sources != {g for _, g in edges} or len(cyc.edge_types) != len(edges)):
            raise MalformedPermutation(f"not a cycle of moves from unused sources: {cyc!r}")
        # the goals are the sources, so checking the sources covers every cell
        if sources and not (1 <= min(sources) and max(sources) <= n):
            raise MalformedPermutation(f"a cycle with a cell off the lattice: {cyc!r}")
        moves.update((s, (g, t)) for (s, g), t in zip(edges, cyc.edge_types))
    dest = list(range(max(moves, default=0) + 1))
    types = [0] * len(dest)
    for s, (g, t) in moves.items():
        dest[s], types[s] = g, t
    return dest, types


def _form(instance: TypedInstance, pair=lambda sources, goals: goals):
    """Phase 1 of both typed planners: (dest, types), the paired goals
    written into the identity on 0..n.  Per type, pair gets the misplaced
    cells holding it and those wanting it, each in cell order, and reorders
    the latter so the i-th source goes to the i-th goal."""
    sources: dict[int, list[int]] = {}
    goals: dict[int, list[int]] = {}
    for cell, (have, want) in enumerate(zip(instance.start_types, instance.goal_types), start=1):
        if have != want:
            sources.setdefault(have, []).append(cell)
            goals.setdefault(want, []).append(cell)
    dest = list(range(instance.dims.n + 1))
    for t, srcs in sources.items():
        for s, g in zip(srcs, pair(srcs, goals[t])):
            dest[s] = g
    return dest, (0, *instance.start_types)


def form_cycles(instance: TypedInstance) -> list[MoveCycle]:
    """Phase 1: leftmost-available matching of misplaced items to goals.

    Per type, the i-th misplaced item from the left goes to the i-th open
    goal cell from the left.  In-order pairing never crosses, which makes
    the per-type total distance minimal in 1D.
    """
    _require_input(instance, "typed", "1D")
    return _move_cycles(*_form(instance))


def _fused(cycles, trades, _cap: float = math.inf,
           n: float = math.inf) -> tuple[list[MoveCycle], list]:
    """fuse_cycles over caller-supplied cycles with cells in 1..n:
    (fused MoveCycles, log)."""
    dest, types = _assignment_of(cycles, n)
    log = fuse_cycles(dest, types, trades, _cap)
    return _move_cycles(dest, types), log


def merge_cycles(cycles) -> list[MoveCycle]:
    """Phase 2 up to its first paid fusion: perform every free fusion.

    Two cycles fuse for free when same-type moves of theirs have
    overlapping spans.  This is the weight-0 prefix of merge_cycles_mst's
    forest, so all cycles linked by a chain of overlapping same-type spans
    end up fused.  Input contract: the trades cost nothing when each type's
    moves are its in-order pairing, as on form_cycles output (_GapTrades);
    on other cycles one may cost travel, but the fusion is still legal.
    """
    return _fused(cycles, _GapTrades, _cap=0)[0]


class TradeModel(Protocol):
    """What fuse_cycles asks about destination trades.

    A trade exchanges the destinations of two same-type moves e1 = (s1, g1)
    and e2 = (s2, g2) of different cycles, which fuses the cycles into one.
    The 1D model trades a pair that costs the weight of the cycle pair
    being joined; the 2D model the cheapest pair between the two
    components, with the least key (cost, min(s1, s2), max(s1, s2)).
    A model is built from (orbits, dest, types); cycle i is orbits[i].
    """

    def pair_weights(self) -> Iterable[tuple[float, int, int]]:
        """(weight, i, j), at most once per pair i < j of the model's
        cycles: enough pairs for Kruskal to find a minimum spanning forest
        over the cheapest trade of every pair that shares a type."""

    def trade(self, ri: int, rj: int, i: int, j: int) -> tuple[int, Edge, Edge]:
        """(type, e1, e2): a trade between the components rooted at ri and
        rj, joined by the pair (i, j), e1 a move of ri's and e2 of rj's as
        they were.  fuse_cycles then swaps the two destinations in the
        table; ri's component joins rj's."""


class _GapTrades:
    """1D trade model: a trade costs the gap between the two moves' spans
    [min(s, g), max(s, g)], half the distance it adds, or 0 where they
    overlap.

    Candidates: per type, the spans sorted by left end, each span K paired
    with the earlier span J reaching farthest right.  For any other
    earlier span I, d(K, J) <= d(K, I) and d(I, J) <= d(I, K), so a
    minimum spanning forest never needs (I, K) (Kruskal, Proc. AMS 7,
    1956).  A cycle pair keeps its lightest candidate and the two cells it
    names: J's right end and K's left end.

    A trade swaps the destinations of the moves now holding those cells,
    as source or as goal.  A source keeps its move and a goal changes
    hands only inside a component, so the two moves lie in the two
    components.  They need not be J and K: (1, 2) and (5, 6) trade into
    (1, 6) and (5, 2), and [2, 5] no longer reaches cell 6.  But they cover
    the two cells, so a paid trade costs at most its weight.  On
    form_cycles output each type's moves are its in-order pairing, so a
    weight-0 candidate joins two adjacent moves that overlap and point the
    same way; each component holds a contiguous stretch of that run with
    its own goals, and both moves traded reach across K's left end, so the
    trade is free.  The tests check that every trade there costs exactly
    its weight.  On other input every candidate still fuses its two
    components, but a trade may cost more or less than its weight.
    """

    def __init__(self, orbits, dest: list[int], types):
        # the table fuse_cycles swaps in place after each trade
        self.goal = dest
        self.owner = [0] * len(dest)
        spans: dict[int, list] = {}
        for c, orbit in enumerate(orbits):
            for s in orbit:
                g = dest[s]
                self.owner[g] = s
                # each end as (cell, holder key): s for a source, -g for a
                # goal, whose holder is its owner
                lo, hi = sorted(((s, s), (g, -g)))
                spans.setdefault(types[s], []).append((lo, hi, c))
        self.best: dict[tuple[int, int], tuple] = {}
        for t, row in spans.items():
            row.sort()
            _, far, c_far = row[0]
            for lo, hi, c in row[1:]:
                if c != c_far:
                    gap = max(0, lo[0] - far[0])
                    pair, ends = (c_far, c), (far[1], lo[1])
                    if c < c_far:
                        pair, ends = pair[::-1], ends[::-1]
                    if pair not in self.best or gap < self.best[pair][0]:
                        self.best[pair] = gap, t, *ends
                if hi[0] > far[0]:
                    far, c_far = hi, c

    def pair_weights(self):
        return ((w, i, j) for (i, j), (w, *_) in self.best.items())

    def trade(self, ri, rj, i, j):
        _, t, h1, h2 = self.best[i, j]
        s1 = h1 if h1 > 0 else self.owner[-h1]
        s2 = h2 if h2 > 0 else self.owner[-h2]
        g1, g2 = self.goal[s1], self.goal[s2]
        self.owner[g1], self.owner[g2] = s2, s1
        return t, (s1, g1), (s2, g2)


def fuse_cycles(dest, types, trades: Callable[..., TradeModel], _cap: float = math.inf):
    """Fuse the cycles of the table dest along a minimum spanning forest of
    trade costs, in place.

    One orbit walk numbers the cycles, min-first and in min-cell order, and
    trades(orbits, dest, types) builds the TradeModel over them.  Its pairs
    are fused in ascending (weight, i, j) order, up to weight _cap, each
    fusion swapping the destinations of the model's trade between the two
    components.  With the 1D model each trade costs its pair's weight
    (_GapTrades), so the fusions add exactly the forest weight.  Returns
    the log: per fusion (type, goal_cell_1, goal_cell_2), the two goals
    that exchanged owners.
    """
    orbits = _walk_orbits(dest)
    log: list[tuple[int, int, int]] = []
    if len(orbits) > 1:
        model = trades(orbits, dest, types)
        comp = list(range(len(orbits)))
        for w, i, j in sorted(model.pair_weights()):
            if w > _cap or len(log) == len(orbits) - 1:
                break
            ri, rj = _find(comp, i), _find(comp, j)
            if ri == rj:
                continue
            t, (s1, g1), (s2, g2) = model.trade(ri, rj, i, j)
            dest[s1], dest[s2] = g2, g1
            log.append((t, g1, g2))
            comp[ri] = rj
    return log


def merge_cycles_mst(cycles) -> list[MoveCycle]:
    """Phase 2: fuse cycles along a minimum spanning forest.

    A pair of cycles weighs the least gap between the spans of their
    same-type moves, and fusing them adds twice that gap in travel.  Pairs
    are joined in ascending weight, free fusions first.  On form_cycles
    output each trade costs exactly its forest edge's weight: the moves
    traded cover the candidate's two cells (_GapTrades), and Kruskal order
    has already joined every lighter pair.  So the total added travel is
    twice the forest weight, the minimum over all fusion schedules.
    Input contract: on cycles that are not each type's in-order pairing, a
    paid trade can cost more than the forest weight; the fusion is legal.
    """
    return _fused(cycles, _GapTrades)[0]


def group_sweep_cycles_por(cycles) -> Plan:
    """Phase 3: emit the walk with the labeled 1D planner's engine."""
    dest, _ = _assignment_of(cycles)
    return follow_cycles(*_cycle_spans(dest), dest)


def opt_plan_por(instance: TypedInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Minimum-operation, minimum-travel plan for a typed 1D instance.

    Runs the three phases in order.  Every cycle fusion the instance admits
    is performed, which is what makes the operation count minimal.

    Travel is minimal only for rest = 1: the walk enters each cycle at its
    leftmost cell, so with another rest cell it can travel more than the
    optimum (ROADMAP item 2).
    """
    _require_input(instance, "typed", "1D")
    dest, types = _form(instance)
    fuse_cycles(dest, types, _GapTrades)
    return follow_cycles(*_cycle_spans(dest), dest)


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
    _require_input(instance, "typed", "1D")
    return greedy_plan(instance, model)
