"""Planners for 2D lattices.

Exact travel optimization is out of reach here (it embeds the Euclidean
traveling-salesman problem), so these planners settle for the minimum
operation count plus travel that is near-optimal for typical instances.

Labeled instances get two planners.  The sweep planner resolves each
displacement cycle on its own, visiting cycles in index order.  The
switching planner instead asks, for every ordered pair of cycles, how
cheaply the walk along one cycle could detour to an entry cell of the
other; a minimum spanning arborescence over these detour costs (rooted at
the rest cell) decides which cycle is resolved inside which leg of which
other cycle.  Entering a cycle mid-leg parks the carried item at the entry
cell; the closing swap there takes it back.  Whenever the scheduled
detours happen to lose to the plain sweep, the sweep plan is returned, so
the switching planner never travels farther than the sweep.

Typed instances run a three-phase pipeline: per-type minimum-cost
assignment of misplaced items to free goal cells (cycle formation), a
single spanning-forest round of destination trades that fuses every pair
of fusable cycles (fewest operations; the 1D planner's engine,
por.fuse_cycles, weighing each trade by the travel it adds, read off
per-type trade-delta matrices), and an arborescence-guided walk that
resolves the surviving cycles with the same parking mechanism.

Arc weights, assignment costs and trade deltas read every distance off
one table of lattice offsets per call, holding distance()'s floats.  A
goal-type layout helper and the normalized displacement statistic used by
the benchmarks live here too.  numpy is imported only inside the functions
that run numpy code: the table, `_arcs`, `form_cycles_ptr` and the 2D
trade model.  `sweep_cycles_ltr`, `cycle_edge_length` and `greedy_2d` run
without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import (
    Action,
    CostModel,
    DEFAULT_COST,
    Instance,
    LabeledInstance,
    LatticeDims,
    Plan,
    PlanStep,
    TypedInstance,
    _manhattan_leg,
    distance,
    plan_cost,
)
from .graphs import WeightedGraph, min_arborescence, min_cost_assignment, permutation_cycles
from .lor import _dest_table, follow_cycles
from .por import MoveCycle, _cycles_from_assignment, fuse_cycles, greedy_plan

_INF = math.inf

# cap on the number of matrix entries in one slab of cell-pair distances
_SLAB_ENTRIES = 4_000_000


def _require_2d(instance: Instance) -> None:
    if instance.dims.m2 == 1:
        raise ValueError("this planner handles 2D instances only (use the 1D planners for m2 = 1)")


# --- geometry helpers -------------------------------------------------------

def _offset_table(dims: LatticeDims, metric: str) -> np.ndarray:
    """Distance of every offset |dr| < m1, |dc| < m2, at its code difference
    (see _codes) modulo the table size: d(a, b) = table[code(a) - code(b)],
    a negative difference reading from the end.  The < 4n entries are
    np.sqrt of the exact integer dr*dr + dc*dc, which rounds as math.hypot
    does in distance() (or |dr| + |dc|)."""
    import numpy as np
    dr = np.arange(1 - dims.m1, dims.m1)
    dc = np.arange(1 - dims.m2, dims.m2)[:, None]
    table = np.abs(dc) + np.abs(dr) if metric == "manhattan" else np.sqrt(dc * dc + dr * dr)
    return np.roll(table.astype(float).ravel(), -(table.size // 2))


def _codes(dims: LatticeDims, cells) -> np.ndarray:
    """intp code col*(2*m1 - 1) + row of each cell: the code difference of
    two cells, dc*(2*m1 - 1) + dr, is distinct for every offset."""
    import numpy as np
    col, row = np.divmod(np.asarray(cells, dtype=np.intp) - 1, dims.m1)
    return col * (2 * dims.m1 - 1) + row


def _segment_mins(block: np.ndarray, starts: np.ndarray):
    """Least entry of each column segment block[:, starts[b]:starts[b+1]]
    and its earliest (row, column) in row-major order."""
    import numpy as np
    per_row = np.minimum.reduceat(block, starts, axis=1)
    least = per_row.min(axis=0)
    ia = (per_row == least).argmax(axis=0)
    cols = np.arange(block.shape[1])
    seg = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(cols)))
    hit = np.where(block[ia[seg], cols] == least[seg], cols, len(cols))
    return least, ia, np.minimum.reduceat(hit, starts) - starts


# --- displacement statistic -------------------------------------------------

def cycle_edge_length(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> float:
    """Summed length of every displacement edge (cell to its item's home).

    This is exactly the within-cycle travel that any cycle-following plan
    must spend; planners differ only in travel between cycles.
    """
    m1 = instance.dims.m1
    leg = _manhattan_leg if model.metric == "manhattan" else math.hypot
    legs = []
    for cell, item in enumerate(instance.pi, start=1):
        if item != cell:
            # distance(), with each cell decoded once
            col_a, row_a = divmod(cell - 1, m1)
            col_b, row_b = divmod(item - 1, m1)
            legs.append(leg(row_a - row_b, col_a - col_b))
    return sum(legs)


def cycle_distance_statistic(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> float:
    """cycle_edge_length normalized by item count times the longer side.

    Dimensionless, so random instances of different sizes land on the same
    scale: uniform square instances concentrate near 0.5214 (the mean
    distance between two uniform points in a square), within-column
    shuffles near 1/3.
    """
    dims = instance.dims
    return cycle_edge_length(instance, model) / (dims.n * max(dims.m1, dims.m2))


# --- nested emission along an arborescence ----------------------------------

def _emit_nested(root_kids, kids, nxt) -> Plan:
    """Walk every cycle, entering nested cycles mid-leg with parking.

    root_kids: [(entry_cell, cycle_id), ...] resolved one after another,
    each opened with Pick and closed with Place.  kids[cid][cell] lists
    (entry_cell, child_id) detours to serve while traversing the leg that
    leaves `cell`.  nxt maps each cycle cell to the next cell along its
    orbit.  Iterative frames; nesting can exceed the recursion limit.
    """
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    steps: list[PlanStep] = []
    emit = steps.append
    for entry0, cid0 in root_kids:
        emit(PlanStep(entry0, pick))
        # frame: [cycle id, entry cell, target to resume after closing,
        #         detours pending on the current leg]
        stack = [[cid0, entry0, 0, list(kids.get(cid0, {}).get(entry0, ()))]]
        g = nxt[entry0]
        while stack:
            frame = stack[-1]
            if frame[3]:
                child_entry, child_cid = frame[3].pop(0)
                emit(PlanStep(child_entry, swap))
                stack.append([child_cid, child_entry, g,
                              list(kids.get(child_cid, {}).get(child_entry, ()))])
                g = nxt[child_entry]
                continue
            if g == frame[1]:
                stack.pop()
                if stack:
                    # deposit this cycle's last item, take back the parked one
                    emit(PlanStep(g, swap))
                    g = frame[2]
                else:
                    emit(PlanStep(g, place))
            else:
                emit(PlanStep(g, swap))
                frame[3] = list(kids.get(frame[0], {}).get(g, ()))
                g = nxt[g]
    return Plan(tuple(steps))


def _arcs(dims: LatticeDims, cycle_cells, rest: int, metric: str, detour: bool):
    """Arcs of the scheduling graph over {0 = rest} u {b + 1 = cycle b}:
    (edges, meta), meta[(u, v)] = (exit cell, entry cell) of each arc.

    With detour=True an arc a -> b weighs the cheapest detour from a leg
    u -> next(u) of cycle a through a cell e of cycle b,
    d(u,e) + d(e,next(u)) - d(u,next(u)), and rest arcs charge the way there
    and back; otherwise arcs weigh the nearest cell pair.

    Each source cycle gets one matrix of distances from its cells (plus the
    wrapped next cell) to the cells of all other cycles, read off the offset
    table in slabs of at most about _SLAB_ENTRIES entries; every target's
    minimum comes from one segmented reduction per slab.  Ties go to the
    earliest (source cell, target cell) pair in row-major order, and an
    earlier slab wins a tie with a later one.
    """
    import numpy as np
    k = len(cycle_cells)
    lengths = np.array([len(cells) for cells in cycle_cells])
    starts = np.cumsum(lengths) - lengths
    table = _offset_table(dims, metric)
    code = _codes(dims, [c for cells in cycle_cells for c in cells])
    step = max(1, _SLAB_ENTRIES // len(code))

    rest_w, _, rest_ib = _segment_mins(table[_codes(dims, [rest])[:, None] - code], starts)
    if detour:
        rest_w = 2.0 * rest_w
    edges = [(0, b + 1, w) for b, w in enumerate(rest_w.tolist())]
    meta = {(0, b + 1): (rest, cycle_cells[b][ib]) for b, ib in enumerate(rest_ib.tolist())}
    for a in range(k):
        n_a, at = int(lengths[a]), int(starts[a])
        own = code[at:at + n_a]
        # the slab spans the cells of every other cycle
        others = np.concatenate((code[:at], code[at + n_a:]))
        other_starts = np.r_[starts[:a], starts[a + 1:] - n_a]
        if detour:
            base = table[own - np.roll(own, -1)]
        w = np.full(k - 1, _INF)
        ia = np.zeros(k - 1, dtype=np.int64)
        ib = np.zeros(k - 1, dtype=np.int64)
        for lo in range(0, n_a, step):
            hi = min(lo + step, n_a)
            # a detour slab also holds the row of each leg's next cell
            rows = np.arange(lo, hi + 1 if detour else hi) % n_a
            block = table[own[rows, None] - others]
            if detour:
                block = block[:-1] + block[1:]
                block -= base[lo:hi, None]
            sw, sia, sib = _segment_mins(block, other_starts)
            better = sw < w
            w[better], ia[better], ib[better] = sw[better], sia[better] + lo, sib[better]
        targets = [b for b in range(k) if b != a]
        for b, wb, iab, ibb in zip(targets, w.tolist(), ia.tolist(), ib.tolist()):
            edges.append((a + 1, b + 1, wb))
            meta[(a + 1, b + 1)] = (cycle_cells[a][iab], cycle_cells[b][ibb])
    return edges, meta


def _schedule(dims: LatticeDims, cycle_cells, rest: int, model: CostModel, detour: bool):
    """Arborescence over {rest} u cycles with the weights of _arcs (with
    detour=False, the classic double-cover bound); returns (root_kids, kids)
    for _emit_nested.
    """
    edges, meta = _arcs(dims, cycle_cells, rest, model.metric, detour)
    tree = min_arborescence(WeightedGraph(tuple(range(len(cycle_cells) + 1)), tuple(edges)),
                            root=0)
    root_kids = []
    kids: dict[int, dict[int, list]] = {}
    for u, v, w in tree:
        exit_cell, entry_cell = meta[(u, v)]
        if u == 0:
            root_kids.append((distance(dims, rest, entry_cell, model), entry_cell, v - 1))
        else:
            kids.setdefault(u - 1, {}).setdefault(exit_cell, []).append(
                (distance(dims, exit_cell, entry_cell, model), entry_cell, v - 1))
    root_kids.sort()
    for per_exit in kids.values():
        for lst in per_exit.values():
            lst.sort()
    return ([(e, c) for _, e, c in root_kids],
            {cid: {cell: [(e, c) for _, e, c in lst] for cell, lst in per.items()}
             for cid, per in kids.items()})


# --- labeled planners -------------------------------------------------------

def sweep_cycles_ltr(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Resolve each displacement cycle separately, in cell-index order.

    Operation count is minimal (one per misplaced item plus one per
    cycle); travel between cycles is whatever the index order happens to
    cost.
    """
    _require_2d(instance)
    cycles = permutation_cycles(instance.pi).cycles
    dest = _dest_table(instance)
    return follow_cycles(cycles, dest, switching=False)


def switch_cycles_ltr(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Resolve cycles nested inside each other's legs where that is cheap.

    Same operation count as the sweep.  Travel never exceeds the sweep's:
    the arborescence schedule is kept only when it actually wins.
    """
    _require_2d(instance)
    cycles = permutation_cycles(instance.pi).cycles
    if not cycles:
        return Plan()
    dims = instance.dims
    dest = _dest_table(instance)
    root_kids, kids = _schedule(dims, cycles, instance.rest, model, detour=True)
    switched = _emit_nested(root_kids, kids, dest)
    sweep = follow_cycles(cycles, dest, switching=False)
    if plan_cost(instance, switched, model).travel <= plan_cost(instance, sweep, model).travel:
        return switched
    return sweep


# --- typed pipeline ---------------------------------------------------------

def form_cycles_ptr(instance: TypedInstance) -> list[MoveCycle]:
    """Phase 1: per-type minimum-cost assignment of items to goal cells.

    Misplaced cells holding type t are matched to free goal cells of type
    t so the summed straight-line distance is minimal; the chosen moves
    close into displacement cycles.
    """
    dims = instance.dims
    sources: dict[int, list[int]] = {}
    goals: dict[int, list[int]] = {}
    for cell, (have, want) in enumerate(zip(instance.start_types, instance.goal_types), start=1):
        if have != want:
            sources.setdefault(have, []).append(cell)
            goals.setdefault(want, []).append(cell)
    assign: dict[int, int] = {}
    types: dict[int, int] = {}
    table = _offset_table(dims, "euclidean")
    for t, srcs in sorted(sources.items()):
        dsts = goals[t]
        # distance()'s floats: ties and the tie-break are unchanged
        cost = table[_codes(dims, srcs)[:, None] - _codes(dims, dsts)]
        chosen, _ = min_cost_assignment(cost)
        for s, j in zip(srcs, chosen):
            assign[s] = dsts[j]
            types[s] = t
    return _cycles_from_assignment(assign, types)


def _trade_deltas(table, m1, l1, m2, l2) -> np.ndarray:
    """Travel added by trading the destinations of moves m1 and m2, given
    on their last axis as (source code, goal code), of lengths l1 and l2,
    broadcast together: d(s1,g2) + d(s2,g1) - d(s1,g1) - d(s2,g2), summed
    in that order: the floats of that sum over distance()."""
    delta = table[m1[..., 0] - m2[..., 1]]
    delta += table[m2[..., 0] - m1[..., 1]]
    delta -= l1
    delta -= l2
    return delta


class _DeltaTrades:
    """2D trade model (por.TradeModel): a trade costs the travel it adds.

    Moves are kept type-major, each type's in cycle order, as rows of
    (source code, goal code) with their lengths, read once.  A type's pair
    weights are its delta matrix over all its moves, built in row slabs of
    at most about _SLAB_ENTRIES entries and reduced to per-cycle-pair
    minima with segment minima.  A fusion's trade is the least entry of the
    two components' same-type blocks, evaluated on demand in chunks; only
    entries equal to the least go through the tie rule.  Types held by one
    cycle never trade and are left out.
    """

    def __init__(self, dims: LatticeDims, cycles):
        import numpy as np
        moves: dict[int, list] = {}
        for c, cyc in enumerate(cycles):
            for (s, g), t in zip(cyc.edges, cyc.edge_types):
                moves.setdefault(t, []).append((c, s, g))
        runs = [(t, m) for t, m in sorted(moves.items()) if m[0][0] != m[-1][0]]
        flat = [move for _, m in runs for move in m]
        self.types = [t for t, _ in runs]
        sizes = [len(m) for _, m in runs]
        self.kind = np.repeat(np.arange(len(runs)), sizes)
        # a trade query's chunk pairs at most as many moves as the per-type
        # delta matrices have entries, and at most _SLAB_ENTRIES
        self.budget = min(_SLAB_ENTRIES, sum(e * e for e in sizes))
        self.cyc = np.array([c for c, _, _ in flat], dtype=np.int64)
        self.src = [s for _, s, _ in flat]
        self.goal = [g for _, _, g in flat]
        self.table = _offset_table(dims, "euclidean")
        self.moves = np.column_stack([_codes(dims, self.src), _codes(dims, self.goal)])
        self.length = self.table[self.moves[:, 0] - self.moves[:, 1]]
        # each component's moves, under the root fuse_cycles gives it
        by_cycle = np.argsort(self.cyc, kind="stable")
        self.members = np.split(by_cycle, np.cumsum(np.bincount(self.cyc, minlength=len(cycles)))[:-1])

    def pair_weights(self):
        import numpy as np
        if not self.types:
            return []
        # the runs of one (type, cycle): the segments of the segment minima
        seg = np.flatnonzero(np.r_[True, (self.cyc[1:] != self.cyc[:-1])
                                   | (self.kind[1:] != self.kind[:-1])])
        seg_at = np.searchsorted(self.kind[seg], np.arange(len(self.types) + 1)).tolist()
        cuts = seg.tolist() + [len(self.cyc)]
        ws, ii, jj = [], [], []
        for a, b in zip(seg_at[:-1], seg_at[1:]):
            moves = self.moves[cuts[a]:cuts[b]]
            length = self.length[cuts[a]:cuts[b]]
            starts = seg[a:b] - cuts[a]
            step = max(1, _SLAB_ENTRIES // len(moves))
            per_row = np.empty((len(moves), b - a))
            for lo in range(0, len(moves), step):
                block = _trade_deltas(self.table, moves[lo:lo + step, None],
                                      length[lo:lo + step, None], moves, length)
                per_row[lo:lo + step] = np.minimum.reduceat(block, starts, axis=1)
            ids = self.cyc[seg[a:b]]
            ws.append(np.minimum.reduceat(per_row, starts, axis=0).ravel())
            ii.append(np.repeat(ids, b - a))
            jj.append(np.tile(ids, b - a))
        w, i, j = np.concatenate(ws), np.concatenate(ii), np.concatenate(jj)
        upper = i < j
        w, i, j = w[upper], i[upper], j[upper]
        # a pair sharing several types weighs its least entry over them
        key = i * len(self.members) + j
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.r_[True, key[order][1:] != key[order][:-1]])
        w = np.minimum.reduceat(w[order], first)
        return zip(w.tolist(), i[order[first]].tolist(), j[order[first]].tolist())

    def trade(self, ri, rj, a, b):
        import numpy as np
        x, y = self.members[ri], self.members[rj]
        step = max(1, self.budget // len(y))
        best = None
        for lo in range(0, len(x), step):
            rows = x[lo:lo + step]
            at_x, at_y = np.nonzero(self.kind[rows, None] == self.kind[None, y])
            if not len(at_x):
                continue
            xs, ys = rows[at_x], y[at_y]
            delta = _trade_deltas(self.table, self.moves[xs], self.length[xs],
                                  self.moves[ys], self.length[ys])
            least = float(delta.min())
            if best is not None and least > best[0]:
                continue
            hit = np.flatnonzero(delta == least)
            for x1, y1 in zip(xs[hit].tolist(), ys[hit].tolist()):
                s1, s2 = self.src[x1], self.src[y1]
                found = (least, min(s1, s2), max(s1, s2), x1, y1)
                if best is None or found < best:
                    best = found
        x1, y1 = best[3:]
        e1, e2 = (self.src[x1], self.goal[x1]), (self.src[y1], self.goal[y1])
        self.goal[x1], self.goal[y1] = e2[1], e1[1]
        pair = [x1, y1]
        self.moves[pair, 1] = self.moves[[y1, x1], 1]
        self.length[pair] = self.table[self.moves[pair, 0] - self.moves[pair, 1]]
        self.members[rj] = np.concatenate((x, y))
        return self.types[self.kind[x1]], e1, e2


def _merge_cycles_ptr_logged(cycles, dims: LatticeDims):
    """merge_cycles_ptr plus the log of goal trades fuse_cycles performed.

    The log exists so tests can check how far trades reach; the public
    wrapper drops it.
    """
    return fuse_cycles(cycles, functools.partial(_DeltaTrades, dims))


def merge_cycles_ptr(cycles, dims: LatticeDims) -> list[MoveCycle]:
    """Phase 2: fuse every pair of fusable cycles, cheapest trades first.

    Unlike the 1D pipeline there is no free-fusion phase: trades cost
    travel in general, so a single spanning-forest round (weights = least
    added travel per fusion) does all the merging.  Afterward no two
    remaining cycles share a type, which is what makes the operation count
    minimal.
    """
    merged, _ = _merge_cycles_ptr_logged(cycles, dims)
    return merged


def sweep_cycles_ptr(cycles, dims: LatticeDims, rest: int = 1,
                     model: CostModel = DEFAULT_COST) -> Plan:
    """Phase 3: walk the cycles along a nearest-entry arborescence.

    Arcs weigh the closest cell pair between cycles (and from the rest
    cell); the walk serves each cycle on first entry with parking, so
    travel between cycles stays within twice the arborescence weight.
    """
    cycles = sorted(cycles, key=lambda c: c.min_cell)
    if not cycles:
        return Plan()
    nxt: dict[int, int] = {}
    cell_lists = []
    for cyc in cycles:
        for s, g in cyc.edges:
            nxt[s] = g
        cell_lists.append(tuple(s for s, _ in cyc.edges))
    root_kids, kids = _schedule(dims, cell_lists, rest, model, detour=False)
    return _emit_nested(root_kids, kids, nxt)


def plan_ptr(instance: TypedInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Fewest-operation plan for a typed 2D instance.

    Travel is not exactly minimal (that is intractable) but stays close
    for common goal layouts: cycle formation is distance-minimal per type
    and the later phases add comparatively little.
    """
    _require_2d(instance)
    cycles = form_cycles_ptr(instance)
    cycles = merge_cycles_ptr(cycles, instance.dims)
    return sweep_cycles_ptr(cycles, instance.dims, instance.rest, model)


def greedy_2d(instance: Instance, model: CostModel = DEFAULT_COST) -> Plan:
    """Best-first baseline for labeled or typed 2D instances."""
    _require_2d(instance)
    return greedy_plan(instance, model)


# --- goal-type layouts ------------------------------------------------------

@dataclass(frozen=True)
class GoalPattern:
    """Recipe for a typed goal layout.

    kind "blocks": types tile the lattice in square blocks (side sqrt(k)),
    falling back to contiguous index runs when such blocks cannot tile.
    kind "columns": one type per column.  kind "explicit": goal_types is
    given verbatim.
    """

    kind: str
    goal_types: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("blocks", "columns", "explicit"):
            raise ValueError(f"unknown goal pattern kind {self.kind!r}")
        if (self.kind == "explicit") != (self.goal_types is not None):
            raise ValueError("explicit patterns carry goal_types; others must not")

    def resolve(self, dims: LatticeDims, k: int) -> tuple[tuple[int, ...], bool]:
        """Concrete goal types for a lattice; the flag reports whether the
        block layout fell back to index runs."""
        if self.kind == "explicit":
            return self.goal_types, False
        if self.kind == "columns":
            return pattern_columns_types(dims, k), False
        return pattern_blocks_types(dims, k)


def pattern_blocks_types(dims: LatticeDims, k: int) -> tuple[tuple[int, ...], bool]:
    """Goal types aggregated in both dimensions: square same-type blocks.

    Needs k to be a perfect square whose root divides both sides; when it
    is not, falls back to contiguous runs of n/k cells in index order and
    flags that with the second return value.
    """
    n = dims.n
    if n % k:
        raise ValueError(f"{k} types cannot evenly fill {n} cells")
    r = math.isqrt(k)
    if r * r == k and dims.m1 % r == 0 and dims.m2 % r == 0:
        bh, bw = dims.m1 // r, dims.m2 // r
        types = []
        for cell in dims.cells():
            row, col = dims.rowcol(cell)
            types.append(((col - 1) // bw) * r + ((row - 1) // bh) + 1)
        return tuple(types), False
    run = n // k
    return tuple((cell - 1) // run + 1 for cell in dims.cells()), True


def pattern_block_of(dims: LatticeDims, k: int, cell: int) -> tuple[int, int]:
    """Which square block a cell belongs to under the block layout."""
    r = math.isqrt(k)
    bh, bw = dims.m1 // r, dims.m2 // r
    row, col = dims.rowcol(cell)
    return ((row - 1) // bh, (col - 1) // bw)


def pattern_columns_types(dims: LatticeDims, k: int) -> tuple[int, ...]:
    """Goal types with one type per column; requires k = m2."""
    if k != dims.m2:
        raise ValueError(f"one type per column needs k = m2, got k={k} m2={dims.m2}")
    return tuple(col for col in range(1, dims.m2 + 1) for _ in range(dims.m1))
