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
the switching planner never travels farther than the sweep.  Every walk
is emitted by lor._emit_nested, the sweep being the one with no detours.

Typed instances run por's pipeline on one destination table (graphs):
per-type minimum-cost assignment of misplaced items to free goal cells
(cycle formation), a single spanning-forest round of destination trades
that fuses every pair of fusable cycles (fewest operations; the 1D
planner's engine, por.fuse_cycles, weighing each trade by the travel it
adds, read off per-type trade-delta matrices), and an arborescence-guided
walk over the table's orbits that resolves the surviving cycles with the
same parking mechanism.  Only the public phase functions build
MoveCycles.  Every phase measures distance under the cost model's metric.

Arc weights, assignment costs and trade deltas read every distance off
one table of lattice offsets per call, holding distance()'s floats.  Arc
weights are found source by source, in row slabs that reuse two buffers,
and fill k x k matrices of weights and exit and entry cells; the schedule
turns back into cells only the arcs of its tree.  Every slab here, and the
assignment's tight mask in graphs, holds at most graphs._SLAB_ENTRIES
entries: a fixed budget the size of a cache, not of the instance, so a
slab is still cached when its reductions read it back, and a large cycle
costs more slabs rather than more memory.  The normalized
displacement statistic used by the benchmarks lives here too; goal-type
layouts live in gen.  numpy is imported only inside the functions that run
numpy code: the table, `_arcs`, `form_cycles_ptr` and the 2D trade model.
`sweep_cycles_ltr`, `cycle_edge_length` and `greedy_2d` run without it.
"""

from __future__ import annotations

import functools
import math
import operator

from .core import (
    CostModel,
    DEFAULT_COST,
    Instance,
    LabeledInstance,
    LatticeDims,
    Plan,
    TypedInstance,
    _cell_distance,
    _require_cell,
    _require_input,
    _travel,
)
from .graphs import (
    _SLAB_ENTRIES,
    WeightedGraph,
    _cycle_spans,
    _walk_orbits,
    min_arborescence,
    min_cost_assignment,
)
from .lor import _dest_table, _emit_nested, _sweep
from .por import (
    MoveCycle,
    _assignment_of,
    _form,
    _fused,
    _move_cycles,
    fuse_cycles,
    greedy_plan,
)

_INF = math.inf


# --- geometry helpers -------------------------------------------------------

def _offset_table(dims: LatticeDims, metric: str) -> np.ndarray:
    """Distance of every offset |dr| < m1, |dc| < m2, centred: d(a, b) =
    table[_codes(dims, a, source=True) - _codes(dims, b)], always an index
    in range.  The < 4n entries are np.sqrt of the exact integer
    dr*dr + dc*dc, which rounds as math.hypot does in distance() (or
    |dr| + |dc|)."""
    import numpy as np
    dr = np.arange(1 - dims.m1, dims.m1)
    dc = np.arange(1 - dims.m2, dims.m2)[:, None]
    table = np.abs(dc) + np.abs(dr) if metric == "manhattan" else np.sqrt(dc * dc + dr * dr)
    return table.astype(float).ravel()


def _codes(dims: LatticeDims, cells, source: bool = False) -> np.ndarray:
    """intp code col*(2*m1 - 1) + row of each cell: the code difference of
    two cells, dc*(2*m1 - 1) + dr, is distinct for every offset.  A source
    code also holds the offset table's centre, the index of offset 0, so a
    source code minus a code is the offset's index in the table."""
    import numpy as np
    col, row = np.divmod(np.asarray(cells, dtype=np.intp) - 1, dims.m1)
    if source:
        col += dims.m2 - 1
        row += dims.m1 - 1
    return col * (2 * dims.m1 - 1) + row


# --- displacement statistic -------------------------------------------------

def cycle_edge_length(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> float:
    """Summed length of every displacement edge (cell to its item's home).

    This is exactly the within-cycle travel that any cycle-following plan
    must spend; planners differ only in travel between cycles.
    """
    _require_input(instance, "labeled", "any")
    d = _cell_distance(instance.dims, model)
    legs = [d(cell, item) for cell, item in enumerate(instance.pi, start=1) if item != cell]
    # left to right: sum() of floats is compensated from Python 3.12 on
    return functools.reduce(operator.add, legs, 0)


def cycle_distance_statistic(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> float:
    """cycle_edge_length normalized by item count times the longer side.

    Dimensionless, so random instances of different sizes land on the same
    scale: uniform square instances concentrate near 0.5214 (the mean
    distance between two uniform points in a square), within-column
    shuffles near 1/3.
    """
    dims = instance.dims
    return cycle_edge_length(instance, model) / (dims.n * max(dims.m1, dims.m2))


# --- detour scheduling ------------------------------------------------------

def _arcs(dims: LatticeDims, cycle_cells, rest: int, metric: str, detour: bool):
    """Arcs of the scheduling graph over vertex 0, the rest cell taken as
    the one-cell cycle (rest,), and vertex b = cycle_cells[b - 1]:
    (edges, cells).  edges holds one (a, b, weight) per ordered pair,
    source-major with targets ascending, and no arc enters vertex 0;
    cells(a, b) gives the arc's (exit cell, entry cell).

    With detour=True an arc a -> b weighs the cheapest detour from a leg
    u -> next(u) of cycle a through a cell e of cycle b,
    d(u,e) + d(e,next(u)) - d(u,next(u)); the rest cell's only leg stays
    put, so its arcs charge the way there and back, 2 d(rest,e).  Otherwise
    arcs weigh the nearest cell pair.

    Each source gets its own matrix of distances from its cells (plus the
    wrapped next cell) to the cells of all other vertices, read off the
    offset table in row slabs of at most _SLAB_ENTRIES entries (a row wider
    than that is a slab of its own).  One segmented reduction per slab
    gives every target's least entry and the earliest row holding it, and
    an earlier slab wins a tie with a later one; the entry cell is then
    found in that one row, computed again.  So ties go to the earliest
    (source cell, target cell) pair in row-major order.  The weights and
    the indices of exit and entry cells fill k x k matrices, so only the
    arcs the caller asks cells(a, b) for are turned back into cells.

    Every slab is written into one index buffer and one distance buffer,
    allocated once for the largest slab.  The budget is fixed and
    cache-sized, not sized by the cycles: at 16 bytes an entry both
    buffers fit in 4 MiB, so the index slab is still cached when take()
    reads it and the distance slab when the reduction does, and a long
    source cycle only takes more slabs.
    """
    import numpy as np
    vertices = [(rest,), *cycle_cells]
    k = len(vertices)
    flat = [c for cells in vertices for c in cells]
    n = len(flat)
    lengths = np.array([len(cells) for cells in vertices])
    ends = np.cumsum(lengths)
    starts = ends - lengths
    table = _offset_table(dims, metric)
    cells = np.asarray(flat)
    code = _codes(dims, cells)
    # each vertex's cells, then its first cell again: the cell of vertex a
    # at flat index i sits at i + a, followed by the next cell of its leg.
    # ring holds them as source codes: the rows of every slab
    ring_cells = np.insert(cells, ends, cells[starts])
    ring = _codes(dims, ring_cells, source=True)
    legs = table[ring[:-1] - _codes(dims, ring_cells[1:])]
    # the vertices after a, then those before it: one slice [ends[a],
    # starts[a] + n) of the doubled layout holds the cells of all others
    code2 = np.tile(code, 2)
    vid2 = np.tile(np.arange(k), 2)
    seg2 = np.repeat(np.arange(2 * k), np.tile(lengths, 2))
    starts2 = np.concatenate((starts, starts + n))
    cols = np.arange(n)
    # rows per slab of each source: at least one, and at most as many as
    # keep the slab, a detour slab's extra row included, within
    # _SLAB_ENTRIES entries
    widths = n - lengths
    steps = np.maximum(1, _SLAB_ENTRIES // np.maximum(widths, 1) - detour)
    size = int(((np.minimum(lengths, steps) + detour) * widths).max())
    index_buf = np.empty(size, dtype=np.intp)
    dist_buf = np.empty(size)
    weight = np.full((k, k), _INF)
    exits = np.zeros((k, k), dtype=np.intp)
    entries = np.zeros((k, k), dtype=np.intp)
    for a in range(k):
        at, end = int(starts[a]), int(ends[a])
        n_a, width, step = end - at, int(widths[a]), int(steps[a])
        # a's codes, then its first code again; row r of a slab is a's
        # r-th cell, and with detour=True the leg from it to row r + 1
        source, source_legs = ring[at + a:end + a + 1], legs[at + a:end + a]
        others = code2[end:at + n]
        seg = seg2[end:at + n] - (a + 1)
        seg_starts = starts2[a + 1:a + k] - end
        for lo in range(0, n_a, step):
            hi = min(lo + step, n_a)
            # a detour slab also holds the row of its last leg's next cell
            rows = hi - lo + detour
            index = index_buf[:rows * width].reshape(rows, width)
            block = dist_buf[:rows * width].reshape(rows, width)
            np.subtract(source[lo:lo + rows, None], others, out=index)
            np.take(table, index, out=block, mode="clip")
            if detour:
                block[:-1] += block[1:]
                block = block[:-1]
                block -= source_legs[lo:hi, None]
            # each target's least entry and the earliest row holding it; a
            # later slab takes over only on a strictly smaller entry
            per_row = np.minimum.reduceat(block, seg_starts, axis=1)
            least = per_row.min(axis=0)
            row = (per_row == least).argmax(axis=0) + lo
            if lo:
                better = least < w
                w[better], ia[better] = least[better], row[better]
            else:
                w, ia = least, row
        # the earliest entry cell in each target's row: that row computed
        # again, one per target, with the slab's float operations
        pick = ia[seg]
        again = table[source[pick] - others]
        if detour:
            again += table[source[pick + 1] - others]
            again -= source_legs[pick]
        ib = np.minimum.reduceat(np.where(again == w[seg], cols[:width], width), seg_starts)
        targets = vid2[a + 1:a + k]
        weight[a, targets] = w
        exits[a, targets] = ia + at
        entries[a, targets] = (ib + end) % n
    # off the diagonal and out of column 0, in row-major order
    us, vs = np.nonzero(~np.eye(k, dtype=bool) & (np.arange(k) > 0))
    edges = tuple(zip(us.tolist(), vs.tolist(), weight[us, vs].tolist()))

    def cells(a: int, b: int) -> tuple[int, int]:
        return flat[exits[a, b]], flat[entries[a, b]]
    return edges, cells


def _schedule(dims: LatticeDims, cycle_cells, rest: int, model: CostModel, detour: bool):
    """Arborescence over the vertices of _arcs (0 = the rest cell as a
    one-cell cycle, b = cycle_cells[b - 1]) with its weights (with
    detour=False, the classic double-cover bound); returns (roots, kids)
    for lor._emit_nested.  roots holds the entry cells served from the
    rest cell; kids maps each other exit cell to the entry cells served on
    the leg that leaves it.  Each list is sorted by (distance from the cell
    it leaves, entry cell).
    """
    if not cycle_cells:
        return [], {}
    edges, cells = _arcs(dims, cycle_cells, rest, model.metric, detour)
    tree = min_arborescence(WeightedGraph(tuple(range(len(cycle_cells) + 1)), edges), root=0)
    roots: list[int] = []
    kids: dict[int, list[int]] = {}
    for u, v, w in tree:
        exit_cell, entry_cell = cells(u, v)
        (kids.setdefault(exit_cell, []) if u else roots).append(entry_cell)
    d = _cell_distance(dims, model)
    for cell, entries in [(rest, roots), *kids.items()]:
        entries.sort(key=lambda e: (d(cell, e), e))
    return roots, kids


# --- labeled planners -------------------------------------------------------

def sweep_cycles_ltr(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Resolve each displacement cycle separately, in cell-index order.

    Operation count is minimal (one per misplaced item plus one per
    cycle); travel between cycles is whatever the index order happens to
    cost.
    """
    _require_input(instance, "labeled", "2D")
    dest = _dest_table(instance)
    return _sweep(_cycle_spans(dest)[0], dest)


def switch_cycles_ltr(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Resolve cycles nested inside each other's legs where that is cheap.

    Same operation count as the sweep.  Travel never exceeds the sweep's:
    the arborescence schedule is kept only when it actually wins.
    """
    _require_input(instance, "labeled", "2D")
    dims, rest = instance.dims, instance.rest
    dest = _dest_table(instance)
    cycles = _walk_orbits(dest)
    roots, kids = _schedule(dims, cycles, rest, model, detour=True)
    switched = _emit_nested(roots, kids, dest)
    sweep = _sweep([cyc[0] for cyc in cycles], dest)
    # both plans are legal by construction, so only their travel is summed
    if _travel(dims, rest, switched.cells, model) <= _travel(dims, rest, sweep.cells, model):
        return switched
    return sweep


# --- typed pipeline ---------------------------------------------------------

def _form_ptr(instance: TypedInstance, model: CostModel):
    """por._form, each type paired by min_cost_assignment under model.metric."""
    dims = instance.dims
    table = _offset_table(dims, model.metric)

    def pair(srcs, dsts):
        # distance()'s floats: ties and the tie-break are unchanged
        cost = table[_codes(dims, srcs, source=True)[:, None] - _codes(dims, dsts)]
        return [dsts[j] for j in min_cost_assignment(cost)[0]]
    return _form(instance, pair)


def form_cycles_ptr(instance: TypedInstance, model: CostModel = DEFAULT_COST) -> list[MoveCycle]:
    """Phase 1: per-type minimum-cost assignment of items to goal cells.

    Misplaced cells holding type t are matched to free goal cells of type
    t so the summed distance under model.metric is minimal; the chosen
    moves close into displacement cycles.
    """
    _require_input(instance, "typed", "any")
    return _move_cycles(*_form_ptr(instance, model))


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
    """2D trade model (por.TradeModel): a trade costs the travel it adds
    under `metric`.

    Moves are kept type-major, each type's in cycle order, as rows of
    (source code, goal code) with their lengths, read once.  A type's pair
    weights are its delta matrix over all its moves, built in row slabs of
    at most about _SLAB_ENTRIES entries and reduced to per-cycle-pair
    minima with segment minima.  A fusion's trade is the least entry of the
    two components' same-type blocks, evaluated on demand in chunks; only
    entries equal to the least go through the tie rule.  Types held by one
    cycle never trade and are left out.
    """

    def __init__(self, dims: LatticeDims, metric: str, orbits, dest, types):
        import numpy as np
        moves: dict[int, list] = {}
        for c, orbit in enumerate(orbits):
            for s in orbit:
                moves.setdefault(types[s], []).append((c, s, dest[s]))
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
        self.table = _offset_table(dims, metric)
        self.moves = np.column_stack([_codes(dims, self.src, source=True), _codes(dims, self.goal)])
        self.length = self.table[self.moves[:, 0] - self.moves[:, 1]]
        # each component's moves, under the root fuse_cycles gives it
        by_cycle = np.argsort(self.cyc, kind="stable")
        self.members = np.split(by_cycle, np.cumsum(np.bincount(self.cyc, minlength=len(orbits)))[:-1])

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
            # cycle ids rise within a type, so i < j is the strict upper triangle
            ids = self.cyc[seg[a:b]]
            r, c = np.triu_indices(b - a, 1)
            ws.append(np.minimum.reduceat(per_row, starts, axis=0)[r, c])
            ii.append(ids[r])
            jj.append(ids[c])
        w, i, j = np.concatenate(ws), np.concatenate(ii), np.concatenate(jj)
        # a pair sharing several types weighs its least entry over them
        key = i * len(self.members) + j
        order = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.r_[True, key[order][1:] != key[order][:-1]])
        w = np.minimum.reduceat(w[order], first)
        return zip(w.tolist(), i[order[first]].tolist(), j[order[first]].tolist())

    def trade(self, ri, rj, i, j):
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


def _merge_cycles_ptr_logged(cycles, dims: LatticeDims, model: CostModel = DEFAULT_COST):
    """merge_cycles_ptr plus the log of goal trades fuse_cycles performed.

    The log exists so tests can check how far trades reach; the public
    wrapper drops it.
    """
    return _fused(cycles, functools.partial(_DeltaTrades, dims, model.metric), n=dims.n)


def merge_cycles_ptr(cycles, dims: LatticeDims,
                     model: CostModel = DEFAULT_COST) -> list[MoveCycle]:
    """Phase 2: fuse every pair of fusable cycles, cheapest trades first.

    Unlike the 1D pipeline there is no free-fusion phase: trades cost
    travel in general, so a single spanning-forest round (weights = least
    travel added per fusion under model.metric) does all the merging.
    Afterward no two remaining cycles share a type, which is what makes the
    operation count minimal.
    """
    merged, _ = _merge_cycles_ptr_logged(cycles, dims, model)
    return merged


def sweep_cycles_ptr(cycles, dims: LatticeDims, rest: int = 1,
                     model: CostModel = DEFAULT_COST) -> Plan:
    """Phase 3: walk the cycles along a nearest-entry arborescence.

    Arcs weigh the closest cell pair between cycles (and from the rest
    cell); the walk serves each cycle on first entry with parking, so
    travel between cycles stays within twice the arborescence weight.
    """
    _require_cell(dims.n, rest, "rest cell", "out of range")
    dest, _ = _assignment_of(cycles, dims.n)
    return _emit_nested(*_schedule(dims, _walk_orbits(dest), rest, model, detour=False), dest)


def plan_ptr(instance: TypedInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Fewest-operation plan for a typed 2D instance.

    Travel is not exactly minimal (that is intractable) but stays close
    for common goal layouts: cycle formation minimizes each type's summed
    distance, and the later phases add comparatively little.  All three
    phases weigh distance under `model.metric`.
    """
    _require_input(instance, "typed", "2D")
    dims, rest = instance.dims, instance.rest
    dest, types = _form_ptr(instance, model)
    fuse_cycles(dest, types, functools.partial(_DeltaTrades, dims, model.metric))
    return _emit_nested(*_schedule(dims, _walk_orbits(dest), rest, model, detour=False), dest)


def greedy_2d(instance: Instance, model: CostModel = DEFAULT_COST) -> Plan:
    """Best-first baseline for labeled or typed 2D instances."""
    _require_input(instance, "any", "2D")
    return greedy_plan(instance, model)


def __getattr__(name: str):
    # the goal layouts moved to gen; these two names are still served here,
    # importing gen on first access, so a 2D solve never loads it
    if name in ("GoalPattern", "pattern_block_of"):
        from . import gen
        return getattr(gen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
