"""2D planners: labeled sweep/switch, the typed pipeline, layout helpers."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import tracemalloc

import numpy as np
import pytest

from lattice_rearrange import lattice2d
from lattice_rearrange.core import (
    Action,
    CostModel,
    LabeledInstance,
    LatticeDims,
    TypedInstance,
    distance,
    is_solved,
    plan_cost,
    simulate,
)
from lattice_rearrange.gen import (
    GoalPattern,
    gen_block_random,
    gen_column_random,
    gen_typed,
    gen_uniform_permutation,
    gen_x_random,
    pattern_block_of,
    pattern_blocks_types,
    pattern_columns_types,
)
from lattice_rearrange.graphs import _find, permutation_cycles
from lattice_rearrange.lattice2d import (
    _arcs,
    _DeltaTrades,
    _codes,
    _merge_cycles_ptr_logged,
    _offset_table,
    _schedule,
    _trade_deltas,
    cycle_distance_statistic,
    cycle_edge_length,
    form_cycles_ptr,
    greedy_2d,
    merge_cycles_ptr,
    plan_ptr,
    sweep_cycles_ltr,
    sweep_cycles_ptr,
    switch_cycles_ltr,
)
from lattice_rearrange.oracle import oracle_min_picks, oracle_optimal

from conftest import leg_travel, model_input
from test_por import _swap_destinations


def hand_dist(dims: LatticeDims, a: int, b: int) -> float:
    ra, ca = (a - 1) % dims.m1 + 1, (a - 1) // dims.m1 + 1
    rb, cb = (b - 1) % dims.m1 + 1, (b - 1) // dims.m1 + 1
    return math.hypot(ra - rb, ca - cb)


def cycle_length(cycle, dims: LatticeDims) -> float:
    """Summed Euclidean length of a move cycle's edges."""
    return sum(hand_dist(dims, s, g) for s, g in cycle.edges)


def random_labeled(rng: random.Random, m1: int, m2: int) -> LabeledInstance:
    pi = list(range(1, m1 * m2 + 1))
    rng.shuffle(pi)
    return LabeledInstance(LatticeDims(m1, m2), tuple(pi))


def random_typed_2d(rng: random.Random, m1: int, m2: int, k: int) -> TypedInstance:
    n = m1 * m2
    goal = [t for t in range(1, k + 1) for _ in range(n // k)]
    goal += [rng.randint(1, k) for _ in range(n - len(goal))]
    rng.shuffle(goal)
    start = list(goal)
    rng.shuffle(start)
    return TypedInstance(LatticeDims(m1, m2), k, tuple(start), tuple(goal))


# --- labeled sweep ----------------------------------------------------------

def test_sweep_identity_empty():
    inst = LabeledInstance(LatticeDims(3, 3), tuple(range(1, 10)))
    assert sweep_cycles_ltr(inst).steps == ()


def test_sweep_two_swapped_pairs_2x2():
    # cells column-major: 1=(1,1) 2=(2,1) 3=(1,2) 4=(2,2); two adjacent swaps
    inst = LabeledInstance(LatticeDims(2, 2), (2, 1, 4, 3))
    plan = sweep_cycles_ltr(inst)
    assert plan.picks == 6
    cells = [s.cell for s in plan.steps]
    assert cells == [1, 2, 1, 3, 4, 3]
    cost = plan_cost(inst, plan)
    assert cost.travel == pytest.approx(leg_travel(inst.dims, cells))
    assert cost.travel == pytest.approx(6.0)


def test_sweep_picks_match_formula_random():
    rng = random.Random(7)
    for _ in range(40):
        inst = random_labeled(rng, rng.randint(2, 7), rng.randint(2, 7))
        plan = sweep_cycles_ltr(inst)
        cs = permutation_cycles(inst.pi)
        misplaced = sum(1 for c, x in enumerate(inst.pi, 1) if c != x)
        assert plan.picks == misplaced + cs.count
        assert is_solved(simulate(inst, plan).config, inst)


def test_sweep_picks_equal_oracle_minimum_2x3():
    dims = LatticeDims(2, 3)
    for pi in itertools.permutations(range(1, 7)):
        inst = LabeledInstance(dims, pi)
        assert sweep_cycles_ltr(inst).picks == oracle_min_picks(inst)


# --- labeled switching ------------------------------------------------------

def test_switch_identity_empty():
    inst = LabeledInstance(LatticeDims(4, 4), tuple(range(1, 17)))
    assert switch_cycles_ltr(inst).steps == ()


def test_switch_serves_cycle_sitting_on_the_way():
    # 5x5: one long horizontal exchange (cells 1 and 21, both in row 1) and
    # a small exchange at cells 11/12 sitting right on that row-1 path.
    # Detouring into the small cycle while carrying is free in distance.
    pi = list(range(1, 26))
    pi[0], pi[20] = 21, 1
    pi[10], pi[11] = 12, 11
    inst = LabeledInstance(LatticeDims(5, 5), tuple(pi))

    sweep = sweep_cycles_ltr(inst)
    switched = switch_cycles_ltr(inst)
    assert [(s.cell, s.action) for s in switched.steps] == [
        (1, Action.PICK), (11, Action.SWAP), (12, Action.SWAP),
        (11, Action.SWAP), (21, Action.SWAP), (1, Action.PLACE)]
    assert plan_cost(inst, switched).travel == pytest.approx(10.0)
    assert plan_cost(inst, sweep).travel == pytest.approx(14.0)
    assert is_solved(simulate(inst, switched).config, inst)


def test_switch_dominates_sweep_random():
    rng = random.Random(19)
    for _ in range(50):
        inst = random_labeled(rng, rng.randint(2, 7), rng.randint(2, 7))
        sweep = sweep_cycles_ltr(inst)
        switched = switch_cycles_ltr(inst)
        assert switched.picks == sweep.picks
        t_sweep = plan_cost(inst, sweep).travel
        t_switch = plan_cost(inst, switched).travel
        assert t_switch <= t_sweep + 1e-9
        assert is_solved(simulate(inst, switched).config, inst)


def test_switch_checks_no_arrangement_the_instance_checked(monkeypatch):
    # LabeledInstance checks pi once; the solve walks its table unchecked
    from lattice_rearrange import core, graphs
    inst = gen_block_random(16, 5)
    calls = []

    def counting(check):
        def counted(*args):
            calls.append(args)
            return check(*args)
        return counted
    for module in (core, graphs):
        monkeypatch.setattr(module, "_is_permutation", counting(module._is_permutation))
    plan = switch_cycles_ltr(inst)
    assert calls == []
    assert is_solved(simulate(inst, plan).config, inst)


def test_switch_picks_equal_oracle_minimum_2x3():
    dims = LatticeDims(2, 3)
    for pi in itertools.permutations(range(1, 7)):
        inst = LabeledInstance(dims, pi)
        assert switch_cycles_ltr(inst).picks == oracle_min_picks(inst)


def test_switch_travel_not_below_oracle_sample():
    rng = random.Random(23)
    perms = list(itertools.permutations(range(1, 7)))
    for pi in rng.sample(perms, 40):
        inst = LabeledInstance(LatticeDims(2, 3), pi)
        travel = plan_cost(inst, switch_cycles_ltr(inst)).travel
        assert travel >= oracle_optimal(inst).cost.travel - 1e-9


def test_switch_manhattan_metric_respected():
    rng = random.Random(31)
    model = CostModel(metric="manhattan")
    for _ in range(10):
        inst = random_labeled(rng, 4, 5)
        plan = switch_cycles_ltr(inst, model)
        assert plan.picks == sweep_cycles_ltr(inst, model).picks
        assert plan_cost(inst, plan, model).travel <= \
            plan_cost(inst, sweep_cycles_ltr(inst, model), model).travel + 1e-9
        assert is_solved(simulate(inst, plan, model).config, inst)


# --- displacement statistic -------------------------------------------------

def test_cycle_edge_length_known_values():
    dims = LatticeDims(2, 2)
    assert cycle_edge_length(LabeledInstance(dims, (1, 2, 3, 4))) == 0.0
    # swapping cells 1 and 2 (same column, adjacent rows): two edges of 1
    inst = LabeledInstance(dims, (2, 1, 3, 4))
    assert cycle_edge_length(inst) == pytest.approx(2.0)
    assert cycle_distance_statistic(inst) == pytest.approx(2.0 / (4 * 2))


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_cycle_edge_length_sums_distance_legs(metric):
    # the per-edge decode must give the same float as summing distance()
    model = CostModel(metric=metric)
    rng = random.Random(43)
    instances = [gen_uniform_permutation(rng.randint(2, 400), seed) for seed in range(8)]
    instances += [random_labeled(rng, rng.randint(1, 30), rng.randint(2, 30)) for _ in range(8)]
    instances += [gen_block_random(9, seed) for seed in (1, 2)]
    for inst in instances:
        legs = functools.reduce(operator.add, (distance(inst.dims, cell, item, model)
                                               for cell, item in enumerate(inst.pi, start=1)
                                               if item != cell), 0)
        assert cycle_edge_length(inst, model) == legs


def test_cycle_edge_length_sums_left_to_right():
    # the bits of a left-to-right float sum on every Python version; the
    # compensated sum() of Python 3.12 and later ends in ...32ap+9 here
    assert cycle_edge_length(gen_block_random(16, 1)).hex() == "0x1.0b37eacbaf32bp+9"


def test_statistic_uniform_square_near_expected():
    rng = random.Random(47)
    vals = [cycle_distance_statistic(random_labeled(rng, 40, 40)) for _ in range(5)]
    mean = sum(vals) / len(vals)
    assert 0.49 < mean < 0.55


def test_statistic_column_shuffles_near_one_third():
    rng = random.Random(53)
    dims = LatticeDims(40, 40)
    vals = []
    for _ in range(5):
        pi = []
        for col in range(40):
            block = list(range(col * 40 + 1, col * 40 + 41))
            rng.shuffle(block)
            pi.extend(block)
        vals.append(cycle_distance_statistic(LabeledInstance(dims, tuple(pi))))
    mean = sum(vals) / len(vals)
    assert 0.30 < mean < 0.37


# --- typed phase 1 ----------------------------------------------------------

def test_form_cycles_ptr_solved_empty():
    inst = TypedInstance(LatticeDims(2, 2), 2, (1, 2, 1, 2), (1, 2, 1, 2))
    assert form_cycles_ptr(inst) == []


def test_form_cycles_ptr_forced_pair():
    inst = TypedInstance(LatticeDims(2, 2), 2, (1, 2, 2, 1), (1, 2, 1, 2))
    cycles = form_cycles_ptr(inst)
    assert len(cycles) == 1
    assert cycles[0].edges == ((3, 4), (4, 3))
    assert cycles[0].edge_types == (2, 1)


def test_form_cycles_ptr_orbit_invariants():
    rng = random.Random(61)
    for _ in range(30):
        inst = random_typed_2d(rng, rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 4))
        cycles = form_cycles_ptr(inst)
        seen = set()
        for cyc in cycles:
            for j, ((s, g), t) in enumerate(zip(cyc.edges, cyc.edge_types)):
                assert g == cyc.edges[(j + 1) % len(cyc.edges)][0]
                assert inst.start_types[s - 1] == t
                assert inst.goal_types[g - 1] == t
                assert inst.start_types[s - 1] != inst.goal_types[s - 1]
                assert s not in seen
                seen.add(s)
        misplaced = sum(1 for a, b in zip(inst.start_types, inst.goal_types) if a != b)
        assert len(seen) == misplaced


def test_form_cycles_ptr_matching_is_minimal():
    rng = random.Random(67)
    for _ in range(15):
        inst = random_typed_2d(rng, 3, 3, 3)
        cycles = form_cycles_ptr(inst)
        by_type: dict[int, float] = {}
        for cyc in cycles:
            for (s, g), t in zip(cyc.edges, cyc.edge_types):
                by_type[t] = by_type.get(t, 0.0) + hand_dist(inst.dims, s, g)
        srcs: dict[int, list[int]] = {}
        dsts: dict[int, list[int]] = {}
        for cell, (have, want) in enumerate(zip(inst.start_types, inst.goal_types), 1):
            if have != want:
                srcs.setdefault(have, []).append(cell)
                dsts.setdefault(want, []).append(cell)
        for t, ss in srcs.items():
            gg = dsts[t]
            brute = min(sum(hand_dist(inst.dims, s, gg[p[i]]) for i, s in enumerate(ss))
                        for p in itertools.permutations(range(len(gg))))
            assert by_type[t] == pytest.approx(brute)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_form_cycles_ptr_assignment_is_minimal_under_metric(metric):
    # each type's summed move length under the model's metric is the least
    # over every matching of its sources to its goals
    model = CostModel(metric=metric)
    rng = random.Random(71)
    checked = 0
    for _ in range(600):
        inst = random_typed_2d(rng, rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 3))
        by_type: dict[int, list[float]] = {}
        for cyc in form_cycles_ptr(inst, model):
            for (s, g), t in zip(cyc.edges, cyc.edge_types):
                by_type.setdefault(t, []).append(distance(inst.dims, s, g, model))
        sources, goals = {}, {}
        for cell, (have, want) in enumerate(zip(inst.start_types, inst.goal_types), start=1):
            if have != want:
                sources.setdefault(have, []).append(cell)
                goals.setdefault(want, []).append(cell)
        for t, srcs in sources.items():
            if len(srcs) > 7:
                continue
            d = [[distance(inst.dims, s, g, model) for g in goals[t]] for s in srcs]
            brute = min(math.fsum(row[j] for row, j in zip(d, perm))
                        for perm in itertools.permutations(range(len(srcs))))
            assert math.fsum(by_type[t]) <= brute + 1e-9, (inst, t)
            checked += 1
    assert checked >= 1400


def test_vectorised_cost_matrix_rounds_like_distance():
    # form_cycles_ptr and the arc weights read the offset table's np.sqrt;
    # the tie-breaks, and so the plan bytes, need the same floats as
    # math.hypot in distance()
    dims = LatticeDims(400, 400)
    offsets = [(r - 1, c - 1) for r, c in map(dims.rowcol, dims.cells())]
    codes = _codes(dims, list(dims.cells()))
    got = _offset_table(dims, "euclidean")[_codes(dims, list(dims.cells()), source=True) - codes[0]]
    assert got.tolist() == [math.hypot(r, c) for r, c in offsets]
    got = _offset_table(dims, "manhattan")[_codes(dims, [dims.index(200, 200)], source=True) - codes]
    assert got.tolist() == [abs(r - 199) + abs(c - 199) for r, c in offsets]


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("m1,m2", [(1, 9), (9, 1), (7, 13), (13, 7), (40, 40)])
def test_offset_table_holds_distance_of_every_offset(m1, m2, metric):
    # one cell pair per offset (dr, dc); together they read every entry once
    dims = LatticeDims(m1, m2)
    pairs = [(dims.index(max(dr, 0) + 1, max(dc, 0) + 1), dims.index(max(-dr, 0) + 1, max(-dc, 0) + 1))
             for dr in range(1 - m1, m1) for dc in range(1 - m2, m2)]
    at = _codes(dims, [a for a, _ in pairs], source=True) - _codes(dims, [b for _, b in pairs])
    table = _offset_table(dims, metric)
    assert sorted(at.tolist()) == list(range(len(table)))
    model = CostModel(metric=metric)
    assert table[at].tolist() == [distance(dims, a, b, model) for a, b in pairs]


# --- arc weights of the schedule -------------------------------------------

def reference_pair_dists(a, b, metric):
    diff = a[:, None, :] - b[None, :, :]
    if metric == "manhattan":
        return np.abs(diff).sum(axis=2)
    return np.sqrt((diff * diff).sum(axis=2))


def reference_min_entry(a, b, metric):
    """Closest cell pair (distance, ia, ib), earliest pair in row-major
    order on ties, scanned per target cycle in slabs."""
    step = max(1, lattice2d._SLAB_ENTRIES // len(b))
    best = (math.inf, -1, -1)
    for lo in range(0, len(a), step):
        block = reference_pair_dists(a[lo:lo + step], b, metric)
        ia, ib = divmod(int(np.argmin(block)), block.shape[1])
        if block[ia, ib] < best[0]:
            best = (float(block[ia, ib]), lo + ia, ib)
    return best


def reference_min_detour(a, a_next, base, b, metric):
    step = max(1, lattice2d._SLAB_ENTRIES // len(b))
    best = (math.inf, -1, -1)
    for lo in range(0, len(a), step):
        hi = lo + step
        block = (reference_pair_dists(a[lo:hi], b, metric)
                 + reference_pair_dists(a_next[lo:hi], b, metric)
                 - base[lo:hi, None])
        ia, ib = divmod(int(np.argmin(block)), block.shape[1])
        if block[ia, ib] < best[0]:
            best = (float(block[ia, ib]), lo + ia, ib)
    return best


def reference_arcs(dims, cycle_cells, rest, metric, detour):
    """The former per-pair arc scan: one _min_entry/_min_detour per pair."""
    model = CostModel(metric=metric)
    coords = [np.array([dims.rowcol(c) for c in cells], dtype=float) for cells in cycle_cells]
    base = [np.array([distance(dims, c, cells[(t + 1) % len(cells)], model)
                      for t, c in enumerate(cells)]) for cells in cycle_cells]
    rest_xy = np.array([dims.rowcol(rest)], dtype=float)
    edges, meta = [], {}
    for b, cells in enumerate(cycle_cells):
        d, _, ib = reference_min_entry(rest_xy, coords[b], metric)
        edges.append((0, b + 1, 2.0 * d if detour else d))
        meta[(0, b + 1)] = (rest, cells[ib])
    for a, a_cells in enumerate(cycle_cells):
        for b, b_cells in enumerate(cycle_cells):
            if a == b:
                continue
            if detour:
                w, ia, ib = reference_min_detour(coords[a], np.roll(coords[a], -1, axis=0),
                                                 base[a], coords[b], metric)
            else:
                w, ia, ib = reference_min_entry(coords[a], coords[b], metric)
            edges.append((a + 1, b + 1, w))
            meta[(a + 1, b + 1)] = (a_cells[ia], b_cells[ib])
    return edges, meta


def schedule_instances():
    for seed in (1, 2):
        yield gen_block_random(9, seed)
        yield LabeledInstance(LatticeDims(10, 10), gen_x_random(100, 25, seed).pi)
        yield gen_column_random(7, 11, seed)
        # one row, and more rows than columns: on unequal sides a swapped
        # row/column stride in the cell codes reads the wrong offsets
        yield LabeledInstance(LatticeDims(1, 12), gen_uniform_permutation(12, seed).pi)
        yield LabeledInstance(LatticeDims(13, 3), gen_uniform_permutation(39, seed).pi)


def reference_arcs_lookup(dims, cycle_cells, rest, metric, detour):
    """reference_arcs in _arcs' return shape: (edges, cells(a, b))."""
    edges, meta = reference_arcs(dims, cycle_cells, rest, metric, detour)
    return tuple(edges), lambda a, b: meta[(a, b)]


@pytest.mark.parametrize("slab", [None, 64, 1])
@pytest.mark.parametrize("detour", [True, False])
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_slab_arcs_match_per_pair_reference(metric, detour, slab, monkeypatch):
    # slab=64 puts every source cell in its own slab, so ties cross slabs;
    # slab=1 does too, with a one-row slab whatever the grid size
    if slab is not None:
        monkeypatch.setattr(lattice2d, "_SLAB_ENTRIES", slab)
    model = CostModel(metric=metric)
    for inst in schedule_instances():
        cycles = permutation_cycles(inst.pi).cycles
        for rest in (1, inst.dims.index(inst.dims.m1 // 2 + 1, inst.dims.m2 // 2 + 1)):
            expected, meta = reference_arcs(inst.dims, cycles, rest, metric, detour)
            edges, cells = _arcs(inst.dims, cycles, rest, metric, detour)
            # every arc's weight, then its exit and entry cell
            assert list(edges) == expected
            assert {(a, b): cells(a, b) for a, b, _ in edges} == meta
            got = _schedule(inst.dims, cycles, rest, model, detour)
            with monkeypatch.context() as patch:
                patch.setattr(lattice2d, "_arcs", reference_arcs_lookup)
                assert _schedule(inst.dims, cycles, rest, model, detour) == got


# an arc slab's index and distance buffers take 16 bytes an entry: 4 MiB
# at the 2**18-entry budget
SLAB_BUFFERS = 16 * (1 << 18)


@pytest.mark.parametrize("detour", [True, False])
def test_arc_slabs_stay_within_budget_on_a_large_cycle(detour):
    # x-random 60 x 60 (the benchmark's grid shape): cycles of 300-350
    # cells against about 3,300 others, where slabs sized by the whole
    # cycle peaked near 18 MB; the peak is the two buffers plus the
    # per-cell and k x k arrays around them
    assert 16 * lattice2d._SLAB_ENTRIES <= SLAB_BUFFERS
    inst = LabeledInstance(LatticeDims(60, 60), gen_x_random(3600, 360, 1).pi)
    cycles = permutation_cycles(inst.pi).cycles
    assert max(map(len, cycles)) > 300
    tracemalloc.start()
    try:
        _arcs(inst.dims, cycles, 1, "euclidean", detour)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * SLAB_BUFFERS


# --- typed phase 2 ----------------------------------------------------------

def typ_cycle(*edges, types):
    from lattice_rearrange.por import MoveCycle
    return MoveCycle(tuple(edges), tuple(types))


def _trade_delta(dims: LatticeDims, e1, e2) -> float:
    """Travel added by trading the destinations of two moves."""
    (s1, g1), (s2, g2) = e1, e2
    # distance() under the Euclidean metric, each cell decoded once
    cs1, rs1 = divmod(s1 - 1, dims.m1)
    cg1, rg1 = divmod(g1 - 1, dims.m1)
    cs2, rs2 = divmod(s2 - 1, dims.m1)
    cg2, rg2 = divmod(g2 - 1, dims.m1)
    return (math.hypot(rs1 - rg2, cs1 - cg2) + math.hypot(rs2 - rg1, cs2 - cg1)
            - math.hypot(rs1 - rg1, cs1 - cg1) - math.hypot(rs2 - rg2, cs2 - cg2))


def test_merge_cost_collinear_pair():
    # single-row lattice, so euclidean distances are plain index gaps:
    # trade between edges (1->2) and (4->5) adds 2 * the gap between the
    # closest endpoints (cells 2 and 4)
    dims = LatticeDims(1, 6)
    c1 = typ_cycle((1, 2), (2, 1), types=(1, 1))
    c2 = typ_cycle((4, 5), (5, 4), types=(1, 2))
    assert list(_DeltaTrades(dims, "euclidean", *model_input([c1, c2])).pair_weights()) == [(4.0, 0, 1)]
    merged = merge_cycles_ptr([c1, c2], dims)
    assert len(merged) == 1
    added = cycle_length(merged[0], dims) - cycle_length(c1, dims) - cycle_length(c2, dims)
    assert added == pytest.approx(4.0)


def test_merge_ptr_unmergeable_unchanged():
    dims = LatticeDims(2, 4)
    c1 = typ_cycle((1, 2), (2, 1), types=(1, 2))
    c2 = typ_cycle((5, 6), (6, 5), types=(3, 4))
    assert merge_cycles_ptr([c1, c2], dims) == [c1, c2]



def test_merge_ptr_rotates_cycles_that_do_not_start_at_their_minimum():
    dims = LatticeDims(3, 3)
    late = typ_cycle((5, 1), (1, 5), types=(1, 1))
    b = typ_cycle((6, 9), (9, 6), types=(1, 1))
    merged = merge_cycles_ptr([late, b], dims)
    assert merged == merge_cycles_ptr([typ_cycle((1, 5), (5, 1), types=(1, 1)), b], dims)
    assert len(merged) == 1 and min(merged[0].edges)[0] == 1

def test_merge_ptr_reaches_minimum_pick_count():
    rng = random.Random(71)
    for _ in range(40):
        inst = random_typed_2d(rng, rng.randint(2, 5), rng.randint(2, 5), rng.randint(2, 4))
        merged = merge_cycles_ptr(form_cycles_ptr(inst), inst.dims)
        misplaced = sum(1 for a, b in zip(inst.start_types, inst.goal_types) if a != b)
        assert misplaced + len(merged) == oracle_min_picks(inst)


def test_merge_ptr_block_layout_trades_stay_in_block():
    rng = random.Random(73)
    dims = LatticeDims(16, 16)
    goal, fell_back = pattern_blocks_types(dims, 16)
    assert not fell_back
    for _ in range(10):
        start = list(goal)
        rng.shuffle(start)
        inst = TypedInstance(dims, 16, tuple(start), goal)
        _, log = _merge_cycles_ptr_logged(form_cycles_ptr(inst), dims)
        assert log  # 16 types over 256 cells: fusions happen every time
        for _, g1, g2 in log:
            assert pattern_block_of(dims, 16, g1) == pattern_block_of(dims, 16, g2)


def reference_cycle_merge_cost(c1, c2, dims):
    """cycle_merge_cost as it was before the shared fusion engine."""
    shared = set(c1.edge_types) & set(c2.edge_types)
    if not shared:
        return math.inf
    best = math.inf
    for (s1, g1), t1 in zip(c1.edges, c1.edge_types):
        if t1 not in shared:
            continue
        for (s2, g2), t2 in zip(c2.edges, c2.edge_types):
            if t2 == t1:
                best = min(best, _trade_delta(dims, (s1, g1), (s2, g2)))
    return best


def reference_argmin_trade(c1, c2, dims):
    best = None
    for (s1, g1), t1 in zip(c1.edges, c1.edge_types):
        for (s2, g2), t2 in zip(c2.edges, c2.edge_types):
            if t2 != t1:
                continue
            key = (_trade_delta(dims, (s1, g1), (s2, g2)), min(s1, s2), max(s1, s2))
            if best is None or key < best[0]:
                best = (key, t1, (s1, g1), (s2, g2))
    return best


def reference_merge_cycles_ptr_logged(cycles, dims):
    """_merge_cycles_ptr_logged as it was before the shared fusion engine."""
    cycles = list(cycles)
    n = len(cycles)
    log = []
    if n <= 1:
        return cycles, log
    pair_edges = []
    for i in range(n):
        for j in range(i + 1, n):
            w = reference_cycle_merge_cost(cycles[i], cycles[j], dims)
            if w < math.inf:
                pair_edges.append((w, min(cycles[i].edges)[0], min(cycles[j].edges)[0], i, j))
    pair_edges.sort()
    comp = list(range(n))
    current = dict(enumerate(cycles))
    for _, _, _, i, j in pair_edges:
        ri, rj = _find(comp, i), _find(comp, j)
        if ri == rj:
            continue
        a, b = current[ri], current[rj]
        _, t, e1, e2 = reference_argmin_trade(a, b, dims)
        log.append((t, e1[1], e2[1]))
        fused = _swap_destinations([a, b], e1, e2)
        comp[ri] = rj
        del current[ri]
        current[_find(comp, j)] = fused[0]
    return sorted(current.values(), key=lambda c: min(c.edges)[0]), log


def test_merge_ptr_matches_reference_on_random_grids():
    rng = random.Random(79)
    traded = 0
    for _ in range(400):
        m1, m2 = rng.randint(1, 6), rng.randint(2, 6)
        k = rng.randint(1, min(4, m1 * m2))
        goal = list(range(1, k + 1)) + [rng.randint(1, k) for _ in range(m1 * m2 - k)]
        if rng.random() < 0.5:
            goal.sort()
        else:
            rng.shuffle(goal)
        start = goal[:]
        rng.shuffle(start)
        inst = TypedInstance(LatticeDims(m1, m2), k, tuple(start), tuple(goal))
        cycles = form_cycles_ptr(inst)
        got = _merge_cycles_ptr_logged(cycles, inst.dims)
        assert got == reference_merge_cycles_ptr_logged(cycles, inst.dims), inst
        traded += bool(got[1])
    assert traded > 100


@pytest.mark.parametrize("dims,k,pattern", [((20, 20), 4, "blocks"), ((32, 32), 16, "blocks"),
                                            ((32, 32), 32, "columns")])
def test_merge_ptr_matches_reference_on_workload_grids(dims, k, pattern):
    n = dims[0] * dims[1]
    inst = gen_typed(dims, k, (n // k,) * k, GoalPattern(pattern), 5)
    cycles = form_cycles_ptr(inst)
    got = _merge_cycles_ptr_logged(cycles, inst.dims)
    assert got[1]
    assert got == reference_merge_cycles_ptr_logged(cycles, inst.dims)


def typed_x_random(m, k, x, seed):
    """m x m grid with k block-layout goal types whose items start where
    gen_x_random(m * m, x) puts them: many small cycles."""
    dims = LatticeDims(m, m)
    goal, _ = pattern_blocks_types(dims, k)
    start = tuple(goal[p - 1] for p in gen_x_random(m * m, x, seed).pi)
    return TypedInstance(dims, k, start, goal)


# (id, instance builder, fewest cycles form_cycles_ptr must give): blocks
# and columns give a few long cycles, x-random starts many small ones
LARGE_GRIDS = (
    [(f"blocks-48x48-k16-{s}", lambda s=s: gen_typed((48, 48), 16, (144,) * 16,
                                                      GoalPattern("blocks"), s), 2)
     for s in (1, 2, 3)]
    + [(f"columns-48x48-k48-{s}", lambda s=s: gen_typed((48, 48), 48, (48,) * 48,
                                                         GoalPattern("columns"), s), 2)
       for s in (1, 2, 3)]
    + [("xrandom-32x32-k4-x6", lambda: typed_x_random(32, 4, 6, 1), 50),
       ("xrandom-48x48-k16-x10", lambda: typed_x_random(48, 16, 10, 1), 50),
       ("xrandom-24x24-k64-x4", lambda: typed_x_random(24, 64, 4, 1), 50)]
)


@pytest.mark.parametrize("make,fewest", [case[1:] for case in LARGE_GRIDS],
                         ids=[case[0] for case in LARGE_GRIDS])
def test_merge_ptr_matches_reference_on_large_grids(make, fewest, monkeypatch):
    inst = make()
    cycles = form_cycles_ptr(inst)
    assert len(cycles) >= fewest
    expected = reference_merge_cycles_ptr_logged(cycles, inst.dims)
    assert expected[1]
    assert _merge_cycles_ptr_logged(cycles, inst.dims) == expected
    # slab=64 splits every delta matrix and trade query into many slabs,
    # so least entries and their ties meet across slab boundaries
    monkeypatch.setattr(lattice2d, "_SLAB_ENTRIES", 64)
    assert _merge_cycles_ptr_logged(cycles, inst.dims) == expected


@pytest.mark.parametrize("m1,m2", [(1, 64), (2, 3), (7, 13), (30, 17), (64, 64)])
def test_trade_delta_matrix_matches_scalar_delta(m1, m2):
    # every entry of the model's delta matrix against the scalar formula,
    # over 150 random two-cycles; one model's sources are distinct, so they
    # come in batches of disjoint cell pairs, one model per batch
    rng = random.Random(m1 * 100 + m2)
    dims = LatticeDims(m1, m2)
    cells = list(dims.cells())
    left = 150
    while left:
        batch = min(left, len(cells) // 2)
        left -= batch
        picked = rng.sample(cells, 2 * batch)
        cycles = [typ_cycle((a, b), (b, a), types=(1, 1)) for a, b in zip(picked[::2], picked[1::2])]
        model = _DeltaTrades(dims, "euclidean", *model_input(cycles))
        edges = list(zip(model.src, model.goal))
        assert sorted(edges) == sorted(e for cyc in cycles for e in cyc.edges)
        got = _trade_deltas(model.table, model.moves[:, None], model.length[:, None],
                            model.moves[None, :], model.length[None, :])
        assert got.tolist() == [[_trade_delta(dims, e1, e2) for e2 in edges] for e1 in edges]


# --- typed phase 3 ----------------------------------------------------------

def test_sweep_ptr_no_cycles_empty():
    assert sweep_cycles_ptr([], LatticeDims(3, 3)).steps == ()


def test_sweep_ptr_single_cycle_shape():
    dims = LatticeDims(3, 3)
    # cycle over cells 5 -> 9 -> 5; cell 5 = (2,2) is nearer the rest cell
    cyc = typ_cycle((5, 9), (9, 5), types=(1, 2))
    plan = sweep_cycles_ptr([cyc], dims)
    acts = [(s.cell, s.action) for s in plan.steps]
    assert acts == [(5, Action.PICK), (9, Action.SWAP), (5, Action.PLACE)]


def brute_arborescence_weight(weights: dict[tuple[int, int], float], k: int) -> float:
    """Exhaustive minimum over parent functions rooted at 0."""
    best = math.inf
    for parents in itertools.product(range(0, k + 1), repeat=k):
        if any(parents[v - 1] == v for v in range(1, k + 1)):
            continue
        # every vertex must reach the root
        ok = True
        total = 0.0
        for v in range(1, k + 1):
            seen = set()
            cur = v
            while cur != 0:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = parents[cur - 1]
            if not ok:
                break
            total += weights[(parents[v - 1], v)]
        if ok:
            best = min(best, total)
    return best


def test_sweep_ptr_inter_cycle_travel_within_tree_bound():
    rng = random.Random(79)
    checked = 0
    while checked < 20:
        inst = random_typed_2d(rng, rng.randint(3, 5), rng.randint(3, 5), rng.randint(3, 5))
        cycles = merge_cycles_ptr(form_cycles_ptr(inst), inst.dims)
        if not 2 <= len(cycles) <= 4:
            continue
        plan = sweep_cycles_ptr(cycles, inst.dims, inst.rest)
        internal = sum(cycle_length(c, inst.dims) for c in cycles)
        total = plan_cost(inst, plan).travel
        cells = [tuple(s for s, _ in c.edges) for c in cycles]
        weights = {}
        for b, bc in enumerate(cells, start=1):
            weights[(0, b)] = min(hand_dist(inst.dims, inst.rest, e) for e in bc)
        for a, ac in enumerate(cells, start=1):
            for b, bc in enumerate(cells, start=1):
                if a != b:
                    weights[(a, b)] = min(hand_dist(inst.dims, u, e) for u in ac for e in bc)
        bound = 2.0 * brute_arborescence_weight(weights, len(cells))
        assert total - internal <= bound + 1e-9
        checked += 1


# --- typed pipeline end to end ----------------------------------------------

def test_plan_ptr_solved_empty():
    inst = TypedInstance(LatticeDims(2, 3), 3, (1, 2, 3, 1, 2, 3), (1, 2, 3, 1, 2, 3))
    assert plan_ptr(inst).steps == ()


def test_plan_ptr_2x2_column_goal_matches_oracle_picks():
    dims = LatticeDims(2, 2)
    goal = (1, 1, 2, 2)
    for start in set(itertools.permutations(goal)):
        inst = TypedInstance(dims, 2, start, goal)
        plan = plan_ptr(inst)
        assert is_solved(simulate(inst, plan).config, inst)
        assert plan.picks == oracle_optimal(inst).cost.picks


def test_plan_ptr_small_instances_match_oracle():
    rng = random.Random(83)
    for _ in range(60):
        inst = random_typed_2d(rng, 2, rng.randint(2, 3), rng.randint(2, 3))
        plan = plan_ptr(inst)
        res = oracle_optimal(inst)
        assert plan.picks == res.cost.picks
        assert plan_cost(inst, plan).travel >= res.cost.travel - 1e-9
        assert is_solved(simulate(inst, plan).config, inst)


def test_plan_ptr_block_layout_16x16():
    rng = random.Random(89)
    dims = LatticeDims(16, 16)
    goal, _ = pattern_blocks_types(dims, 16)
    for _ in range(30):
        start = list(goal)
        rng.shuffle(start)
        inst = TypedInstance(dims, 16, tuple(start), goal)
        plan = plan_ptr(inst)
        assert plan.picks == oracle_min_picks(inst)
        assert is_solved(simulate(inst, plan).config, inst)


def test_plan_ptr_column_goal_16x16():
    rng = random.Random(97)
    dims = LatticeDims(16, 16)
    goal = pattern_columns_types(dims, 16)
    for _ in range(10):
        start = list(goal)
        rng.shuffle(start)
        inst = TypedInstance(dims, 16, tuple(start), goal)
        plan = plan_ptr(inst)
        assert plan.picks == oracle_min_picks(inst)
        assert is_solved(simulate(inst, plan).config, inst)


# --- greedy baseline --------------------------------------------------------

def test_greedy_2d_solves_and_never_beats_minimum_picks():
    rng = random.Random(101)
    for _ in range(20):
        lab = random_labeled(rng, rng.randint(2, 5), rng.randint(2, 5))
        plan = greedy_2d(lab)
        assert is_solved(simulate(lab, plan).config, lab)
        assert plan.picks >= oracle_min_picks(lab)
        typ = random_typed_2d(rng, rng.randint(2, 4), rng.randint(2, 4), rng.randint(2, 3))
        tplan = greedy_2d(typ)
        assert is_solved(simulate(typ, tplan).config, typ)
        assert tplan.picks >= plan_ptr(typ).picks


# --- layout helpers ---------------------------------------------------------

def test_pattern_blocks_4x4():
    types, fell_back = pattern_blocks_types(LatticeDims(4, 4), 4)
    assert not fell_back
    assert types == (1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4)


def test_pattern_blocks_fallback_runs():
    types, fell_back = pattern_blocks_types(LatticeDims(2, 3), 3)
    assert fell_back
    assert types == (1, 1, 2, 2, 3, 3)
    with pytest.raises(ValueError):
        pattern_blocks_types(LatticeDims(3, 4), 5)


def test_pattern_columns():
    assert pattern_columns_types(LatticeDims(3, 4), 4) == \
        (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)
    with pytest.raises(ValueError):
        pattern_columns_types(LatticeDims(3, 4), 3)


def test_goal_pattern_resolve():
    dims = LatticeDims(4, 4)
    blocks, flag = GoalPattern("blocks").resolve(dims, 4)
    assert blocks == pattern_blocks_types(dims, 4)[0] and not flag
    cols, _ = GoalPattern("columns").resolve(dims, 4)
    assert cols == pattern_columns_types(dims, 4)
    explicit = tuple([1] * 8 + [2] * 8)
    assert GoalPattern("explicit", explicit).resolve(dims, 2) == (explicit, False)
    with pytest.raises(ValueError):
        GoalPattern("diagonal")
    with pytest.raises(ValueError):
        GoalPattern("blocks", explicit)


# --- guards and determinism -------------------------------------------------

def test_planners_reject_1d():
    lab = LabeledInstance(LatticeDims(4, 1), (2, 1, 4, 3))
    typ = TypedInstance(LatticeDims(4, 1), 2, (2, 1, 2, 1), (1, 1, 2, 2))
    for fn, inst in [(sweep_cycles_ltr, lab), (switch_cycles_ltr, lab),
                     (plan_ptr, typ), (greedy_2d, lab)]:
        with pytest.raises(ValueError):
            fn(inst)


def test_repeat_runs_identical():
    rng = random.Random(103)
    lab = random_labeled(rng, 6, 6)
    assert switch_cycles_ltr(lab).steps == switch_cycles_ltr(lab).steps
    typ = random_typed_2d(rng, 5, 5, 5)
    assert plan_ptr(typ).steps == plan_ptr(typ).steps
