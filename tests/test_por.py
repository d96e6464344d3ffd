"""Tests for the typed 1D planner and its phases."""

import itertools
import math
import random

import pytest

from lattice_rearrange import (
    GoalPattern,
    LatticeDims,
    TypedInstance,
    gen_typed,
    gen_x_random,
    simulate,
)
from lattice_rearrange.lattice2d import form_cycles_ptr
from lattice_rearrange.por import (
    MoveCycle,
    _assignment_of,
    _cheapest_trade,
    _cycles_from_assignment,
    _find,
    _pair_gap,
    _splice,
    form_cycles,
    greedy_plan,
    greedy_por,
    merge_cycles,
    merge_cycles_mst,
    opt_plan_por,
)
from lattice_rearrange.oracle import oracle_min_picks, oracle_optimal


def typ1d(k, start, goal):
    return TypedInstance(LatticeDims(len(start), 1), k, tuple(start), tuple(goal))


def cyc(*edges, types):
    return MoveCycle(tuple(edges), tuple(types))


def total_distance(cycles):
    return sum(abs(s - g) for c in cycles for s, g in c.edges)


def _swap_destinations(cycles, e1, e2) -> list[MoveCycle]:
    """Fuse two of the given cycles by trading the destinations of e1, e2."""
    assign, types = _assignment_of(cycles)
    assign[e1[0]], assign[e2[0]] = e2[1], e1[1]
    return _cycles_from_assignment(assign, types)


def random_typed(rng, m, k, aggregated):
    while True:
        goal = sorted(rng.randint(1, k) for _ in range(m))
        if len(set(goal)) < 2:
            continue
        start = goal[:]
        rng.shuffle(start)
        if not aggregated:
            rng.shuffle(goal)
        if start != goal:
            return typ1d(k, start, goal)


# --- phase 1 ----------------------------------------------------------------

def test_form_cycles_solved_instance():
    assert form_cycles(typ1d(2, (1, 2, 2), (1, 2, 2))) == []


def test_form_cycles_two_cell_trade():
    cycles = form_cycles(typ1d(2, (2, 1), (1, 2)))
    assert len(cycles) == 1
    assert cycles[0].edges == ((1, 2), (2, 1))
    assert cycles[0].edge_types == (2, 1)


def test_form_cycles_orbit_invariants():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_typed(rng, rng.randint(3, 10), rng.randint(2, 3),
                            aggregated=rng.random() < 0.5)
        for c in form_cycles(inst):
            n = len(c.edges)
            for idx in range(n):
                assert c.edges[idx][1] == c.edges[(idx + 1) % n][0]
            for (s, g), t in zip(c.edges, c.edge_types):
                assert inst.start_types[s - 1] == t
                assert inst.goal_types[g - 1] == t


def brute_matching_distance(inst):
    """Per-type minimum |src - goal| assignment cost by enumeration."""
    total = 0
    for t in range(1, inst.k + 1):
        srcs = [c for c in range(1, inst.dims.n + 1)
                if inst.start_types[c - 1] == t != inst.goal_types[c - 1]]
        gols = [c for c in range(1, inst.dims.n + 1)
                if inst.goal_types[c - 1] == t != inst.start_types[c - 1]]
        if not srcs:
            continue
        total += min(sum(abs(s - g) for s, g in zip(srcs, perm))
                     for perm in itertools.permutations(gols))
    return total


def test_form_cycles_distance_is_per_type_minimum():
    inst = typ1d(3, (2, 1, 3, 1, 2, 3), (1, 1, 2, 2, 3, 3))
    cycles = form_cycles(inst)
    assert total_distance(cycles) == brute_matching_distance(inst) == 8
    rng = random.Random(23)
    for _ in range(20):
        inst = random_typed(rng, rng.randint(3, 7), rng.randint(2, 3),
                            aggregated=rng.random() < 0.5)
        assert total_distance(form_cycles(inst)) == brute_matching_distance(inst)


# --- phase 2 ----------------------------------------------------------------

def test_merge_single_cycle_unchanged():
    cycles = form_cycles(typ1d(2, (2, 1), (1, 2)))
    assert merge_cycles(cycles) == cycles


def test_merge_fuses_parallel_same_type_moves():
    # both type-2 items move rightward into the type-2 goal block, so the
    # two trades can swap destinations for free
    inst = typ1d(3, (2, 2, 1, 1, 3, 3), (1, 1, 2, 2, 3, 3))
    before = form_cycles(inst)
    assert len(before) == 2
    after = merge_cycles(before)
    assert len(after) == 1
    assert total_distance(after) == total_distance(before)


def test_merge_conserves_distance():
    rng = random.Random(37)
    for _ in range(40):
        inst = random_typed(rng, rng.randint(4, 12), rng.randint(2, 4),
                            aggregated=rng.random() < 0.5)
        before = form_cycles(inst)
        after = merge_cycles(before)
        assert total_distance(after) == total_distance(before)
        assert len(after) <= len(before)


def test_merge_aggregated_bound():
    # with a sorted goal arrangement, free fusions leave at most k-1 cycles
    rng = random.Random(41)
    for _ in range(100):
        k = 4
        inst = random_typed(rng, rng.randint(6, 14), k, aggregated=True)
        assert len(merge_cycles(form_cycles(inst))) <= k - 1


def merge_cycles_fixed_point(cycles):
    """Reference: the all-pairs rescan that merge_cycles replaced."""
    cycles = list(cycles)
    while True:
        found = None
        for i in range(len(cycles)):
            for j in range(i + 1, len(cycles)):
                shared = cycles[i].types & cycles[j].types
                if not shared:
                    continue
                for (s1, g1), t1 in zip(cycles[i].edges, cycles[i].edge_types):
                    if t1 not in shared:
                        continue
                    for (s2, g2), t2 in zip(cycles[j].edges, cycles[j].edge_types):
                        if t2 != t1:
                            continue
                        if _pair_gap((s1, g1), (s2, g2)) == 0.0:
                            key = (min(s1, s2), max(s1, s2))
                            if found is None or key < found[0]:
                                found = (key, (s1, g1), (s2, g2))
        if found is None:
            return cycles
        cycles = _swap_destinations(cycles, found[1], found[2])


def typed_runs(m, k, seed):
    """gen_typed row whose goal is k contiguous runs of m/k cells."""
    goal = tuple(c // (m // k) + 1 for c in range(m))
    return gen_typed(m, k, (m // k,) * k, GoalPattern("explicit", goal), seed)


def typed_local(m, run, x, seed):
    """Row of gen_x_random(m, x): each item takes its home cell's run type."""
    goal = tuple(c // run + 1 for c in range(m))
    start = tuple(goal[p - 1] for p in gen_x_random(m, x, seed).pi)
    return typ1d(m // run, start, goal)


def test_merge_matches_fixed_point_on_random_rows():
    rng = random.Random(43)
    fused = 0
    for _ in range(2500):
        m = rng.randint(2, 16)
        k = rng.randint(1, min(5, m))
        goal = [rng.randint(1, k) for _ in range(m)]
        if rng.random() < 0.5:
            goal.sort()
        start = goal[:]
        rng.shuffle(start)
        cycles = form_cycles(typ1d(k, start, goal))
        merged = merge_cycles(cycles)
        assert merged == merge_cycles_fixed_point(cycles), (start, goal)
        fused += len(merged) < len(cycles)
    assert fused > 500


@pytest.mark.parametrize("inst", [typed_runs(600, 4, seed) for seed in (1, 2, 3)]
                         + [typed_local(256, 16, 24, seed) for seed in range(1, 9)])
def test_merge_matches_fixed_point_on_workload_rows(inst):
    cycles = form_cycles(inst)
    merged = merge_cycles(cycles)
    assert len(merged) < len(cycles)
    assert merged == merge_cycles_fixed_point(cycles)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_merge_scales_to_long_rows(seed):
    # the all-pairs rescan took up to seconds per row at this size
    cycles = form_cycles(typed_runs(4000, 4, seed))
    merged = merge_cycles(cycles)
    assert len(merged) <= 4 - 1
    assert total_distance(merged) == total_distance(cycles)


# --- cycle distance ---------------------------------------------------------

def test_cycle_distance_no_shared_type():
    a = cyc((1, 2), (2, 1), types=(1, 2))
    b = cyc((4, 5), (5, 4), types=(3, 4))
    assert _cheapest_trade(a, b, _pair_gap) is None


def test_cycle_distance_gap_values():
    a = cyc((1, 2), (2, 1), types=(1, 1))
    # every pair of a with this cycle has gap 1; the leftmost sources win
    b = cyc((3, 4), (4, 3), types=(1, 1))
    assert _cheapest_trade(a, b, _pair_gap) == (1.0, 1, (1, 2), (3, 4))
    assert _cheapest_trade(a, cyc((4, 5), (5, 4), types=(1, 1)), _pair_gap)[0] == 2.0
    assert _cheapest_trade(a, cyc((2, 3), (3, 2), types=(1, 1)), _pair_gap)[0] == 0.0


# --- phase 3 ----------------------------------------------------------------

def test_mst_leaves_unmergeable_cycles():
    a = cyc((1, 2), (2, 1), types=(1, 1))
    b = cyc((4, 5), (5, 4), types=(2, 2))
    assert merge_cycles_mst([a, b]) == [a, b]


def test_mst_collinear_triple():
    a = cyc((1, 2), (2, 1), types=(1, 1))
    b = cyc((4, 5), (5, 4), types=(1, 1))
    c = cyc((8, 9), (9, 8), types=(1, 1))
    merged = merge_cycles_mst([a, b, c])
    assert len(merged) == 1
    # forest skips the widest gap (A-C): added travel 2*(2 + 3)
    added = total_distance(merged) - total_distance([a, b, c])
    assert added == 10



def test_mst_rotates_cycles_that_do_not_start_at_their_minimum():
    # fuse_cycles keys pairs and splices orbits by each cycle's first
    # source; a hand-built cycle that starts elsewhere is rotated first
    late = cyc((2, 1), (1, 2), types=(1, 1))
    b = cyc((4, 5), (5, 4), types=(1, 1))
    merged = merge_cycles_mst([late, b])
    assert merged == merge_cycles_mst([cyc((1, 2), (2, 1), types=(1, 1)), b])
    assert merged == [cyc((1, 5), (5, 4), (4, 2), (2, 1), types=(1, 1, 1, 1))]
    lone = cyc((3, 1), (1, 2), (2, 3), types=(1, 2, 1))
    assert merge_cycles_mst([lone]) == [cyc((1, 2), (2, 3), (3, 1), types=(2, 1, 1))]

def brute_min_added(cycles):
    """Cheapest total added distance over all fusion schedules."""
    best = math.inf
    finite = [(i, j) for i in range(len(cycles)) for j in range(i + 1, len(cycles))
              if _cheapest_trade(cycles[i], cycles[j], _pair_gap) is not None]
    if not finite:
        return 0.0
    for i, j in finite:
        d = _cheapest_trade(cycles[i], cycles[j], _pair_gap)[0]
        fused = merge_cycles_mst([cycles[i], cycles[j]])
        assert len(fused) == 1
        rest = [c for t, c in enumerate(cycles) if t not in (i, j)] + fused
        best = min(best, 2.0 * d + brute_min_added(rest))
    return best if best < math.inf else 0.0


def test_mst_matches_brute_force_schedules():
    # cycle sets must come from the real pipeline: phase 1 optimality is
    # what guarantees destination trades never shrink total distance
    rng = random.Random(53)
    checked = 0
    while checked < 25:
        inst = random_typed(rng, rng.randint(6, 16), rng.randint(2, 4),
                            aggregated=rng.random() < 0.3)
        cycles = merge_cycles(form_cycles(inst))
        if not 2 <= len(cycles) <= 4:
            continue
        merged = merge_cycles_mst(cycles)
        added = total_distance(merged) - total_distance(cycles)
        assert added == pytest.approx(brute_min_added(cycles)), cycles
        checked += 1


def reference_cycle_distance(c1, c2):
    """cycle_distance as it was before the shared fusion engine."""
    shared = c1.types & c2.types
    if not shared:
        return math.inf
    best = math.inf
    for (s1, g1), t1 in zip(c1.edges, c1.edge_types):
        if t1 not in shared:
            continue
        for (s2, g2), t2 in zip(c2.edges, c2.edge_types):
            if t2 == t1:
                best = min(best, _pair_gap((s1, g1), (s2, g2)))
    return best


def reference_argmin_pair(c1, c2):
    """The same-type edge pair realizing cycle_distance, ties leftward."""
    best = None
    for (s1, g1), t1 in zip(c1.edges, c1.edge_types):
        for (s2, g2), t2 in zip(c2.edges, c2.edge_types):
            if t2 != t1:
                continue
            key = (_pair_gap((s1, g1), (s2, g2)), min(s1, s2), max(s1, s2))
            if best is None or key < best[0]:
                best = (key, (s1, g1), (s2, g2))
    return best


def reference_merge_cycles_mst(cycles):
    """merge_cycles_mst before the shared fusion engine, without its
    skip_costly_merges option (off by default and since removed)."""
    cycles = list(cycles)
    n = len(cycles)
    if n <= 1:
        return cycles
    pair_edges = []
    for i in range(n):
        for j in range(i + 1, n):
            d = reference_cycle_distance(cycles[i], cycles[j])
            if d < math.inf:
                pair_edges.append((d, cycles[i].min_cell, cycles[j].min_cell, i, j))
    pair_edges.sort()
    comp = list(range(n))
    current = dict(enumerate(cycles))
    for d, _, _, i, j in pair_edges:
        ri, rj = _find(comp, i), _find(comp, j)
        if ri == rj:
            continue
        a, b = current[ri], current[rj]
        _, e1, e2 = reference_argmin_pair(a, b)
        fused = _swap_destinations([a, b], e1, e2)
        comp[ri] = rj
        del current[ri]
        current[_find(comp, j)] = fused[0]
    return sorted(current.values(), key=lambda c: c.min_cell)


def test_mst_matches_reference_on_random_rows():
    rng = random.Random(59)
    fused = 0
    for _ in range(1500):
        m = rng.randint(2, 24)
        k = rng.randint(1, min(5, m))
        goal = [rng.randint(1, k) for _ in range(m)]
        if rng.random() < 0.5:
            goal.sort()
        start = goal[:]
        rng.shuffle(start)
        formed = form_cycles(typ1d(k, start, goal))
        for cycles in (formed, merge_cycles(formed)):
            merged = merge_cycles_mst(cycles)
            assert merged == reference_merge_cycles_mst(cycles), (start, goal)
            fused += len(merged) < len(cycles)
    assert fused > 500


@pytest.mark.parametrize("inst", [typed_runs(600, 4, seed) for seed in (1, 2)]
                         + [typed_local(256, 16, 24, seed) for seed in range(1, 5)])
def test_mst_matches_reference_on_workload_rows(inst):
    formed = form_cycles(inst)
    for cycles in (formed, merge_cycles(formed)):
        merged = merge_cycles_mst(cycles)
        assert len(merged) < len(cycles) or len(cycles) == 1
        assert merged == reference_merge_cycles_mst(cycles)


def random_cycles(rng, dim):
    """Cycles of a random typed row (dim 1) or small grid (dim 2)."""
    if dim == 1:
        return form_cycles(random_typed(rng, rng.randint(4, 30), rng.randint(2, 4),
                                        aggregated=rng.random() < 0.5))
    m1, m2 = rng.randint(2, 7), rng.randint(2, 7)
    goal = [rng.randint(1, 3) for _ in range(m1 * m2)]
    start = goal[:]
    rng.shuffle(start)
    return form_cycles_ptr(TypedInstance(LatticeDims(m1, m2), 3, tuple(start), tuple(goal)))


@pytest.mark.parametrize("dim", [1, 2])
def test_splice_matches_swap_destinations(dim):
    # the in-place splice fuse_cycles makes against the whole-assignment
    # rebuild it replaced, in both argument orders
    rng = random.Random(109 + dim)
    checked = 0
    while checked < 1000:
        cycles = random_cycles(rng, dim)
        if len(cycles) < 2:
            continue
        a, b = rng.sample(cycles, 2)
        e1, e2 = rng.choice(a.edges), rng.choice(b.edges)
        fused = _swap_destinations([a, b], e1, e2)
        assert len(fused) == 1
        assert _splice(a, b, e1, e2) == fused[0], (a, b, e1, e2)
        assert _splice(b, a, e2, e1) == fused[0], (a, b, e1, e2)
        checked += 1


# --- full pipeline ----------------------------------------------------------

def test_opt_plan_solved():
    assert len(opt_plan_por(typ1d(2, (1, 2), (1, 2)))) == 0


def test_opt_plan_two_cell_trade():
    inst = typ1d(2, (2, 1), (1, 2))
    plan = opt_plan_por(inst)
    cost = simulate(inst, plan).cost
    assert cost.picks == 3
    assert cost.travel == pytest.approx(2.0)


def test_opt_plan_matches_oracle_small():
    rng = random.Random(61)
    for _ in range(60):
        inst = random_typed(rng, rng.randint(3, 6), rng.choice([2, 3]),
                            aggregated=rng.random() < 0.5)
        plan = opt_plan_por(inst)
        sim = simulate(inst, plan)
        assert sim.config == inst.goal_types
        best = oracle_optimal(inst).cost
        assert sim.cost.picks == best.picks, inst
        assert sim.cost.travel == pytest.approx(best.travel, abs=1e-9), inst


def test_opt_plan_pick_minimal_at_scale():
    # the pick count has a closed form at any size; travel optimality is
    # covered by the small-instance oracle comparison above
    rng = random.Random(67)
    for _ in range(15):
        inst = random_typed(rng, rng.randint(20, 60), rng.randint(2, 6),
                            aggregated=rng.random() < 0.5)
        plan = opt_plan_por(inst)
        sim = simulate(inst, plan)
        assert sim.config == inst.goal_types
        assert sim.cost.picks == oracle_min_picks(inst)


@pytest.mark.xfail(strict=True, reason="exact only for rest = 1 (ROADMAP item 2)")
def test_opt_plan_matches_oracle_rest_not_one():
    # the walk enters the cycle at its leftmost cell, not the one nearest rest
    inst = TypedInstance(LatticeDims(2, 1), 2, (2, 1), (1, 2), rest=2)
    assert simulate(inst, opt_plan_por(inst)).cost == oracle_optimal(inst).cost


# --- greedy baseline --------------------------------------------------------

def test_greedy_solved_instance():
    assert len(greedy_por(typ1d(2, (1, 2), (1, 2)))) == 0


def test_greedy_solves_and_never_beats_opt_picks():
    rng = random.Random(71)
    for _ in range(40):
        inst = random_typed(rng, rng.randint(3, 30), rng.randint(2, 5),
                            aggregated=rng.random() < 0.5)
        plan = greedy_por(inst)
        sim = simulate(inst, plan)
        assert sim.config == inst.goal_types
        opt = simulate(inst, opt_plan_por(inst)).cost
        assert sim.cost.picks >= opt.picks


def test_greedy_requires_1d():
    inst = TypedInstance(LatticeDims(2, 2), 2, (1, 2, 2, 1), (2, 1, 1, 2))
    with pytest.raises(ValueError):
        greedy_por(inst)
    # the generic engine accepts the same instance
    sim = simulate(inst, greedy_plan(inst))
    assert sim.config == inst.goal_types
