"""Tests for the typed 1D planner and its phases."""

import functools
import itertools
import math
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from lattice_rearrange import (
    CostModel,
    GoalPattern,
    LatticeDims,
    MalformedPermutation,
    TypedInstance,
    gen_block_random,
    gen_column_random,
    gen_typed,
    gen_uniform_permutation,
    gen_x_random,
    simulate,
)
from lattice_rearrange.graphs import _find
from lattice_rearrange import por
from lattice_rearrange.lattice2d import (
    _DeltaTrades,
    form_cycles_ptr,
    merge_cycles_ptr,
    plan_ptr,
    sweep_cycles_ptr,
)
from lattice_rearrange.por import (
    MoveCycle,
    _GapTrades,
    _assignment_of,
    _assignment_orbits,
    _move_cycles,
    form_cycles,
    fuse_cycles,
    greedy_plan,
    greedy_por,
    group_sweep_cycles_por,
    merge_cycles,
    merge_cycles_mst,
    opt_plan_por,
)
from lattice_rearrange.oracle import oracle_min_picks, oracle_optimal
from conftest import model_input, reference_greedy_plan, with_rest


def typ1d(k, start, goal):
    return TypedInstance(LatticeDims(len(start), 1), k, tuple(start), tuple(goal))


def cyc(*edges, types):
    return MoveCycle(tuple(edges), tuple(types))


def moves(c):
    """A cycle's (move, type) pairs, as reference_cheapest_trade reads them."""
    return list(zip(c.edges, c.edge_types))


def total_distance(cycles):
    return sum(abs(s - g) for c in cycles for s, g in c.edges)


def _swap_destinations(cycles, e1, e2) -> list[MoveCycle]:
    """Fuse two of the given cycles by trading the destinations of e1, e2."""
    assign, types = _assignment_of(cycles)
    assign[e1[0]], assign[e2[0]] = e2[1], e1[1]
    return _move_cycles(_assignment_orbits(assign), types)


def fuse(cycles, trades):
    """fuse_cycles on the assignment of cycles: (fused cycles, log)."""
    assign, types = _assignment_of(cycles)
    orbits, log = fuse_cycles(assign, types, trades)
    assert orbits == _assignment_orbits(assign)
    return _move_cycles(orbits, types), log


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


# --- the all-pairs fusion, before the span candidates ----------------------
#
# reference_merge_cycles is merge_cycles as it was before free fusion became
# the weight-0 prefix of fuse_cycles: one left-to-right sweep over the
# sources.  reference_cheapest_trade and AllPairsGapTrades are the 1D trade
# model as it was before the span candidates: every pair of cycles weighed
# by scanning both cycles' moves with _pair_gap, ties to the smallest
# source pair.  Their bodies are verbatim.

def _pair_gap(e1: tuple[int, int], e2: tuple[int, int]) -> float:
    """Half the distance added by trading the two edges' destinations."""
    (s1, g1), (s2, g2) = e1, e2
    delta = abs(s1 - g2) + abs(s2 - g1) - abs(s1 - g1) - abs(s2 - g2)
    return max(0.0, delta / 2.0)


def reference_merge_cycles(cycles) -> list[MoveCycle]:
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
    return _move_cycles(_assignment_orbits(assign), types)


def reference_cheapest_trade(m1, m2, cost):
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


class AllPairsGapTrades:
    """1D trade model: _pair_gap, scanned move pair by move pair.  Each
    component's (move, type) pairs are one list under its root."""

    def __init__(self, orbits, assign, types):
        self.members = [[((s, assign[s]), types[s]) for s in orbit] for orbit in orbits]

    def pair_weights(self):
        members = self.members
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                trade = reference_cheapest_trade(members[i], members[j], _pair_gap)
                if trade is not None:
                    yield trade[0], i, j

    def trade(self, ri, rj):
        x, y = self.members[ri], self.members[rj]
        _, t, (s1, g1), (s2, g2) = reference_cheapest_trade(x, y, _pair_gap)
        x[x.index(((s1, g1), t))] = (s1, g2), t
        y[y.index(((s2, g2), t))] = (s2, g1), t
        self.members[rj] = x + y
        return t, (s1, g1), (s2, g2)


class EdgeBlindTrades(AllPairsGapTrades):
    """AllPairsGapTrades under fuse_cycles' trade(ri, rj, i, j); it finds
    the cheapest trade from the two components alone."""

    def trade(self, ri, rj, i, j):
        return super().trade(ri, rj)


def reference_fusion(cycles):
    """merge_cycles_mst(merge_cycles(cycles)) as it was: the sweep, then
    fuse_cycles over every cycle pair."""
    return fuse(reference_merge_cycles(cycles), EdgeBlindTrades)[0]


def reference_forest_weight(cycles):
    """Weight of a minimum spanning forest over every cycle pair's cheapest
    trade gap."""
    members = [moves(c) for c in cycles]
    edges = []
    for i, j in itertools.combinations(range(len(cycles)), 2):
        trade = reference_cheapest_trade(members[i], members[j], _pair_gap)
        if trade is not None:
            edges.append((trade[0], i, j))
    comp = list(range(len(cycles)))
    total = 0.0
    for w, i, j in sorted(edges):
        ri, rj = _find(comp, i), _find(comp, j)
        if ri != rj:
            comp[ri] = rj
            total += w
    return total


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
                shared = set(cycles[i].edge_types) & set(cycles[j].edge_types)
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


def zero_gap_trade_left(cycles) -> bool:
    """Whether two same-type moves of different cycles still trade for free."""
    by_type: dict[int, list] = {}
    for c, cyc_ in enumerate(cycles):
        for e, t in zip(cyc_.edges, cyc_.edge_types):
            by_type.setdefault(t, []).append((c, e))
    return any(c1 != c2 and _pair_gap(e1, e2) == 0.0
               for moves_ in by_type.values()
               for (c1, e1), (c2, e2) in itertools.combinations(moves_, 2))


def assert_fuses_like(got, want):
    """got fuses into as many cycles as want and moves as far; trades of
    equal cost may have gone another way."""
    assert len(got) == len(want)
    assert total_distance(got) == total_distance(want)


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
        assert_fuses_like(merged, merge_cycles_fixed_point(cycles))
        assert not zero_gap_trade_left(merged), (start, goal)
        fused += len(merged) < len(cycles)
    assert fused > 500


@pytest.mark.parametrize("inst", [typed_runs(600, 4, seed) for seed in (1, 2, 3)]
                         + [typed_local(256, 16, 24, seed) for seed in range(1, 9)])
def test_merge_matches_fixed_point_on_workload_rows(inst):
    cycles = form_cycles(inst)
    merged = merge_cycles(cycles)
    assert len(merged) < len(cycles)
    assert_fuses_like(merged, merge_cycles_fixed_point(cycles))
    assert not zero_gap_trade_left(merged)


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
    assert list(_GapTrades(*model_input([a, b])).pair_weights()) == []


def test_cycle_distance_gap_values():
    # a pair weighs the gap between its nearest same-type spans, 0 where
    # they overlap, and its trade costs that gap
    for a, b, gap in ((cyc((1, 2), (2, 1), types=(1, 1)), cyc((3, 4), (4, 3), types=(1, 1)), 1),
                      (cyc((1, 2), (2, 1), types=(1, 1)), cyc((4, 5), (5, 4), types=(1, 1)), 2),
                      (cyc((1, 3), (3, 1), types=(1, 1)), cyc((2, 4), (4, 2), types=(1, 1)), 0)):
        model = _GapTrades(*model_input([a, b]))
        assert list(model.pair_weights()) == [(gap, 0, 1)]
        t, e1, e2 = model.trade(0, 1, 0, 1)
        assert (t, _pair_gap(e1, e2)) == (1, gap)
        assert e1 in a.edges and e2 in b.edges


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
    # fuse_cycles reads its input and its output off the assignment, so a
    # hand-built cycle may start at any source
    late = cyc((2, 1), (1, 2), types=(1, 1))
    b = cyc((4, 5), (5, 4), types=(1, 1))
    merged = merge_cycles_mst([late, b])
    assert merged == merge_cycles_mst([cyc((1, 2), (2, 1), types=(1, 1)), b])
    # the moves holding cell 2, the right end of [1, 2], and cell 4, the
    # left end of [4, 5], trade: (2, 1) and (5, 4), 2 apart
    assert merged == [cyc((1, 2), (2, 4), (4, 5), (5, 1), types=(1, 1, 1, 1))]
    lone = cyc((3, 1), (1, 2), (2, 3), types=(1, 2, 1))
    assert merge_cycles_mst([lone]) == [cyc((1, 2), (2, 3), (3, 1), types=(2, 1, 1))]

@pytest.mark.parametrize("dim", [1, 2])
def test_fusion_does_not_depend_on_input_order(dim):
    # the trade model numbers the assignment's orbits in min-cell order, so
    # both models fuse reversed input as they fuse sorted input
    rng = random.Random(127 + dim)
    fused = 0
    for _ in range(200):
        if dim == 1:
            inst = random_typed(rng, rng.randint(4, 30), rng.randint(2, 4), aggregated=False)
            merge = merge_cycles_mst
        else:
            dims = LatticeDims(rng.randint(2, 7), rng.randint(2, 7))
            goal = [rng.randint(1, 3) for _ in range(dims.n)]
            start = goal[:]
            rng.shuffle(start)
            inst = TypedInstance(dims, 3, tuple(start), tuple(goal))
            merge = functools.partial(merge_cycles_ptr, dims=dims)
        cycles = (form_cycles if dim == 1 else form_cycles_ptr)(inst)
        assert [min(c.edges)[0] for c in cycles] == sorted(min(c.edges)[0] for c in cycles)
        merged = merge(cycles)
        assert merge(cycles[::-1]) == merged
        fused += len(merged) < len(cycles)
    assert fused > 100


def brute_min_added(cycles):
    """Cheapest total added distance over all fusion schedules."""
    best = math.inf
    finite = [(i, j) for i in range(len(cycles)) for j in range(i + 1, len(cycles))
              if reference_cheapest_trade(moves(cycles[i]), moves(cycles[j]), _pair_gap)
              is not None]
    if not finite:
        return 0.0
    for i, j in finite:
        d = reference_cheapest_trade(moves(cycles[i]), moves(cycles[j]), _pair_gap)[0]
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
    shared = set(c1.edge_types) & set(c2.edge_types)
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
                pair_edges.append((d, min(cycles[i].edges)[0], min(cycles[j].edges)[0], i, j))
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
    return sorted(current.values(), key=lambda c: min(c.edges)[0])


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
            assert_fuses_like(merged, reference_merge_cycles_mst(cycles))
            fused += len(merged) < len(cycles)
    assert fused > 500


@pytest.mark.parametrize("inst", [typed_runs(600, 4, seed) for seed in (1, 2)]
                         + [typed_local(256, 16, 24, seed) for seed in range(1, 5)])
def test_mst_matches_reference_on_workload_rows(inst):
    formed = form_cycles(inst)
    for cycles in (formed, merge_cycles(formed)):
        merged = merge_cycles_mst(cycles)
        assert len(merged) < len(cycles) or len(cycles) == 1
        assert_fuses_like(merged, reference_merge_cycles_mst(cycles))


# --- fusion against the orbit splice ---------------------------------------

def reference_fuse_cycles(cycles, trades):
    """por.fuse_cycles as it was before it kept only the destination
    assignment: it rotated each cycle min-first and spliced the two orbits
    of every fusion.  trades(cycles) builds a model whose trade(ri, rj,
    a, b) is also handed the orbits a and b."""
    cycles = sorted(map(_reference_min_first, cycles), key=lambda c: min(c.edges)[0])
    n = len(cycles)
    log: list[tuple[int, int, int]] = []
    if n <= 1:
        return cycles, log
    model = trades(cycles)
    comp = list(range(n))
    current: dict[int, MoveCycle] = dict(enumerate(cycles))
    for _, i, j in sorted(model.pair_weights()):
        if len(current) == 1:
            break
        ri, rj = _find(comp, i), _find(comp, j)
        if ri == rj:
            continue
        a, b = current.pop(ri), current[rj]
        t, e1, e2 = model.trade(ri, rj, a, b)
        log.append((t, e1[1], e2[1]))
        current[rj] = _reference_splice(a, b, e1, e2)
        comp[ri] = rj
    return sorted(current.values(), key=lambda c: min(c.edges)[0]), log


def _reference_splice(a: MoveCycle, b: MoveCycle, e1, e2) -> MoveCycle:
    """The one cycle left by trading the destinations of e1 (in a) and e2
    (in b), min-first like its parts: a up to e1, then e1 bent to g2, b
    from g2 around to e2, e2 bent to g1, and the rest of a."""
    if min(b.edges)[0] < min(a.edges)[0]:
        a, b, e1, e2 = b, a, e2, e1
    p, q = a.edges.index(e1), b.edges.index(e2)
    edges = (a.edges[:p] + ((e1[0], e2[1]),) + b.edges[q + 1:] + b.edges[:q]
             + ((e2[0], e1[1]),) + a.edges[p + 1:])
    types = (a.edge_types[:p + 1] + b.edge_types[q + 1:] + b.edge_types[:q + 1]
             + a.edge_types[p + 1:])
    return MoveCycle(edges, types)


def _reference_min_first(c: MoveCycle) -> MoveCycle:
    """c rotated to start at its smallest source, as MoveCycle states."""
    p = c.edges.index(min(c.edges))
    if p == 0:
        return c
    return MoveCycle(c.edges[p:] + c.edges[:p], c.edge_types[p:] + c.edge_types[:p])


class ReferenceGapTrades:
    """The 1D trade model on orbits: pair weights by
    reference_cycle_distance, each trade by reference_argmin_pair over the
    two orbits it is handed."""

    def __init__(self, cycles):
        self.cycles = cycles

    def pair_weights(self):
        for i, j in itertools.combinations(range(len(self.cycles)), 2):
            d = reference_cycle_distance(self.cycles[i], self.cycles[j])
            if d < math.inf:
                yield d, i, j

    def trade(self, ri, rj, a, b):
        _, e1, e2 = reference_argmin_pair(a, b)
        return a.edge_types[a.edges.index(e1)], e1, e2


class OrbitBlindTrades:
    """A model with the orbit-taking trade(ri, rj, a, b) over one that
    takes (ri, rj, i, j); the 2D model reads neither the orbits nor the
    pair (i, j)."""

    def __init__(self, model):
        self.model = model

    def pair_weights(self):
        return self.model.pair_weights()

    def trade(self, ri, rj, a, b):
        return self.model.trade(ri, rj, None, None)


def rotated(cycles, rng):
    """Each cycle started at a random source, the list in random order."""
    out = []
    for c in cycles:
        p = rng.randrange(len(c.edges))
        out.append(MoveCycle(c.edges[p:] + c.edges[:p], c.edge_types[p:] + c.edge_types[:p]))
    rng.shuffle(out)
    return out


def test_fusion_matches_reference_on_rows():
    rng = random.Random(131)
    fused = 0
    for _ in range(300):
        formed = form_cycles(random_typed(rng, rng.randint(4, 30), rng.randint(2, 4),
                                          aggregated=rng.random() < 0.5))
        for cycles in (formed, merge_cycles(formed), rotated(formed, rng), formed[::-1]):
            got = fuse(cycles, EdgeBlindTrades)
            assert got == reference_fuse_cycles(cycles, ReferenceGapTrades), cycles
            fused += len(got[1]) > 0
    assert fused > 300


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_fusion_matches_reference_on_grids(metric):
    rng = random.Random(137)
    model = CostModel(metric=metric)
    fused = 0
    for _ in range(60):
        m1, m2 = rng.randint(2, 9), rng.randint(2, 9)
        goal = [rng.randint(1, 3) for _ in range(m1 * m2)]
        start = goal[:]
        rng.shuffle(start)
        dims = LatticeDims(m1, m2)
        formed = form_cycles_ptr(TypedInstance(dims, 3, tuple(start), tuple(goal)), model)
        for cycles in (formed, rotated(formed, rng), formed[::-1]):
            got = fuse(cycles, functools.partial(_DeltaTrades, dims, metric))
            want = reference_fuse_cycles(
                cycles, lambda c: OrbitBlindTrades(_DeltaTrades(dims, metric, *model_input(c))))
            assert got == want, cycles
            fused += len(got[1]) > 0
    assert fused > 100


def test_fusion_matches_reference_on_hand_built_cycles():
    # cycles that start away from their smallest source, given in reverse
    a = cyc((2, 1), (1, 2), types=(1, 1))
    b = cyc((5, 4), (4, 5), types=(1, 1))
    c = cyc((9, 7), (7, 8), (8, 9), types=(1, 2, 1))
    d = cyc((12, 10), (10, 11), (11, 12), types=(2, 1, 2))
    for cycles in ([d, c, b, a], [c, a], [b, a], [d], []):
        want = reference_fuse_cycles(cycles, ReferenceGapTrades)
        assert fuse(cycles, EdgeBlindTrades) == want
        assert fuse(cycles[::-1], EdgeBlindTrades) == want
    merged, log = fuse([d, c, b, a], _GapTrades)
    assert len(merged) == 1 and len(log) == 3


# --- span candidates against the all-pairs model ---------------------------

class CheckedGapTrades(_GapTrades):
    """_GapTrades that checks each trade costs its forest edge's weight."""

    def trade(self, ri, rj, i, j):
        t, e1, e2 = super().trade(ri, rj, i, j)
        assert _pair_gap(e1, e2) == self.best[i, j][0], (e1, e2)
        return t, e1, e2


def assert_fusion_matches_all_pairs(inst):
    """One fuse_cycles pass on form_cycles output against the sweep and
    the all-pairs model: each trade costs its weight, the fusions add twice
    the all-pairs forest weight, and the cycles, picks and travel match."""
    formed = form_cycles(inst)
    fused, _ = fuse(formed, CheckedGapTrades)
    assert fused == merge_cycles_mst(formed)
    assert total_distance(fused) - total_distance(formed) == 2 * reference_forest_weight(formed)
    assert len(merge_cycles(formed)) == len(reference_merge_cycles(formed))
    want = reference_fusion(formed)
    assert len(fused) == len(want)
    got = simulate(inst, opt_plan_por(inst)).cost
    ref = simulate(inst, group_sweep_cycles_por(want)).cost
    assert (got.picks, got.travel) == (ref.picks, ref.travel)


@st.composite
def typed_rows(draw):
    """Typed rows of at most 40 cells and 5 types, resting at cell 1."""
    m = draw(st.integers(2, 40))
    k = draw(st.integers(1, min(5, m)))
    goal = draw(st.lists(st.integers(1, k), min_size=m, max_size=m))
    if draw(st.booleans()):
        goal.sort()
    return typ1d(k, draw(st.permutations(goal)), goal)


@settings(max_examples=300, deadline=None)
@given(typed_rows())
def test_span_fusion_matches_all_pairs_on_random_rows(inst):
    assert_fusion_matches_all_pairs(inst)


@pytest.mark.parametrize("inst", [typed_runs(600, 4, seed) for seed in (1, 2, 3)]
                         + [typed_local(256, 16, 24, seed) for seed in range(1, 5)]
                         + [typed_local(4000, 4, 8, seed) for seed in (1, 2)])
def test_span_fusion_matches_all_pairs_on_workload_rows(inst):
    assert_fusion_matches_all_pairs(inst)


def test_fusion_scales_to_a_local_row_of_100000_cells():
    # no two of the 12,336 cycles left after free fusion share a type; the
    # all-pairs model spent over a minute weighing their pairs
    inst = typed_local(100_000, 4, 8, 1)
    began = time.perf_counter()
    plan = opt_plan_por(inst)
    assert time.perf_counter() - began < 10
    sim = simulate(inst, plan)
    assert sim.config == inst.goal_types
    assert sim.cost.picks == oracle_min_picks(inst)
    began = time.perf_counter()
    free = merge_cycles(form_cycles(inst))
    assert time.perf_counter() - began < 10
    assert len(free) == 12_336


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


# --- one assignment through the pipeline ----------------------------------

A = cyc((1, 2), (2, 1), types=(1, 1))
SHARED = cyc((1, 3), (3, 1), types=(1, 1))
OPEN = cyc((1, 2), (2, 3), types=(1, 1))
INTO_A = cyc((3, 4), (4, 1), types=(1, 1))
TWICE = cyc((1, 2), (2, 1), (1, 2), (2, 1), types=(1, 1, 1, 1))
SHORT = cyc((1, 2), (2, 1), types=(1,))
# id: (cycles, the cycle the error names)
MALFORMED = {
    "repeated-cycle": ([A, A], A),
    "shared-source": ([A, SHARED], SHARED),
    "open-chain": ([OPEN], OPEN),
    "shared-goal": ([A, INTO_A], INTO_A),
    "repeated-source": ([TWICE], TWICE),
    "short-types": ([SHORT], SHORT),
}
GRID = LatticeDims(2, 2)
TAKE_CYCLES = {
    "merge_cycles": merge_cycles,
    "merge_cycles_mst": merge_cycles_mst,
    "group_sweep_cycles_por": group_sweep_cycles_por,
    "merge_cycles_ptr": functools.partial(merge_cycles_ptr, dims=GRID),
    "sweep_cycles_ptr": functools.partial(sweep_cycles_ptr, dims=GRID),
}


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("phase", TAKE_CYCLES)
def test_phases_refuse_malformed_cycles_naming_them(phase, case):
    # no malformed list is read as a smaller set of moves, as [A, A] once
    # was (merge_cycles_ptr returned [], dropping every move)
    cycles, bad = MALFORMED[case]
    with pytest.raises(MalformedPermutation, match=re.escape(repr(bad))):
        TAKE_CYCLES[phase](cycles)


@pytest.mark.parametrize("planner,inst", [
    (opt_plan_por, typ1d(3, (2, 2, 1, 1, 3, 3), (1, 1, 2, 2, 3, 3))),
    (plan_ptr, gen_typed((4, 4), 4, (4,) * 4, GoalPattern("columns"), 1)),
], ids=["opt_plan_por", "plan_ptr"])
def test_planners_pass_one_assignment(planner, inst, monkeypatch):
    # the public phases, composed, plan the same steps through MoveCycles
    dims, rest = inst.dims, inst.rest
    if planner is opt_plan_por:
        formed = form_cycles(inst)
        fused = merge_cycles_mst(formed)
        want = group_sweep_cycles_por(fused)
    else:
        formed = form_cycles_ptr(inst)
        fused = merge_cycles_ptr(formed, dims)
        want = sweep_cycles_ptr(fused, dims, rest)
    assert len(fused) < len(formed)
    walks, built = [], []
    walk = por._assignment_orbits
    monkeypatch.setattr(por, "_assignment_orbits", lambda assign: walks.append(1) or walk(assign))
    init = MoveCycle.__init__
    monkeypatch.setattr(MoveCycle, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    assert planner(inst) == want
    assert (len(built), len(walks)) == (0, 2)


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


def greedy_corpus():
    """Seeded labeled and typed instances, rows and grids, all resting at
    cell 1."""
    for seed in range(1, 7):
        yield gen_uniform_permutation(24 + seed, seed)
        yield gen_x_random(30, 5, seed)
        yield gen_typed(24, 3, (8, 8, 8), GoalPattern("explicit", tuple(range(1, 4)) * 8), seed)
        yield gen_typed(20, 4, (2, 4, 6, 8),
                        GoalPattern("explicit", (1,) * 2 + (2,) * 4 + (3,) * 6 + (4,) * 8), seed)
        yield gen_block_random(9, seed)
        yield gen_column_random(7, 5, seed)
        yield gen_typed((6, 6), 4, (9, 9, 9, 9), GoalPattern("blocks"), seed)
        yield gen_typed((5, 8), 8, (5,) * 8, GoalPattern("columns"), seed)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_greedy_matches_reference(metric):
    model = CostModel(metric=metric)
    rng = random.Random(metric)
    # each instance also runs from an interior rest cell: off the row's
    # ends, off the grid's border
    for inst in greedy_corpus():
        m1, m2 = inst.dims.m1, inst.dims.m2
        if m2 == 1:
            rest = rng.randint(2, m1 - 1)
        else:
            rest = inst.dims.index(rng.randint(2, m1 - 1), rng.randint(2, m2 - 1))
        for case in (inst, with_rest(inst, rest)):
            assert greedy_plan(case, model) == reference_greedy_plan(case, model)
