"""Tests for the exhaustive-search oracle.

Expected costs in the known-value tests are derived by hand from the cost
model (closed-walk travel bounds plus the misplaced+cycles pick count), not
from running any planner in this package.
"""

import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from lattice_rearrange import (
    CostModel,
    LabeledInstance,
    LatticeDims,
    TypedInstance,
    simulate,
)
from lattice_rearrange.lor import opt_plan_lor
from lattice_rearrange.oracle import (
    TooLarge,
    oracle_min_picks,
    oracle_optimal,
)

from conftest import apply_plan_by_hand, reference_oracle_optimal


def lab1d(*pi, rest=1):
    return LabeledInstance(LatticeDims(len(pi), 1), tuple(pi), rest)


def typ1d(k, start, goal, rest=1):
    return TypedInstance(LatticeDims(len(start), 1), k, tuple(start), tuple(goal), rest)


# --- known values -----------------------------------------------------------

def test_two_cell_swap():
    # Pick@1, Swap@2, Place@1: three operations, out-and-back travel 2.
    res = oracle_optimal(lab1d(2, 1))
    assert res.cost.picks == 3
    assert res.cost.travel == pytest.approx(2.0)
    assert res.cost.total == pytest.approx(5.0)


def test_three_cycle_with_fixed_point():
    # (3,2,4,1) has one cycle over cells {1,3,4}; entering at cell 1 gives
    # the closed-walk minimum 2*(4-1) = 6 with 3+1 = 4 operations.
    res = oracle_optimal(lab1d(3, 2, 4, 1))
    assert res.cost.picks == 4
    assert res.cost.travel == pytest.approx(6.0)
    sim = simulate(lab1d(3, 2, 4, 1), res.plan)
    assert sim.config == (1, 2, 3, 4)


def test_identity_is_free():
    res = oracle_optimal(lab1d(1, 2, 3))
    assert res.plan.picks == 0
    assert res.cost.travel == 0.0


def test_typed_known_value():
    # start (1,2,1,2) -> goal (1,1,2,2): cells 2 and 3 trade types, so
    # 2 misplaced + 1 cycle = 3 operations, travel 1+1+1+1 = 4.
    inst = typ1d(2, (1, 2, 1, 2), (1, 1, 2, 2))
    res = oracle_optimal(inst)
    assert res.cost.picks == 3
    assert res.cost.travel == pytest.approx(4.0)
    sim = simulate(inst, res.plan)
    assert sim.config == inst.goal_types


def test_far_pair_costs_its_distance():
    res = oracle_optimal(lab1d(1, 2, 3, 5, 4))
    assert res.cost.picks == 3
    assert res.cost.travel == pytest.approx(8.0)  # 3 out + 1 + 1 + 3 back


# --- pick-count formula -----------------------------------------------------

def test_min_picks_labeled_formula():
    assert oracle_min_picks(lab1d(1, 2, 3)) == 0
    assert oracle_min_picks(lab1d(2, 1)) == 3
    assert oracle_min_picks(lab1d(2, 1, 4, 3)) == 6
    # two nontrivial cycles, two fixed points: 7 misplaced + 2
    assert oracle_min_picks(lab1d(3, 2, 4, 1, 7, 6, 9, 5, 8)) == 9


def test_min_picks_typed_components():
    # types 1<->2 trade (one component), the rest already placed
    assert oracle_min_picks(typ1d(3, (1, 2, 3, 1), (2, 1, 3, 1))) == 3
    # chain 1->2->3->1 is a single component: 3 misplaced + 1
    assert oracle_min_picks(typ1d(3, (2, 3, 1, 2), (1, 2, 3, 2))) == 4
    # two independent trades in one arrangement: 4 misplaced + 2
    assert oracle_min_picks(typ1d(4, (2, 1, 4, 3, 1), (1, 2, 3, 4, 1))) == 6


def _min_picks_by_bfs(instance):
    """Misplaced cells plus the connected components of the type multigraph
    (an edge from each misplaced item's type to its cell's goal type),
    counted by breadth-first search."""
    adjacent = {}
    misplaced = 0
    for have, want in zip(instance.start_types, instance.goal_types):
        if have != want:
            misplaced += 1
            adjacent.setdefault(have, []).append(want)
            adjacent.setdefault(want, []).append(have)
    seen = set()
    components = 0
    for t in adjacent:
        if t in seen:
            continue
        components += 1
        seen.add(t)
        queue = [t]
        for u in queue:
            for v in adjacent[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
    return misplaced + components


@st.composite
def typed_instances(draw):
    """Typed 1D or 2D instances with any k from 1 to n.  Cells flagged to
    stay keep their goal type and the rest are shuffled among themselves, so
    some types are never misplaced."""
    m1 = draw(st.integers(1, 6))
    m2 = draw(st.sampled_from([1, 2, 3]))
    n = m1 * m2
    k = draw(st.integers(1, n))
    goal = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
    stay = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    moving = [c for c in range(n) if not stay[c]]
    start = list(goal)
    for c, t in zip(moving, draw(st.permutations([goal[c] for c in moving]))):
        start[c] = t
    return TypedInstance(LatticeDims(m1, m2), k, tuple(start), tuple(goal))


@given(typed_instances())
# k = n, all types distinct: 1 <-> 2 misplaced, types 3 and 4 never are
@example(TypedInstance(LatticeDims(4, 1), 4, (2, 1, 3, 4), (1, 2, 3, 4)))
# k = n on a 2D lattice: two separate trades, types 3 and 6 idle
@example(TypedInstance(LatticeDims(3, 2), 6, (2, 1, 3, 5, 4, 6), (1, 2, 3, 4, 5, 6)))
# k = 1: nothing can be misplaced
@example(TypedInstance(LatticeDims(2, 2), 1, (1, 1, 1, 1), (1, 1, 1, 1)))
def test_min_picks_typed_matches_component_count(instance):
    assert oracle_min_picks(instance) == _min_picks_by_bfs(instance)


def test_search_achieves_min_picks_everywhere():
    for pi in itertools.permutations(range(1, 5)):
        inst = lab1d(*pi)
        res = oracle_optimal(inst)
        assert res.cost.picks == oracle_min_picks(inst), pi


def test_search_achieves_min_picks_typed():
    rng = random.Random(20260822)
    for _ in range(30):
        m, k = 5, rng.choice([2, 3])
        start = tuple(rng.randint(1, k) for _ in range(m))
        goal = tuple(sorted(start, key=lambda _: rng.random()))
        if sorted(start) != sorted(goal):  # pragma: no cover - shuffle keeps multiset
            continue
        inst = typ1d(k, start, goal)
        res = oracle_optimal(inst)
        assert res.cost.picks == oracle_min_picks(inst), (start, goal)


# --- dual-route: A* against plain uniform-cost search -----------------------

def test_heuristic_matches_uniform_cost_labeled():
    for pi in itertools.permutations(range(1, 5)):
        inst = lab1d(*pi)
        for objective in ("lexicographic", "total"):
            fast = oracle_optimal(inst, objective=objective)
            slow = oracle_optimal(inst, objective=objective, heuristic=False)
            assert fast.cost.picks == slow.cost.picks, (pi, objective)
            assert fast.cost.travel == pytest.approx(slow.cost.travel), (pi, objective)


def test_heuristic_matches_uniform_cost_typed():
    rng = random.Random(7)
    for _ in range(15):
        vals = [rng.randint(1, 2) for _ in range(5)]
        if len(set(vals)) < 2:
            vals[0] = 3 - vals[0]
        goal = vals[:]
        rng.shuffle(goal)
        inst = typ1d(2, tuple(vals), tuple(goal))
        fast = oracle_optimal(inst)
        slow = oracle_optimal(inst, heuristic=False)
        assert fast.cost.picks == slow.cost.picks
        assert fast.cost.travel == pytest.approx(slow.cost.travel)


def test_total_objective_with_heavy_picks_matches_lexicographic():
    # With c_p huge relative to c_t, minimizing total must first minimize
    # picks, so the two objectives have to agree.
    model = CostModel(c_p=1000.0, c_t=1.0)
    rng = random.Random(99)
    for _ in range(10):
        pi = list(range(1, 6))
        rng.shuffle(pi)
        inst = lab1d(*pi)
        lex = oracle_optimal(inst, model=model)
        tot = oracle_optimal(inst, model=model, objective="total")
        assert lex.cost.picks == tot.cost.picks, pi
        assert lex.cost.travel == pytest.approx(tot.cost.travel), pi


# --- plan legality and invariances ------------------------------------------

def test_returned_plans_simulate_cleanly():
    rng = random.Random(5150)
    for _ in range(20):
        pi = list(range(1, 6))
        rng.shuffle(pi)
        inst = lab1d(*pi)
        res = oracle_optimal(inst)
        sim = simulate(inst, res.plan)
        assert sim.config == inst.goal_config()
        assert sim.cost.picks == res.cost.picks
        assert sim.cost.travel == pytest.approx(res.cost.travel)
        # independent executor agrees on the final arrangement
        codes = [(s.cell, s.action.value) for s in res.plan]
        assert apply_plan_by_hand(list(inst.pi), codes) == list(inst.goal_config())


def test_type_relabeling_preserves_cost():
    inst = typ1d(3, (3, 1, 2, 3, 1), (1, 3, 3, 2, 1))
    relab = {1: 2, 2: 3, 3: 1}
    other = typ1d(3, tuple(relab[t] for t in inst.start_types),
                  tuple(relab[t] for t in inst.goal_types))
    a = oracle_optimal(inst)
    b = oracle_optimal(other)
    assert a.cost.picks == b.cost.picks
    assert a.cost.travel == pytest.approx(b.cost.travel)


def test_mirror_symmetry_preserves_cost():
    # Reflecting a 1D instance end for end (rest moves with it) cannot
    # change optimal cost because all pairwise distances are preserved.
    pi = (4, 1, 3, 5, 2)
    m = len(pi)
    mirror = tuple(m + 1 - pi[m - j] for j in range(1, m + 1))
    a = oracle_optimal(lab1d(*pi))
    b = oracle_optimal(lab1d(*mirror, rest=m))
    assert a.cost.picks == b.cost.picks
    assert a.cost.travel == pytest.approx(b.cost.travel)


def test_manhattan_metric_2d():
    # 2x2 lattice, swap the diagonal pair 1 and 4
    inst = LabeledInstance(LatticeDims(2, 2), (4, 2, 3, 1))
    euc = oracle_optimal(inst)
    man = oracle_optimal(inst, model=CostModel(metric="manhattan"))
    assert euc.cost.picks == man.cost.picks == 3
    assert euc.cost.travel == pytest.approx(2 * 2 ** 0.5)
    assert man.cost.travel == pytest.approx(4.0)


# --- one state table against the three-structure search --------------------

MODELS = (CostModel(), CostModel(metric="manhattan"), CostModel(c_p=0.3, c_t=2.0))
OBJECTIVES = ("lexicographic", "total")


def _assert_same_as_reference(inst, models=MODELS, heuristics=(True, False)):
    for model in models:
        for objective in OBJECTIVES:
            for heuristic in heuristics:
                got = oracle_optimal(inst, model, objective, heuristic=heuristic)
                want = reference_oracle_optimal(inst, model, objective, heuristic=heuristic)
                assert got.plan == want.plan, (inst, model, objective, heuristic)
                assert got.cost == want.cost, (inst, model, objective, heuristic)


def test_rows_match_the_reference_search():
    # every labeled row with n <= 4 at every rest cell
    for n in range(1, 5):
        for pi in itertools.permutations(range(1, n + 1)):
            for rest in range(1, n + 1):
                _assert_same_as_reference(lab1d(*pi, rest=rest))


def test_grids_match_the_reference_search():
    # seeded 2x3 grids at random rest cells; uniform-cost search on a
    # labeled grid is the slow case, so it runs under the default model only
    rng = random.Random(26)
    dims = LatticeDims(2, 3)
    for _ in range(6):
        pi = list(range(1, 7))
        rng.shuffle(pi)
        labeled = LabeledInstance(dims, tuple(pi), rng.randint(1, 6))
        goal = [rng.randint(1, 3) for _ in range(6)]
        start = goal[:]
        rng.shuffle(start)
        typed = TypedInstance(dims, max(goal), tuple(start), tuple(goal), rng.randint(1, 6))
        for inst in (labeled, typed):
            _assert_same_as_reference(inst, heuristics=(True,))
            _assert_same_as_reference(inst, models=MODELS[:1], heuristics=(False,))


def test_ten_cell_rows_solve_under_the_default_cap():
    # these searches store at most about 10^5 states, a tenth of the cap
    rng = random.Random(10)
    for _ in range(8):
        pi = list(range(1, 11))
        rng.shuffle(pi)
        inst = lab1d(*pi)
        res = oracle_optimal(inst)
        opt = simulate(inst, opt_plan_lor(inst)).cost
        assert (res.cost.picks, res.cost.travel) == (opt.picks, opt.travel), pi


# --- guard rails ------------------------------------------------------------

def test_cap_raises_too_large():
    with pytest.raises(TooLarge):
        oracle_optimal(lab1d(2, 1, 3), cap=10)


def _solves(inst, cap):
    try:
        oracle_optimal(inst, cap=cap)
    except TooLarge:
        return False
    return True


def test_cap_counts_stored_states():
    # on (2, 1) the search pops five states before the goal and stores ten:
    # the start, two picks, four swaps and three places (traced by hand).
    # Expansion order is fixed, so exactly that cap separates refusal from
    # a solve.
    inst = lab1d(2, 1)
    assert not any(_solves(inst, cap) for cap in range(10))
    with pytest.raises(TooLarge, match="more than 9 states"):
        oracle_optimal(inst, cap=9)
    assert oracle_optimal(inst, cap=10) == oracle_optimal(inst)


def test_unknown_objective_rejected():
    with pytest.raises(ValueError):
        oracle_optimal(lab1d(2, 1), objective="fastest")


def test_reruns_are_identical():
    inst = lab1d(3, 1, 2, 5, 4)
    a = oracle_optimal(inst)
    b = oracle_optimal(inst)
    assert a.plan == b.plan
    assert a.cost == b.cost
