"""Tests for the 1D labeled planners."""

import itertools
import random

import pytest

from lattice_rearrange import (
    Action,
    LabeledInstance,
    LatticeDims,
    simulate,
)
from lattice_rearrange.gen import gen_uniform_permutation, gen_x_random
from lattice_rearrange.graphs import permutation_cycles
from lattice_rearrange.lor import opt_plan_lor, sweep_cycles_lor
from lattice_rearrange.oracle import oracle_optimal

from conftest import _group_max_per_cycle, leg_travel


def lab1d(*pi):
    return LabeledInstance(LatticeDims(len(pi), 1), tuple(pi))


def run(planner, inst):
    plan = planner(inst)
    sim = simulate(inst, plan)
    assert sim.config == inst.goal_config()
    return plan, sim.cost


# --- known plans ------------------------------------------------------------

def test_sweep_known_values():
    plan, cost = run(sweep_cycles_lor, lab1d(2, 1, 4, 3))
    assert cost.picks == 6
    assert cost.travel == pytest.approx(8.0)
    actions = [s.action for s in plan]
    assert actions == [Action.PICK, Action.SWAP, Action.PLACE] * 2
    assert [s.cell for s in plan] == [1, 2, 1, 3, 4, 3]


def test_sweep_two_groups():
    _, cost = run(sweep_cycles_lor, lab1d(3, 2, 4, 1, 7, 6, 9, 5, 8))
    assert cost.picks == 9
    assert cost.travel == pytest.approx(22.0)


def test_opt_known_travel_values():
    # hand-worked walks; each beats the corresponding sweep
    for pi, travel in [
        ((2, 1, 4, 3), 6.0),
        ((5, 3, 2, 4, 1), 10.0),
        ((2, 1, 4, 3, 6, 5), 10.0),
        ((3, 2, 4, 1, 7, 6, 9, 5, 8), 16.0),
        ((3, 5, 1, 4, 2, 7, 6), 14.0),
    ]:
        plan, cost = run(opt_plan_lor, lab1d(*pi))
        assert cost.travel == pytest.approx(travel), pi
        sweep_cost = simulate(lab1d(*pi), sweep_cycles_lor(lab1d(*pi))).cost
        assert cost.picks == sweep_cost.picks
        assert cost.travel < sweep_cost.travel


def test_opt_nine_cell_example_steps():
    # the walk: out through the first group, hand-off at its max cell,
    # out to the far end, then resolve everything on the way home
    plan = opt_plan_lor(lab1d(3, 2, 4, 1, 7, 6, 9, 5, 8))
    assert [s.cell for s in plan] == [1, 3, 4, 5, 7, 9, 8, 5, 1]
    assert plan.steps[0].action is Action.PICK
    assert plan.steps[-1].action is Action.PLACE
    assert all(s.action is Action.SWAP for s in plan.steps[1:-1])


def test_identity_plans_are_empty():
    assert len(sweep_cycles_lor(lab1d(1, 2, 3, 4))) == 0
    assert len(opt_plan_lor(lab1d(1, 2, 3, 4))) == 0


def test_rejects_2d_instances():
    inst = LabeledInstance(LatticeDims(2, 2), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        sweep_cycles_lor(inst)
    with pytest.raises(ValueError):
        opt_plan_lor(inst)


# --- structural properties --------------------------------------------------

def test_pick_formula():
    rng = random.Random(314159)
    for _ in range(40):
        m = rng.randint(2, 50)
        pi = list(range(1, m + 1))
        rng.shuffle(pi)
        inst = lab1d(*pi)
        misplaced = sum(1 for i, x in enumerate(pi, 1) if i != x)
        expected = misplaced + permutation_cycles(tuple(pi)).count
        for planner in (sweep_cycles_lor, opt_plan_lor):
            _, cost = run(planner, inst)
            assert cost.picks == expected, pi


def test_opt_never_travels_more_than_sweep():
    rng = random.Random(271828)
    for _ in range(60):
        m = rng.randint(2, 120)
        pi = list(range(1, m + 1))
        rng.shuffle(pi)
        inst = lab1d(*pi)
        _, opt_cost = run(opt_plan_lor, inst)
        _, sweep_cost = run(sweep_cycles_lor, inst)
        assert opt_cost.travel <= sweep_cost.travel + 1e-9


def test_travel_agrees_with_independent_leg_sum():
    rng = random.Random(42)
    for _ in range(10):
        pi = list(range(1, 13))
        rng.shuffle(pi)
        inst = lab1d(*pi)
        plan, cost = run(opt_plan_lor, inst)
        cells = [s.cell for s in plan]
        assert cost.travel == pytest.approx(leg_travel(inst.dims, cells))


def test_matches_oracle_up_to_five_cells():
    for m in (2, 3, 4, 5):
        for pi in itertools.permutations(range(1, m + 1)):
            inst = lab1d(*pi)
            _, cost = run(opt_plan_lor, inst)
            best = oracle_optimal(inst).cost
            assert cost.picks == best.picks, pi
            assert cost.travel == pytest.approx(best.travel, abs=1e-9), pi


def test_matches_oracle_sampled_m6():
    rng = random.Random(600)
    for _ in range(40):
        pi = list(range(1, 7))
        rng.shuffle(pi)
        inst = lab1d(*pi)
        _, cost = run(opt_plan_lor, inst)
        best = oracle_optimal(inst).cost
        assert cost.picks == best.picks, pi
        assert cost.travel == pytest.approx(best.travel, abs=1e-9), pi


def _carried_distances(inst, plan):
    """Total transport distance per item, reconstructed from the steps."""
    config = list(inst.start_config())
    carried = {}
    held = None
    prev_cell = None
    for step in plan:
        if held is not None:
            carried[held] = carried.get(held, 0) + abs(step.cell - prev_cell)
        occupant = config[step.cell - 1]
        if step.action is Action.PICK:
            held, config[step.cell - 1] = occupant, None
        elif step.action is Action.SWAP:
            held, config[step.cell - 1] = occupant, held
        else:
            config[step.cell - 1], held = held, None
        prev_cell = step.cell
    return carried


@pytest.mark.xfail(strict=True, reason="exact only for rest = 1 (ROADMAP item 2)")
def test_opt_matches_oracle_rest_not_one():
    # the walk enters the cycle at its leftmost cell, not the one nearest rest
    inst = LabeledInstance(LatticeDims(2, 1), (2, 1), rest=2)
    assert run(opt_plan_lor, inst)[1] == oracle_optimal(inst).cost


def test_single_group_items_move_their_displacement():
    # when every cycle belongs to one span group, no item is carried past
    # its destination: each item's total transport equals |source - home|
    rng = random.Random(1729)
    checked = 0
    while checked < 25:
        m = rng.randint(4, 12)
        pi = list(range(1, m + 1))
        rng.shuffle(pi)
        if len(set(_group_max_per_cycle(permutation_cycles(tuple(pi)).cycles))) != 1:
            continue
        inst = lab1d(*pi)
        plan, _ = run(opt_plan_lor, inst)
        carried = _carried_distances(inst, plan)
        for cell, item in enumerate(pi, start=1):
            assert carried.get(item, 0) == abs(cell - item), (pi, item)
        checked += 1


def test_large_instance_stays_iterative():
    # thousands of two-cycles chain into deeply nested hand-offs; this only
    # works because the walk engine uses an explicit stack
    m = 10000
    pi = []
    for i in range(1, m + 1, 2):
        pi += [i + 1, i]
    inst = lab1d(*pi)
    plan, cost = run(opt_plan_lor, inst)
    assert cost.picks == m + m // 2
    assert cost.travel == pytest.approx(2.0 * (m - 1))


# --- the crossing bound at scale --------------------------------------------

def crossing_bound(pi) -> int:
    """A lower bound on the travel of any plan for pi from rest 1.

    Sum over gaps g (between cells g and g + 1) of 2 max(c_g, [a misplaced
    cell lies right of g]), where c_g = #{i <= g < pi_i} items must cross
    g rightward.  The arm carries one item at a time, and as many items
    cross g leftward as rightward, so it crosses g at least 2 c_g times;
    and it crosses g out and back at least once to reach a misplaced cell
    beyond g.  O(n), through a difference array of the spans [i, pi_i).
    """
    n = len(pi)
    starts = [0] * (n + 2)
    last = 0
    for i, p in enumerate(pi, start=1):
        if p > i:
            starts[i] += 1
            starts[p] -= 1
        if p != i:
            last = i
    total = crossing = 0
    for g in range(1, n):
        crossing += starts[g]
        total += 2 * max(crossing, 1 if g < last else 0)
    return total


def test_crossing_bound_on_small_rows():
    assert crossing_bound((1, 2, 3)) == 0
    assert crossing_bound((3, 2, 1)) == 4         # 2 crossings of each gap
    assert crossing_bound((2, 1, 4, 3)) == 6      # gap 2 only to reach cell 3
    assert crossing_bound((1, 2, 4, 3)) == 6      # gaps 1 and 2 only to reach it
    for pi in [(3, 2, 1), (2, 1, 4, 3), (1, 2, 4, 3), (4, 1, 2, 3)]:
        assert crossing_bound(pi) == oracle_optimal(lab1d(*pi)).cost.travel


@pytest.mark.parametrize("m", [2_000, 100_000])
@pytest.mark.parametrize("make", [gen_uniform_permutation, lambda m, seed: gen_x_random(m, 8, seed)],
                         ids=["uniform", "x-random"])
def test_opt_travel_meets_crossing_bound_at_scale(make, m):
    # the exact planner meets the bound at rest 1; the sweep, which returns
    # to each cycle's entry before starting the next, exceeds it, so a
    # planner that emitted the sweep's walk would fail here
    for seed in range(3):
        inst = make(m, seed)
        bound = crossing_bound(inst.pi)
        assert run(opt_plan_lor, inst)[1].travel == bound, seed
        assert run(sweep_cycles_lor, inst)[1].travel > bound, seed
