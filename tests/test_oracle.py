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
from lattice_rearrange.oracle import (
    TooLarge,
    oracle_min_picks,
    oracle_optimal,
    state_space_estimate,
)

from conftest import apply_plan_by_hand


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


# --- guard rails ------------------------------------------------------------

def test_state_space_estimate():
    assert state_space_estimate(lab1d(2, 1, 3)) == 6 * 4 * 3
    assert state_space_estimate(typ1d(2, (1, 1, 2), (1, 2, 1))) == 3 * 4 * 3


def test_cap_raises_too_large():
    with pytest.raises(TooLarge):
        oracle_optimal(lab1d(2, 1, 3), cap=10)


def test_unknown_objective_rejected():
    with pytest.raises(ValueError):
        oracle_optimal(lab1d(2, 1), objective="fastest")


def test_reruns_are_identical():
    inst = lab1d(3, 1, 2, 5, 4)
    a = oracle_optimal(inst)
    b = oracle_optimal(inst)
    assert a.plan == b.plan
    assert a.cost == b.cost
