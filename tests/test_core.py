import math
import random

import pytest
from hypothesis import given, strategies as st

from lattice_rearrange.core import (
    Action,
    CostModel,
    HandNotEmptyAtEnd,
    IllegalStep,
    JsonFormatError,
    LabeledInstance,
    LatticeDims,
    MalformedPermutation,
    Plan,
    PlanStep,
    TypedInstance,
    TypeMismatch,
    distance,
    dumps,
    instance_from_dict,
    instance_to_dict,
    is_solved,
    plan_cost,
    plan_from_dict,
    plan_to_dict,
    reverse_plan,
    reversed_instance,
    simulate,
)
from lattice_rearrange.gen import gen_block_random, gen_uniform_permutation
from lattice_rearrange.lattice2d import sweep_cycles_ltr
from lattice_rearrange.lor import opt_plan_lor
from conftest import leg_travel


def P(*steps):
    acts = {"p": Action.PICK, "s": Action.SWAP, "l": Action.PLACE}
    return Plan(tuple(PlanStep(c, acts[a]) for c, a in steps))


def test_column_major_indexing():
    dims = LatticeDims(3, 4)
    assert dims.index(1, 1) == 1
    assert dims.index(3, 1) == 3
    assert dims.index(1, 2) == 4
    assert dims.index(2, 3) == 8
    for i in dims.cells():
        r, c = dims.rowcol(i)
        assert dims.index(r, c) == i
    assert dims.rowcol(8) == (2, 3)


def test_distance_metrics():
    dims = LatticeDims(5, 5)
    assert distance(dims, 7, 7) == 0.0
    # (1,1) vs (2,2): diagonal neighbours
    a, b = dims.index(1, 1), dims.index(2, 2)
    assert distance(dims, a, b) == pytest.approx(math.sqrt(2))
    assert distance(dims, a, b, CostModel(metric="manhattan")) == 2.0
    line = LatticeDims(9, 1)
    assert distance(line, 2, 8) == 6.0


def test_simulate_single_cycle_plan():
    # items (3,2,4,1): one 3-cycle over cells 1,3,4 plus fixed point 2
    inst = LabeledInstance(LatticeDims(4, 1), (3, 2, 4, 1))
    plan = P((1, "p"), (3, "s"), (4, "s"), (1, "l"))
    res = simulate(inst, plan)
    assert is_solved(res.config, inst)
    assert res.cost.picks == 4
    assert res.cost.travel == pytest.approx(leg_travel(inst.dims, [1, 3, 4, 1]))
    assert res.cost.travel == pytest.approx(6.0)


def test_simulate_cost_coefficients():
    inst = LabeledInstance(LatticeDims(2, 1), (2, 1))
    plan = P((1, "p"), (2, "s"), (1, "l"))
    cost = plan_cost(inst, plan, CostModel(c_p=5.0, c_t=0.25))
    assert cost.picks == 3
    assert cost.travel == pytest.approx(2.0)
    assert cost.total == pytest.approx(3 * 5.0 + 2.0 * 0.25)


def test_simulate_rejects_illegal_steps():
    inst = LabeledInstance(LatticeDims(3, 1), (2, 1, 3))
    with pytest.raises(IllegalStep):
        simulate(inst, P((1, "s")))  # swap with empty hand
    with pytest.raises(IllegalStep):
        simulate(inst, P((1, "l")))  # place with empty hand
    with pytest.raises(IllegalStep):
        simulate(inst, P((1, "p"), (2, "p")))  # second pick while loaded
    with pytest.raises(IllegalStep):
        simulate(inst, P((1, "p"), (1, "s")))  # swap at emptied cell
    with pytest.raises(IllegalStep):
        simulate(inst, P((1, "p"), (2, "l")))  # place onto occupied cell
    with pytest.raises(HandNotEmptyAtEnd):
        simulate(inst, P((1, "p")))


def test_simulate_travel_is_the_sum_of_distance_legs():
    # simulate decodes cells itself; its travel must still be the float sum
    # of distance() over the legs, in order, closing leg included
    rng = random.Random(4)
    for seed in range(4):
        for inst, planner in ((gen_uniform_permutation(60, seed), opt_plan_lor),
                              (gen_block_random(9, seed), sweep_cycles_ltr)):
            inst = LabeledInstance(inst.dims, inst.pi, rng.randint(1, inst.dims.n))
            plan = planner(inst)
            walk = [inst.rest] + [step.cell for step in plan] + [inst.rest]
            for metric in ("euclidean", "manhattan"):
                model = CostModel(metric=metric)
                legs = 0.0
                for a, b in zip(walk, walk[1:]):
                    legs += distance(inst.dims, a, b, model)
                assert simulate(inst, plan, model).cost.travel == legs


def test_simulate_rejects_unknown_actions():
    # only the three Action members are actions; a bare string that equals
    # one is not, and it used to fall through to the place branch
    inst = LabeledInstance(LatticeDims(3, 1), (2, 1, 3))
    for bad in ("pick", "swap", "place", "hop", None):
        with pytest.raises(IllegalStep) as err:
            simulate(inst, Plan((PlanStep(1, bad),)))
        assert err.value.step_index == 0
        assert str(err.value) == f"step 0: unknown action {bad!r}"
    plan = Plan((PlanStep(1, Action.PICK), PlanStep(2, "swap"), PlanStep(1, Action.PLACE)))
    with pytest.raises(IllegalStep) as err:
        simulate(inst, plan)
    assert str(err.value) == "step 1: unknown action 'swap'"

def test_simulate_out_of_range_cell_reports_its_step():
    inst = gen_block_random(4, 3)
    plan = sweep_cycles_ltr(inst)
    for k in (0, len(plan) // 2, len(plan) - 1):
        for bad in (0, inst.dims.n + 1):
            steps = list(plan.steps)
            steps[k] = PlanStep(bad, steps[k].action)
            with pytest.raises(IllegalStep) as err:
                simulate(inst, Plan(tuple(steps)))
            assert err.value.step_index == k
            assert str(err.value) == f"step {k}: cell {bad} outside lattice"


def test_reverse_plan_swap_fixed_ends_flipped():
    plan = P((1, "p"), (3, "s"), (4, "s"), (1, "l"))
    rev = reverse_plan(plan)
    assert [(s.cell, s.action) for s in rev.steps] == [
        (1, Action.PICK), (4, Action.SWAP), (3, Action.SWAP), (1, Action.PLACE)]
    assert reverse_plan(rev) == plan


def test_reverse_plan_validates_on_swapped_instance():
    inst = LabeledInstance(LatticeDims(4, 1), (3, 2, 4, 1))
    plan = P((1, "p"), (3, "s"), (4, "s"), (1, "l"))
    fwd = simulate(inst, plan)
    swapped = reversed_instance(inst)
    assert swapped.pi == (4, 2, 1, 3)  # inverse permutation
    back = simulate(swapped, reverse_plan(plan))
    assert is_solved(back.config, swapped)
    assert back.cost.picks == fwd.cost.picks
    assert back.cost.travel == pytest.approx(fwd.cost.travel)


def test_reversed_instance_typed_swaps_arrays():
    inst = TypedInstance(LatticeDims(3, 1), 2, (2, 1, 1), (1, 1, 2))
    rev = reversed_instance(inst)
    assert rev.start_types == (1, 1, 2) and rev.goal_types == (2, 1, 1)


def test_instance_validation():
    with pytest.raises(MalformedPermutation):
        LabeledInstance(LatticeDims(3, 1), (1, 1, 3))
    with pytest.raises(MalformedPermutation):
        LabeledInstance(LatticeDims(3, 1), (1, 2))
    with pytest.raises(TypeMismatch):
        TypedInstance(LatticeDims(3, 1), 2, (1, 1, 2), (1, 2, 2))
    with pytest.raises(TypeMismatch):
        TypedInstance(LatticeDims(3, 1), 2, (1, 1, 3), (3, 1, 1))
    with pytest.raises(ValueError):
        TypedInstance(LatticeDims(2, 1), 3, (1, 2), (2, 1))  # k beyond cell count


def test_typed_simulation_tracks_types():
    inst = TypedInstance(LatticeDims(3, 1), 2, (2, 1, 1), (1, 1, 2))
    plan = P((1, "p"), (3, "s"), (1, "l"))
    res = simulate(inst, plan)
    assert res.config == (1, 1, 2)
    assert is_solved(res.config, inst)


def test_json_round_trips():
    inst = LabeledInstance(LatticeDims(2, 2), (2, 1, 4, 3))
    doc = instance_to_dict(inst)
    assert doc == {"dims": [2, 2], "kind": "labeled", "pi": [2, 1, 4, 3], "rest": 1}
    assert instance_from_dict(doc) == inst
    assert instance_from_dict({"dims": [2, 2], "kind": "labeled", "pi": [2, 1, 4, 3]}) == inst

    typed = TypedInstance(LatticeDims(4, 1), 2, (2, 1, 2, 1), (1, 1, 2, 2), rest=2)
    doc2 = instance_to_dict(typed)
    assert doc2["k"] == 2 and doc2["rest"] == 2
    assert instance_from_dict(doc2) == typed

    plan = P((1, "p"), (2, "s"), (1, "l"))
    pdoc = plan_to_dict(plan)
    assert pdoc == {"steps": [{"cell": 1, "action": "pick"},
                              {"cell": 2, "action": "swap"},
                              {"cell": 1, "action": "place"}]}
    assert plan_from_dict(pdoc) == plan
    # deterministic bytes
    assert dumps(pdoc) == dumps(plan_to_dict(plan))


@pytest.mark.parametrize("action", ["jump", "PICK", "", None, 1, ["pick"], {"pick": 1}])
def test_plan_from_dict_rejects_unknown_and_unhashable_actions(action):
    doc = {"steps": [{"cell": 1, "action": "pick"}, {"cell": 1, "action": action}]}
    with pytest.raises(JsonFormatError):
        plan_from_dict(doc)


@given(st.permutations(list(range(1, 8))))
def test_identity_plan_only_solves_identity(perm):
    inst = LabeledInstance(LatticeDims(7, 1), tuple(perm))
    res = simulate(inst, Plan())
    assert res.cost.picks == 0 and res.cost.travel == 0.0
    assert is_solved(res.config, inst) == (tuple(perm) == tuple(range(1, 8)))


@given(st.lists(st.tuples(st.integers(1, 6), st.sampled_from("psl")), max_size=8))
def test_reverse_is_involution(raw):
    plan = P(*raw)
    assert reverse_plan(reverse_plan(plan)) == plan


def test_metric_triangle_inequality_spot():
    dims = LatticeDims(6, 6)
    cells = [1, 8, 15, 22, 29, 36, 31, 6]
    for metric in ("euclidean", "manhattan"):
        m = CostModel(metric=metric)
        for a in cells:
            for b in cells:
                assert distance(dims, a, b, m) == pytest.approx(distance(dims, b, a, m))
                for c in cells:
                    assert distance(dims, a, c, m) <= (
                        distance(dims, a, b, m) + distance(dims, b, c, m) + 1e-9)
