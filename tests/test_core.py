import copy
import itertools
import json
import math
import pickle
import random
import tracemalloc

import numpy as np
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
    _cell_distance,
    distance,
    instance_from_dict,
    instance_to_dict,
    instance_to_json,
    is_solved,
    plan_cost,
    plan_from_dict,
    plan_to_dict,
    reverse_plan,
    reversed_instance,
    simulate,
)
from lattice_rearrange.cli import resolve_solver
from lattice_rearrange.gen import (
    GoalPattern,
    gen_block_random,
    gen_column_random,
    gen_typed,
    gen_uniform_permutation,
)
from lattice_rearrange.graphs import permutation_cycles
from lattice_rearrange.lattice2d import sweep_cycles_ltr
from lattice_rearrange.lor import opt_plan_lor
from lattice_rearrange.oracle import oracle_optimal
from conftest import dumps, leg_travel, reference_distance, with_rest


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


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("m1,m2", itertools.product(range(1, 6), range(1, 5)))
def test_scalar_distance_matches_reference_bit_for_bit(m1, m2, metric):
    # every ordered cell pair, 1 x m and m x 1 lattices included: distance()
    # and the unchecked _cell_distance give the reference's floats exactly
    dims, model = LatticeDims(m1, m2), CostModel(metric=metric)
    pairs = list(itertools.product(dims.cells(), repeat=2))
    want = [reference_distance(dims, a, b, model).hex() for a, b in pairs]
    assert [distance(dims, a, b, model).hex() for a, b in pairs] == want
    cell_distance = _cell_distance(dims, model)
    assert [cell_distance(a, b).hex() for a, b in pairs] == want


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (7, 1), (1, 7), (-2, 3), (3, 13)])
def test_distance_rejects_cells_off_the_lattice(a, b):
    dims = LatticeDims(3, 2)
    with pytest.raises(ValueError):
        reference_distance(dims, a, b)
    with pytest.raises(ValueError, match="out of range 1..6"):
        distance(dims, a, b)


@pytest.mark.parametrize("a,b", [(1.5, 4), (4, 1.5), (2.0, 4), ("a", 4), (None, 4), ([1], 4)])
def test_distance_rejects_non_integer_cells(a, b):
    # the reference compared against the range only, so 1.5 passed it
    dims = LatticeDims(3, 3)
    with pytest.raises(ValueError, match="is not an integer"):
        distance(dims, a, b)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["c_p", "c_t"])
def test_cost_model_rejects_non_finite_coefficients(field, value):
    # a NaN slips past `< 0`, and either would reach plan totals
    with pytest.raises(ValueError, match="finite"):
        CostModel(**{field: value})


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


def test_simulate_reports_the_earlier_of_a_bad_action_and_an_off_lattice_cell():
    # the range check scans the whole plan before the loop runs; the step
    # reported must still be the first bad one by index, whichever kind
    inst = gen_block_random(4, 3)
    plan = sweep_cycles_ltr(inst)
    n, last = inst.dims.n, len(plan) - 1
    # an action that fails where a legal plan has the key action
    wrong = {Action.PICK: Action.PLACE, Action.SWAP: Action.PICK, Action.PLACE: Action.SWAP}
    for early, late in ((0, 1), (1, last // 2), (last // 2, last)):
        for bad_cell in (0, -1, n + 1):
            for unknown in (False, True):
                for off_first in (False, True):
                    off, act = (early, late) if off_first else (late, early)
                    cells, actions = list(plan.cells), list(plan.actions)
                    cells[off] = bad_cell
                    actions[act] = "hop" if unknown else wrong[actions[act]]
                    reason = {Action.PICK: "place with an empty hand",
                              Action.SWAP: "pick with an item already in hand",
                              Action.PLACE: f"swap at empty cell {cells[act]}"}[plan.actions[act]]
                    if unknown:
                        reason = "unknown action 'hop'"
                    if off_first:
                        reason = f"cell {bad_cell} outside lattice"
                    with pytest.raises(IllegalStep) as err:
                        simulate(inst, Plan.from_columns(cells, actions))
                    assert err.value.step_index == min(off, act)
                    assert str(err.value) == f"step {min(off, act)}: {reason}"


def test_simulate_reports_non_integer_cells_as_illegal_steps():
    # a plan built in Python can hold any cell: one that is no integer is
    # an illegal step at its index, unless an earlier step fails first
    inst = gen_block_random(4, 3)
    plan = sweep_cycles_ltr(inst)
    last = len(plan) - 1
    for bad in (1.5, 2.0, "3", None):
        for at in (0, last // 2, last):
            cells = list(plan.cells)
            cells[at] = bad
            with pytest.raises(IllegalStep) as err:
                simulate(inst, Plan.from_columns(cells, plan.actions))
            assert err.value.step_index == at
            assert str(err.value) == f"step {at}: cell {bad!r} is not an integer"
            if at:
                actions = list(plan.actions)
                actions[at - 1] = "hop"
                with pytest.raises(IllegalStep) as err:
                    simulate(inst, Plan.from_columns(cells, actions))
                assert err.value.step_index == at - 1


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


@pytest.mark.parametrize("make", [list, np.array, tuple], ids=["list", "array", "tuple"])
def test_labeled_instance_stores_pi_as_a_tuple(make):
    # a list or an array was once stored as given: unhashable, unequal to
    # the tuple-built instance, and open to change after the check
    pi = make([2, 1, 3])
    inst = LabeledInstance(LatticeDims(3, 1), pi)
    same = LabeledInstance(LatticeDims(3, 1), (2, 1, 3))
    assert type(inst.pi) is tuple and inst.pi == (2, 1, 3)
    assert inst == same and hash(inst) == hash(same)
    if make is tuple:
        assert inst.pi is pi  # a tuple is not copied
    else:
        pi[0] = 3
        assert inst.pi == (2, 1, 3) and inst == same


@pytest.mark.parametrize("make", [list, np.array, lambda pi: np.array(pi, dtype=np.int32),
                                  lambda pi: [np.int64(v) for v in pi]],
                         ids=["list", "array", "int32-array", "numpy-int-list"])
def test_labeled_instance_from_a_sequence_plans_plain_ints(make):
    # numpy entries were kept as numpy ints, so the labeled planners emitted
    # numpy cells and the plan document could not be written
    inst = LabeledInstance(LatticeDims(3, 1), make([2, 1, 3]))
    same = LabeledInstance(LatticeDims(3, 1), (2, 1, 3))
    assert all(type(v) is int for v in inst.pi)
    assert inst == same and hash(inst) == hash(same)
    plan = opt_plan_lor(inst)
    assert plan == opt_plan_lor(same) and all(type(c) is int for c in plan.cells)
    assert json.loads(json.dumps(plan_to_dict(plan))) == plan_to_dict(plan)


def test_plan_document_of_numpy_cells_holds_ints():
    # a tuple is stored as given, so a tuple of numpy ints plans numpy cells
    inst = LabeledInstance(LatticeDims(3, 1), tuple(np.array([2, 1, 3])))
    plan = opt_plan_lor(inst)
    doc = plan_to_dict(plan)
    assert all(type(step["cell"]) is int for step in doc["steps"])
    assert json.loads(json.dumps(doc)) == doc == plan_to_dict(opt_plan_lor(
        LabeledInstance(LatticeDims(3, 1), (2, 1, 3))))


@pytest.mark.parametrize("start,goal", [((1, 2), (2, 1, 1)), ((1, 2, 1), (2, 1)),
                                        ((1, 2, 1, 1), (1, 1, 2, 1))])
def test_typed_arrays_must_cover_every_cell(start, goal):
    with pytest.raises(TypeMismatch) as err:
        TypedInstance(LatticeDims(3, 1), 2, start, goal)
    assert str(err.value) == "start/goal arrays must cover every cell"


def test_unknown_metric_and_cell_outside_the_lattice():
    with pytest.raises(ValueError) as err:
        CostModel(metric="chebyshev")
    assert str(err.value) == "unknown metric 'chebyshev'"
    for row, col in ((3, 1), (1, 3), (0, 1)):
        with pytest.raises(ValueError) as err:
            LatticeDims(2, 2).index(row, col)
        assert str(err.value) == f"cell ({row},{col}) outside 2x2"


def _reference_is_permutation(pi, n):
    """LabeledInstance's check as it stood before the one-pass bytearray:
    the length, then a sort."""
    return not (len(pi) != n or sorted(pi) != list(range(1, n + 1)))


def _accepts(pi, dims):
    try:
        LabeledInstance(dims, pi)
    except MalformedPermutation as err:
        assert str(err) == f"arrangement is not a permutation of 1..{dims.n}: {pi!r}"
        return False
    return True


def _integer_corpus(seed):
    """Integer sequences around 1..n: every tuple over -1..n+1 for n <= 4,
    wrong lengths, bools, numpy ints, and seeded long rows spoiled by a
    duplicate, a 0, a negative or n + 1."""
    for n in range(1, 5):
        for length in (n - 1, n, n + 1):
            for pi in itertools.product(range(-1, n + 2), repeat=length):
                yield pi, n
    yield (True, 2), 2
    yield (2, True), 2
    yield (True, True), 2
    yield (False, 1), 2
    yield (2, 1, False), 3
    rng = random.Random(seed)
    for n in (1, 2, 7, 64, 1000):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        yield tuple(perm), n
        yield tuple(np.array(perm)), n
        yield tuple(np.array(perm, dtype=np.int32)), n
        for bad in (0, -1, -n, -n - 1, n + 1, 2 * n, perm[rng.randrange(n)]):
            spoiled = list(perm)
            spoiled[rng.randrange(n)] = bad
            yield tuple(spoiled), n
            yield tuple(np.array(spoiled)), n
        yield tuple(perm[1:]), n
        yield tuple(perm + [n + 1]), n


def test_labeled_check_agrees_with_the_sort_on_integer_sequences():
    seen = {True: 0, False: 0}
    for pi, n in _integer_corpus(24):
        want = _reference_is_permutation(pi, n)
        assert _accepts(pi, LatticeDims(n, 1)) == want, (pi, n)
        seen[want] += 1
    assert min(seen.values()) > 20


def test_permutation_cycles_accepts_what_labeled_instance_accepts():
    # one check behind both: a row of len(pi) cells takes pi exactly when
    # permutation_cycles walks it
    seen = {True: 0, False: 0}
    for pi, _ in _integer_corpus(25):
        if not pi:
            assert permutation_cycles(pi).count == 0
            continue
        try:
            permutation_cycles(pi)
            walked = True
        except MalformedPermutation as err:
            assert str(err) == f"not a permutation of 1..{len(pi)}: {pi!r}"
            walked = False
        assert _accepts(pi, LatticeDims(len(pi), 1)) == walked, pi
        seen[walked] += 1
    assert min(seen.values()) > 20


@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_labeled_check_agrees_with_the_sort_hypothesis(m1, m2, data):
    n = m1 * m2
    values = st.integers(-n - 2, n + 2) | st.booleans()
    pi = tuple(data.draw(st.one_of(
        st.permutations(range(1, n + 1)),
        st.lists(values, min_size=n, max_size=n),
        st.lists(values, max_size=n + 2))))
    if data.draw(st.booleans()):
        pi = tuple(np.array(pi, dtype=np.int64))
    assert _accepts(pi, LatticeDims(m1, m2)) == _reference_is_permutation(pi, n)


@pytest.mark.parametrize("pi,before", [
    ((2.0, 1.0, 3.0), True),
    ((1.5, 2, 3), False),
    ((math.nan, 2, 3), False),
    ((2, 1, math.nan), False),
    (("a", 2, 3), TypeError),
    ((None, 2, 3), TypeError),
    (([1], 2, 3), TypeError),
])
def test_labeled_check_rejects_non_integer_entries_as_the_walk_does(pi, before):
    # the sort accepted the float permutation and raised TypeError on
    # entries that do not compare with ints; permutation_cycles, which
    # every planner's walk runs, has always rejected all of these
    if before is TypeError:
        with pytest.raises(TypeError):
            _reference_is_permutation(pi, 3)
    else:
        assert _reference_is_permutation(pi, 3) == before
    with pytest.raises(MalformedPermutation):
        permutation_cycles(pi)
    with pytest.raises(MalformedPermutation):
        LabeledInstance(LatticeDims(3, 1), pi)


def test_labeled_check_peaks_under_one_megabyte():
    # the sort's list and the range list peaked at 4.57 MB here
    pi = gen_uniform_permutation(10**5, 3).pi
    dims = LatticeDims(10**5, 1)
    tracemalloc.start()
    try:
        LabeledInstance(dims, pi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


_LABELED = (LatticeDims(4, 1), (2, 1, 4, 3))
_TYPED = (LatticeDims(4, 1), 2, (2, 1, 2, 1), (1, 1, 2, 2))


@pytest.mark.parametrize("rest,message", [
    (1.5, "rest cell 1.5 is not an integer"),
    (2.0, "rest cell 2.0 is not an integer"),
    ("a", "rest cell 'a' is not an integer"),
    (None, "rest cell None is not an integer"),
    (0, "rest cell 0 out of range"),
    (5, "rest cell 5 out of range"),
    (-1, "rest cell -1 out of range"),
    (7.5, "rest cell 7.5 out of range"),
    (math.nan, "rest cell nan out of range"),
])
def test_rest_must_be_a_lattice_cell(rest, message):
    with pytest.raises(ValueError) as labeled:
        LabeledInstance(*_LABELED, rest=rest)
    with pytest.raises(ValueError) as typed:
        TypedInstance(*_TYPED, rest=rest)
    assert str(labeled.value) == str(typed.value) == message


def test_rest_json_round_trips_for_every_cell():
    # a rest such as 1.5 was accepted, planned with fractional travel and
    # written as "rest": 1.5, which the reader refuses; every rest an
    # instance can now carry reads back as written
    for rest in range(1, 5):
        for inst in (LabeledInstance(*_LABELED, rest=rest), TypedInstance(*_TYPED, rest=rest)):
            assert instance_from_dict(json.loads(instance_to_json(inst))) == inst
    doc = instance_to_dict(LabeledInstance(*_LABELED))
    with pytest.raises(JsonFormatError):
        instance_from_dict({**doc, "rest": 1.5})


_NP_DIMS = LatticeDims(np.int64(4), np.int32(1))


@pytest.mark.parametrize("make", [
    lambda: LabeledInstance(LatticeDims(2, 1), (2, True)),
    lambda: LabeledInstance(LatticeDims(2, 1), (2, 1), rest=np.int64(2)),
    lambda: LabeledInstance(LatticeDims(2, 1), (2, 1), rest=True),
    lambda: LabeledInstance(_NP_DIMS, tuple(np.array([2, 4, 1, 3])), rest=np.int32(3)),
    lambda: TypedInstance(LatticeDims(4, 1), np.int64(2), (True, 2, 2, True), (2, 1, 2, 1),
                          rest=np.int64(4)),
    lambda: TypedInstance(_NP_DIMS, True, tuple(np.ones(4, dtype=np.int64)), (1, 1, 1, 1)),
])
def test_bools_and_numpy_ints_are_written_as_json_integers(make):
    # such entries were written as `true`/`True`, or made json.dumps raise;
    # the constructor stores rest and k as ints and the writers turn each
    # array entry into the int it stands for
    inst = make()
    assert type(inst.rest) is int and (inst.kind == "labeled" or type(inst.k) is int)
    text = instance_to_json(inst)
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert doc == json.loads(json.dumps({"format_version": 1, **instance_to_dict(inst)}))
    assert instance_from_dict(doc) == inst


@pytest.mark.parametrize("k", [2.5, 2.0, "2", None, [2]])
def test_typed_k_must_be_an_integer(k):
    # k = 2.5 was accepted and written as "k": 2.5, which the reader refuses
    with pytest.raises(ValueError, match="k must be an integer"):
        TypedInstance(LatticeDims(4, 1), k, (1, 2, 1, 2), (2, 1, 2, 1))


def test_typed_k_takes_bools_and_numpy_ints_as_their_integer():
    for k, want in ((np.int64(2), 2), (np.int32(2), 2), (True, 1)):
        types = (1, 2, 1, 2) if want == 2 else (1, 1, 1, 1)
        inst = TypedInstance(LatticeDims(4, 1), k, types, types)
        assert inst.k == want and type(inst.k) is int
    with pytest.raises(ValueError, match="k must satisfy"):
        TypedInstance(LatticeDims(4, 1), False, (1, 1, 1, 1), (1, 1, 1, 1))


def test_type_ids_are_stored_as_ints():
    inst = TypedInstance(LatticeDims(3, 1), 2, (True, np.int64(2), 2), [2, 1, np.int32(2)])
    assert inst.start_types == (1, 2, 2) and inst.goal_types == (2, 1, 2)
    assert {type(t) for t in inst.start_types + inst.goal_types} == {int}
    assert instance_from_dict(json.loads(instance_to_json(inst))) == inst


@pytest.mark.parametrize("m1", [2.5, 2.0, "2", None])
def test_lattice_dims_must_be_integers(m1):
    with pytest.raises(ValueError, match="lattice dims must be integers"):
        LatticeDims(m1, 1)
    with pytest.raises(ValueError, match=f"got 1x{m1!r}"):
        LatticeDims(1, m1)


def test_lattice_dims_store_bools_and_numpy_ints_as_ints():
    for m1, m2, want in ((True, 2, (1, 2)), (np.int64(3), np.int32(2), (3, 2))):
        dims = LatticeDims(m1, m2)
        assert (dims.m1, dims.m2) == want
        assert type(dims.m1) is int and type(dims.m2) is int
        assert list(dims.cells()) == list(range(1, want[0] * want[1] + 1))


def _reference_type_ids(start, goal, k):
    """TypedInstance's type-id check as a loop over every id, as it stood
    before the set test went first."""
    for t in start + goal:
        if not 1 <= t <= k:
            raise TypeMismatch(f"type id {t} outside 1..{k}")


def _first_non_integer_id(start, goal):
    for side, types in (("start", start), ("goal", goal)):
        for cell, t in enumerate(types, 1):
            if not isinstance(t, int):
                return f"type id {t!r} at {side} cell {cell} is not an integer"
    return None


NAN = float("nan")


@pytest.mark.parametrize("start,goal", [
    ((0, 1, 2), (1, 2, 0)),
    ((1, 1, 2), (1, 2, 3)),
    ((1, 3, 0), (0, 1, 3)),
    ((2, -1, 1), (1, 2, -1)),
    ((1, NAN, 2), (1, NAN, 2)),
    ((1, 1.5, 2), (1, 1.5, 2)),
    ((1, "a", 2), (1, 2, "a")),
    ((3, "a", 2), (1, 2, "a")),
    ((1, [2], 2), (1, 2, [2])),
    ((1.0, True, 2), (1, 1, 2)),
    ((2, 1, 1), (1, 2, 1)),
    ((1, 2.0, 2), (1, 2, 2)),
    ((1, 2, 2), (2, 1, NAN)),
])
def test_type_ids_fail_as_the_loop_failed(start, goal):
    # a non-integer id is refused by name at its first cell, start before
    # goal; integer ids fail as the reference loop fails
    bad = _first_non_integer_id(start, goal)
    if bad is not None:
        with pytest.raises(TypeMismatch) as got:
            TypedInstance(LatticeDims(3, 1), 2, start, goal)
        assert str(got.value) == bad
        return
    try:
        _reference_type_ids(start, goal, 2)
    except (TypeMismatch, TypeError) as exc:
        with pytest.raises(type(exc)) as got:
            TypedInstance(LatticeDims(3, 1), 2, start, goal)
        assert str(got.value) == str(exc)
    else:
        assert TypedInstance(LatticeDims(3, 1), 2, start, goal).k == 2


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


# field -> (a valid document, where the field holds a 1: the index into its
# array, or None for a scalar); int() would turn 1.5 and True back into 1
_LABELED_DOC = {"dims": [3, 1], "kind": "labeled", "pi": [2, 3, 1], "rest": 1}
_TYPED_DOC = {"dims": [3, 1], "kind": "typed", "k": 1, "start_types": [1, 1, 1],
              "goal_types": [1, 1, 1], "rest": 1}
_INT_FIELDS = {
    "dims": (_LABELED_DOC, 1), "pi": (_LABELED_DOC, 2), "rest": (_LABELED_DOC, None),
    "k": (_TYPED_DOC, None), "start_types": (_TYPED_DOC, 0), "goal_types": (_TYPED_DOC, 0),
}


@pytest.mark.parametrize("bad", [1.5, True, "3"])
@pytest.mark.parametrize("field", sorted(_INT_FIELDS))
def test_instance_from_dict_accepts_only_json_integers(field, bad):
    base, at = _INT_FIELDS[field]
    instance_from_dict(base)
    doc = {key: list(value) if isinstance(value, list) else value for key, value in base.items()}
    if at is None:
        doc[field] = bad
    else:
        doc[field][at] = bad
    with pytest.raises(JsonFormatError, match=field):
        instance_from_dict(doc)


@pytest.mark.parametrize("bad", [1.5, True, "3"])
def test_plan_from_dict_accepts_only_integer_cells(bad):
    doc = {"steps": [{"cell": 1, "action": "pick"}, {"cell": bad, "action": "place"}]}
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


# --- the column plan ---------------------------------------------------------

def _typed(dims, k, seed):
    n = dims if isinstance(dims, int) else dims[0] * dims[1]
    return gen_typed(dims, k, (n // k,) * k, GoalPattern("blocks"), seed)


# instance families, each seeded and given an interior rest cell
_LABELED_ROWS = [lambda s: with_rest(gen_uniform_permutation(30, s), 12)]
_TYPED_ROWS = [lambda s: with_rest(_typed(24, 3, s), 9)]
_LABELED_GRIDS = [lambda s: with_rest(gen_block_random(9, s), 41),
                  lambda s: with_rest(gen_column_random(5, 4, s), 8)]
_TYPED_GRIDS = [lambda s: with_rest(_typed((6, 6), 4, s), 15)]
_COLUMN_CASES = {
    "sweep-lor": _LABELED_ROWS, "opt-lor": _LABELED_ROWS,
    "opt-por": _TYPED_ROWS, "greedy-por": _TYPED_ROWS,
    "sweep-ltr": _LABELED_GRIDS, "switch-ltr": _LABELED_GRIDS,
    "plan-ptr": _TYPED_GRIDS, "greedy-2d": _LABELED_GRIDS + _TYPED_GRIDS,
}
_ORACLE_CASES = [lambda s: with_rest(gen_uniform_permutation(5, s), 3),
                 lambda s: with_rest(_typed((3, 2), 2, s), 2)]


def _assert_columns_round_trip(plan):
    assert type(plan.cells) is tuple and type(plan.actions) is tuple
    assert all(type(a) is Action for a in plan.actions)
    assert all(type(s) is PlanStep for s in plan.steps)
    assert list(plan) == list(plan.steps) == list(zip(plan.cells, plan.actions))
    rebuilt = Plan(plan.steps)
    assert rebuilt == plan and hash(rebuilt) == hash(plan)
    assert Plan.from_columns(plan.cells, plan.actions) == plan
    assert plan_from_dict(plan_to_dict(plan)) == plan
    assert reverse_plan(reverse_plan(plan)) == plan


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("solver", sorted(_COLUMN_CASES))
def test_every_solver_plan_round_trips_through_its_columns(solver, metric):
    model = CostModel(metric=metric)
    for make in _COLUMN_CASES[solver]:
        for seed in (1, 2, 3):
            inst = make(seed)
            plan = resolve_solver(solver)(inst, model)
            assert len(plan) == plan.picks == len(plan.cells) > 0
            _assert_columns_round_trip(plan)
            assert is_solved(simulate(inst, plan, model).config, inst)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_oracle_plan_round_trips_through_its_columns(metric):
    model = CostModel(metric=metric)
    for make in _ORACLE_CASES:
        for seed in (1, 2, 3):
            inst = make(seed)
            res = oracle_optimal(inst, model)
            _assert_columns_round_trip(res.plan)
            assert simulate(inst, res.plan, model).cost == res.cost


def test_plan_pickles_copies_and_stays_frozen():
    plan = opt_plan_lor(gen_uniform_permutation(20, 4))
    for twin in (pickle.loads(pickle.dumps(plan)), copy.copy(plan), copy.deepcopy(plan)):
        assert twin == plan and hash(twin) == hash(plan)
        assert twin.cells == plan.cells and twin.actions == plan.actions
    with pytest.raises(AttributeError):
        plan.cells = ()
    with pytest.raises(AttributeError):
        plan.actions = ()


def test_empty_plan():
    plan = Plan()
    assert plan.cells == plan.actions == plan.steps == ()
    assert len(plan) == plan.picks == 0 and list(plan) == []
    assert plan == Plan(()) == Plan.from_columns([], []) == Plan(iter(()))
    assert plan_to_dict(plan) == {"steps": []}


def test_plan_takes_any_iterable_of_pairs():
    steps = [(1, Action.PICK), (3, Action.SWAP), (1, Action.PLACE)]
    plan = Plan(PlanStep(c, a) for c, a in steps)
    assert plan == Plan(steps) == Plan(tuple(steps))
    assert plan.cells == (1, 3, 1)
    assert plan.actions == (Action.PICK, Action.SWAP, Action.PLACE)
    with pytest.raises(ValueError):
        Plan.from_columns((1, 2), (Action.PICK,))
