"""simulate against reference_simulate, its step-at-a-time predecessor.

Both must agree on every plan: the same final configuration, picks and
travel/total bits, or the same exception type, step index and message.
The corpus is every CLI solver's plans under both metrics (interior rest
cells, c_p and c_t not 1), seeded mutations of those plans, and random
step sequences on small lattices.  A cell that is not an integer is an
illegal step for simulate, reported at its index.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from lattice_rearrange.cli import SOLVERS, resolve_solver
from lattice_rearrange.core import (
    Action,
    CostModel,
    IllegalStep,
    LabeledInstance,
    LatticeDims,
    Plan,
    TypedInstance,
    simulate,
)
from lattice_rearrange.gen import (
    GoalPattern,
    gen_block_random,
    gen_column_random,
    gen_typed,
    gen_uniform_permutation,
)
from conftest import reference_simulate, with_rest

_ACTIONS = (Action.PICK, Action.SWAP, Action.PLACE)
_MODELS = [CostModel(c_p=2.5, c_t=0.3, metric=metric) for metric in ("euclidean", "manhattan")]


def outcome(simulator, inst, plan, model):
    try:
        res = simulator(inst, plan, model)
    except Exception as exc:
        return type(exc), getattr(exc, "step_index", None), str(exc)
    return res.config, res.cost.picks, res.cost.travel.hex(), res.cost.total.hex()


def assert_same(inst, plan, model):
    assert outcome(simulate, inst, plan, model) == outcome(reference_simulate, inst, plan, model)


def _typed(dims, k, seed):
    n = dims if isinstance(dims, int) else dims[0] * dims[1]
    return gen_typed(dims, k, (n // k,) * k, GoalPattern("blocks"), seed)


_LABELED_ROWS = [lambda s: with_rest(gen_uniform_permutation(40, s), 17)]
_TYPED_ROWS = [lambda s: with_rest(_typed(24, 3, s), 9)]
_LABELED_GRIDS = [lambda s: with_rest(gen_block_random(16, s), 50),
                  lambda s: with_rest(gen_column_random(6, 4, s), 8)]
_TYPED_GRIDS = [lambda s: with_rest(_typed((6, 6), 4, s), 15)]
_CASES = {
    "sweep-lor": _LABELED_ROWS, "opt-lor": _LABELED_ROWS,
    "opt-por": _TYPED_ROWS, "greedy-por": _TYPED_ROWS,
    "sweep-ltr": _LABELED_GRIDS, "switch-ltr": _LABELED_GRIDS,
    "plan-ptr": _TYPED_GRIDS, "greedy-2d": _LABELED_GRIDS + _TYPED_GRIDS,
}


def _solved_cases():
    for solver in sorted(SOLVERS):
        for model in _MODELS:
            for make in _CASES[solver]:
                for seed in (1, 2):
                    inst = make(seed)
                    yield inst, resolve_solver(solver)(inst, model), model


def _mutants(plan, n, rng):
    """Seeded damage to a legal plan: each mutant differs in one place."""
    cells, actions = list(plan.cells), list(plan.actions)
    size = len(cells)
    at = rng.randrange(size)
    yield cells[:at] + cells[at + 1:], actions[:at] + actions[at + 1:]
    yield (cells[:at] + [rng.randint(1, n)] + cells[at:],
           actions[:at] + [rng.choice(_ACTIONS)] + actions[at:])
    yield cells[:at], actions[:at]
    changed = [a for a in _ACTIONS if a is not actions[at]]
    yield cells, actions[:at] + [rng.choice(changed)] + actions[at + 1:]
    yield cells, actions[:at] + [actions[at].value] + actions[at + 1:]
    for bad in (0, -1, n + 1):
        yield cells[:at] + [bad] + cells[at + 1:], actions
    # an illegal step and an out-of-range cell together, either first
    early, late = sorted(rng.sample(range(size), 2)) if size > 1 else (0, 0)
    for first, second in ((early, late), (late, early)):
        worse_cells, worse_actions = list(cells), list(actions)
        worse_cells[first] = n + 1
        worse_actions[second] = Action.PLACE if actions[second] is not Action.PLACE else Action.PICK
        yield worse_cells, worse_actions


def test_solver_plans_match_the_reference():
    count = 0
    for inst, plan, model in _solved_cases():
        assert_same(inst, plan, model)
        assert_same(inst, plan, CostModel(metric=model.metric))
        count += 1
    assert count == 2 * 2 * sum(len(makes) for makes in _CASES.values())


def test_mutated_plans_match_the_reference():
    rng = random.Random(17)
    for inst, plan, model in _solved_cases():
        for _ in range(3):
            for cells, actions in _mutants(plan, inst.dims.n, rng):
                assert_same(inst, Plan.from_columns(cells, actions), model)


def test_non_integer_cells_raise_illegal_step():
    # the reference raises a bare TypeError for 1.5, 2.0, "3" and None;
    # simulate reports each as an illegal step, off-lattice floats as before
    rng = random.Random(5)
    for inst, plan, model in _solved_cases():
        n = inst.dims.n
        for bad in (1.5, 2.0, float(n), math.nan, math.inf, -math.inf, 0.5, n + 0.5, "3", None):
            at = rng.randrange(len(plan))
            cells = plan.cells[:at] + (bad,) + plan.cells[at + 1:]
            mutant = Plan.from_columns(cells, plan.actions)
            assert outcome(simulate, inst, mutant, model)[:2] == (IllegalStep, at)


@st.composite
def _random_runs(draw):
    m1, m2 = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    dims = LatticeDims(m1, m2)
    n = dims.n
    rest = draw(st.integers(1, n))
    if draw(st.booleans()):
        inst = LabeledInstance(dims, tuple(draw(st.permutations(range(1, n + 1)))), rest)
    else:
        start = draw(st.lists(st.integers(1, min(2, n)), min_size=n, max_size=n))
        k = max(start)
        inst = TypedInstance(dims, k, tuple(start), tuple(draw(st.permutations(start))), rest)
    steps = draw(st.lists(st.tuples(st.integers(-1, n + 1),
                                    st.sampled_from(_ACTIONS + ("swap", None))),
                          max_size=12))
    model = CostModel(draw(st.sampled_from([1.0, 0.5, 3.0])), draw(st.sampled_from([1.0, 0.7])),
                      draw(st.sampled_from(["euclidean", "manhattan"])))
    return inst, Plan(steps), model


@settings(max_examples=400, deadline=None)
@given(_random_runs())
def test_random_steps_match_the_reference(run):
    assert_same(*run)
