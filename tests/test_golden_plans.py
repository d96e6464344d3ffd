"""Golden plan digests: every CLI solver's plan bytes are pinned.

Each case solves a small seeded instance through `cli.SOLVERS` and hashes
the compact `plan_to_dict` JSON (sha256).  The digests were recorded from
the planners before plan steps became named tuples; any change to step
order, cells or action strings shows up here.  The three Manhattan
`plan-ptr` digests were recorded again when the typed 2D assignment and
fusion began to read the cost model's metric.  The two `opt-por/row-typed`
digests were recorded again when 1D fusion moved to span candidates, whose
trades break ties between equal-cost pairs another way: picks (42) and
travel (770) stayed the same.  Cases cover labeled and
typed instances, 1D and 2D lattices, both metrics and interior rest cells.
The oracle's plan reconstruction is pinned the same way on tiny instances.
"""

import hashlib
import json

import pytest

from lattice_rearrange.cli import resolve_solver
from lattice_rearrange.core import (
    Action,
    CostModel,
    Plan,
    PlanStep,
    plan_from_dict,
    plan_to_dict,
)
from lattice_rearrange.gen import (
    GoalPattern,
    gen_block_random,
    gen_column_random,
    gen_typed,
    gen_uniform_permutation,
    gen_x_random,
)
from lattice_rearrange.oracle import oracle_optimal
from conftest import dumps, with_rest


def _typed(dims, k, pattern, seed):
    n = dims if isinstance(dims, int) else dims[0] * dims[1]
    return gen_typed(dims, k, (n // k,) * k, GoalPattern(pattern), seed)


INSTANCES = {
    "row-uniform": lambda: gen_uniform_permutation(40, 3),
    "row-uniform-rest": lambda: with_rest(gen_uniform_permutation(40, 4), 17),
    "row-xrandom": lambda: gen_x_random(60, 7, 5),
    "row-typed": lambda: _typed(48, 4, "blocks", 6),
    "row-typed-rest": lambda: with_rest(_typed(48, 3, "blocks", 7), 30),
    "grid-column": lambda: gen_column_random(6, 5, 8),
    "grid-block": lambda: gen_block_random(9, 9),
    "grid-block-rest": lambda: with_rest(gen_block_random(9, 10), 41),
    "grid-typed-blocks": lambda: _typed((8, 8), 4, "blocks", 11),
    "grid-typed-columns": lambda: _typed((6, 6), 6, "columns", 12),
    "grid-typed-rest": lambda: with_rest(_typed((6, 8), 4, "blocks", 13), 20),
}

CASES = {
    "sweep-lor": ["row-uniform", "row-uniform-rest", "row-xrandom"],
    "opt-lor": ["row-uniform", "row-uniform-rest", "row-xrandom"],
    "opt-por": ["row-typed", "row-typed-rest"],
    "greedy-por": ["row-typed", "row-typed-rest"],
    "sweep-ltr": ["grid-column", "grid-block", "grid-block-rest"],
    "switch-ltr": ["grid-column", "grid-block", "grid-block-rest"],
    "plan-ptr": ["grid-typed-blocks", "grid-typed-columns", "grid-typed-rest"],
    "greedy-2d": ["grid-block", "grid-typed-blocks", "grid-typed-rest"],
}

METRICS = ("euclidean", "manhattan")

GOLDEN = {
    "sweep-lor/row-uniform/euclidean":
        "cfd23ec3f7098e616a1ffe6b5871f3e5b1c7b5bb60d1c503b72f15211522ca55",
    "sweep-lor/row-uniform/manhattan":
        "cfd23ec3f7098e616a1ffe6b5871f3e5b1c7b5bb60d1c503b72f15211522ca55",
    "sweep-lor/row-uniform-rest/euclidean":
        "8b2e62bc6f5f035b6393bfdcce9dab18c28bb96c9c210e09d104aeac7b1d8a41",
    "sweep-lor/row-uniform-rest/manhattan":
        "8b2e62bc6f5f035b6393bfdcce9dab18c28bb96c9c210e09d104aeac7b1d8a41",
    "sweep-lor/row-xrandom/euclidean":
        "1f4ecf68d6ccd7678e84b89a008537675a8b23c0a9d6d36583b1612a4c8eed7b",
    "sweep-lor/row-xrandom/manhattan":
        "1f4ecf68d6ccd7678e84b89a008537675a8b23c0a9d6d36583b1612a4c8eed7b",
    "opt-lor/row-uniform/euclidean":
        "75727aa90913406f4aac9452a26dbfde7eec88a48b48fa2dd6aa3231772d0524",
    "opt-lor/row-uniform/manhattan":
        "75727aa90913406f4aac9452a26dbfde7eec88a48b48fa2dd6aa3231772d0524",
    "opt-lor/row-uniform-rest/euclidean":
        "be19f37443088444dffb922b964968d49d764dff5938039a3fc7a40d780cd3ce",
    "opt-lor/row-uniform-rest/manhattan":
        "be19f37443088444dffb922b964968d49d764dff5938039a3fc7a40d780cd3ce",
    "opt-lor/row-xrandom/euclidean":
        "deecaed34169474089824183d02f89bd075000d8c0975b89429244f250cc6c3b",
    "opt-lor/row-xrandom/manhattan":
        "deecaed34169474089824183d02f89bd075000d8c0975b89429244f250cc6c3b",
    "opt-por/row-typed/euclidean":
        "2074d60323c06a75b61e95b6cb49d582df7026ea78c9a0305ca1e6aa7c5deabe",
    "opt-por/row-typed/manhattan":
        "2074d60323c06a75b61e95b6cb49d582df7026ea78c9a0305ca1e6aa7c5deabe",
    "opt-por/row-typed-rest/euclidean":
        "a339ea799d0582fdcded6e835d335c2781f6d51a8aa019606675db5da0cf1cba",
    "opt-por/row-typed-rest/manhattan":
        "a339ea799d0582fdcded6e835d335c2781f6d51a8aa019606675db5da0cf1cba",
    "greedy-por/row-typed/euclidean":
        "177dc91267a3f49aaa83ac4cdbf1a3a272a7449902bef2f9ef984ca27757c3f7",
    "greedy-por/row-typed/manhattan":
        "177dc91267a3f49aaa83ac4cdbf1a3a272a7449902bef2f9ef984ca27757c3f7",
    "greedy-por/row-typed-rest/euclidean":
        "16fd5d71d1262b84881c58c1567004f6f614870270a0542f0571a6f63afae6ab",
    "greedy-por/row-typed-rest/manhattan":
        "16fd5d71d1262b84881c58c1567004f6f614870270a0542f0571a6f63afae6ab",
    "sweep-ltr/grid-column/euclidean":
        "331977b2047bde6e3a0bd66459bd42464276aee5e278808f14113131dad7cd14",
    "sweep-ltr/grid-column/manhattan":
        "331977b2047bde6e3a0bd66459bd42464276aee5e278808f14113131dad7cd14",
    "sweep-ltr/grid-block/euclidean":
        "bf738773462cffa02834ab2b9d2a04ccd8954786a00c27a484cbeca315c0d6b2",
    "sweep-ltr/grid-block/manhattan":
        "bf738773462cffa02834ab2b9d2a04ccd8954786a00c27a484cbeca315c0d6b2",
    "sweep-ltr/grid-block-rest/euclidean":
        "727a8435df7c492e16fd5fe0358e2f4aa5f166ceb0281d91f4d67d9e963fd70e",
    "sweep-ltr/grid-block-rest/manhattan":
        "727a8435df7c492e16fd5fe0358e2f4aa5f166ceb0281d91f4d67d9e963fd70e",
    "switch-ltr/grid-column/euclidean":
        "ecdce0e2c95307f0f6449da84308d96c2456b434d0f7c5d341a67577f15fe05e",
    "switch-ltr/grid-column/manhattan":
        "a44365c05383dd1151b32341dfa99eff76b069f72726cb0b466d7cb791985262",
    "switch-ltr/grid-block/euclidean":
        "db8ca68cdaa349ee9f8c22537f150e6180d43a7b4d5b8f273493a3b90d546c0c",
    "switch-ltr/grid-block/manhattan":
        "bb8004379d7499625caad3f8f33293924a12ed82e5859e7eb969276afbee73fb",
    "switch-ltr/grid-block-rest/euclidean":
        "c79098744916d39c719af8deabf5ab17b4b258b4a824d762ef94da5b71aafc53",
    "switch-ltr/grid-block-rest/manhattan":
        "16b1da0c99c2bcdd123255d9e0a3d813e23058cd0e243360a8ba92e7389a55b0",
    "plan-ptr/grid-typed-blocks/euclidean":
        "079fb5328f30c9eb0da6cca325c1bf14c77a31c8744efa983e65c80fcbb6cea9",
    "plan-ptr/grid-typed-blocks/manhattan":
        "2eff8092b0f5fd4ce6c168cdc28fd7087859259493730806d313fc4aec81b853",
    "plan-ptr/grid-typed-columns/euclidean":
        "eb64db2c3433a59183d0a11d18c9fa15bb173d66066f6ff8d83693f275030017",
    "plan-ptr/grid-typed-columns/manhattan":
        "0a525fcd683436dff950f1781616370d6d29421cceec38c8b6778e301b1c5cad",
    "plan-ptr/grid-typed-rest/euclidean":
        "8d5f62b518e41fb4e7ba7a1ad1f1a6a8a72017b750bd268f95f085aec6d1a78c",
    "plan-ptr/grid-typed-rest/manhattan":
        "5896bf63ded4d77ae3cd49c8af54e3d48d5d6405a3318174de85e91ea0274ff4",
    "greedy-2d/grid-block/euclidean":
        "a23f6a0335b3a67f637eebabd1edfa2b454b8f1b19005bf54a2cec15461159fe",
    "greedy-2d/grid-block/manhattan":
        "a23f6a0335b3a67f637eebabd1edfa2b454b8f1b19005bf54a2cec15461159fe",
    "greedy-2d/grid-typed-blocks/euclidean":
        "f4684e229f3e884703b0aa32f22623931993dacf4e3d58d0db5cb89ee0996099",
    "greedy-2d/grid-typed-blocks/manhattan":
        "76ddd68ece2d14a028880e85b3ed1d4ac509c9cfe9f09ad977208553e3aa6bc1",
    "greedy-2d/grid-typed-rest/euclidean":
        "3cbb9c19f461cd7aeff4de258f2a77f6a435091fa36992d3a27f3d3e71d3b2a2",
    "greedy-2d/grid-typed-rest/manhattan":
        "70c71b1ee7d7e21c378354b77ae928256b2e13511820bd49ad767a3adf26b76c",
    "oracle/oracle-grid/lexicographic":
        "84d824fb3f60b4b84d0dab570fdc6269368009fc47550ab229276b5573a48b4c",
    "oracle/oracle-grid/total":
        "84d824fb3f60b4b84d0dab570fdc6269368009fc47550ab229276b5573a48b4c",
    "oracle/oracle-row/lexicographic":
        "921907f32009d33e3d010cbbc61c648d6778b39469b6ca60f2675e0f126d3580",
    "oracle/oracle-row/total":
        "921907f32009d33e3d010cbbc61c648d6778b39469b6ca60f2675e0f126d3580",
    "oracle/oracle-typed/lexicographic":
        "1aca8f3456607445beac2d3f7ff9fd6a9a8b4c399042aa2b4bf86c3da4637bec",
    "oracle/oracle-typed/total":
        "1aca8f3456607445beac2d3f7ff9fd6a9a8b4c399042aa2b4bf86c3da4637bec",
}


def _digest(plan: Plan) -> str:
    return hashlib.sha256(dumps(plan_to_dict(plan)).encode()).hexdigest()


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("solver,name", [(s, i) for s, names in CASES.items() for i in names])
def test_solver_plan_digest(solver, name, metric):
    plan = resolve_solver(solver)(INSTANCES[name](), CostModel(metric=metric))
    assert _digest(plan) == GOLDEN[f"{solver}/{name}/{metric}"]


ORACLE_INSTANCES = {
    "oracle-row": lambda: with_rest(gen_uniform_permutation(5, 21), 3),
    "oracle-grid": lambda: gen_column_random(2, 3, 22),
    "oracle-typed": lambda: _typed((3, 2), 2, "columns", 23),
}


@pytest.mark.parametrize("objective", ("lexicographic", "total"))
@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_oracle_plan_digest(name, objective):
    res = oracle_optimal(ORACLE_INSTANCES[name](), CostModel(c_p=2.0), objective)
    assert _digest(res.plan) == GOLDEN[f"oracle/{name}/{objective}"]


def test_plan_step_is_an_immutable_value():
    step = PlanStep(3, Action.SWAP)
    with pytest.raises(AttributeError):
        step.cell = 4
    with pytest.raises(AttributeError):
        step.action = Action.PICK
    assert step == PlanStep(3, Action.SWAP) and step != PlanStep(3, Action.PICK)
    assert hash(step) == hash(PlanStep(3, Action.SWAP))
    assert len({step, PlanStep(3, Action.SWAP)}) == 1
    assert repr(step) == "PlanStep(cell=3, action=<Action.SWAP: 'swap'>)"
    cell, action = step
    assert (cell, action) == (step.cell, step.action) == (3, Action.SWAP)
    assert step == (3, Action.SWAP)


def test_plan_json_round_trip():
    plan = resolve_solver("opt-lor")(INSTANCES["row-uniform"](), CostModel())
    text = json.dumps(plan_to_dict(plan))
    back = plan_from_dict(json.loads(text))
    assert back == plan
    assert all(type(s) is PlanStep and type(s.action) is Action for s in back.steps)
    assert dumps(plan_to_dict(back)) == dumps(plan_to_dict(plan))
