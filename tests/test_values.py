"""The package's immutable value classes: each keeps the behaviour it had as
a frozen dataclass.  Its repr text is the one pinned below, as the
dataclass printed it; equal instances hash alike, and no instance equals
one of another class; pickle, copy and deepcopy round-trip; keyword
construction fills in the same defaults; and no field can be assigned or
deleted."""

import copy
import pickle

import pytest

from lattice_rearrange.bench import ExperimentReport, ExperimentSpec, ReportRow
from lattice_rearrange.core import (
    Action,
    CostModel,
    LabeledInstance,
    LatticeDims,
    Plan,
    PlanCost,
    SimResult,
    TypedInstance,
)
from lattice_rearrange.gen import GoalPattern
from lattice_rearrange.graphs import CycleSet, WeightedGraph
from lattice_rearrange.oracle import OracleResult
from lattice_rearrange.por import MoveCycle

_STEPS = [(1, Action.PICK), (2, Action.SWAP), (1, Action.PLACE)]
_PLAN_REPR = ("Plan(cells=(1, 2, 1), actions=(<Action.PICK: 'pick'>, "
              "<Action.SWAP: 'swap'>, <Action.PLACE: 'place'>))")
_COST_REPR = "PlanCost(picks=3, travel=2.0, total=5.0)"
_SPEC = {"experiment": "lor_ratio", "sizes": [8, 16], "trials": 2}
_SPEC_REPR = ("ExperimentSpec(experiment='lor_ratio', sizes=(8, 16), trials=2, "
              "distribution='uniform', seed=0)")
_ROW = {"size": 8, "statistic": "opt_travel_over_m_squared", "mean": 0.5, "std": 0.25,
        "trials": 2, "seed": 7}
_ROW_REPR = ("ReportRow(size=8, statistic='opt_travel_over_m_squared', mean=0.5, std=0.25, "
             "trials=2, seed=7)")

# class -> (a function of the class giving its keyword arguments, each
# default left out, and the repr the frozen dataclass printed for them)
CASES = {
    LatticeDims: (lambda: {"m1": 2, "m2": 3}, "LatticeDims(m1=2, m2=3)"),
    CostModel: (lambda: {}, "CostModel(c_p=1.0, c_t=1.0, metric='euclidean')"),
    LabeledInstance: (
        lambda: {"dims": LatticeDims(3, 1), "pi": (2, 3, 1)},
        "LabeledInstance(dims=LatticeDims(m1=3, m2=1), pi=(2, 3, 1), rest=1)"),
    TypedInstance: (
        lambda: {"dims": LatticeDims(2, 2), "k": 2, "start_types": (1, 2, 2, 1),
                 "goal_types": (2, 1, 1, 2)},
        "TypedInstance(dims=LatticeDims(m1=2, m2=2), k=2, start_types=(1, 2, 2, 1), "
        "goal_types=(2, 1, 1, 2), rest=1)"),
    Plan: (lambda: {"steps": _STEPS}, _PLAN_REPR),
    PlanCost: (lambda: {"picks": 3, "travel": 2.0, "total": 5.0}, _COST_REPR),
    SimResult: (
        lambda: {"config": (1, None, 2), "cost": PlanCost(3, 2.0, 5.0)},
        f"SimResult(config=(1, None, 2), cost={_COST_REPR})"),
    CycleSet: (
        lambda: {"cycles": ((1, 2),), "fixed_points": (3,)},
        "CycleSet(cycles=((1, 2),), fixed_points=(3,))"),
    WeightedGraph: (
        lambda: {"vertices": (1, 2), "edges": ((1, 2, 0.5),)},
        "WeightedGraph(vertices=(1, 2), edges=((1, 2, 0.5),))"),
    MoveCycle: (
        lambda: {"edges": ((1, 2), (2, 1)), "edge_types": (1, 2)},
        "MoveCycle(edges=((1, 2), (2, 1)), edge_types=(1, 2))"),
    GoalPattern: (lambda: {"kind": "blocks"}, "GoalPattern(kind='blocks', goal_types=None)"),
    OracleResult: (
        lambda: {"plan": Plan(_STEPS), "cost": PlanCost(3, 2.0, 5.0)},
        f"OracleResult(plan={_PLAN_REPR}, cost={_COST_REPR})"),
    ExperimentSpec: (lambda: dict(_SPEC), _SPEC_REPR),
    ReportRow: (lambda: dict(_ROW), _ROW_REPR),
    ExperimentReport: (
        lambda: {"spec": ExperimentSpec(**_SPEC), "rows": (ReportRow(**_ROW),)},
        f"ExperimentReport(spec={_SPEC_REPR}, rows=({_ROW_REPR},), failures=(), "
        "runtime_seconds=0.0)"),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    kwargs, text = CASES[cls]
    value = cls(**kwargs())
    assert repr(value) == text

    twin = cls(**kwargs())
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert not twin != value

    # a subclass instance holding the same fields is another class's value
    other = type(f"Other{cls.__name__}", (cls,), {"__slots__": ()})(**kwargs())
    assert repr(other) == f"Other{text}"
    assert value != other and other != value

    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (*copies, copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        assert repr(twin) == text

    field = text[len(cls.__name__) + 1:].split("=")[0]
    before = getattr(value, field)
    for name in (field, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert getattr(value, field) is before and repr(value) == text


def test_classes_with_equal_field_values_stay_unequal():
    values = (((1, 2), (2, 1)), (1, 2))
    a, b, c = CycleSet(*values), WeightedGraph(*values), MoveCycle(*values)
    assert a != b and b != c and c != a
    assert a != values and values != a
    assert len({a, b, c}) == 3


def test_report_equality_and_hash_ignore_runtime():
    spec, rows = ExperimentSpec(**_SPEC), (ReportRow(**_ROW),)
    fast = ExperimentReport(spec, rows, runtime_seconds=0.5)
    slow = ExperimentReport(spec, rows, runtime_seconds=2.5)
    assert fast == slow and hash(fast) == hash(slow)
    assert repr(fast) != repr(slow) and pickle.loads(pickle.dumps(slow)).runtime_seconds == 2.5
    assert fast != ExperimentReport(spec, rows, failures=("trial 0",), runtime_seconds=0.5)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_constructor_binds_fields_as_a_signature_would(cls):
    kwargs = CASES[cls][0]
    value = cls(**kwargs())
    positional = cls(*kwargs().values())
    assert positional == value and repr(positional) == repr(value)

    with pytest.raises(TypeError):
        cls(**kwargs(), no_such_field=1)
    if kwargs():
        first, *_ = kwargs()
        # a missing field, where the class has no default for it
        if cls is not Plan:
            with pytest.raises(TypeError):
                cls(**{name: v for name, v in kwargs().items() if name != first})
        # the same field given by position and by keyword
        with pytest.raises(TypeError):
            cls(*kwargs().values(), **{first: kwargs()[first]})


def test_store_only_constructor_rejects_surplus_and_fills_defaults():
    with pytest.raises(TypeError, match="takes 3 arguments but 4 were given"):
        PlanCost(1, 2.0, 3.0, 4.0)
    with pytest.raises(TypeError, match="missing argument 'total'"):
        PlanCost(1, travel=2.0)
    with pytest.raises(TypeError, match="an unknown argument 'cost'"):
        PlanCost(1, 2.0, 3.0, cost=1)
    with pytest.raises(TypeError, match="a second value for argument 'picks'"):
        PlanCost(1, 2.0, 3.0, picks=1)
    spec, rows = ExperimentSpec(**_SPEC), (ReportRow(**_ROW),)
    assert ExperimentReport(spec, rows) == ExperimentReport(spec, rows=rows, failures=())
    assert ExperimentReport(spec, rows).runtime_seconds == 0.0
    assert PlanCost(1, total=3.0, travel=2.0) == PlanCost(1, 2.0, 3.0)
