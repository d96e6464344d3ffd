"""Core domain model for pick-n-swap rearrangement on 1D/2D lattices.

Cells are addressed by 1-based column-major index: cell (row, col) on an
m1 x m2 lattice has index (col - 1) * m1 + row.  A plan is a sequence of
steps, each an action (pick / swap / place) at a cell.  A step is a
PlanStep, an immutable (cell, action) named tuple: it unpacks, and it
compares equal to the plain tuple with the same fields.  The end-effector
starts and ends at the rest cell (cell 1 unless an instance overrides it),
so plan travel always includes the leg out of rest and the leg back.

Plan cost: every step counts one pick-n-swap operation; travel is the sum
of end-effector legs between consecutive action cells under the chosen
metric.  total = picks * c_p + travel * c_t.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence, Union


class RearrangeError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedPermutation(RearrangeError):
    """A labeled arrangement is not a permutation of 1..n."""


class TypeMismatch(RearrangeError):
    """Typed start/goal arrangements do not agree as multisets."""


class IllegalStep(RearrangeError):
    """A plan step violates a hand/cell precondition during simulation."""

    def __init__(self, step_index: int, reason: str):
        super().__init__(f"step {step_index}: {reason}")
        self.step_index = step_index
        self.reason = reason


class HandNotEmptyAtEnd(RearrangeError):
    """The end-effector still holds an item after the final plan step."""


class JsonFormatError(RearrangeError):
    """An instance/plan JSON document does not match the expected schema."""


class Action(str, Enum):
    PICK = "pick"
    SWAP = "swap"
    PLACE = "place"


@dataclass(frozen=True)
class LatticeDims:
    """Lattice extents: m1 rows, m2 columns.  1D lattices use m2 = 1."""

    m1: int
    m2: int

    def __post_init__(self):
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError(f"lattice dims must be positive, got {self.m1}x{self.m2}")

    @property
    def n(self) -> int:
        return self.m1 * self.m2

    def rowcol(self, index: int) -> tuple[int, int]:
        """Decode a 1-based column-major cell index to (row, col)."""
        if not 1 <= index <= self.n:
            raise ValueError(f"cell index {index} out of range 1..{self.n}")
        q, r = divmod(index - 1, self.m1)
        return r + 1, q + 1

    def index(self, row: int, col: int) -> int:
        if not (1 <= row <= self.m1 and 1 <= col <= self.m2):
            raise ValueError(f"cell ({row},{col}) outside {self.m1}x{self.m2}")
        return (col - 1) * self.m1 + row

    def cells(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class CostModel:
    """Cost coefficients: c_p per pick-n-swap, c_t per travel unit."""

    c_p: float = 1.0
    c_t: float = 1.0
    metric: str = "euclidean"

    def __post_init__(self):
        if self.metric not in ("euclidean", "manhattan"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.c_p < 0 or self.c_t < 0:
            raise ValueError("cost coefficients must be nonnegative")


DEFAULT_COST = CostModel()


def _manhattan_leg(dr: int, dc: int) -> float:
    return float(abs(dr) + abs(dc))


def distance(dims: LatticeDims, a: int, b: int, model: CostModel = DEFAULT_COST) -> float:
    """Metric distance between two cells given as indices."""
    ra, ca = dims.rowcol(a)
    rb, cb = dims.rowcol(b)
    if model.metric == "manhattan":
        return _manhattan_leg(ra - rb, ca - cb)
    return math.hypot(ra - rb, ca - cb)


@dataclass(frozen=True)
class LabeledInstance:
    """Fully labeled instance: cell i initially holds item pi[i-1]; item x
    belongs at cell x.  Solved when every cell i holds item i."""

    dims: LatticeDims
    pi: tuple[int, ...]
    rest: int = 1

    def __post_init__(self):
        n = self.dims.n
        if len(self.pi) != n or sorted(self.pi) != list(range(1, n + 1)):
            raise MalformedPermutation(
                f"arrangement is not a permutation of 1..{n}: {self.pi!r}")
        if not 1 <= self.rest <= n:
            raise ValueError(f"rest cell {self.rest} out of range")

    @property
    def kind(self) -> str:
        return "labeled"

    def start_config(self) -> tuple[int, ...]:
        return self.pi

    def goal_config(self) -> tuple[int, ...]:
        return tuple(range(1, self.dims.n + 1))


@dataclass(frozen=True)
class TypedInstance:
    """Partially labeled instance over k interchangeable item types.

    start_types[i-1] / goal_types[i-1] give the type occupying / wanted at
    cell i.  Any item of the right type satisfies a goal cell."""

    dims: LatticeDims
    k: int
    start_types: tuple[int, ...]
    goal_types: tuple[int, ...]
    rest: int = 1

    def __post_init__(self):
        n = self.dims.n
        if not 1 <= self.k <= n:
            raise ValueError(f"k must satisfy 1 <= k <= n, got k={self.k}, n={n}")
        if len(self.start_types) != n or len(self.goal_types) != n:
            raise TypeMismatch("start/goal arrays must cover every cell")
        for t in self.start_types + self.goal_types:
            if not 1 <= t <= self.k:
                raise TypeMismatch(f"type id {t} outside 1..{self.k}")
        if sorted(self.start_types) != sorted(self.goal_types):
            raise TypeMismatch("start and goal type multisets differ")
        if not 1 <= self.rest <= n:
            raise ValueError(f"rest cell {self.rest} out of range")

    @property
    def kind(self) -> str:
        return "typed"

    def start_config(self) -> tuple[int, ...]:
        return self.start_types

    def goal_config(self) -> tuple[int, ...]:
        return self.goal_types


Instance = Union[LabeledInstance, TypedInstance]


class PlanStep(NamedTuple):
    """One pick-n-swap operation at a cell (cell is a column-major index)."""

    cell: int
    action: Action


@dataclass(frozen=True)
class Plan:
    steps: tuple[PlanStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[PlanStep]:
        return iter(self.steps)

    @property
    def picks(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class PlanCost:
    picks: int
    travel: float
    total: float


@dataclass(frozen=True)
class SimResult:
    config: tuple[Optional[int], ...]
    cost: PlanCost


def simulate(instance: Instance, plan: Plan, model: CostModel = DEFAULT_COST) -> SimResult:
    """Execute a plan from the instance's start arrangement.

    Raises IllegalStep if any step's precondition fails (pick needs an empty
    hand and an occupied cell, swap a held item and an occupied cell, place a
    held item and an empty cell) and HandNotEmptyAtEnd if the effector is
    still holding an item after the last step.  The returned cost includes
    the closing leg back to the rest cell.
    """
    dims = instance.dims
    n, m1 = dims.n, dims.m1
    # distance() inlined: each cell is decoded once, after its range check
    leg = _manhattan_leg if model.metric == "manhattan" else math.hypot
    config: list[Optional[int]] = list(instance.start_config())
    held: Optional[int] = None
    rest_col, rest_row = col, row = divmod(instance.rest - 1, m1)
    travel = 0.0
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    for idx, (cell, action) in enumerate(plan.steps):
        if not 1 <= cell <= n:
            raise IllegalStep(idx, f"cell {cell} outside lattice")
        c, r = divmod(cell - 1, m1)
        travel += leg(row - r, col - c)
        col, row = c, r
        occupant = config[cell - 1]
        if action is pick:
            if held is not None:
                raise IllegalStep(idx, "pick with an item already in hand")
            if occupant is None:
                raise IllegalStep(idx, f"pick at empty cell {cell}")
            held, config[cell - 1] = occupant, None
        elif action is swap:
            if held is None:
                raise IllegalStep(idx, "swap with an empty hand")
            if occupant is None:
                raise IllegalStep(idx, f"swap at empty cell {cell}")
            held, config[cell - 1] = occupant, held
        elif action is place:
            if held is None:
                raise IllegalStep(idx, "place with an empty hand")
            if occupant is not None:
                raise IllegalStep(idx, f"place at occupied cell {cell}")
            config[cell - 1], held = held, None
        else:
            raise IllegalStep(idx, f"unknown action {action!r}")
    if held is not None:
        raise HandNotEmptyAtEnd(f"item {held} still in hand after final step")
    travel += leg(row - rest_row, col - rest_col)
    picks = len(plan.steps)
    cost = PlanCost(picks, travel, picks * model.c_p + travel * model.c_t)
    return SimResult(tuple(config), cost)


def is_solved(config: Sequence[Optional[int]], instance: Instance) -> bool:
    return tuple(config) == instance.goal_config()


def plan_cost(instance: Instance, plan: Plan, model: CostModel = DEFAULT_COST) -> PlanCost:
    """Cost of a plan on an instance (simulates, so also checks legality)."""
    return simulate(instance, plan, model).cost


def reverse_plan(plan: Plan) -> Plan:
    """Time-reverse a plan: step order flipped, pick and place exchanged.

    If the forward plan takes start to goal, the reversed plan takes goal to
    start with the same picks and travel.
    """
    flipped = {Action.PICK: Action.PLACE, Action.PLACE: Action.PICK, Action.SWAP: Action.SWAP}
    return Plan(tuple(PlanStep(s.cell, flipped[s.action]) for s in reversed(plan.steps)))


def reversed_instance(instance: Instance) -> Instance:
    """The start/goal-swapped instance that reverse_plan output solves.

    For a labeled instance this is the inverse permutation (items relabeled by
    their goal positions); for typed instances start and goal arrays swap.
    """
    if isinstance(instance, LabeledInstance):
        inv = [0] * len(instance.pi)
        for i, x in enumerate(instance.pi, start=1):
            inv[x - 1] = i
        return LabeledInstance(instance.dims, tuple(inv), instance.rest)
    return TypedInstance(instance.dims, instance.k,
                         instance.goal_types, instance.start_types, instance.rest)


# --- JSON interchange ------------------------------------------------------
#
# Instance document:  {"dims": [m1, m2], "kind": "labeled"|"typed",
#                      "pi": [...]}  or  {"k": K, "start_types": [...],
#                      "goal_types": [...]},  optional {"rest": index}
# Plan document:      {"steps": [{"cell": i, "action": "pick"|"swap"|"place"}]}
#
# Writers emit keys in a fixed order so equal objects serialize to equal
# bytes.  Readers ignore a top-level "format_version".

FORMAT_VERSION = 1


def instance_to_dict(instance: Instance) -> dict:
    d: dict = {"dims": [instance.dims.m1, instance.dims.m2], "kind": instance.kind}
    if isinstance(instance, LabeledInstance):
        d["pi"] = list(instance.pi)
    else:
        d["k"] = instance.k
        d["start_types"] = list(instance.start_types)
        d["goal_types"] = list(instance.goal_types)
    d["rest"] = instance.rest
    return d


def instance_from_dict(doc: dict) -> Instance:
    try:
        m1, m2 = doc["dims"]
        dims = LatticeDims(int(m1), int(m2))
        kind = doc["kind"]
        rest = int(doc.get("rest", 1))
        if kind == "labeled":
            return LabeledInstance(dims, tuple(int(x) for x in doc["pi"]), rest)
        if kind == "typed":
            return TypedInstance(dims, int(doc["k"]),
                                 tuple(int(t) for t in doc["start_types"]),
                                 tuple(int(t) for t in doc["goal_types"]), rest)
    except RearrangeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise JsonFormatError(f"bad instance document: {exc}") from exc
    raise JsonFormatError(f"unknown instance kind {doc.get('kind')!r}")


_ACTION_TEXT = {a: a.value for a in Action}
_ACTION_OF = {a.value: a for a in Action}


def plan_to_dict(plan: Plan) -> dict:
    text = _ACTION_TEXT
    return {"steps": [{"cell": cell, "action": text[action]} for cell, action in plan.steps]}


def plan_from_dict(doc: dict) -> Plan:
    action_of = _ACTION_OF
    try:
        steps = tuple(PlanStep(int(s["cell"]), action_of[s["action"]]) for s in doc["steps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise JsonFormatError(f"bad plan document: {exc}") from exc
    return Plan(steps)


def dumps(doc: dict) -> str:
    """Serialize a document deterministically (fixed key order, no spaces)."""
    return json.dumps(doc, separators=(",", ":"))
