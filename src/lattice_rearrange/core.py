"""Core domain model for pick-n-swap rearrangement on 1D/2D lattices.

Cells are addressed by 1-based column-major index: cell (row, col) on an
m1 x m2 lattice has index (col - 1) * m1 + row.  A plan is a sequence of
steps, each an action (pick / swap / place) at a cell, stored as two
columns: Plan.cells (a tuple of ints) and Plan.actions (a tuple of Action
members).  Plan.steps is a view built on demand from the columns: a tuple
of PlanStep, an immutable (cell, action) named tuple that unpacks and
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
from enum import Enum
from functools import reduce
from itertools import chain
from operator import add, index, length_hint, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union


class RearrangeError(Exception):
    """Base class for all domain errors raised by this package."""


class MalformedPermutation(RearrangeError):
    """A labeled arrangement, or the moves of given MoveCycles, is not a permutation."""


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


# how _Value.__init__ and Plan._fill store a field past the read-only __setattr__
_store = object.__setattr__


class _Value:
    """Base of the package's immutable value classes.

    A subclass names its fields, in constructor order, as __slots__, and
    any keyword defaults in _defaults.  _Value.__init__ is the one
    constructor that stores fields: it binds positional arguments, then
    keyword arguments, then _defaults, raising TypeError on a missing,
    unknown or repeated field.  A subclass that checks its arguments keeps
    its own signature and ends in super().__init__(...).  Instances compare
    equal only within one class, on the field tuple that _key returns; the
    hash is that tuple's hash, and the repr is "Name(field=value, ...)"
    over every field.  Assigning or deleting an attribute raises
    AttributeError.  Pickling and copying restore the stored fields
    through the same store loop.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            _store(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of any other call."""
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        bound = dict(zip(fields, args))
        for field in kwargs:
            if field in bound or field not in fields:
                what = "a second value for" if field in bound else "an unknown"
                raise TypeError(f"{name}() got {what} argument {field!r}")
        bound = {**self._defaults, **bound, **kwargs}
        for field in fields:
            if field not in bound:
                raise TypeError(f"{name}() missing argument {field!r}")
        return [bound[field] for field in fields]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    _key = _values

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        _Value.__init__(self, *state)


class LatticeDims(_Value):
    """Lattice extents: m1 rows, m2 columns.  1D lattices use m2 = 1."""

    __slots__ = ("m1", "m2")
    m1: int
    m2: int

    def __init__(self, m1: int, m2: int):
        try:
            m1, m2 = index(m1), index(m2)
        except TypeError:
            raise ValueError(f"lattice dims must be integers, got {m1!r}x{m2!r}") from None
        if m1 < 1 or m2 < 1:
            raise ValueError(f"lattice dims must be positive, got {m1}x{m2}")
        super().__init__(m1, m2)

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


class CostModel(_Value):
    """Cost coefficients: c_p per pick-n-swap, c_t per travel unit."""

    __slots__ = ("c_p", "c_t", "metric")
    c_p: float
    c_t: float
    metric: str

    def __init__(self, c_p: float = 1.0, c_t: float = 1.0, metric: str = "euclidean"):
        if metric not in ("euclidean", "manhattan"):
            raise ValueError(f"unknown metric {metric!r}")
        if not all(math.isfinite(c) and c >= 0 for c in (c_p, c_t)):
            raise ValueError("cost coefficients must be finite and nonnegative")
        super().__init__(c_p, c_t, metric)


DEFAULT_COST = CostModel()


def _manhattan_leg(dr: int, dc: int) -> float:
    return float(abs(dr) + abs(dc))


def _cell_distance(dims: LatticeDims, model: CostModel) -> Callable[[int, int], float]:
    """The function (a, b) -> distance(dims, a, b, model) for two cells on
    the lattice, without the range checks.  The metric's leg is picked here,
    once per caller, and each call decodes each cell with one divmod."""
    m1 = dims.m1
    leg = _manhattan_leg if model.metric == "manhattan" else math.hypot

    def cell_distance(a: int, b: int) -> float:
        col_a, row_a = divmod(a - 1, m1)
        col_b, row_b = divmod(b - 1, m1)
        return leg(row_a - row_b, col_a - col_b)
    return cell_distance


def distance(dims: LatticeDims, a: int, b: int, model: CostModel = DEFAULT_COST) -> float:
    """Metric distance between two cells given as indices."""
    for cell in (a, b):
        _require_cell(dims.n, cell, "cell index", f"out of range 1..{dims.n}")
    return _cell_distance(dims, model)(a, b)


def _is_permutation(pi: Sequence[int], n: int) -> bool:
    """Whether pi lists each of 1..n exactly once, in one pass over n + 1
    bytes.  Indexing the bytearray applies operator.index, so an entry that
    is not an integer fails here as it does in permutation_cycles; bools and
    numpy ints pass."""
    if len(pi) != n:
        return False
    seen = bytearray(n + 1)
    try:
        for v in pi:
            # seen[v] raises IndexError above n; a negative v reads from
            # the end, and v < 1 turns it away with 0
            if seen[v] or v < 1:
                return False
            seen[v] = 1
    except (TypeError, IndexError):
        return False
    return True


def _require_cell(n: int, cell, name: str, outside: str) -> None:
    """Raise ValueError with _cell_fault's reason unless cell is one of the
    lattice cells 1..n."""
    fault = _cell_fault(n, cell, name, outside)
    if fault is not None:
        raise ValueError(fault)


class LabeledInstance(_Value):
    """Fully labeled instance: cell i initially holds item pi[i-1]; item x
    belongs at cell x.  Solved when every cell i holds item i."""

    __slots__ = ("dims", "pi", "rest")
    dims: LatticeDims
    pi: tuple[int, ...]
    rest: int

    def __init__(self, dims: LatticeDims, pi: tuple[int, ...], rest: int = 1):
        n = dims.n
        if not _is_permutation(pi, n):
            raise MalformedPermutation(
                f"arrangement is not a permutation of 1..{n}: {pi!r}")
        _require_cell(n, rest, "rest cell", "out of range")
        super().__init__(dims, pi, index(rest))

    @property
    def kind(self) -> str:
        return "labeled"

    def start_config(self) -> tuple[int, ...]:
        return self.pi

    def goal_config(self) -> tuple[int, ...]:
        return tuple(range(1, self.dims.n + 1))


class TypedInstance(_Value):
    """Partially labeled instance over k interchangeable item types.

    start_types[i-1] / goal_types[i-1] give the type occupying / wanted at
    cell i.  Any item of the right type satisfies a goal cell.  Ids pass
    through operator.index and are stored as ints."""

    __slots__ = ("dims", "k", "start_types", "goal_types", "rest")
    dims: LatticeDims
    k: int
    start_types: tuple[int, ...]
    goal_types: tuple[int, ...]
    rest: int

    def __init__(self, dims: LatticeDims, k: int, start_types: tuple[int, ...],
                 goal_types: tuple[int, ...], rest: int = 1):
        n = dims.n
        try:
            k = index(k)
        except TypeError:
            raise ValueError(f"k must be an integer, got {k!r}") from None
        if not 1 <= k <= n:
            raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
        if len(start_types) != n or len(goal_types) != n:
            raise TypeMismatch("start/goal arrays must cover every cell")
        try:
            start_types = tuple(map(index, start_types))
            goal_types = tuple(map(index, goal_types))
        except TypeError:
            for side, types in (("start", start_types), ("goal", goal_types)):
                for cell, t in enumerate(types, 1):
                    try:
                        index(t)
                    except TypeError:
                        raise TypeMismatch(f"type id {t!r} at {side} cell {cell} "
                                           f"is not an integer") from None
        if not set(start_types).union(goal_types) <= set(range(1, k + 1)):
            for t in start_types + goal_types:
                if not 1 <= t <= k:
                    raise TypeMismatch(f"type id {t} outside 1..{k}")
        if sorted(start_types) != sorted(goal_types):
            raise TypeMismatch("start and goal type multisets differ")
        _require_cell(n, rest, "rest cell", "out of range")
        super().__init__(dims, k, start_types, goal_types, index(rest))

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


class Plan(_Value):
    """A plan as two columns: step i acts `actions[i]` at cell `cells[i]`.

    The columns are the only stored form.  Plan(steps) takes any iterable
    of (cell, action) pairs and splits it; emitters that already hold the
    columns use Plan.from_columns.  `steps` is a view built on demand, a
    tuple of PlanStep; iterating yields the same PlanSteps one at a time.
    A step still unpacks and compares equal to the (cell, action) tuple.
    Length, equality and hashing follow the columns.
    """

    __slots__ = ("cells", "actions")
    cells: tuple[int, ...]
    actions: tuple[Action, ...]

    def __init__(self, steps: Iterable[tuple[int, Action]] = ()):
        pairs = tuple(steps)
        self._fill(tuple(cell for cell, _ in pairs), tuple(action for _, action in pairs))

    @classmethod
    def from_columns(cls, cells: Iterable[int], actions: Iterable[Action]) -> Plan:
        """The plan whose step i is (cells[i], actions[i])."""
        plan = object.__new__(cls)
        plan._fill(tuple(cells), tuple(actions))
        return plan

    def _fill(self, cells: tuple[int, ...], actions: tuple[Action, ...]) -> None:
        if len(cells) != len(actions):
            raise ValueError(f"{len(cells)} cells but {len(actions)} actions")
        _store(self, "cells", cells)
        _store(self, "actions", actions)

    @property
    def steps(self) -> tuple[PlanStep, ...]:
        return tuple(map(PlanStep, self.cells, self.actions))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[PlanStep]:
        return map(PlanStep, self.cells, self.actions)

    @property
    def picks(self) -> int:
        return len(self.cells)


class PlanCost(_Value):
    __slots__ = ("picks", "travel", "total")
    picks: int
    travel: float
    total: float


class SimResult(_Value):
    __slots__ = ("config", "cost")
    config: tuple[Optional[int], ...]
    cost: PlanCost


def simulate(instance: Instance, plan: Plan, model: CostModel = DEFAULT_COST) -> SimResult:
    """Execute a plan from the instance's start arrangement.

    Every step exchanges the hand with the cell: pick takes the occupant
    into an empty hand, place leaves the held item in an empty cell, swap
    trades the two.  The action only sets the precondition: pick needs an
    empty hand and an occupied cell, swap a held item and an occupied cell,
    place a held item and an empty cell.  The first step by index that
    fails its precondition, is not an Action member or has no lattice cell
    (off the lattice or not an integer) raises IllegalStep; HandNotEmptyAtEnd
    follows if the effector still holds an item after the last step.
    Travel is summed once the plan is legal and includes the closing leg
    back to the rest cell.  On a row every leg is a whole number under both
    metrics, so row travel is one integer sum, exact below 2**53.
    """
    n = instance.dims.n
    cells, actions = plan.cells, plan.actions
    # the loop stops short of the first cell that is not a lattice cell,
    # so an earlier illegal step is still the one reported
    on_lattice = cells
    try:
        bounded = not cells or (1 <= min(cells) and max(cells) <= n)
    except TypeError:  # a cell that does not compare with ints
        bounded = False
    if not bounded:
        on_lattice = cells[:next(idx for idx, cell in enumerate(cells) if _cell_fault(n, cell))]
    config: list[Optional[int]] = [None, *instance.start_config()]  # config[cell]
    held: Optional[int] = None
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    cells_left = iter(on_lattice)
    failed = True
    try:
        for cell, action in zip(cells_left, actions):
            occupant = config[cell]
            if action is swap:
                if held is None or occupant is None:
                    break
            elif action is pick:
                if held is not None or occupant is None:
                    break
            elif action is place:
                if held is None or occupant is not None:
                    break
            else:
                break
            held, config[cell] = occupant, held
        else:
            failed = False
    except TypeError:
        # min() and max() pass over NaN and over floats in 1..n;
        # config[cell] rejects them at their step
        pass
    if failed:
        # the zip stopped at the failing step: it took that step's cell last
        raise IllegalStep(len(on_lattice) - length_hint(cells_left) - 1,
                          _violation(n, cell, action, held))
    if on_lattice is not cells:
        off = len(on_lattice)
        raise IllegalStep(off, _violation(n, cells[off], actions[off], held))
    if held is not None:
        raise HandNotEmptyAtEnd(f"item {held} still in hand after final step")
    travel = _travel(instance.dims, instance.rest, cells, model)
    picks = len(plan)
    cost = PlanCost(picks, travel, picks * model.c_p + travel * model.c_t)
    return SimResult(tuple(config[1:]), cost)


def _cell_fault(n: int, cell, name: str = "cell",
                outside: str = "outside lattice") -> Optional[str]:
    """Why cell is not one of the lattice cells 1..n, or None: either
    "{name} {cell} {outside}" or "{name} {cell!r} is not an integer".  This
    is the one cell test: simulate, distance and the rest cell use it."""
    try:
        if not 1 <= cell <= n:
            return f"{name} {cell} {outside}"
        index(cell)
    except TypeError:
        return f"{name} {cell!r} is not an integer"
    return None


def _violation(n: int, cell: int, action: Action, held: Optional[int]) -> str:
    """Why simulate rejects a step, checked in the order it always was:
    cell, then action, then hand, then occupant."""
    if (fault := _cell_fault(n, cell)) is not None:
        return fault
    if action is Action.PICK:
        return ("pick with an item already in hand" if held is not None
                else f"pick at empty cell {cell}")
    if action is Action.SWAP:
        return ("swap with an empty hand" if held is None
                else f"swap at empty cell {cell}")
    if action is Action.PLACE:
        return ("place with an empty hand" if held is None
                else f"place at occupied cell {cell}")
    return f"unknown action {action!r}"


def _travel(dims: LatticeDims, rest: int, cells: tuple[int, ...], model: CostModel) -> float:
    """Length of the closed walk rest -> cells... -> rest under the metric."""
    legs_from, legs_to = chain((rest,), cells), chain(cells, (rest,))
    if dims.m2 == 1:
        # hypot(d, 0) and _manhattan_leg(d, 0) are both float(abs(d))
        return float(sum(map(abs, map(sub, legs_from, legs_to))))
    # left to right: sum() of floats is compensated from Python 3.12 on
    return reduce(add, map(_cell_distance(dims, model), legs_from, legs_to), 0.0)


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
    return Plan.from_columns(plan.cells[::-1], map(flipped.__getitem__, reversed(plan.actions)))


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
# bytes.  The documents the CLI and the bench reports write open with
# "format_version": FORMAT_VERSION; readers ignore it.

FORMAT_VERSION = 1


def instance_to_dict(instance: Instance) -> dict:
    """The instance document's fields.  Each entry of pi passes through
    operator.index, so a bool or a numpy int that the constructor accepted
    is written as the JSON integer it stands for."""
    d: dict = {"dims": [instance.dims.m1, instance.dims.m2], "kind": instance.kind}
    if isinstance(instance, LabeledInstance):
        d["pi"] = list(map(index, instance.pi))
    else:
        d["k"] = instance.k
        d["start_types"] = list(instance.start_types)
        d["goal_types"] = list(instance.goal_types)
    d["rest"] = instance.rest
    return d


def instance_to_json(instance: Instance) -> str:
    """The instance document of `instance`, byte for byte what
    ``json.dumps({"format_version": FORMAT_VERSION, **instance_to_dict(instance)},
    indent=2)`` writes, plus a newline.

    As in plan_to_json, the long integer arrays are joined from f-strings
    and the scalars go through ``json.dumps``.
    """
    doc = {"format_version": FORMAT_VERSION, **instance_to_dict(instance)}
    fields = []
    for key, value in doc.items():
        if isinstance(value, list):  # never empty: dims, or one entry per cell
            text = "[\n    " + ",\n    ".join([f"{v}" for v in value]) + "\n  ]"
        else:
            text = json.dumps(value)
        fields.append(f'  "{key}": {text}')
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _ints(values, field: str) -> tuple[int, ...]:
    """values as a tuple, provided each is a JSON integer (exact type int):
    a float such as 1.7, a bool or a string is rejected, never coerced."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        raise JsonFormatError(f"{field} must hold JSON integers only")
    return values


def instance_from_dict(doc: dict) -> Instance:
    try:
        m1, m2 = _ints(doc["dims"], "dims")
        dims = LatticeDims(m1, m2)
        kind = doc["kind"]
        (rest,) = _ints((doc.get("rest", 1),), "rest")
        if kind == "labeled":
            return LabeledInstance(dims, _ints(doc["pi"], "pi"), rest)
        if kind == "typed":
            (k,) = _ints((doc["k"],), "k")
            return TypedInstance(dims, k, _ints(doc["start_types"], "start_types"),
                                 _ints(doc["goal_types"], "goal_types"), rest)
    except RearrangeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise JsonFormatError(f"bad instance document: {exc}") from exc
    raise JsonFormatError(f"unknown instance kind {doc.get('kind')!r}")


_ACTION_TEXT = {a: a.value for a in Action}
_ACTION_OF = {a.value: a for a in Action}


def plan_to_dict(plan: Plan) -> dict:
    text = _ACTION_TEXT
    return {"steps": [{"cell": cell, "action": text[action]}
                      for cell, action in zip(plan.cells, plan.actions)]}


def plan_to_json(plan: Plan, cost: PlanCost) -> str:
    """The solve document of `plan` and its `cost`, byte for byte what
    ``json.dumps({"format_version": FORMAT_VERSION, **plan_to_dict(plan),
    "cost": ...}, indent=2)`` writes, plus a newline.

    The indenting encoder runs in pure Python, which on long plans costs more
    than the solve; each step here is one f-string.  The cost scalars still
    go through ``json.dumps``, so float formatting cannot drift.
    """
    text = _ACTION_TEXT
    steps = ",\n".join([
        f'    {{\n      "cell": {cell},\n      "action": "{text[action]}"\n    }}'
        for cell, action in zip(plan.cells, plan.actions)])
    steps = f"[\n{steps}\n  ]" if steps else "[]"
    picks, travel, total = (json.dumps(v) for v in (cost.picks, cost.travel, cost.total))
    return (f'{{\n  "format_version": {FORMAT_VERSION},\n  "steps": {steps},\n  "cost": {{\n'
            f'    "picks": {picks},\n    "travel": {travel},\n    "total": {total}\n'
            f'  }}\n}}\n')


def plan_from_dict(doc: dict) -> Plan:
    action_of = _ACTION_OF
    try:
        steps = doc["steps"]
        cells = [s["cell"] for s in steps]
        actions = [action_of[s["action"]] for s in steps]
    except (KeyError, TypeError) as exc:
        raise JsonFormatError(f"bad plan document: {exc}") from exc
    return Plan.from_columns(_ints(cells, "step cells"), actions)
