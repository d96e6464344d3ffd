"""Outside-in tracing: wrap the module-level names the package binds.

Nothing under ``src/`` changes.  A function such as ``graphs.min_arborescence``
is reached through every module that binds it (``lattice2d`` imports it by
name), so each binding of the same object is replaced with one wrapper and
put back when the trace ends.  Two wrappers exist:

* ``Tracer`` records a span per call: name, start, end, parent span and
  instance id.  Spans stay in memory and are written once, at the end.
* ``Counters`` counts work per call (calls, steps, cycles, edges, ...).  It
  runs in its own pass, so the hot ``distance`` counter never sits inside a
  timed span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
import types
from collections import Counter

import lattice_rearrange as lr
from lattice_rearrange import cli, core, gen, graphs, lattice2d, lor, por

# modules whose bindings are patched; oracle and bench are never timed
MODULES = (lr, core, graphs, lor, por, lattice2d, gen, cli)

# span name -> the object it wraps, named by "module.attribute"
TIMED = (
    "core.simulate", "core.plan_cost", "core.instance_from_dict",
    "graphs.permutation_cycles", "graphs.min_arborescence",
    "graphs.min_cost_assignment", "graphs.linear_sum_assignment",
    "lor.follow_cycles", "lor.opt_plan_lor", "lor.sweep_cycles_lor",
    "por.form_cycles", "por.merge_cycles", "por.merge_cycles_mst",
    "por.group_sweep_cycles_por", "por.opt_plan_por", "por.greedy_plan", "por.greedy_por",
    "lattice2d.switch_cycles_ltr", "lattice2d.sweep_cycles_ltr",
    "lattice2d.form_cycles_ptr", "lattice2d.merge_cycles_ptr",
    "lattice2d.sweep_cycles_ptr", "lattice2d.plan_ptr", "lattice2d.greedy_2d",
    "cli.main",
)
# the CLI reaches json through its module binding ``cli.json``
JSON_SPANS = {"loads": "cli.json_parse", "dumps": "cli.json_dump"}


def _target(name: str):
    module, attr = name.split(".")
    return getattr(globals()[module], attr)


class Patches:
    """Replaces every binding of an object in MODULES; restores them all."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, target, wrapper) -> None:
        self._wrappers[id(target)] = wrapper
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._set(module, attr, wrapper)

    def replace_json(self, loads, dumps) -> None:
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(cli.json))
        proxy.loads, proxy.dumps = loads, dumps
        self._set(cli, "json", proxy)

    def rebind_solvers(self) -> None:
        # cli.SOLVERS holds the solver objects themselves
        table = {name: (self._wrappers.get(id(fn), fn), kind)
                 for name, (fn, kind) in cli.SOLVERS.items()}
        self._set(cli, "SOLVERS", table)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Span recorder.  ``instance`` tags the spans of the current request."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, instance]
        self.instance: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.instance]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    @contextlib.contextmanager
    def active(self):
        """Wrap every TIMED function and the CLI's json calls."""
        patches = Patches()
        try:
            for name in TIMED:
                patches.replace(_target(name), self.wrap(name, _target(name)))
            patches.replace_json(self.wrap(JSON_SPANS["loads"], cli.json.loads),
                                 self.wrap(JSON_SPANS["dumps"], cli.json.dumps))
            patches.rebind_solvers()
            yield self
        finally:
            patches.restore()

    def self_times(self, first: int = 0) -> Counter:
        """Per-name self time of spans[first:]: duration minus children."""
        spans = self.spans
        child = Counter()
        for i in range(first, len(spans)):
            name, start, end, parent, _ = spans[i]
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i in range(first, len(spans)):
            name, start, end, _, _ = spans[i]
            out[name] += (end - start) - child[i]
        return out

    def write(self, path, epoch: float) -> None:
        """Write every span once, times in seconds since `epoch`."""
        rows = [{"id": i, "name": name, "start": start - epoch, "end": end - epoch,
                 "parent": parent, "instance": inst}
                for i, (name, start, end, parent, inst) in enumerate(self.spans)]
        path.write_text(json.dumps(rows, separators=(",", ":")), encoding="utf-8")


def _cycle_travel(cycles, dims=None) -> float:
    """Summed move length of MoveCycles: |s - g| on a row, Euclidean on a grid."""
    total = 0.0
    for cyc in cycles:
        for s, g in cyc.edges:
            if dims is None:
                total += abs(s - g)
            else:
                (cs, rs), (cg, rg) = divmod(s - 1, dims.m1), divmod(g - 1, dims.m1)
                total += math.hypot(rs - rg, cs - cg)
    return total


class Counters:
    """Work counters, observed from each wrapped call's arguments and result."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._paused = False

    def _observe(self, name: str, args, kwargs, result) -> None:
        def arg(i: int, key: str):
            return args[i] if len(args) > i else kwargs[key]

        c = self.counts
        if name == "core.simulate":
            c["core.simulate.calls"] += 1
            c["core.simulate.steps"] += len(arg(1, "plan"))
        elif name == "graphs.permutation_cycles":
            c["graphs.cycles"] += result.count
        elif name == "graphs.min_arborescence":
            c["graphs.min_arborescence.calls"] += 1
            c["graphs.min_arborescence.edges"] += len(arg(0, "g").edges)
            c["graphs.min_arborescence.weight"] += sum(w for _, _, w in result)
        elif name in ("graphs.min_cost_assignment", "graphs.linear_sum_assignment"):
            c[name + ".calls"] += 1
        elif name == "por.form_cycles":
            c["por.cycles_formed"] += len(result)
        elif name == "por.merge_cycles":
            c["por.cycles_after_free"] += len(result)
        elif name == "por.merge_cycles_mst":
            c["por.cycles_final"] += len(result)
            c["por.fusion_travel"] += _cycle_travel(result) - _cycle_travel(arg(0, "cycles"))
        elif name == "lattice2d.form_cycles_ptr":
            c["lattice2d.cycles_formed"] += len(result)
        elif name == "lattice2d.merge_cycles_ptr":
            c["lattice2d.cycles_final"] += len(result)
            dims = arg(1, "dims")
            c["lattice2d.fusion_travel"] += (_cycle_travel(result, dims)
                                             - _cycle_travel(arg(0, "cycles"), dims))
        elif name == "lattice2d.switch_cycles_ltr":
            # the planner falls back to the sweep when switching travels farther
            self._paused = True
            try:
                sweep = lattice2d.sweep_cycles_ltr(*args, **kwargs)
            finally:
                self._paused = False
            c["lattice2d.switch_fallbacks"] += int(result == sweep)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not self._paused:
                self._observe(name, args, kwargs, result)
            return result
        return counted

    def _wrap_distance(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self._paused:
                counts["core.distance.calls"] += 1
            return fn(*args, **kwargs)
        return counted

    @contextlib.contextmanager
    def active(self):
        patches = Patches()
        try:
            patches.replace(core.distance, self._wrap_distance(core.distance))
            for name in TIMED:
                patches.replace(_target(name), self.wrap(name, _target(name)))
            patches.rebind_solvers()
            yield self
        finally:
            patches.restore()
