"""Planners for fully labeled 1D instances.

Both planners resolve displacement cycles of the arrangement.  The sweep
planner handles one cycle at a time, left to right: Pick at the cycle's
leftmost cell, Swap around the orbit, Place back at the leftmost cell.
That already minimizes operations (one per misplaced item plus one per
cycle) but travels more than necessary, because every cycle costs a
separate excursion.

The optimized planner keeps the same operations and reorders them so the
end-effector makes a single sweep.  Two devices do the work:

* Nested cycle entry.  While carrying an item toward cell g, if the next
  unresolved cycle starts at a cell left of g, the carried item is parked
  there by a Swap, the inner cycle is resolved, and the closing Swap at the
  same cell puts that cycle's last item home while taking the parked item
  back.  Parking cells lie on the way, so the carried item still moves
  exactly its displacement distance.

* Group hand-off.  Cycles whose spans overlap form groups on disjoint
  intervals.  When the walk swaps at the farthest cell of the cycles
  entered so far, which ends its group, the item just acquired is carried
  on into the next group (parked at its first cycle entry, a nested entry
  like any other) instead of waiting for a separate trip.  The walk
  therefore goes out to the far end once and resolves everything on the
  way back.

The result is provably best possible: fewest operations, and, when the
arm rests at cell 1, the least travel among plans with fewest operations.

Neither walk needs a cycle's orbit, only where it starts and how far it
reaches: the orbit itself is followed through the destination table.  A
cycle is read as its span, its entry (smallest cell) and its far end
(largest cell); graphs._cycle_spans finds every span of a labeled row in
one marking pass, without building orbit tuples.

The module holds walk emission for every planner: follow_cycles (this
single pass over spans, also for por) and _emit_nested (detours lattice2d
schedules; with none, the sweep of both sweep planners, over entries).
"""

from __future__ import annotations

import math

from .core import (
    Action,
    CostModel,
    DEFAULT_COST,
    LabeledInstance,
    Plan,
    _require_input,
)
from .graphs import _cycle_spans


def follow_cycles(entries, tops, dest) -> Plan:
    """Emit the 1D single-pass walk that resolves destination cycles.

    Cycle i is given by its span: entries[i], its smallest cell, and
    tops[i], its largest; entries increase.  `dest` maps a cell to where
    the item currently at that cell belongs (indexable by cell), and the
    walk follows each orbit through it.  The walk parks and retrieves
    items to resolve inner cycles en route (the sweep is _sweep).  A group
    hand-off is one such nested entry, triggered by the swap at the
    farthest cell of the cycles entered so far: the next cycle is entered
    with the item that swap acquired.

    The loop is iterative with an explicit frame stack; nesting depth can
    reach the cycle count, far past the recursion limit on large inputs.
    Only cells are recorded: the actions are always one Pick, Swaps, and
    one Place, so that column is built once at the end.
    """
    if not entries:
        return Plan()
    cells: list[int] = []
    at = cells.append
    n_cycles = len(entries)
    # entries[ptr]: entry cell of the next cycle to start; the sentinel
    # lies past every cell, so the entry test needs no bounds check
    entries = [*entries, math.inf]
    # the innermost open cycle's frame is (entry, resume): its entry cell
    # and the destination to resume after closing it; the frames of the
    # cycles it is nested in wait on the stack.  top: the farthest cell of
    # the cycles entered so far
    entry, resume, top = entries[0], 0, tops[0]
    stack: list[tuple[int, int]] = []
    at(entry)
    g = dest[entry]
    ptr = 1
    handoff = False
    while True:
        # enter every not-yet-started cycle whose entry lies short of the
        # current target, parking the carried item at its entry cell; a
        # hand-off enters the next group's first cycle the same way
        while handoff or entries[ptr] < g:
            handoff = False
            stack.append((entry, resume))
            entry, resume = entries[ptr], g
            if tops[ptr] > top:
                top = tops[ptr]
            at(entry)
            g = dest[entry]
            ptr += 1
        at(g)
        if g != entry:
            # every entry left of g is entered, so g ends its group exactly
            # when it is top: hand the item acquired here to the next group
            handoff = g == top and ptr < n_cycles
            g = dest[g]
        elif stack:
            # closing swap: deposit the cycle's last item, take back
            # whatever was parked here on entry
            g = resume
            entry, resume = stack.pop()
        else:
            break
    assert ptr == n_cycles
    swaps = (Action.SWAP,) * (len(cells) - 2)
    return Plan.from_columns(cells, (Action.PICK, *swaps, Action.PLACE))


def _emit_nested(roots, kids, nxt) -> Plan:
    """Walk every cycle, entering nested cycles mid-leg with parking.

    Cells are unique across cycles, so an entry cell names its cycle.
    roots: entry cells resolved one after another, each opened with Pick
    and closed with Place.  kids[cell] lists the entry cells to serve while
    traversing the leg that leaves `cell`, and may leave out cells without
    detours.  nxt maps each cycle cell to the next cell along its orbit.
    The open cycle's frame (entry cell, target to resume after it, detours
    due on this leg) lives in locals; outer frames wait on the stack as
    tuples, since nesting can exceed the recursion limit.
    """
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    cells: list[int] = []
    actions: list[Action] = []
    at, act = cells.append, actions.append
    stack: list[tuple] = []
    for entry in roots:
        at(entry)
        act(pick)
        resume, pending = 0, kids.get(entry, ())
        g = nxt[entry]
        while True:
            if pending:
                # park the carried item at the child's entry cell
                stack.append((entry, resume, pending[1:]))
                entry, resume = pending[0], g
                at(entry)
                act(swap)
                pending = kids.get(entry, ())
                g = nxt[entry]
                continue
            at(g)
            if g != entry:
                act(swap)
                if kids:  # a sweep skips the lookup on every step
                    pending = kids.get(g, ())
                g = nxt[g]
            elif stack:
                # deposit this cycle's last item, take back the parked one
                act(swap)
                g = resume
                entry, resume, pending = stack.pop()
            else:
                act(place)
                break
    return Plan.from_columns(cells, actions)


def _sweep(entries, dest) -> Plan:
    """Each cycle on its own, in order of its entry cell: Pick there, Swap
    around, Place back there."""
    return _emit_nested(entries, {}, dest)


def _dest_table(instance: LabeledInstance) -> list[int]:
    """dest[cell] = the item at that cell, which belongs at cell dest[cell];
    index 0 is padding so cells index directly."""
    return [0, *instance.pi]


def sweep_cycles_lor(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Resolve each cycle separately, left to right.

    Minimizes operations but not travel.  The cost model does not influence
    the emitted steps (1D travel is metric-independent); the parameter is
    accepted for interface symmetry with the other planners.
    """
    _require_input(instance, "labeled", "1D")
    dest = _dest_table(instance)
    return _sweep(_cycle_spans(dest)[0], dest)


def opt_plan_lor(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Minimum-operation, minimum-travel plan for a labeled 1D instance.

    Same operation count as the sweep, with cycle nesting and group
    hand-off arranged so the walk is a single out-and-back pass.

    Travel is minimal only for rest = 1: the walk enters each cycle at its
    leftmost cell, so with another rest cell it can travel more than the
    optimum (ROADMAP item 2).
    """
    _require_input(instance, "labeled", "1D")
    dest = _dest_table(instance)
    return follow_cycles(*_cycle_spans(dest), dest)
