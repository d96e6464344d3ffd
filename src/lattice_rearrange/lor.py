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

* Group hand-off.  Cycles whose spans overlap are grouped; groups occupy
  disjoint intervals.  When the walk swaps at the rightmost cell of its
  group, the item just acquired is carried on into the next group (parked
  at that group's first cycle entry) instead of waiting for a separate
  trip.  The walk therefore goes out to the far end once and resolves
  everything on the way back.

The result is provably best possible: fewest operations, and, when the
arm rests at cell 1, the least travel among plans with fewest operations.
"""

from __future__ import annotations

from .core import (
    Action,
    CostModel,
    DEFAULT_COST,
    LabeledInstance,
    Plan,
    PlanStep,
)
from .graphs import permutation_cycles


def _require_1d(instance: LabeledInstance) -> None:
    if instance.dims.m2 != 1:
        raise ValueError("this planner handles 1D instances only (m2 must be 1)")


def _group_max_per_cycle(cycles: tuple[tuple[int, ...], ...]) -> list[int]:
    """Rightmost cell of each cycle's group: cycles whose [min, max] spans
    chain-overlap.  One pass suffices because cycles arrive ordered by their
    minimum cell."""
    out = [0] * len(cycles)
    i = 0
    while i < len(cycles):
        hi = max(cycles[i])
        j = i + 1
        while j < len(cycles) and cycles[j][0] <= hi:
            hi = max(hi, max(cycles[j]))
            j += 1
        for t in range(i, j):
            out[t] = hi
        i = j
    return out


def follow_cycles(cycles, dest, switching: bool = True) -> Plan:
    """Emit the pick/swap/place walk that resolves destination cycles.

    `cycles` are tuples of cells, each beginning at its minimum cell and
    ordered by that minimum; `dest` maps a cell to where the item currently
    at that cell belongs (indexable by cell).  With switching off, each
    cycle is resolved independently.  With switching on, the walk parks and
    retrieves items to resolve inner cycles en route and hands items across
    group boundaries at each group's maximum cell.

    The loop is iterative with an explicit frame stack; nesting depth can
    reach the cycle count, far past the recursion limit on large inputs.
    """
    if not cycles:
        return Plan()
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    steps: list[PlanStep] = []
    emit = steps.append
    if not switching:
        for cyc in cycles:
            entry = cyc[0]
            emit(PlanStep(entry, pick))
            g = dest[entry]
            while g != entry:
                emit(PlanStep(g, swap))
                g = dest[g]
            emit(PlanStep(entry, place))
        return Plan(tuple(steps))

    gmax = _group_max_per_cycle(cycles)
    n_cycles = len(cycles)
    # entries[ptr]: entry cell of the next cycle to start; the sentinel
    # lies past every cell, so the entry test needs no bounds check
    entries = [cyc[0] for cyc in cycles]
    entries.append(max(gmax) + 1)
    # the innermost open cycle's frame is (entry, resume, gm): its entry
    # cell, the destination to resume after closing it, its group max;
    # the frames of the cycles it is nested in wait on the stack
    entry, resume, gm = entries[0], 0, gmax[0]
    stack: list[tuple[int, int, int]] = []
    emit(PlanStep(entry, pick))
    g = dest[entry]
    ptr = 1
    while True:
        # enter every not-yet-started cycle whose entry lies short of the
        # current target, parking the carried item at its entry cell
        while entries[ptr] < g:
            stack.append((entry, resume, gm))
            entry, resume, gm = entries[ptr], g, gmax[ptr]
            emit(PlanStep(entry, swap))
            g = dest[entry]
            ptr += 1
        if g == entry:
            if not stack:
                emit(PlanStep(g, place))
                break
            # closing swap: deposit the cycle's last item, take back
            # whatever was parked here on entry
            emit(PlanStep(g, swap))
            g = resume
            entry, resume, gm = stack.pop()
        else:
            emit(PlanStep(g, swap))
            nxt = dest[g]
            if g == gm and ptr < n_cycles:
                # rightmost cell of this group: hand the acquired item to
                # the next group rather than coming back for it later
                stack.append((entry, resume, gm))
                entry, resume, gm = entries[ptr], nxt, gmax[ptr]
                emit(PlanStep(entry, swap))
                g = dest[entry]
                ptr += 1
            else:
                g = nxt
    assert ptr == n_cycles
    return Plan(tuple(steps))


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
    _require_1d(instance)
    cycles = permutation_cycles(instance.pi).cycles
    return follow_cycles(cycles, _dest_table(instance), switching=False)


def opt_plan_lor(instance: LabeledInstance, model: CostModel = DEFAULT_COST) -> Plan:
    """Minimum-operation, minimum-travel plan for a labeled 1D instance.

    Same operation count as the sweep, with cycle nesting and group
    hand-off arranged so the walk is a single out-and-back pass.

    Travel is minimal only for rest = 1: the walk enters each cycle at its
    leftmost cell, so with another rest cell it can travel more than the
    optimum (ROADMAP item 2).
    """
    _require_1d(instance)
    cycles = permutation_cycles(instance.pi).cycles
    return follow_cycles(cycles, _dest_table(instance), switching=True)
