"""The shared orbit walk and emitters against the loops they replaced.

Four loops are kept here verbatim as references: the sweep branch of
follow_cycles, por's own orbit loop behind the MoveCycles of an
assignment (now _assignment_orbits and _move_cycles), the
list-frame nested emitter lattice2d used to hold, and the single-pass
follow_cycles as it read when it built one PlanStep per step.  Every
planner built on their replacements must emit exactly what they did.
The nested reference reads cycle ids, which id_keyed derives from a
schedule keyed by cells; the single-pass reference reads the span
grouping kept in conftest.
"""

import itertools
import random

import pytest

from lattice_rearrange import (
    Action,
    CostModel,
    LabeledInstance,
    LatticeDims,
    Plan,
    PlanStep,
    TypedInstance,
    plan_cost,
)
from lattice_rearrange.gen import (
    GoalPattern,
    _even_counts,
    gen_block_random,
    gen_column_random,
    gen_typed,
    gen_uniform_permutation,
    gen_x_random,
)
from lattice_rearrange.graphs import _walk_orbits, permutation_cycles
from lattice_rearrange.lattice2d import (
    _schedule,
    form_cycles_ptr,
    merge_cycles_ptr,
    sweep_cycles_ltr,
    sweep_cycles_ptr,
    switch_cycles_ltr,
)
from lattice_rearrange.lor import (
    _dest_table,
    _emit_nested,
    follow_cycles,
    opt_plan_lor,
    sweep_cycles_lor,
)
from lattice_rearrange.por import (
    MoveCycle,
    _assignment_of,
    _assignment_orbits,
    _form,
    _move_cycles,
    form_cycles,
    group_sweep_cycles_por,
    merge_cycles,
    merge_cycles_mst,
    opt_plan_por,
)

from conftest import _group_max_per_cycle


# --- the replaced loops, verbatim -------------------------------------------

def reference_sweep(cycles, dest) -> Plan:
    """follow_cycles(cycles, dest, switching=False)."""
    if not cycles:
        return Plan()
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    steps: list[PlanStep] = []
    emit = steps.append
    for cyc in cycles:
        entry = cyc[0]
        emit(PlanStep(entry, pick))
        g = dest[entry]
        while g != entry:
            emit(PlanStep(g, swap))
            g = dest[g]
        emit(PlanStep(entry, place))
    return Plan(tuple(steps))


def reference_cycles_from_assignment(assign, types):
    """por._move_cycles over por._assignment_orbits, as
    por._cycles_from_assignment read before the two were split, with its
    own orbit loop."""
    seen: set[int] = set()
    cycles = []
    for start in sorted(assign):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        cur = assign[start]
        while cur != start:
            orbit.append(cur)
            seen.add(cur)
            cur = assign[cur]
        edges = tuple((orbit[i], orbit[(i + 1) % len(orbit)]) for i in range(len(orbit)))
        cycles.append(MoveCycle(edges, tuple(types[s] for s, _ in edges)))
    return cycles


def reference_emit_nested(root_kids, kids, nxt) -> Plan:
    """lattice2d._emit_nested with list frames."""
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    steps: list[PlanStep] = []
    emit = steps.append
    for entry0, cid0 in root_kids:
        emit(PlanStep(entry0, pick))
        # frame: [cycle id, entry cell, target to resume after closing,
        #         detours pending on the current leg]
        stack = [[cid0, entry0, 0, list(kids.get(cid0, {}).get(entry0, ()))]]
        g = nxt[entry0]
        while stack:
            frame = stack[-1]
            if frame[3]:
                child_entry, child_cid = frame[3].pop(0)
                emit(PlanStep(child_entry, swap))
                stack.append([child_cid, child_entry, g,
                              list(kids.get(child_cid, {}).get(child_entry, ()))])
                g = nxt[child_entry]
                continue
            if g == frame[1]:
                stack.pop()
                if stack:
                    # deposit this cycle's last item, take back the parked one
                    emit(PlanStep(g, swap))
                    g = frame[2]
                else:
                    emit(PlanStep(g, place))
            else:
                emit(PlanStep(g, swap))
                frame[3] = list(kids.get(frame[0], {}).get(g, ()))
                g = nxt[g]
    return Plan(tuple(steps))


def reference_follow_cycles(cycles, dest) -> Plan:
    """lor.follow_cycles building one PlanStep per step."""
    if not cycles:
        return Plan()
    pick, swap, place = Action.PICK, Action.SWAP, Action.PLACE
    steps: list[PlanStep] = []
    emit = steps.append
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


def id_keyed(roots, kids, nxt):
    """A schedule (roots, kids) of lattice2d._schedule in the form
    reference_emit_nested reads: every cycle's id is its entry cell, and
    its detours are keyed by that id, then by the cell they leave."""
    cycle_of = {}
    for entry in [*roots, *(e for entries in kids.values() for e in entries)]:
        cell = entry
        while cell not in cycle_of:
            cycle_of[cell] = entry
            cell = nxt[cell]
    by_cycle: dict[int, dict[int, list]] = {}
    for cell, entries in kids.items():
        by_cycle.setdefault(cycle_of[cell], {})[cell] = [(e, e) for e in entries]
    return [(e, e) for e in roots], by_cycle


# --- seeded inputs ----------------------------------------------------------

def interior_rest(dims: LatticeDims, rng) -> int:
    """A random cell off the lattice border, or cell 1 if there is none."""
    if dims.m1 < 3 or dims.m2 == 2:
        return 1
    if dims.m2 == 1:
        return rng.randint(2, dims.m1 - 1)
    return dims.index(rng.randint(2, dims.m1 - 1), rng.randint(2, dims.m2 - 1))


def labeled_rows():
    rng = random.Random(12)
    for seed in range(40):
        m = rng.randint(1, 60)
        inst = gen_uniform_permutation(m, seed) if seed % 2 else gen_x_random(m, 4, seed)
        yield LabeledInstance(inst.dims, inst.pi, interior_rest(inst.dims, rng))


def labeled_grids():
    rng = random.Random(13)
    for seed in range(24):
        m1, m2 = rng.randint(3, 9), rng.randint(3, 9)
        kind = seed % 3
        if kind == 0:
            inst = LabeledInstance(LatticeDims(m1, m2), gen_uniform_permutation(m1 * m2, seed).pi)
        elif kind == 1:
            inst = gen_column_random(m1, m2, seed)
        else:
            inst = gen_block_random(rng.choice((4, 9)), seed)
        yield LabeledInstance(inst.dims, inst.pi, interior_rest(inst.dims, rng))
    # four 2-cycles whose schedule travels farther than the sweep: the
    # switching planner falls back
    yield LabeledInstance(LatticeDims(5, 4), (1, 3, 2, 5, 4, 6, 7, 8, 9, 10, 11, 12, 14, 13,
                                              15, 16, 18, 17, 19, 20), rest=12)


def typed_instances(dims_of):
    rng = random.Random(14)
    for seed in range(20):
        dims = dims_of(rng)
        k = rng.randint(1, min(12, dims.n))
        counts = _even_counts(dims, k)
        goal = tuple(t + 1 for t in range(k) for _ in range(counts[t]))
        yield gen_typed(dims, k, counts, GoalPattern("explicit", goal), seed)


def cycles_from_assignment(assign, types) -> list[MoveCycle]:
    """The MoveCycles a public phase reads off an assignment."""
    return _move_cycles(_assignment_orbits(assign), types)


def shuffled_assignment(n: int, rng):
    """A random bijection on a random subset of 1..n, no cell mapped to
    itself, with random types: orbits of length >= 2 cut from a shuffle."""
    cells = rng.sample(range(1, n + 1), rng.randint(0, n))
    assign, types = {}, {}
    at = 0
    while len(cells) - at >= 2:
        size = rng.randint(2, len(cells) - at)
        if len(cells) - at - size == 1:
            size += 1
        orbit = cells[at:at + size]
        for s, g in zip(orbit, orbit[1:] + orbit[:1]):
            assign[s], types[s] = g, rng.randint(1, 4)
        at += size
    return assign, types


# --- sweeps -----------------------------------------------------------------

def test_1d_sweep_matches_reference_loop():
    for inst in labeled_rows():
        cycles = permutation_cycles(inst.pi).cycles
        assert sweep_cycles_lor(inst) == reference_sweep(cycles, _dest_table(inst))


def test_2d_sweep_matches_reference_loop():
    for inst in labeled_grids():
        cycles = permutation_cycles(inst.pi).cycles
        assert sweep_cycles_ltr(inst) == reference_sweep(cycles, _dest_table(inst))


def test_emitter_without_detours_is_the_reference_sweep():
    for inst in labeled_rows():
        cycles = permutation_cycles(inst.pi).cycles
        dest = _dest_table(inst)
        assert _emit_nested([cyc[0] for cyc in cycles], {}, dest) == reference_sweep(cycles, dest)


# --- orbit walk over typed assignments --------------------------------------

@pytest.mark.parametrize("dims_of", [lambda rng: LatticeDims(rng.randint(2, 80), 1),
                                     lambda rng: LatticeDims(rng.randint(2, 9), rng.randint(2, 9))],
                         ids=["1d", "2d"])
def test_typed_assignments_decompose_like_reference(dims_of):
    for inst in typed_instances(dims_of):
        assign, types = _form(inst)
        assert cycles_from_assignment(assign, types) == \
            reference_cycles_from_assignment(assign, types)
    rng = random.Random(15)
    for _ in range(60):
        dims = dims_of(rng)
        assign, types = shuffled_assignment(dims.n, rng)
        assert cycles_from_assignment(assign, types) == \
            reference_cycles_from_assignment(assign, types)


def test_empty_assignment_has_no_cycles():
    assert cycles_from_assignment({}, {}) == reference_cycles_from_assignment({}, {}) == []


def test_sparse_assignment_walks_only_its_cells():
    # five moved cells among 900, listed out of cell order
    assign = {900: 7, 7: 300, 300: 900, 50: 40, 40: 50}
    types = {900: 1, 7: 2, 300: 1, 50: 3, 40: 3}
    assert cycles_from_assignment(assign, types) == \
        reference_cycles_from_assignment(assign, types)
    pi = list(range(1, 901))
    for s, g in assign.items():
        pi[s - 1] = g
    assert _walk_orbits(pi, sorted(assign)) == ([(7, 300, 900), (40, 50)], [])
    assert _walk_orbits(pi)[0] == [(7, 300, 900), (40, 50)]


# --- nested emission along a schedule ---------------------------------------

@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_switch_schedule_emits_like_reference(metric):
    model = CostModel(metric=metric)
    for inst in labeled_grids():
        cycles = permutation_cycles(inst.pi).cycles
        if not cycles:
            assert switch_cycles_ltr(inst, model) == Plan()
            continue
        dest = _dest_table(inst)
        roots, kids = _schedule(inst.dims, cycles, inst.rest, model, detour=True)
        switched = reference_emit_nested(*id_keyed(roots, kids, dest), dest)
        assert _emit_nested(roots, kids, dest) == switched
        # the planner as it read before: the schedule, or the sweep when
        # the schedule travels farther
        sweep = reference_sweep(cycles, dest)
        better = (plan_cost(inst, switched, model).travel
                  <= plan_cost(inst, sweep, model).travel)
        assert switch_cycles_ltr(inst, model) == (switched if better else sweep)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_typed_schedule_emits_like_reference(metric):
    model = CostModel(metric=metric)
    rng = random.Random(16)
    for inst in typed_instances(lambda rng: LatticeDims(rng.randint(2, 8), rng.randint(2, 8))):
        cycles = merge_cycles_ptr(form_cycles_ptr(inst), inst.dims)
        nxt, _ = _assignment_of(cycles)
        cells = _assignment_orbits(nxt)
        rest = interior_rest(inst.dims, rng)
        plan = sweep_cycles_ptr(cycles, inst.dims, rest, model)
        if not cells:
            assert plan == Plan()
            continue
        roots, kids = _schedule(inst.dims, cells, rest, model, detour=False)
        assert plan == reference_emit_nested(*id_keyed(roots, kids, nxt), nxt)


# --- the single-pass walk ---------------------------------------------------

def test_single_pass_walk_matches_reference_on_labeled_rows():
    for inst in labeled_rows():
        cycles = permutation_cycles(inst.pi).cycles
        plan = reference_follow_cycles(cycles, _dest_table(inst))
        assert follow_cycles(cycles, _dest_table(inst)) == plan
        assert opt_plan_lor(inst) == plan


def test_single_pass_walk_matches_reference_on_every_small_permutation():
    for n in range(1, 8):
        for pi in itertools.permutations(range(1, n + 1)):
            cycles = permutation_cycles(pi).cycles
            dest = [0, *pi]
            assert follow_cycles(cycles, dest) == reference_follow_cycles(cycles, dest)


def nested_handoffs(cycles) -> int:
    """Groups whose maximum cell lies in a cycle other than the group's
    first: the walk hands off from inside a nested cycle there."""
    gmax = _group_max_per_cycle(cycles)
    return sum(1 for i, cyc in enumerate(cycles)
               if i and gmax[i] == gmax[i - 1] and gmax[i] in cyc)


def test_single_pass_walk_matches_reference_on_long_xrandom_rows():
    rng = random.Random(17)
    handoffs = 0
    for x in (2, 3, 7):
        for seed in range(3):
            inst = gen_x_random(rng.randint(2_000, 10_000), x, seed)
            cycles = permutation_cycles(inst.pi).cycles
            dest = _dest_table(inst)
            plan = reference_follow_cycles(cycles, dest)
            assert follow_cycles(cycles, dest) == plan
            for rest in (1, rng.randint(2, inst.dims.m1 - 1)):
                assert opt_plan_lor(LabeledInstance(inst.dims, inst.pi, rest)) == plan
            handoffs += nested_handoffs(cycles)
    assert handoffs > 0


def test_single_pass_walk_matches_reference_on_typed_rows():
    for inst in typed_instances(lambda rng: LatticeDims(rng.randint(2, 80), 1)):
        dest, _ = _assignment_of(merge_cycles_mst(merge_cycles(form_cycles(inst))))
        cells = _assignment_orbits(dest)
        plan = reference_follow_cycles(cells, dest)
        assert follow_cycles(cells, dest) == plan
        assert opt_plan_por(inst) == plan


# --- walks over hand-built cycles -------------------------------------------

def rotated(cycles, rng) -> list[MoveCycle]:
    """The same moves, each cycle starting at a random one of them, the
    cycles in random order."""
    out = []
    for cyc in cycles:
        j = rng.randrange(len(cyc.edges))
        out.append(MoveCycle(cyc.edges[j:] + cyc.edges[:j],
                             cyc.edge_types[j:] + cyc.edge_types[:j]))
    rng.shuffle(out)
    return out


def test_typed_row_walk_reads_a_cycle_from_any_move():
    inst = TypedInstance(LatticeDims(6, 1), 4, (1, 2, 2, 3, 4, 1), (1, 2, 1, 4, 3, 2))
    cycles = [MoveCycle(((6, 3), (3, 6)), (1, 2)), MoveCycle(((5, 4), (4, 5)), (4, 3))]
    plan = group_sweep_cycles_por(cycles)
    assert plan == opt_plan_por(inst)
    cost = plan_cost(inst, plan)
    assert (cost.picks, cost.travel) == (6, 12.0)
    assert [min(c.edges)[0] for c in cycles] == [3, 4]


def test_walk_phases_ignore_cycle_starts_and_order():
    rng = random.Random(18)
    for inst in typed_instances(lambda rng: LatticeDims(rng.randint(4, 30), 1)):
        cycles = merge_cycles_mst(form_cycles(inst))
        plan = group_sweep_cycles_por(cycles)
        for _ in range(4):
            assert group_sweep_cycles_por(rotated(cycles, rng)) == plan
    for inst in typed_instances(lambda rng: LatticeDims(rng.randint(2, 8), rng.randint(2, 8))):
        cycles = merge_cycles_ptr(form_cycles_ptr(inst), inst.dims)
        rest = interior_rest(inst.dims, rng)
        plan = sweep_cycles_ptr(cycles, inst.dims, rest)
        for _ in range(4):
            assert sweep_cycles_ptr(rotated(cycles, rng), inst.dims, rest) == plan
