import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_rearrange.core import CostModel, MalformedPermutation, distance
from lattice_rearrange.gen import gen_typed
from lattice_rearrange.graphs import (
    CycleSet,
    Unreachable,
    WeightedGraph,
    linear_sum_assignment,
    min_arborescence,
    min_cost_assignment,
    permutation_cycles,
)
from lattice_rearrange.lattice2d import GoalPattern


# --- permutation cycles -----------------------------------------------------

def test_cycles_of_nine_item_example():
    cs = permutation_cycles((3, 2, 4, 1, 7, 6, 9, 5, 8))
    assert cs.cycles == ((1, 3, 4), (5, 7, 9, 8))
    assert cs.fixed_points == (2, 6)
    assert cs.count == 2


def test_cycles_identity_and_validation():
    cs = permutation_cycles((1, 2, 3))
    assert cs.cycles == () and cs.fixed_points == (1, 2, 3)
    with pytest.raises(MalformedPermutation):
        permutation_cycles((1, 1, 3))



def test_cycles_reject_every_non_permutation():
    # validation happens during the walk; it must agree with "sorted(pi) is
    # 1..n" on every tuple over a value range wider than 1..n
    for n in range(6):
        for pi in itertools.product(range(-1, n + 2), repeat=n):
            if sorted(pi) == list(range(1, n + 1)):
                permutation_cycles(pi)
                continue
            with pytest.raises(MalformedPermutation) as err:
                permutation_cycles(pi)
            assert str(err.value) == f"not a permutation of 1..{n}: {pi!r}"
    for pi in ((2.5, 1), (2.0, 1.0), ("a", "b"), (1, None), (2, 3, 2)):
        with pytest.raises(MalformedPermutation):
            permutation_cycles(pi)

@given(st.permutations(list(range(1, 13))))
def test_cycles_partition_and_close(perm):
    pi = tuple(perm)
    cs = permutation_cycles(pi)
    seen = []
    for cyc in cs.cycles:
        assert cyc[0] == min(cyc)
        # orbit closes: following pi around the cycle returns to the start
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            assert pi[a - 1] == b
        seen.extend(cyc)
    for f in cs.fixed_points:
        assert pi[f - 1] == f
    seen.extend(cs.fixed_points)
    assert sorted(seen) == list(range(1, 13))
    mins = [c[0] for c in cs.cycles]
    assert mins == sorted(mins)


# --- minimum arborescence ---------------------------------------------------

def random_graph(rng, nv, ne):
    verts = tuple(range(nv))
    edges = []
    for _ in range(ne):
        u, v = rng.sample(range(nv), 2)
        edges.append((u, v, float(rng.randint(1, 8))))
    return WeightedGraph(verts, tuple(edges))


def brute_arborescence_weight(g, root):
    nonroot = [v for v in g.vertices if v != root]
    in_edges = {v: [e for e in g.edges if e[1] == v and e[0] != v] for v in nonroot}
    if any(not lst for lst in in_edges.values()):
        return None
    best = None
    for combo in itertools.product(*(in_edges[v] for v in nonroot)):
        # must be reachable from root using only chosen edges
        adj = {}
        for u, v, _ in combo:
            adj.setdefault(u, []).append(v)
        seen = {root}
        stack = [root]
        while stack:
            for nxt in adj.get(stack.pop(), []):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) == len(g.vertices):
            w = sum(e[2] for e in combo)
            if best is None or w < best:
                best = w
    return best


def test_arborescence_matches_brute_force():
    rng = random.Random(7)
    found = 0
    while found < 30:
        nv = rng.randint(2, 5)
        g = random_graph(rng, nv, rng.randint(nv, 12))
        expected = brute_arborescence_weight(g, 0)
        if expected is None:
            with pytest.raises(Unreachable):
                min_arborescence(g, 0)
            continue
        arb = min_arborescence(g, 0)
        assert len(arb) == nv - 1
        heads = [v for _, v, _ in arb]
        assert sorted(heads) == [v for v in g.vertices if v != 0]
        assert sum(w for *_, w in arb) == pytest.approx(expected)
        found += 1


def test_arborescence_contracts_cycles():
    # cheap 2-cycle between 1 and 2 must be broken via the root
    g = WeightedGraph((0, 1, 2), ((1, 2, 1.0), (2, 1, 1.0), (0, 1, 5.0), (0, 2, 5.0)))
    arb = min_arborescence(g, 0)
    assert sum(w for *_, w in arb) == pytest.approx(6.0)


def test_arborescence_tie_breaks_by_edge_id():
    g = WeightedGraph((0, 1), ((0, 1, 2.0), (0, 1, 2.0)))
    assert min_arborescence(g, 0) == [(0, 1, 2.0)]
    # with several equal-weight options the earliest listed edge wins;
    # rerunning must give identical output
    g2 = WeightedGraph((0, 1, 2), ((0, 1, 1.0), (2, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
    assert min_arborescence(g2, 0) == min_arborescence(g2, 0)


def recursive_edmonds(vertices, edges, root):
    """The former recursive Chu-Liu/Edmonds, kept as the reference: edges
    are (u, v, w, id); returns the chosen ids."""
    best = {}
    for u, v, w, eid in edges:
        if v == root or u == v:
            continue
        cur = best.get(v)
        if cur is None or (w, eid) < (cur[2], cur[3]):
            best[v] = (u, v, w, eid)
    for v in vertices:
        if v != root and v not in best:
            raise Unreachable(f"vertex {v} has no incoming path from root {root}")
    cycle = None
    color = {v: 0 for v in vertices}
    for start in vertices:
        if color[start] != 0 or start == root:
            continue
        path = []
        v = start
        while v != root and color[v] == 0:
            color[v] = 1
            path.append(v)
            v = best[v][0]
        if v != root and color[v] == 1 and v in path:
            cycle = path[path.index(v):]
            break
        for p in path:
            color[p] = 2
        if v != root:
            color[v] = 2
    if cycle is None:
        return {best[v][3] for v in vertices if v != root}
    cyc = set(cycle)
    super_v = max(vertices) + 1
    contracted = []
    for u, v, w, eid in edges:
        if v in cyc and u not in cyc:
            contracted.append((u, super_v, w - best[v][2], eid))
        elif u in cyc and v not in cyc:
            contracted.append((super_v, v, w, eid))
        elif u not in cyc and v not in cyc:
            contracted.append((u, v, w, eid))
    sub = recursive_edmonds([v for v in vertices if v not in cyc] + [super_v], contracted, root)
    head_of = {eid: v for u, v, w, eid in edges}
    entering = next(head_of[eid] for eid in sub if head_of[eid] in cyc)
    return sub | {best[v][3] for v in cycle if v != entering}


def recursive_arborescence(g, root):
    edges = [(u, v, float(w), eid) for eid, (u, v, w) in enumerate(g.edges)]
    chosen = recursive_edmonds(list(g.vertices), edges, root)
    return [edges[eid][:3] for eid in sorted(chosen)]


def arborescence_outcome(solve, g, root):
    try:
        return solve(g, root)
    except Unreachable as exc:
        return type(exc), str(exc)


def test_arborescence_matches_recursive_reference():
    # tie-heavy weights, parallel edges, self-loops, edges into the root,
    # unreachable vertices (also supernodes) and labels in any order
    weights = [0.0, 0.5, 1.0, math.sqrt(2), 2.0, 3.0]
    rng = random.Random(2024)
    unreachable = 0
    for _ in range(2500):
        n = rng.randint(1, 9)
        labels = rng.sample(range(12), n) if rng.random() < 0.3 else list(range(n))
        root = rng.choice(labels)
        edges = tuple((rng.choice(labels), rng.choice(labels), rng.choice(weights))
                      for _ in range(rng.randint(0, 2 * n * n)))
        g = WeightedGraph(tuple(labels), edges)
        expected = arborescence_outcome(recursive_arborescence, g, root)
        assert arborescence_outcome(min_arborescence, g, root) == expected
        unreachable += isinstance(expected, tuple)
    assert 200 < unreachable < 2300


def test_arborescence_contracts_1200_nested_two_cycles():
    # 1,200 contractions in a row, more than the interpreter's recursion
    # limit would allow as nested calls
    edges = []
    for i in range(1200):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a, 10.0), (0, b, 10.0), (a, b, 1.0), (b, a, 1.0)]
    arb = min_arborescence(WeightedGraph(tuple(range(2401)), tuple(edges)), 0)
    assert len(arb) == 2400
    assert sum(w for *_, w in arb) == 1200 * 11.0
    # each pair is entered from the root at its first vertex
    assert arb[:2] == [(0, 1, 10.0), (1, 2, 1.0)]


# --- assignment -------------------------------------------------------------

def brute_assignment(cost):
    s = len(cost)
    best = None
    best_vec = None
    for perm in itertools.permutations(range(s)):
        w = sum(cost[i][perm[i]] for i in range(s))
        if best is None or w < best - 1e-12 or (abs(w - best) <= 1e-12 and perm < best_vec):
            best, best_vec = w, perm
    return best_vec, best


def test_assignment_matches_brute_force():
    rng = random.Random(3)
    for _ in range(50):
        s = rng.randint(1, 6)
        cost = [[float(rng.randint(0, 9)) for _ in range(s)] for _ in range(s)]
        vec, total = min_cost_assignment(cost)
        bvec, btotal = brute_assignment(cost)
        assert total == pytest.approx(btotal)
        assert vec == bvec  # lexicographic tie-break matches the brute force


def test_assignment_all_ties_returns_identity():
    cost = [[1.0] * 4 for _ in range(4)]
    vec, total = min_cost_assignment(cost)
    assert vec == (0, 1, 2, 3)
    assert total == pytest.approx(4.0)


def test_assignment_empty_and_shape_checks():
    assert min_cost_assignment([]) == ((), 0.0)
    with pytest.raises(ValueError):
        min_cost_assignment([[1.0, 2.0]])
    with pytest.raises(ValueError):
        min_cost_assignment([[0.0, math.inf], [math.nan, 0.0]])


def resolve_reference(cost):
    """The former min_cost_assignment, kept as the reference: solve with
    scipy, then pin rows in order, each to the smallest column whose pinned
    prefix still completes to an optimum (one re-solve per candidate)."""
    from scipy.optimize import linear_sum_assignment as scipy_lsa
    mat = np.asarray(cost, dtype=float)
    s = len(mat)
    rows, cols = scipy_lsa(mat)
    best_total = float(mat[rows, cols].sum())
    free_cols = list(range(s))
    assignment = []
    fixed = 0.0
    for i in range(s):
        for j in free_cols:
            rest_rows = list(range(i + 1, s))
            rest_cols = [c for c in free_cols if c != j]
            rest = 0.0
            if rest_rows:
                sub = mat[np.ix_(rest_rows, rest_cols)]
                r, c = scipy_lsa(sub)
                rest = float(sub[r, c].sum())
            if fixed + mat[i, j] + rest <= best_total + 1e-9:
                assignment.append(j)
                fixed += float(mat[i, j])
                free_cols.remove(j)
                break
    return tuple(assignment), best_total


def typed_cost_matrices(metric):
    """Per-type matrices built as form_cycles_ptr builds them: misplaced
    sources of a type against the goal cells that want it."""
    model = CostModel(metric=metric)
    for dims, k, pattern in [((12, 12), 4, "blocks"), ((20, 4), 4, "columns"),
                             ((16, 16), 16, "blocks"), ((16, 16), 16, "columns")]:
        for seed in (1, 2):
            inst = gen_typed(dims, k, (dims[0] * dims[1] // k,) * k,
                             GoalPattern(pattern), seed)
            cells = list(enumerate(zip(inst.start_types, inst.goal_types), start=1))
            for t in range(1, k + 1):
                srcs = [c for c, (have, want) in cells if have == t != want]
                dsts = [c for c, (have, want) in cells if want == t != have]
                yield [[distance(inst.dims, a, b, model) for b in dsts] for a in srcs]


def tie_heavy_matrices():
    rng = random.Random(11)
    for _ in range(300):
        s = rng.randint(1, 9)
        yield [[float(rng.randint(0, 4)) for _ in range(s)] for _ in range(s)]


def check_against_reference(cost):
    vec, total = min_cost_assignment(cost)
    ref_vec, ref_total = resolve_reference(cost)
    assert vec == ref_vec
    # the duals certify the optimum: reduced costs are nonnegative and zero
    # on the matched pairs
    mat = np.asarray(cost, dtype=float)
    cols, u, v = linear_sum_assignment(mat)
    reduced = mat - u[:, None] - v
    assert reduced.min() >= -1e-9
    assert np.abs(reduced[np.arange(len(mat)), cols]).max() <= 1e-9
    return total, ref_total


def test_assignment_matches_resolve_reference_on_ties():
    pytest.importorskip("scipy")
    for cost in tie_heavy_matrices():
        total, ref_total = check_against_reference(cost)
        assert total == ref_total  # integer sums are exact


def reference_linear_sum_assignment(cost):
    """The former linear_sum_assignment, kept verbatim as the reference: it
    walks each augmenting path back with one numpy gather, compare and
    argmax per step.

    Minimum-cost perfect matching of a finite square float matrix, with duals.

    Shortest augmenting paths (Jonker and Volgenant, Computing 1987; Crouse,
    IEEE TAES 2016): rows join the matching one at a time, each through a
    Dijkstra search over the reduced costs cost[i, j] - u[i] - v[j], which
    stay nonnegative and are zero on matched pairs.  Returns
    (col_of_row, u, v).  Every optimal matching uses only pairs of zero
    reduced cost under these duals.
    """
    s = len(cost)
    inf = math.inf
    v = cost.min(axis=0)
    u = (cost - v).min(axis=1)
    col_of_row = [-1] * s
    row_of_col = [-1] * s
    for start in range(s):
        # dist holds the tentative distance of each column not yet reached.
        # A reached column gets inf there and -inf in vmask, so no later row
        # lowers it again.
        dist = cost[start] - v
        dist -= u[start]
        vmask = v.copy()
        tree = [start]          # rows, in the order the search enters them
        offset = [-u[start]]    # each tree row's distance minus its u
        reached = []            # matched columns, in the order reached
        reached_at = []         # and their distances
        while True:
            j = int(dist.argmin())
            d = float(dist[j])
            i = row_of_col[j]
            if i < 0:
                break
            reached.append(j)
            reached_at.append(d)
            dist[j] = inf
            vmask[j] = -inf
            tree.append(i)
            offset.append(d - u[i])
            step = cost[i] - vmask
            step += offset[-1]
            np.minimum(dist, step, out=dist)
        # Walk back from the free column j.  Its predecessor is a tree row,
        # entered before j was reached, whose edge attains j's distance.  The
        # sum is recomputed with the same float operations, so == is exact.
        rows = np.array(tree)
        offsets = np.array(offset)
        k, target = len(tree), d
        while True:
            t = int(((cost[rows[:k], j] - v[j]) + offsets[:k] == target).argmax())
            i = tree[t]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if t == 0:
                break
            k, target = t, reached_at[t - 1]
        if reached:
            gap = d - np.array(reached_at)
            u[rows[1:]] += gap
            v[reached] -= gap
        u[start] += d
    return col_of_row, u, v


def test_linear_sum_assignment_matches_numpy_walk_back_reference():
    # the walk back over Python floats must pick the same predecessor rows,
    # so the matching and both duals come out bit-equal
    corpus = [*tie_heavy_matrices(), *typed_cost_matrices("euclidean"),
              *typed_cost_matrices("manhattan")]
    for cost in corpus:
        mat = np.asarray(cost, dtype=float)
        if not mat.size:
            continue
        cols, u, v = linear_sum_assignment(mat)
        ref_cols, ref_u, ref_v = reference_linear_sum_assignment(mat)
        assert cols == ref_cols
        assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_assignment_matches_resolve_reference_on_typed_grids(metric):
    pytest.importorskip("scipy")
    for cost in typed_cost_matrices(metric):
        total, ref_total = check_against_reference(cost)
        # equal optima may pair different distances, summed in another order
        assert total == pytest.approx(ref_total, rel=0, abs=1e-9)
