"""Combinatorial substrate: permutation cycles, arborescence, matching.

Everything here is deterministic, ties included: the arborescence breaks
ties toward the smallest edge id (position in the input edge list), and the
assignment toward the lexicographically smallest assignment vector.
Callers rely on that for byte-identical reruns.

numpy is imported inside the functions that use it, so importing this
module (and the package) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import MalformedPermutation, RearrangeError


class Unreachable(RearrangeError):
    """The arborescence root cannot reach every vertex."""


@dataclass(frozen=True)
class CycleSet:
    """Cycles of a permutation: each cycle is the orbit of its minimum cell
    under i -> pi_i, listed starting from that minimum; cycles are ordered by
    minimum cell.  Length-1 orbits are reported separately as fixed points."""

    cycles: tuple[tuple[int, ...], ...]
    fixed_points: tuple[int, ...]

    @property
    def count(self) -> int:
        """Number of nontrivial cycles (length >= 2)."""
        return len(self.cycles)


def permutation_cycles(pi: Sequence[int]) -> CycleSet:
    """The CycleSet of pi, which must be a permutation of 1..len(pi).

    The check runs inside the walk, in linear time: with every value in
    range, pi is a permutation exactly when each orbit closes at its start
    before it meets a visited cell.  Anything else raises
    MalformedPermutation.
    """
    n = len(pi)

    def malformed():
        return MalformedPermutation(f"not a permutation of 1..{n}: {tuple(pi)!r}")

    seen = [False] * (n + 1)
    cycles = []
    fixed = []
    try:
        if n and not (1 <= min(pi) and max(pi) <= n):
            raise malformed()
        for start in range(1, n + 1):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            g = pi[start - 1]
            while g != start:
                if seen[g]:  # a second cell maps to g
                    raise malformed()
                seen[g] = True
                orbit.append(g)
                g = pi[g - 1]
            if len(orbit) == 1:
                fixed.append(start)
            else:
                cycles.append(tuple(orbit))
    except TypeError:  # a value that is not an integer
        raise malformed() from None
    return CycleSet(tuple(cycles), tuple(fixed))


Edge = tuple[int, int, float]


@dataclass(frozen=True)
class WeightedGraph:
    """Vertices with weighted edges; directedness is up to the consumer."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


def min_arborescence(g: WeightedGraph, root: int) -> list[Edge]:
    """Minimum spanning arborescence rooted at `root` (Chu-Liu/Edmonds).

    Returns the chosen edges in input order.  Raises Unreachable if some
    vertex has no path from the root.

    Iterative contraction (Tarjan, Networks 1977; Camerini, Fratta and
    Maffioli, Networks 1979) on a dense matrix whose cell (u, v) holds the
    least (weight, edge id) from u to v.  Each vertex keeps its cheapest
    incoming edge, ties toward the smallest id; the first cycle among those
    edges, scanning vertices in order, contracts into a supernode that is
    scanned last, and edges entering it are charged `w - best[v].w`.  A
    contraction changes only the supernode's row and column, so only its
    best edge is recomputed.  Each contraction is recorded, and the records
    are expanded in reverse once no cycle is left.
    """
    import numpy as np
    edges = [(u, v, float(w)) for u, v, w in g.edges]
    labels = list(g.vertices)
    nv = len(labels)
    slot = {v: i for i, v in enumerate(labels)}
    r = slot[root]
    no_edge = len(edges)   # id of "no edge", above every real id
    W = np.full((nv, nv), math.inf)
    E = np.full((nv, nv), no_edge, dtype=np.int64)
    if edges:
        us = np.array([slot[u] for u, _, _ in edges])
        vs = np.array([slot[v] for _, v, _ in edges])
        ws = np.array([w for _, _, w in edges])
        # self-loops and edges into the root never count
        ids = np.flatnonzero((us != vs) & (vs != r))
        key = us[ids] * nv + vs[ids]
        order = np.lexsort((ids, ws[ids], key))
        ids = ids[order[np.unique(key[order], return_index=True)[1]]]
        W[us[ids], vs[ids]] = ws[ids]
        E[us[ids], vs[ids]] = ids

    # vertex ids: the originals are their matrix slots, supernode i is nv + i
    col_w = W.min(axis=0)
    col_e = np.where(W == col_w, E, no_edge)
    best_w = col_w.tolist()
    best_e = col_e.min(axis=0).tolist()
    parent = col_e.argmin(axis=0).tolist()
    for v in range(nv):
        if v != r and best_e[v] == no_edge:
            raise Unreachable(f"vertex {labels[v]} has no incoming path from root {root}")
    slot_of = list(range(nv))       # vertex id -> its matrix slot
    vid_at = list(range(nv))        # matrix slot -> the vertex id holding it
    rep = list(range(nv))           # vertex id -> the supernode that absorbed it

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    # 2: reaches the root along best edges; 1: on the path being walked
    color = [0] * nv
    color[r] = 2
    records = []
    start = 0
    while True:
        # scan vertex ids in order (a supernode comes after every vertex
        # it absorbed) for the first cycle of best edges
        cycle = None
        while start < len(rep):
            if rep[start] != start or color[start]:
                start += 1
                continue
            path = []
            v = start
            while not color[v]:
                color[v] = 1
                path.append(v)
                v = find(parent[v])
            closed = color[v] == 1
            for p in path:
                color[p] = 0 if closed else 2
            if closed:
                cycle = path[path.index(v):]
                break
            start += 1
        if cycle is None:
            break

        # contract the cycle into supernode `sup` in the slot of its first
        # member.  The vertices before `start` still reach the root, so the
        # next scan resumes at `start`.
        cyc = [slot_of[v] for v in cycle]
        into, into_e = W[:, cyc] - [best_w[v] for v in cycle], E[:, cyc]
        into[cyc], into_e[cyc] = math.inf, no_edge
        in_w = into.min(axis=1)
        in_pick = np.where(into == in_w[:, None], into_e, no_edge)
        member = in_pick.argmin(axis=1)
        in_e = in_pick[np.arange(nv), member]
        out, out_e = W[cyc], E[cyc]
        out[:, cyc], out_e[:, cyc] = math.inf, no_edge
        out_w = out.min(axis=0)
        out_e = np.where(out == out_w, out_e, no_edge).min(axis=0)
        # which member each edge entering the supernode reaches
        entered = np.flatnonzero(in_e != no_edge)
        enter = dict(zip(in_e[entered].tolist(), (cycle[j] for j in member[entered].tolist())))
        records.append((cycle, [best_e[v] for v in cycle], enter))

        W[cyc] = math.inf
        W[:, cyc] = math.inf
        E[cyc] = no_edge
        E[:, cyc] = no_edge
        s, sup = cyc[0], len(rep)
        W[:, s], E[:, s], W[s], E[s] = in_w, in_e, out_w, out_e
        for v in cycle:
            rep[v] = sup
        rep.append(sup)
        color.append(0)
        slot_of.append(s)
        vid_at[s] = sup
        t = int(np.where(in_w == in_w.min(), in_e, no_edge).argmin())
        best_w.append(float(in_w[t]))
        best_e.append(int(in_e[t]))
        parent.append(vid_at[t])
        if best_e[sup] == no_edge:
            # supernodes are labelled past the largest vertex, in order
            label = max(labels) + len(records)
            raise Unreachable(f"vertex {label} has no incoming path from root {root}")

    # expand: the edge entering a supernode decides where its cycle breaks
    in_edge = {v: best_e[v] for v in range(len(rep)) if rep[v] == v and v != r}
    for sup, (cycle, bests, enter) in zip(reversed(range(nv, len(rep))), reversed(records)):
        e = in_edge.pop(sup)
        entering = enter[e]
        for v, b in zip(cycle, bests):
            in_edge[v] = e if v == entering else b
    return [edges[e] for e in sorted(in_edge.values())]


def linear_sum_assignment(cost: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Minimum-cost perfect matching of a finite square float matrix, with duals.

    Shortest augmenting paths (Jonker and Volgenant, Computing 1987; Crouse,
    IEEE TAES 2016): rows join the matching one at a time, each through a
    Dijkstra search over the reduced costs cost[i, j] - u[i] - v[j], which
    stay nonnegative and are zero on matched pairs.  Returns
    (col_of_row, u, v).  Every optimal matching uses only pairs of zero
    reduced cost under these duals.
    """
    import numpy as np
    s = len(cost)
    inf = math.inf
    v = cost.min(axis=0)
    u = (cost - v).min(axis=1)
    col_of_row = [-1] * s
    row_of_col = [-1] * s
    cost_rows = cost.tolist()    # the walk back reads single entries
    for start in range(s):
        # dist holds the tentative distance of each column not yet reached.
        # A reached column gets inf there and -inf in vmask, so no later row
        # lowers it again.
        dist = cost[start] - v
        dist -= u[start]
        vmask = v.copy()
        tree = [start]          # rows, in the order the search enters them
        offset = [-float(u[start])]  # each tree row's distance minus its u
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
            offset.append(d - float(u[i]))
            step = cost[i] - vmask
            step += offset[-1]
            np.minimum(dist, step, out=dist)
        # Walk back from the free column j.  Its predecessor is the first
        # tree row, entered before j was reached, whose edge attains j's
        # distance.  The sum is recomputed with the same float operations,
        # so == is exact.
        k, target = len(tree), d
        while True:
            v_j = float(v[j])
            for t in range(k):
                if (cost_rows[tree[t]][j] - v_j) + offset[t] == target:
                    break
            i = tree[t]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if t == 0:
                break
            k, target = t, reached_at[t - 1]
        if reached:
            gap = d - np.array(reached_at)
            u[tree[1:]] += gap
            v[reached] -= gap
        u[start] += d
    return col_of_row, u, v


# reduced cost up to which a pair counts as tight (zero)
_TIGHT = 1e-9


def _lex_smallest_tight(cost: np.ndarray, col_of_row: list[int], u: np.ndarray,
                        v: np.ndarray) -> tuple[int, ...]:
    """Lexicographically smallest perfect matching among the tight pairs,
    starting from the perfect matching col_of_row inside them.

    Rows are fixed in order.  Row i may take a smaller column j when the row
    r holding j can pass its column down a chain that ends at i, where r -> r2
    means r is tight with r2's column; the chain is then rotated.
    """
    import numpy as np
    s = len(cost)
    tight = cost - u[:, None] - v <= _TIGHT
    cols_of = [[] for _ in range(s)]
    rows_of = [[] for _ in range(s)]
    for i, j in zip(*(a.tolist() for a in np.nonzero(tight))):
        cols_of[i].append(j)
        rows_of[j].append(i)
    col_of_row = list(col_of_row)
    row_of_col = [0] * s
    for i, j in enumerate(col_of_row):
        row_of_col[j] = i
    done = [False] * s
    for i in range(s):
        smaller = [j for j in cols_of[i] if j < col_of_row[i] and not done[row_of_col[j]]]
        if smaller:
            toward = {i: i}     # row -> the next row of its chain to i
            queue = [i]
            for r2 in queue:
                for r in rows_of[col_of_row[r2]]:
                    if not done[r] and r not in toward:
                        toward[r] = r2
                        queue.append(r)
            for j in smaller:
                r = row_of_col[j]
                if r in toward:
                    while r != i:
                        r2 = toward[r]
                        col_of_row[r] = col_of_row[r2]
                        row_of_col[col_of_row[r]] = r
                        r = r2
                    col_of_row[i] = j
                    row_of_col[j] = i
                    break
        done[i] = True
    return tuple(col_of_row)


def min_cost_assignment(cost: Sequence[Sequence[float]]) -> tuple[tuple[int, ...], float]:
    """Minimum-cost square assignment; among optima, the lexicographically
    smallest assignment vector (row i -> column assignment[i]).

    One shortest-augmenting-path solve gives an optimum and its duals; every
    optimum lies in the subgraph of zero reduced cost, and the lexicographic
    refinement searches only there.
    """
    import numpy as np
    mat = np.asarray(cost, dtype=float)
    if mat.size == 0:
        return (), 0.0
    s, s2 = mat.shape
    if s != s2:
        raise ValueError(f"cost matrix must be square, got {s}x{s2}")
    if not np.isfinite(mat).all():
        raise ValueError("cost matrix entries must be finite")
    col_of_row, u, v = linear_sum_assignment(mat)
    assignment = _lex_smallest_tight(mat, col_of_row, u, v)
    return assignment, float(mat[np.arange(s), assignment].sum())
