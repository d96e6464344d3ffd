"""Combinatorial substrate: permutation cycles, spanning structures, matching.

Everything here is deterministic, ties included: Kruskal breaks ties toward
the lexicographically smallest vertex pair, the arborescence toward the
smallest edge id (position in the input edge list), and the assignment
toward the lexicographically smallest assignment vector.  Callers rely on
that for byte-identical reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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

    @property
    def count_with_fixed(self) -> int:
        return len(self.cycles) + len(self.fixed_points)


def permutation_cycles(pi: Sequence[int]) -> CycleSet:
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise MalformedPermutation(f"not a permutation of 1..{n}: {tuple(pi)!r}")
    seen = [False] * (n + 1)
    cycles = []
    fixed = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        orbit = []
        g = start
        while not seen[g]:
            seen[g] = True
            orbit.append(g)
            g = pi[g - 1]
        if len(orbit) == 1:
            fixed.append(start)
        else:
            cycles.append(tuple(orbit))
    return CycleSet(tuple(cycles), tuple(fixed))


Edge = tuple[int, int, float]


@dataclass(frozen=True)
class WeightedGraph:
    """Vertices with weighted edges; directedness is up to the consumer."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def mst_undirected(g: WeightedGraph) -> list[Edge]:
    """Kruskal minimum spanning forest.  Edges sorted by (weight, vertex
    pair); the returned list keeps that order."""
    ordered = sorted(((w, min(u, v), max(u, v)) for u, v, w in g.edges))
    uf = _UnionFind(g.vertices)
    forest: list[Edge] = []
    for w, u, v in ordered:
        if uf.union(u, v):
            forest.append((u, v, w))
    return forest


def min_arborescence(g: WeightedGraph, root: int) -> list[Edge]:
    """Minimum spanning arborescence rooted at `root` (Chu-Liu/Edmonds).

    Returns the chosen edges in input order.  Raises Unreachable if some
    vertex has no path from the root.
    """
    edges = [(u, v, float(w), eid) for eid, (u, v, w) in enumerate(g.edges)]
    by_id = {eid: (u, v, w) for u, v, w, eid in edges}
    chosen = _edmonds(list(g.vertices), edges, root)
    result = [by_id[eid] for eid in sorted(chosen)]
    return [(u, v, w) for u, v, w in result]


def _edmonds(vertices, edges, root):
    # best incoming edge per non-root vertex, ties toward the smallest id
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

    # look for a cycle among the best edges
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

    # contract the cycle into a fresh supernode and recurse
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
    new_vertices = [v for v in vertices if v not in cyc] + [super_v]
    sub = _edmonds(new_vertices, contracted, root)

    # the edge entering the supernode decides where the cycle is broken
    head_of = {eid: v for u, v, w, eid in edges}
    entering = None
    for eid in sub:
        if head_of[eid] in cyc:
            entering = head_of[eid]
            break
    chosen = set(sub)
    for v in cycle:
        if v != entering:
            chosen.add(best[v][3])
    return chosen


def linear_sum_assignment(cost: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Minimum-cost perfect matching of a finite square float matrix, with duals.

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
