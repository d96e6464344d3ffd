"""Seeded instance generators.

Every generator is a pure function of its parameters plus a 64-bit seed.
The random stream is SplitMix64, chosen because it is tiny, fast, and has
published reference outputs; the constants below are part of this package's
compatibility contract and will not change.  Same inputs, same instance,
byte for byte, on any platform.

Typed goals follow a GoalPattern, defined here with its layout helpers; the
module imports only core, so drawing an instance loads no planner.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .core import LabeledInstance, LatticeDims, RearrangeError, TypedInstance

logger = logging.getLogger(__name__)

__all__ = [
    "BadCounts",
    "ClusterOverlap",
    "GoalPattern",
    "NotPerfectSquare",
    "PatternInfeasible",
    "PointOnBoundary",
    "SplitMix64",
    "derive_seed",
    "gen_block_random",
    "gen_column_random",
    "gen_tsp_clusters",
    "gen_typed",
    "gen_uniform_permutation",
    "gen_x_random",
    "pattern_blocks_types",
    "pattern_columns_types",
]


class NotPerfectSquare(RearrangeError):
    """Block shuffling needs a square cell count."""


class BadCounts(RearrangeError):
    """Type counts are malformed or disagree with an explicit goal."""


class PatternInfeasible(RearrangeError):
    """The counts are fine but the requested goal pattern cannot host them."""


class PointOnBoundary(RearrangeError):
    """Cluster points must be strictly interior to the lattice."""


class ClusterOverlap(RearrangeError):
    """Two cluster gadgets tried to claim the same cell."""


_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    # SplitMix64 finalizer (Steele/Lea/Flood; also the xoshiro seeder).
    # SplitMix64._shuffle_span repeats these three lines inline.
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit SplitMix64 stream with unbiased bounded draws.

    The algorithm is pinned: state advances by 0x9E3779B97F4A7C15 and each
    output is the standard two-multiply finalizer.  ``below`` uses rejection
    sampling so every bound gets an exactly uniform result.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        draw = self.next_u64()
        if draw >= (1 << 64) - bound:
            draw = self._settle(draw, bound)
        return draw % bound

    def _settle(self, draw: int, bound: int) -> int:
        """Finish a draw that landed at or above ``2**64 - bound``: redraw
        until it falls below the exact rejection limit for bound.

        That limit, ``2**64 - 2**64 % bound``, lies above ``2**64 - bound``,
        so a draw below the cheap test is accepted without computing it.
        """
        limit = (1 << 64) - (1 << 64) % bound
        while draw >= limit:
            draw = self.next_u64()
        return draw

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: the draws of ``below(i + 1)`` for
        i = len(items) - 1 down to 1, inlined."""
        self._shuffle_span(items, 0, len(items))

    def _shuffle_span(self, items: list, lo: int, hi: int) -> None:
        """``shuffle`` applied to items[lo:hi] in place, same draws."""
        state = self._state
        # Every bound here is at most hi - lo, so a draw below this value
        # lies below that bound's rejection limit too (see _settle).
        safe = (1 << 64) - (hi - lo)
        for i in range(hi - 1, lo, -1):
            # next_u64 inlined: the state step, then _mix's three lines.
            state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            z ^= z >> 31
            if z >= safe:
                self._state = state
                z = self._settle(z, i - lo + 1)
                state = self._state
            j = lo + z % (i - lo + 1)
            items[i], items[j] = items[j], items[i]
        self._state = state


def derive_seed(seed: int, *parts) -> int:
    """Fold labeled parts (ints or strings) into a child seed.

    Lets one master seed drive many independent streams: each distinct
    (seed, parts) tuple lands on its own SplitMix64 starting point.
    """
    x = seed & _MASK
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
            x = _mix((x + _GAMMA) & _MASK) ^ len(data)
            for off in range(0, len(data), 8):
                chunk = int.from_bytes(data[off:off + 8], "little")
                x = _mix(((x ^ chunk) + _GAMMA) & _MASK)
        else:
            x = _mix(((x ^ (int(part) & _MASK)) + _GAMMA) & _MASK)
    return x


def _as_dims(dims) -> LatticeDims:
    if isinstance(dims, LatticeDims):
        return dims
    if isinstance(dims, int):
        return LatticeDims(dims, 1)
    m1, m2 = dims
    return LatticeDims(m1, m2)


def gen_uniform_permutation(m: int, seed: int) -> LabeledInstance:
    """Uniformly random arrangement of m labeled items on a 1D row."""
    dims = LatticeDims(m, 1)
    pi = list(range(1, m + 1))
    SplitMix64(seed).shuffle(pi)
    return LabeledInstance(dims, tuple(pi))


def gen_x_random(m: int, x: int, seed: int) -> LabeledInstance:
    """Shuffle within consecutive blocks of x cells.

    Every item stays inside its own block, so no item ends up more than
    x - 1 cells from home.  When x does not divide m the final short block
    is shuffled within itself.
    """
    if x < 1:
        raise ValueError(f"block width must be at least 1, got {x}")
    dims = LatticeDims(m, 1)
    rng = SplitMix64(seed)
    pi = list(range(1, m + 1))
    for lo in range(0, m, x):
        rng._shuffle_span(pi, lo, min(lo + x, m))
    return LabeledInstance(dims, tuple(pi))


def gen_column_random(m1: int, m2: int, seed: int) -> LabeledInstance:
    """Shuffle each lattice column independently; items keep their column.

    Columns are the consecutive blocks of m1 cells in column-major order,
    so this is gen_x_random's shuffle with x = m1, drawing from the same
    single SplitMix64 stream, laid onto the m1 x m2 lattice.
    """
    dims = LatticeDims(m1, m2)
    return LabeledInstance(dims, gen_x_random(dims.n, m1, seed).pi)


def gen_block_random(m: int, seed: int) -> LabeledInstance:
    """Shuffle within sqrt(m) x sqrt(m) tiles of an m x m lattice."""
    r = math.isqrt(m)
    if r * r != m:
        raise NotPerfectSquare(f"m must be a perfect square, got {m}")
    dims = LatticeDims(m, m)
    rng = SplitMix64(seed)
    pi = list(range(1, dims.n + 1))
    for bj in range(r):
        for bi in range(r):
            cells = [dims.index(bi * r + row, bj * r + col)
                     for col in range(1, r + 1) for row in range(1, r + 1)]
            block = [pi[c - 1] for c in cells]
            rng.shuffle(block)
            for c, label in zip(cells, block):
                pi[c - 1] = label
    return LabeledInstance(dims, tuple(pi))


# --- goal-type layouts ------------------------------------------------------

@dataclass(frozen=True)
class GoalPattern:
    """Recipe for a typed goal layout.

    kind "blocks": types tile the lattice in square blocks (side sqrt(k)),
    falling back to contiguous index runs when such blocks cannot tile.
    kind "columns": one type per column.  kind "explicit": goal_types is
    given verbatim.
    """

    kind: str
    goal_types: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("blocks", "columns", "explicit"):
            raise ValueError(f"unknown goal pattern kind {self.kind!r}")
        if (self.kind == "explicit") != (self.goal_types is not None):
            raise ValueError("explicit patterns carry goal_types; others must not")

    def resolve(self, dims: LatticeDims, k: int) -> tuple[tuple[int, ...], bool]:
        """Concrete goal types for a lattice; the flag reports whether the
        block layout fell back to index runs."""
        if self.kind == "explicit":
            return self.goal_types, False
        if self.kind == "columns":
            return pattern_columns_types(dims, k), False
        return pattern_blocks_types(dims, k)


def pattern_blocks_types(dims: LatticeDims, k: int) -> tuple[tuple[int, ...], bool]:
    """Goal types aggregated in both dimensions: square same-type blocks.

    Needs k to be a perfect square whose root divides both sides; when it
    is not, falls back to contiguous runs of n/k cells in index order and
    flags that with the second return value.
    """
    n = dims.n
    if n % k:
        raise ValueError(f"{k} types cannot evenly fill {n} cells")
    r = math.isqrt(k)
    if r * r == k and dims.m1 % r == 0 and dims.m2 % r == 0:
        bh, bw = dims.m1 // r, dims.m2 // r
        types = []
        for cell in dims.cells():
            row, col = dims.rowcol(cell)
            types.append(((col - 1) // bw) * r + ((row - 1) // bh) + 1)
        return tuple(types), False
    run = n // k
    return tuple((cell - 1) // run + 1 for cell in dims.cells()), True


def pattern_block_of(dims: LatticeDims, k: int, cell: int) -> tuple[int, int]:
    """Which square block a cell belongs to under the block layout."""
    r = math.isqrt(k)
    bh, bw = dims.m1 // r, dims.m2 // r
    row, col = dims.rowcol(cell)
    return ((row - 1) // bh, (col - 1) // bw)


def pattern_columns_types(dims: LatticeDims, k: int) -> tuple[int, ...]:
    """Goal types with one type per column; requires k = m2."""
    if k != dims.m2:
        raise ValueError(f"one type per column needs k = m2, got k={k} m2={dims.m2}")
    return tuple(col for col in range(1, dims.m2 + 1) for _ in range(dims.m1))


def _check_counts(counts, k: int, n: int) -> tuple:
    counts = tuple(counts)
    if len(counts) != k:
        raise BadCounts(f"expected {k} counts, got {len(counts)}")
    if any(not isinstance(c, int) or c < 0 for c in counts):
        raise BadCounts(f"counts must be nonnegative integers: {counts!r}")
    if sum(counts) != n:
        raise BadCounts(f"counts sum to {sum(counts)}, lattice holds {n}")
    return counts


def _even_counts(dims, k: int) -> tuple[int, ...]:
    """k counts filling the lattice evenly, the first n % k one larger."""
    if k < 1:
        raise BadCounts(f"need at least one type, got k={k}")
    base, rem = divmod(_as_dims(dims).n, k)
    return tuple(base + (1 if t < rem else 0) for t in range(k))


def gen_typed(dims, k: int, counts, goal: GoalPattern, seed: int) -> TypedInstance:
    """Typed instance: goal laid out per pattern, start a uniform shuffle.

    dims may be an int (1D row), an (m1, m2) pair, or LatticeDims.  counts
    gives the multiplicity of each type 1..k and must sum to the cell count.
    The structured patterns need equal counts; "explicit" accepts any goal
    whose multiset matches counts.
    """
    dims = _as_dims(dims)
    n = dims.n
    counts = _check_counts(counts, k, n)

    if goal.kind == "explicit":
        goal_types = goal.goal_types
        if len(goal_types) != n:
            raise BadCounts(
                f"explicit goal covers {len(goal_types)} cells, lattice has {n}")
        have = [0] * k
        for t in goal_types:
            if not 1 <= t <= k:
                raise BadCounts(f"goal type {t} outside 1..{k}")
            have[t - 1] += 1
        if tuple(have) != counts:
            raise BadCounts("explicit goal multiset disagrees with counts")
    else:
        if n % k != 0 or any(c != n // k for c in counts):
            raise PatternInfeasible(
                f"{goal.kind!r} pattern needs {k} equal counts over {n} cells")
        try:
            goal_types, fallback = goal.resolve(dims, k)
        except ValueError as exc:
            raise PatternInfeasible(str(exc)) from exc
        if fallback:
            logger.warning(
                "blocks pattern fell back to contiguous index runs for "
                "%dx%d, k=%d (no square tiling fits)", dims.m1, dims.m2, k)

    start = list(goal_types)
    SplitMix64(seed).shuffle(start)
    return TypedInstance(dims, k, tuple(start), tuple(goal_types))


def gen_tsp_clusters(points, dims) -> LabeledInstance:
    """Two-cell swap gadget at each interior lattice point.

    Each point (x1, x2) swaps the items of cells (x1, x2) and (x1, x2+1),
    leaving everything else in place.  Points must be strictly
    interior and their cell pairs must not collide.  Each gadget is one
    2-cycle, so an optimal solver spends exactly 3 picks per point.
    """
    dims = _as_dims(dims)
    m1, m2 = dims.m1, dims.m2
    pi = list(range(1, dims.n + 1))
    used: set[int] = set()
    for x1, x2 in points:
        if not (1 < x1 < m1 and 1 < x2 < m2):
            raise PointOnBoundary(
                f"point ({x1},{x2}) not interior to {m1}x{m2}")
        a, b = dims.index(x1, x2), dims.index(x1, x2 + 1)
        if a in used or b in used:
            raise ClusterOverlap(f"point ({x1},{x2}) reuses a claimed cell")
        used.update((a, b))
        pi[a - 1], pi[b - 1] = pi[b - 1], pi[a - 1]
    return LabeledInstance(dims, tuple(pi))
