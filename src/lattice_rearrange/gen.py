"""Seeded instance generators.

Every generator is a pure function of its parameters plus a 64-bit seed.
The random stream is SplitMix64, chosen because it is tiny, fast, and has
published reference outputs; the constants below are part of this package's
compatibility contract and will not change.  Same inputs, same instance,
byte for byte, on any platform.

What is pinned is the stream, not the code.  Shuffles compute their draws
in batches: the state steps by a constant, so one wide int holds a batch's
states one per 128-bit lane and the finalizer runs over all lanes at once
(broadword arithmetic, no numpy).  The lanes are read back little-endian
whatever the host's byte order.

Typed goals follow a GoalPattern, defined here with its layout helpers; the
module imports only core, so drawing an instance loads no planner.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain
from operator import index

from .core import LabeledInstance, LatticeDims, RearrangeError, TypedInstance, _Value


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
    # _outputs runs these three lines over every lane of a packed batch.
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


# A batch packs one 64-bit state per 128-bit lane of one int, lane k at bit
# 128k, so a lane's product of two 64-bit values never reaches the next.
_LANES = 2048


def _packed(values) -> int:
    """The int whose 128-bit lanes hold values, lane k at bit 128k."""
    lanes = array("Q", bytes(16 * len(values)))
    lanes[::2] = array("Q", values)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


_LOW = _packed([_MASK] * _LANES)  # the low 64 bits of every lane
_ONES = _packed([1] * _LANES)
_STEPS = (_packed(range(1, _LANES + 1)) * _GAMMA) & _LOW  # lane k: (k + 1) * gamma


def _outputs(state: int, n: int) -> list[int]:
    """The next n <= _LANES outputs of the stream at state, all at once:
    lane k steps to state + (k + 1) * gamma and runs _mix's three lines,
    each lane masked to 64 bits after every shift and multiply."""
    if n < _LANES:
        cut = (1 << 128 * n) - 1
        low, ones, steps = _LOW & cut, _ONES & cut, _STEPS & cut
    else:
        low, ones, steps = _LOW, _ONES, _STEPS
    z = (state * ones + steps) & low
    z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
    z ^= z >> 31  # the low half of each lane is its output
    lanes = array("Q")
    lanes.frombytes(z.to_bytes(16 * n, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes[::2].tolist()


def _settle(draw: int, bound: int, redraw) -> int:
    """Finish a draw that landed at or above ``2**64 - bound``: redraw()
    until it falls below the exact rejection limit for bound.

    That limit, ``2**64 - 2**64 % bound``, lies above ``2**64 - bound``,
    so a draw below the cheap test is accepted without computing it.
    """
    limit = (1 << 64) - (1 << 64) % bound
    while draw >= limit:
        draw = redraw()
    return draw


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
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must lie in 1..2**64, got {bound}")
        draw = self.next_u64()
        if draw >= (1 << 64) - bound:
            draw = _settle(draw, bound, self.next_u64)
        return draw % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: the draws of ``below(i + 1)`` for
        i = len(items) - 1 down to 1."""
        if items:
            self._shuffle_spans(items, len(items))

    def _shuffle_spans(self, items: list, width: int) -> None:
        """``shuffle`` applied to each consecutive span of width items in
        turn (the last may be shorter), in place, drawing from this one
        stream.

        Every bound is at most the longest span, so a draw below 2**64
        minus its length is accepted at once (see _settle).  A draw at or
        above it settles by the exact limit, and a redraw takes the
        stream's next output, so later draws need no resync.
        """
        n = len(items)
        starts = range(0, n, width)
        safe = (1 << 64) - min(width, n)
        # a span takes one draw per item after its first
        draws = chain.from_iterable(self._batches(n - len(starts)))
        for lo in starts:
            hi = min(lo + width, n)
            # the ranges lead the zip, so a span takes no draw past its own
            for i, b, z in zip(range(hi - 1, lo, -1), range(hi - lo, 1, -1), draws):
                if z >= safe:
                    z = _settle(z, b, draws.__next__)
                j = lo + z % b
                items[i], items[j] = items[j], items[i]

    def _batches(self, need: int):
        """The stream's outputs as lists: batches of at most _LANES until
        need outputs are out (the draws a shuffle takes when nothing is
        redrawn), then one output at a time.  The state moves past each
        list as it is handed out."""
        while need > 0:
            n = min(need, _LANES)
            need -= n
            batch = _outputs(self._state, n)
            self._state = (self._state + n * _GAMMA) & _MASK
            yield batch
        while True:
            yield [self.next_u64()]


def derive_seed(seed: int, *parts) -> int:
    """Fold labeled parts (ints or strings) into a child seed.

    Lets one master seed drive many independent streams: each distinct
    (seed, parts) tuple lands on its own SplitMix64 starting point.  Int
    parts pass through operator.index, so a float part raises TypeError
    instead of sharing the stream of the int it truncates to.
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
            x = _mix(((x ^ (index(part) & _MASK)) + _GAMMA) & _MASK)
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
    pi = list(range(1, m + 1))
    SplitMix64(seed)._shuffle_spans(pi, x)
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
    dims = LatticeDims(m, m)
    r = math.isqrt(m)
    if r * r != m:
        raise NotPerfectSquare(f"m must be a perfect square, got {m}")
    # the tiles' cells gathered tile by tile, each tile column by column
    # (cell (row, col) is (col - 1) * m + row); every item starts at home,
    # so a cell's label is the cell itself
    cells = []
    for bj in range(r):
        for bi in range(r):
            for col in range(bj * r, bj * r + r):
                cells += range(col * m + bi * r + 1, col * m + bi * r + r + 1)
    labels = list(cells)
    SplitMix64(seed)._shuffle_spans(labels, m)
    pi = [0] * dims.n
    for c, label in zip(cells, labels):
        pi[c - 1] = label
    return LabeledInstance(dims, tuple(pi))


# --- goal-type layouts ------------------------------------------------------

class GoalPattern(_Value):
    """Recipe for a typed goal layout.

    kind "blocks": types tile the lattice in square blocks (side sqrt(k)),
    falling back to contiguous index runs when such blocks cannot tile.
    kind "columns": one type per column.  kind "explicit": goal_types is
    given verbatim.
    """

    __slots__ = ("kind", "goal_types")
    kind: str
    goal_types: tuple[int, ...] | None

    def __init__(self, kind: str, goal_types: tuple[int, ...] | None = None):
        if kind not in ("blocks", "columns", "explicit"):
            raise ValueError(f"unknown goal pattern kind {kind!r}")
        if (kind == "explicit") != (goal_types is not None):
            raise ValueError("explicit patterns carry goal_types; others must not")
        super().__init__(kind, goal_types)

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
        try:  # indexing `have` applies operator.index: a float id fails
            for t in goal_types:
                if not 1 <= t <= k:
                    raise BadCounts(f"goal type {t} outside 1..{k}")
                have[t - 1] += 1
        except TypeError:
            raise BadCounts(f"goal type {t!r} is not an integer") from None
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
            # the one warning the package logs: logging loads only here
            import logging
            logging.getLogger(__name__).warning(
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
