"""Generator tests: pinned streams, structural bounds, determinism."""

import hashlib
import logging
import math
from collections import Counter

import pytest

from lattice_rearrange.core import LatticeDims
from lattice_rearrange.gen import (
    BadCounts,
    ClusterOverlap,
    GoalPattern,
    NotPerfectSquare,
    PatternInfeasible,
    PointOnBoundary,
    SplitMix64,
    derive_seed,
    gen_block_random,
    gen_column_random,
    gen_tsp_clusters,
    gen_typed,
    gen_uniform_permutation,
    gen_x_random,
    pattern_block_of,
)
from lattice_rearrange.core import TypedInstance, is_solved, plan_cost, simulate
from lattice_rearrange.gen import (
    _GAMMA,
    _LANES,
    _MASK,
    _outputs,
    pattern_blocks_types,
    pattern_columns_types,
)
from lattice_rearrange.lattice2d import sweep_cycles_ltr
from lattice_rearrange.oracle import oracle_min_picks

from conftest import ReferenceSplitMix64


def _draw_limited(cls, seed: int, draws: int):
    """A cls stream whose next_u64 fails the running test after `draws`
    outputs, so that a rejection loop that never ends fails fast."""

    class DrawLimited(cls):
        __slots__ = ("_left",)

        def next_u64(self) -> int:
            self._left -= 1
            if self._left < 0:
                pytest.fail(f"more than {draws} draws")
            return super().next_u64()

    rng = DrawLimited(seed)
    rng._left = draws
    return rng


class TestSplitMix64:
    def test_reference_stream_for_seed_zero(self):
        # published reference outputs for this algorithm; the generator is
        # checked against the literature, not against its own first run
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(5)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]

    def test_below_stays_in_range_and_hits_everything(self):
        rng = SplitMix64(99)
        seen = {rng.below(7) for _ in range(500)}
        assert seen == set(range(7))

    def test_below_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

    def test_below_rejects_bound_past_two_to_64(self):
        # its exact limit would be 0, so every draw would be redrawn: the
        # draw source fails the test before a missing check could spin
        for bound in (2**64 + 1, 2**64 + 5, 2**65):
            with pytest.raises(ValueError):
                _draw_limited(SplitMix64, 1, 64).below(bound)

    def test_reference_below_rejects_bound_past_two_to_64(self):
        for bound in (2**64 + 1, 2**64 + 5, 2**65):
            with pytest.raises(ValueError):
                _draw_limited(ReferenceSplitMix64, 1, 64).below(bound)

    def test_shuffle_is_a_permutation(self):
        items = list(range(40))
        SplitMix64(5).shuffle(items)
        assert sorted(items) == list(range(40))
        assert items != list(range(40))


def _unxorshift(z: int, s: int) -> int:
    x = z
    for _ in range(64 // s + 1):
        x = z ^ (x >> s)
    return x


def _seed_with_first_draw(draw: int) -> int:
    """The seed whose first next_u64 is draw: the finalizer inverted."""
    z = _unxorshift(draw, 31)
    z = _unxorshift((z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK, 27)
    z = _unxorshift((z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK, 30)
    return (z - _GAMMA) & _MASK


def _same_shuffle(n: int, seed: int) -> bool:
    """Whether shuffle and the reference give the same list of n items and
    leave the stream at the same point."""
    rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
    items, expected = list(range(n)), list(range(n))
    rng.shuffle(items)
    ref.shuffle(expected)
    return items == expected and rng.next_u64() == ref.next_u64()


SEEDS = (0, 1, 2**64 - 1)


class TestInlinedDraws:
    """shuffle computes its draws in lane-packed batches and accepts a
    batch at once when every draw lies below 2**64 - len(items).  The
    reference draws every value through next_u64, so these comparisons pin
    the batched finalizer against _mix and the cheap test against the
    exact limit."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 255, 256, 257, 600, 10**5])
    def test_shuffle_matches_reference(self, n, seed):
        assert _same_shuffle(n, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_below_rejection_branch_matches_reference(self, seed):
        # bound 2**63 + 1 rejects every draw at or above it: about half
        bound = 2**63 + 1
        rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
        draws = 300
        assert [rng.below(bound) for _ in range(draws)] == [ref.below(bound) for _ in range(draws)]
        assert rng.next_u64() == ref.next_u64()
        used = ((rng._state - seed) * pow(_GAMMA, -1, 1 << 64)) & _MASK
        assert used > draws + 100

    @pytest.mark.parametrize("bound", [1, 2, 3, 7, 600, 2**32 + 5, 2**64 - 1, 2**64])
    def test_below_matches_reference(self, bound):
        rng, ref = SplitMix64(12), ReferenceSplitMix64(12)
        assert [rng.below(bound) for _ in range(200)] == [ref.below(bound) for _ in range(200)]

    def test_seed_with_first_draw_inverts_the_finalizer(self):
        for draw in (0, 1, 2**63, 2**64 - 1, 0xE220A8397B1DCDAF):
            assert SplitMix64(_seed_with_first_draw(draw)).next_u64() == draw

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 600])
    def test_first_draw_above_the_cheap_bound(self, n):
        # the draws at and around 2**64 - n, where shuffle settles a draw
        # with the exact limit: accepted below it, redrawn at or above it
        limit = (1 << 64) - (1 << 64) % n
        for draw in sorted({2**64 - n - 1, 2**64 - n, limit - 1, limit, 2**64 - 1}):
            seed = _seed_with_first_draw(draw)
            assert _same_shuffle(n, seed)
            assert gen_x_random(2 * n + 1, n, seed).pi == _reference_x_random(2 * n + 1, n, seed)

    def test_cheap_bound_is_tight_where_n_divides_two_to_64_plus_1(self):
        # 274177 divides 2**64 + 1, so the exact limit for this length is
        # 2**64 - n + 1 and a first draw of exactly that value is redrawn
        n = 274177
        seed = _seed_with_first_draw(2**64 - n + 1)
        assert _same_shuffle(n, seed)


def _reference_x_random(m: int, x: int, seed: int) -> tuple[int, ...]:
    rng = ReferenceSplitMix64(seed)
    pi = list(range(1, m + 1))
    for lo in range(0, m, x):
        block = pi[lo:lo + x]
        rng.shuffle(block)
        pi[lo:lo + x] = block
    return tuple(pi)


def _reference_block_random(m: int, seed: int) -> tuple[int, ...]:
    r = math.isqrt(m)
    dims = LatticeDims(m, m)
    rng = ReferenceSplitMix64(seed)
    pi = list(range(1, dims.n + 1))
    for bj in range(r):
        for bi in range(r):
            cells = [dims.index(bi * r + row, bj * r + col)
                     for col in range(1, r + 1) for row in range(1, r + 1)]
            block = [pi[c - 1] for c in cells]
            rng.shuffle(block)
            for c, label in zip(cells, block):
                pi[c - 1] = label
    return tuple(pi)


def _reference_shuffled(items, seed: int) -> tuple:
    items = list(items)
    ReferenceSplitMix64(seed).shuffle(items)
    return tuple(items)


class TestGeneratorsMatchReference:
    @pytest.mark.parametrize("seed", SEEDS + (7,))
    def test_uniform(self, seed):
        for m in (1, 2, 257, 1000):
            assert gen_uniform_permutation(m, seed).pi == _reference_shuffled(range(1, m + 1), seed)

    @pytest.mark.parametrize("seed", SEEDS + (7,))
    def test_x_random(self, seed):
        for m, x in ((1000, 7), (10, 3), (600, 256), (12, 1), (9, 9), (5, 8)):
            assert gen_x_random(m, x, seed).pi == _reference_x_random(m, x, seed)

    @pytest.mark.parametrize("seed", SEEDS + (7,))
    def test_column_random(self, seed):
        for m1, m2 in ((7, 5), (1, 4), (6, 1), (12, 12)):
            assert gen_column_random(m1, m2, seed).pi == _reference_x_random(m1 * m2, m1, seed)

    @pytest.mark.parametrize("seed", SEEDS + (7,))
    def test_block_random(self, seed):
        for m in (1, 4, 9, 16):
            assert gen_block_random(m, seed).pi == _reference_block_random(m, seed)

    @pytest.mark.parametrize("seed", SEEDS + (7,))
    def test_typed(self, seed):
        dims = LatticeDims(4, 6)
        explicit = tuple(c % 3 // 2 + 1 for c in range(24))
        cases = [
            (GoalPattern("blocks"), 4, pattern_blocks_types(dims, 4)[0]),
            (GoalPattern("blocks"), 3, pattern_blocks_types(dims, 3)[0]),
            (GoalPattern("columns"), 6, pattern_columns_types(dims, 6)),
            (GoalPattern("explicit", explicit), 2, explicit),
        ]
        for goal, k, goal_types in cases:
            counts = tuple(goal_types.count(t) for t in range(1, k + 1))
            expected = TypedInstance(dims, k, _reference_shuffled(goal_types, seed), goal_types)
            assert gen_typed(dims, k, counts, goal, seed) == expected


def _seed_with_draw_at(t: int, draw: int) -> int:
    """The seed whose (t + 1)-th next_u64 is draw."""
    return (_seed_with_first_draw(draw) - t * _GAMMA) & _MASK


def _same_spans(n: int, width: int, seed: int) -> bool:
    """Whether _shuffle_spans and per-span reference shuffles give the same
    list of n items and leave the stream at the same point."""
    rng, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
    items, expected = list(range(n)), list(range(n))
    rng._shuffle_spans(items, width)
    for lo in range(0, n, width):
        block = expected[lo:lo + width]
        ref.shuffle(block)
        expected[lo:lo + width] = block
    return items == expected and rng.next_u64() == ref.next_u64()


class TestBatchedStream:
    """The Fisher-Yates draws come from _outputs in batches of up to _LANES
    outputs, sized to the draws needed.  A draw at or above 2**64 minus
    the longest span is settled by its exact limit, and a redraw takes the
    stream's next output, from a batch or, past the last, one at a time.
    Seeds built by inverting the finalizer and stepping back t outputs put
    a chosen value at draw t."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_outputs_are_next_u64s(self, seed):
        for n in (1, 2, 3, 255, _LANES - 1, _LANES):
            ref = ReferenceSplitMix64(seed)
            assert _outputs(seed, n) == [ref.next_u64() for _ in range(n)]

    def test_seed_with_draw_at(self):
        for t in (0, 1, 2047, 2048, 2049):
            rng = SplitMix64(_seed_with_draw_at(t, 2**64 - 1))
            assert [rng.next_u64() for _ in range(t + 1)][-1] == 2**64 - 1

    @pytest.mark.parametrize("t", [0, 1, _LANES - 1, _LANES, _LANES + 1])
    def test_rejection_at_draw(self, t):
        # a 5000-item shuffle draws 4999 times, in batches of 2048, 2048 and
        # 903; draw t has bound 5000 - t.  Draws at the largest value and at
        # the exact limit are redrawn, the one below the limit is kept after
        # the exact test, and the one below the cheap bound passes at once.
        n = 5000
        bound = n - t
        limit = (1 << 64) - (1 << 64) % bound
        for draw in (2**64 - 1, limit, limit - 1, 2**64 - n - 1):
            assert _same_shuffle(n, _seed_with_draw_at(t, draw))

    @pytest.mark.parametrize("n", [2, 3, _LANES + 1, _LANES + 2, 2 * _LANES + 1])
    def test_rejection_at_the_last_draw(self, n):
        # the redraw lies past the computed draws: next_u64 supplies it
        assert _same_shuffle(n, _seed_with_draw_at(n - 2, 2**64 - 1))

    def test_rejections_in_every_batch(self):
        n = 3 * _LANES
        for t in (5, _LANES + 5, 2 * _LANES + 5):
            assert _same_shuffle(n, _seed_with_draw_at(t, 2**64 - 1))

    @pytest.mark.parametrize("t", [3, _LANES - 1, _LANES, 3000])
    def test_rejection_inside_a_later_span(self, t):
        # x = 7: each block takes six draws, bounds 7, 6, 5, 4, 3, 2; a
        # bound of 4 or 2 divides 2**64 and never redraws
        m, x = 20000, 7
        for draw in (2**64 - 1, 2**64 - 5):
            seed = _seed_with_draw_at(t, draw)
            assert gen_x_random(m, x, seed).pi == _reference_x_random(m, x, seed)
            assert _same_spans(m, x, seed)

    @pytest.mark.parametrize("seed", SEEDS + (7,))
    def test_span_shuffles_leave_the_reference_state(self, seed):
        for n, width in ((0, 1), (1, 1), (10, 1), (10, 10), (10, 20), (10, 3),
                         (5000, _LANES + 1), (5000, 2500), (5000, 50), (5001, 2)):
            assert _same_spans(n, width, seed)

    @pytest.mark.parametrize("seed", SEEDS + (7,))
    def test_generators_across_the_batch_size(self, seed):
        for m in (_LANES, _LANES + 1, _LANES + 2, 2 * _LANES + 1, 5000):
            assert gen_uniform_permutation(m, seed).pi == _reference_shuffled(range(1, m + 1), seed)
        for m, x in ((20000, 7), (5000, _LANES + 1), (4100, _LANES)):
            assert gen_x_random(m, x, seed).pi == _reference_x_random(m, x, seed)
        for m1, m2 in ((60, 60), (_LANES + 1, 2)):
            assert gen_column_random(m1, m2, seed).pi == _reference_x_random(m1 * m2, m1, seed)
        assert gen_block_random(64, seed).pi == _reference_block_random(64, seed)
        dims = LatticeDims(60, 60)
        for goal, k in ((GoalPattern("blocks"), 4), (GoalPattern("columns"), 60)):
            goal_types = goal.resolve(dims, k)[0]
            expected = TypedInstance(dims, k, _reference_shuffled(goal_types, seed), goal_types)
            assert gen_typed(dims, k, (3600 // k,) * k, goal, seed) == expected


class TestDeriveSeed:
    def test_pinned_values(self):
        assert derive_seed(42) == 42
        assert derive_seed(42, "trial", 0) == 3357796761087407276
        assert derive_seed(42, "trial", 1) == 6518322682916031622
        assert derive_seed(42, "lor_ratio", 5, 0) == 7774098039515904007

    def test_distinct_parts_give_distinct_seeds(self):
        seeds = {
            derive_seed(7, "a", 0),
            derive_seed(7, "a", 1),
            derive_seed(7, "b", 0),
            derive_seed(7, 0, "a"),
            derive_seed(8, "a", 0),
        }
        assert len(seeds) == 5

    def test_string_and_int_parts_differ(self):
        assert derive_seed(3, "1") != derive_seed(3, 1)

    def test_float_part_raises(self):
        # int() would truncate 2.5 to 2 and share that part's stream; ints
        # in other types still give the int's seed
        import numpy as np
        with pytest.raises(TypeError):
            derive_seed(7, 2.5)
        assert derive_seed(7, True) == derive_seed(7, np.int64(1)) == derive_seed(7, 1)


class TestUniformPermutation:
    def test_pinned_fixture(self):
        assert gen_uniform_permutation(9, 42).pi == (8, 5, 9, 3, 6, 7, 1, 4, 2)

    def test_single_cell(self):
        assert gen_uniform_permutation(1, 0).pi == (1,)

    def test_first_cell_histogram_is_uniform(self):
        # chi-square over 1e5 seeded draws, 8 degrees of freedom; 26.12 is
        # the 99.9% quantile and the run is deterministic so this cannot flake
        draws = 100_000
        counts = Counter(
            gen_uniform_permutation(9, 2_024_000 + i).pi[0] for i in range(draws))
        expected = draws / 9
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 26.12

    def test_same_seed_same_bytes(self):
        a = gen_uniform_permutation(50, 12345)
        b = gen_uniform_permutation(50, 12345)
        assert a == b
        assert gen_uniform_permutation(50, 12346) != a


class TestXRandom:
    def test_displacement_bounded_by_block_width(self):
        for seed in range(8):
            inst = gen_x_random(100, 10, seed)
            assert all(abs(item - cell) <= 9
                       for cell, item in enumerate(inst.pi, start=1))

    def test_width_one_is_identity(self):
        assert gen_x_random(12, 1, 77).pi == tuple(range(1, 13))

    def test_full_width_matches_uniform_generator(self):
        assert gen_x_random(30, 30, 9).pi == gen_uniform_permutation(30, 9).pi

    def test_short_final_block_shuffles_within_itself(self):
        for seed in range(6):
            inst = gen_x_random(8, 3, seed)
            assert sorted(inst.pi[6:]) == [7, 8]

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            gen_x_random(10, 0, 1)


class TestColumnRandom:
    def test_pinned_fixture(self):
        assert gen_column_random(2, 2, 7).pi == (1, 2, 4, 3)

    def test_items_stay_in_home_column(self):
        dims = LatticeDims(5, 7)
        for seed in (0, 3, 1_000):
            inst = gen_column_random(5, 7, seed)
            for cell, item in enumerate(inst.pi, start=1):
                assert dims.rowcol(cell)[1] == dims.rowcol(item)[1]

    def test_single_column_is_plain_shuffle(self):
        assert gen_column_random(6, 1, 4).pi == gen_uniform_permutation(6, 4).pi

    @pytest.mark.parametrize("m1,m2,seed,digest", [
        (7, 5, 1, "04a9931c38cefe26ec32931c1784cc5e8f93086d87030295ec5f2bce208a77d6"),
        (12, 12, 99, "7a2accbd76a9d0bc476ba1697ca8f49e9209f9efb06ae22030cc166e7a0aa24d"),
        (1, 9, 3, "6f9ceca26913e1d0b47a9dda8cbabf29cac6d4a34ebd00b5df598cdd80c3480c"),
        (30, 2, 2024, "2cf1455d0549ed4575b2385510e5a55a6fdd1ea3f4429f4172de83c917d94e16"),
    ])
    def test_pinned_streams(self, m1, m2, seed, digest):
        # sha256 of the comma-joined labels, recorded from the per-column
        # shuffle loop this generator ran before it became gen_x_random's
        pi = gen_column_random(m1, m2, seed).pi
        assert hashlib.sha256(",".join(map(str, pi)).encode()).hexdigest() == digest


class TestBlockRandom:
    def test_pinned_fixture(self):
        assert gen_block_random(4, 11).pi == (
            1, 5, 4, 8, 6, 2, 7, 3, 10, 14, 11, 16, 13, 9, 12, 15)

    def test_items_stay_in_home_tile(self):
        for m, seed in ((4, 0), (9, 5), (16, 2)):
            inst = gen_block_random(m, seed)
            dims = inst.dims
            for cell, item in enumerate(inst.pi, start=1):
                assert pattern_block_of(dims, m, cell) == \
                    pattern_block_of(dims, m, item)

    def test_rejects_non_square(self):
        with pytest.raises(NotPerfectSquare):
            gen_block_random(5, 1)

    def test_rejects_negative_side_as_bad_dims(self):
        with pytest.raises(ValueError, match="lattice dims must be positive, got -4x-4"):
            gen_block_random(-4, 1)


class TestTyped:
    def test_blocks_goal_and_shuffled_start(self):
        inst = gen_typed((4, 4), 4, (4, 4, 4, 4), GoalPattern("blocks"), 21)
        assert inst.goal_types == (
            1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4)
        assert sorted(inst.start_types) == sorted(inst.goal_types)

    def test_columns_goal(self):
        inst = gen_typed((3, 2), 2, (3, 3), GoalPattern("columns"), 5)
        assert inst.goal_types == (1, 1, 1, 2, 2, 2)

    def test_explicit_goal(self):
        goal = GoalPattern("explicit", (2, 1, 1, 2))
        inst = gen_typed(4, 2, (2, 2), goal, 9)
        assert inst.goal_types == (2, 1, 1, 2)

    def test_int_dims_mean_one_row(self):
        inst = gen_typed(6, 3, (2, 2, 2),
                         GoalPattern("explicit", (1, 1, 2, 2, 3, 3)), 1)
        assert inst.dims == LatticeDims(6, 1) and inst.k == 3

    def test_fallback_layout_logs_a_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="lattice_rearrange.gen"):
            inst = gen_typed((2, 3), 3, (2, 2, 2), GoalPattern("blocks"), 0)
        assert inst.goal_types == (1, 1, 2, 2, 3, 3)
        assert any("fell back" in rec.message for rec in caplog.records)

    def test_bad_counts(self):
        with pytest.raises(BadCounts):
            gen_typed(6, 3, (2, 2), GoalPattern("columns"), 0)
        with pytest.raises(BadCounts):
            gen_typed(6, 3, (2, 2, 3), GoalPattern("columns"), 0)
        with pytest.raises(BadCounts):
            gen_typed(6, 3, (2, -1, 5), GoalPattern("columns"), 0)
        with pytest.raises(BadCounts):
            gen_typed(4, 2, (3, 1), GoalPattern("explicit", (2, 1, 1, 2)), 0)

    @pytest.mark.parametrize("goal,message", [
        ((1, 2, 1), "explicit goal covers 3 cells, lattice has 4"),
        ((1, 2, 1, 2, 2), "explicit goal covers 5 cells, lattice has 4"),
        ((1, 2, 3, 1), "goal type 3 outside 1..2"),
        ((1, 0, 2, 2), "goal type 0 outside 1..2"),
    ])
    def test_explicit_goal_must_cover_the_lattice_with_ids_in_range(self, goal, message):
        with pytest.raises(BadCounts) as err:
            gen_typed(4, 2, (2, 2), GoalPattern("explicit", goal), 1)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad", [1.5, 2.0, "2", None])
    def test_explicit_goal_ids_must_be_integers(self, bad):
        # the count loop indexes a list, which refuses a non-integer id
        with pytest.raises(BadCounts, match=f"goal type {bad!r} is not an integer"):
            gen_typed(4, 2, (2, 2), GoalPattern("explicit", (1, bad, 2, 2)), 1)

    def test_pattern_infeasible(self):
        # structured patterns demand equal counts; columns also needs k
        # to equal the column count
        with pytest.raises(PatternInfeasible):
            gen_typed((4, 4), 2, (10, 6), GoalPattern("blocks"), 0)
        with pytest.raises(PatternInfeasible):
            gen_typed((4, 4), 2, (8, 8), GoalPattern("columns"), 0)

    def test_deterministic(self):
        a = gen_typed((4, 4), 4, (4, 4, 4, 4), GoalPattern("blocks"), 3)
        b = gen_typed((4, 4), 4, (4, 4, 4, 4), GoalPattern("blocks"), 3)
        assert a == b


class TestTspClusters:
    def test_no_points_is_identity(self):
        inst = gen_tsp_clusters([], (4, 4))
        assert inst.pi == tuple(range(1, 17))

    def test_single_point_swaps_the_two_gadget_cells(self):
        inst = gen_tsp_clusters([(2, 2)], (4, 4))
        expect = list(range(1, 17))
        expect[5], expect[9] = expect[9], expect[5]
        assert inst.pi == tuple(expect)

    def test_three_picks_per_cluster(self):
        points = [(2, 2), (4, 2), (2, 4), (4, 4)]
        inst = gen_tsp_clusters(points, (6, 6))
        plan = sweep_cycles_ltr(inst)
        cost = plan_cost(inst, plan)
        assert is_solved(simulate(inst, plan).config, inst)
        assert cost.picks == 3 * len(points)
        assert oracle_min_picks(inst) == 3 * len(points)

    def test_boundary_points_rejected(self):
        for bad in [(1, 2), (2, 1), (5, 2), (2, 5)]:
            with pytest.raises(PointOnBoundary):
                gen_tsp_clusters([bad], (5, 5))

    def test_overlapping_clusters_rejected(self):
        with pytest.raises(ClusterOverlap):
            gen_tsp_clusters([(2, 2), (2, 3)], (5, 5))

    def test_disjoint_columns_share_a_row_fine(self):
        inst = gen_tsp_clusters([(2, 2), (2, 4)], (6, 6))
        assert oracle_min_picks(inst) == 6


def test_lattice2d_still_serves_goal_pattern_and_block_of():
    # the goal layouts live in gen; lattice2d answers for these two names only
    from lattice_rearrange import gen, lattice2d
    assert lattice2d.GoalPattern is gen.GoalPattern
    assert lattice2d.pattern_block_of is gen.pattern_block_of
    with pytest.raises(AttributeError):
        lattice2d.pattern_blocks_types  # noqa: B018
