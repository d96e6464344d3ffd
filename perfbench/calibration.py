"""Speed calibration for timings on a machine whose speed drifts.

On the shared 2-core sandbox this benchmark was tuned on, the same fixed
work takes up to 1.6x longer from one second or minute to the next, for all
code alike.  Raw wall times of ten runs then spread wider than any useful
bound.  So a fixed kernel is timed right after each timed interval (a
request, a set-up probe, a CLI process), and the interval is reported at the
reference speed:

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

The kernel does not touch ``lattice_rearrange``, so no change to the package
can move it.  It mixes the two kinds of work the planners do: small-object
Python (attribute access, method calls, ``divmod``, ``math.hypot``, list
appends) and a numpy pairwise-distance slab, and runs with the garbage
collector off so that only the machine's speed shows.  Raw wall times are
kept in the full result document next to the reported ones.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# median kernel time on the sandbox the benchmark was tuned on (2 cores,
# Python 3.11, numpy 2.4), so reported times read as seconds there
REFERENCE_S = 0.020

_RNG = np.random.default_rng(0)
_A, _B = _RNG.random((400, 2)), _RNG.random((500, 2))


class _Cell:
    __slots__ = ("row", "col")

    def __init__(self, row: int, col: int):
        self.row, self.col = row, col

    def key(self) -> tuple[int, int]:
        return divmod(self.row * 31 + self.col, 7)


def _kernel() -> float:
    cells = [_Cell(i % 97, i // 97) for i in range(9000)]
    acc, prev, out = 0.0, cells[0], []
    for c in cells:
        q, r = c.key()
        acc += math.hypot(c.row - prev.row, c.col - prev.col) + q - r
        out.append((c.col, q))
        prev = c
    diff = _A[:, None, :] - _B[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return acc + len(out) + float(dist.min())


def kernel_s() -> float:
    """One timed kernel run, garbage collector off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Scales timed intervals to the reference speed, one after another."""

    def __init__(self):
        self.kernels = [kernel_s()]

    def scale(self) -> float:
        """Factor for the interval since the previous kernel run; runs the next."""
        self.kernels.append(kernel_s())
        return 2.0 * REFERENCE_S / (self.kernels[-2] + self.kernels[-1])
