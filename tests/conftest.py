"""Shared helpers for the test suite.

The leg-summing and brute-force helpers here are deliberately independent of
the library's own cost accounting so expected values come from a second
route.  _group_max_per_cycle is the span grouping lor's single-pass walk
read before it derived the group hand-off from a running maximum; the
reference walk in test_walks and the single-group test in test_lor still
read it.
"""

from __future__ import annotations

import json
import math

from lattice_rearrange.core import LatticeDims


def dumps(doc: dict) -> str:
    """Serialize a document deterministically (fixed key order, no spaces)."""
    return json.dumps(doc, separators=(",", ":"))


def leg_travel(dims: LatticeDims, cells: list[int], rest: int = 1, metric: str = "euclidean") -> float:
    """Travel of the closed walk rest -> cells... -> rest, summed by hand."""
    total = 0.0
    walk = [rest] + list(cells) + [rest]
    for a, b in zip(walk, walk[1:]):
        ra, ca = divmod(a - 1, dims.m1)[1] + 1, divmod(a - 1, dims.m1)[0] + 1
        rb, cb = divmod(b - 1, dims.m1)[1] + 1, divmod(b - 1, dims.m1)[0] + 1
        if metric == "manhattan":
            total += abs(ra - rb) + abs(ca - cb)
        else:
            total += math.hypot(ra - rb, ca - cb)
    return total


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


def apply_plan_by_hand(start: list, steps: list[tuple[int, str]]):
    """Minimal re-implementation of plan execution for cross-checking.

    start: occupant list (1-based cells at index-1); steps: (cell, action).
    Returns final occupant list, or raises AssertionError on a bad step.
    """
    config = list(start)
    held = None
    for cell, action in steps:
        occ = config[cell - 1]
        if action == "pick":
            assert held is None and occ is not None
            held, config[cell - 1] = occ, None
        elif action == "swap":
            assert held is not None and occ is not None
            held, config[cell - 1] = occ, held
        else:
            assert held is not None and occ is None
            config[cell - 1], held = held, None
    assert held is None
    return config
