"""Shared helpers for the test suite.

The leg-summing and brute-force helpers here are deliberately independent of
the library's own cost accounting so expected values come from a second
route.
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
