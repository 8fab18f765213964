"""Canonical form for eventually periodic sequences.

Shared by the index-set algebra (boolean values) and the sequence
descriptors (arbitrary values). The canonical form has the shortest cycle
and the shortest preperiod, so two descriptions of the same sequence
compare equal structurally.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence


def minimize(pre: Sequence, cycle: Sequence) -> tuple[tuple, tuple]:
    """Return (pre, cycle) with minimal cycle length, then minimal preperiod.

    Shrinking the preperiod by one element rotates the cycle right by one,
    which keeps the unrolled sequence identical.
    """
    if not cycle:
        raise ValueError("cycle must be nonempty")
    p = len(cycle)
    d = next(d for d in _divisors(p) if d == p or _shift_invariant(cycle, d))
    cyc = list(cycle[:d])
    head = list(pre)
    while head and head[-1] == cyc[-1]:
        head.pop()
        cyc.insert(0, cyc.pop())
    return tuple(head), tuple(cyc)


def _divisors(p: int) -> list[int]:
    """The divisors of p in increasing order."""
    small = [d for d in range(1, isqrt(p) + 1) if p % d == 0]
    return sorted({*small, *(p // d for d in small)})


def _shift_invariant(cycle: Sequence, d: int) -> bool:
    """Whether the cycle equals itself shifted by d, so d is a period.

    ``cycle[d]`` is tested first, by identity and then ``==`` as sequence
    ``==`` tests elements, which rules most shifts out without a slice.
    """
    first = cycle[0]
    return (cycle[d] is first or cycle[d] == first) and cycle[d:] == cycle[: len(cycle) - d]


def unrolled(pre: Sequence, cycle: Sequence, n: int):
    """Value at position n of the sequence described by (pre, cycle)."""
    if n < len(pre):
        return pre[n]
    return cycle[(n - len(pre)) % len(cycle)]
