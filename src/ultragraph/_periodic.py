"""The layout of eventually periodic data, shared by the index-set algebra
(boolean values) and the sequence descriptors (arbitrary values).

A form is a preperiod ``pre`` followed by a nonempty ``cycle`` repeated
forever. ``minimize`` gives its canonical form, so equal sequences compare
equal structurally, and ``period`` a cycle's minimal period. Several forms
are compared over one joint window (``joint_window``: the longest
preperiod plus the lcm of the cycle lengths), past which their aligned
values repeat (``aligned``). By Łoś's theorem a form equals, as a class,
its value on the residue class the oracle selects (``on_residue``).
"""

from __future__ import annotations

from itertools import islice
from math import isqrt, lcm
from typing import Iterable, Sequence


def minimize(pre: Sequence, cycle: Sequence) -> tuple[tuple, tuple]:
    """Return (pre, cycle) with minimal cycle length, then minimal preperiod.

    Shrinking the preperiod by one element rotates the cycle right by one,
    which keeps the unrolled sequence identical.
    """
    if not cycle:
        raise ValueError("cycle must be nonempty")
    cyc = list(cycle[: period(cycle)])
    head = list(pre)
    while head and head[-1] == cyc[-1]:
        head.pop()
        cyc.insert(0, cyc.pop())
    return tuple(head), tuple(cyc)


def period(cycle: Sequence) -> int:
    """The minimal period of a nonempty cycle: the least d that divides its
    length and leaves it unchanged when shifted by d."""
    p = len(cycle)
    return next(d for d in _divisors(p) if d == p or _shift_invariant(cycle, d))


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


def joint_window(forms: Iterable) -> tuple[int, int]:
    """(head, period) of the joint window of the forms, anything with
    ``pre`` and ``cycle`` (periodic descriptors, ``Unrolled`` readers): the
    longest preperiod and the lcm of the cycle lengths."""
    head, period = 0, 1
    for form in forms:
        if len(form.pre) > head:
            head = len(form.pre)
        period = lcm(period, len(form.cycle))
    return head, period


class Unrolled:
    """The values of the form (pre, cycle) from index 0 on, unrolled by
    whole cycles and extended only when a longer prefix is asked for."""

    __slots__ = ("pre", "cycle", "head", "period", "values")

    def __init__(self, pre: Sequence, cycle: Sequence):
        self.pre = pre
        self.cycle = cycle
        self.head = len(pre)
        self.period = len(cycle)
        self.values = list(pre)

    def prefix(self, length: int) -> list:
        """At least the first ``length`` values (possibly more)."""
        short = length - len(self.values)
        if short > 0:
            self.values.extend(self.cycle * -(-short // self.period))
        return self.values

    def span(self, start: int, stop: int) -> list:
        """The values at indices start .. stop - 1. A start past the
        preperiod is first moved back by whole cycles, so only about
        head + period + (stop - start) values are ever unrolled."""
        if start > self.head:
            shift = (start - self.head) // self.period * self.period
            start, stop = start - shift, stop - shift
        return self.prefix(stop)[start:max(start, stop)]


def aligned(columns: Sequence[Unrolled], fn) -> tuple[int, tuple]:
    """(head, values): ``fn`` of the columns' aligned values over their
    joint window, called at n = 0, 1, ... in that order. The result's form
    is ``(values[:head], values[head:])``, not yet minimized."""
    head, period = joint_window(columns)
    width = head + period
    return head, tuple(islice(map(fn, *[c.prefix(width) for c in columns]), width))


def on_residue(pre: Sequence, cycle: Sequence, residue: int):
    """The value the form takes at every n = residue (mod m) past its
    preperiod, for any m that the cycle length divides."""
    return cycle[(residue - len(pre)) % len(cycle)]


def unrolled(pre: Sequence, cycle: Sequence, n: int):
    """Value at position n of the sequence described by (pre, cycle)."""
    return pre[n] if n < len(pre) else on_residue(pre, cycle, n)
