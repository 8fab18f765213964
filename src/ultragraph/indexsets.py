"""Decidable subsets of the natural numbers.

Four representations:

* ``finite`` -- an explicit finite set of members,
* ``cofinite`` -- an explicit finite set of non-members,
* ``periodic`` -- eventually periodic membership (preperiod bits plus a
  repeating cycle of bits),
* ``sampled`` -- an arbitrary membership function evaluable up to a finite
  horizon only.

The first three are exact: membership is known for every n and the family
is closed under complement, union and intersection (two sets combine
bit by bit across their joint window, ``_periodic.joint_window``, unless
the members of a finite or cofinite operand decide the result). Sampled
sets are deliberately second class; combining anything with a sampled set
stays sampled, and membership past the horizon raises ``BeyondHorizon``
instead of guessing.

Construction always canonicalizes: a periodic description whose cycle is
all ones (or all zeros) collapses to the cofinite (or finite) form, cycles
are minimal, preperiods are minimal. Equality is therefore structural
equality of the underlying set, independent of how it was described.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ._periodic import Unrolled, aligned, minimize, on_residue, unrolled
from .errors import BeyondHorizon

FINITE = "finite"
COFINITE = "cofinite"
PERIODIC = "periodic"
SAMPLED = "sampled"


class IndexSet:
    __slots__ = ("kind", "members", "pre", "cycle", "fn", "horizon", "_text")

    def __init__(self, kind, members=frozenset(), pre=(), cycle=(), fn=None, horizon=0):
        # Use the factory functions below instead of calling this directly;
        # they canonicalize.
        self.kind = kind
        self.members = members
        self.pre = pre
        self.cycle = cycle
        self.fn = fn
        self.horizon = horizon
        self._text = None  # describe(), rendered on first use

    # -- factories ---------------------------------------------------------

    @staticmethod
    def finite(members: Iterable[int] = ()) -> "IndexSet":
        ms = frozenset(int(n) for n in members)
        if any(n < 0 for n in ms):
            raise ValueError("index sets live inside the naturals")
        return IndexSet(FINITE, members=ms)

    @staticmethod
    def cofinite(non_members: Iterable[int] = ()) -> "IndexSet":
        ms = frozenset(int(n) for n in non_members)
        if any(n < 0 for n in ms):
            raise ValueError("index sets live inside the naturals")
        return IndexSet(COFINITE, members=ms)

    @staticmethod
    def naturals() -> "IndexSet":
        return IndexSet.cofinite()

    @staticmethod
    def empty() -> "IndexSet":
        return IndexSet.finite()

    @staticmethod
    def eventually_periodic(pre: Iterable, cycle: Iterable) -> "IndexSet":
        pre_bits = tuple(bool(b) for b in pre)
        cycle_bits = tuple(bool(b) for b in cycle)
        if not cycle_bits:
            raise ValueError("cycle must be nonempty")
        pre_bits, cycle_bits = minimize(pre_bits, cycle_bits)
        if all(cycle_bits):
            return IndexSet.cofinite(n for n, b in enumerate(pre_bits) if not b)
        if not any(cycle_bits):
            return IndexSet.finite(n for n, b in enumerate(pre_bits) if b)
        return IndexSet(PERIODIC, pre=pre_bits, cycle=cycle_bits)

    @staticmethod
    def residue_class(modulus: int, residue: int) -> "IndexSet":
        if modulus < 1:
            raise ValueError("modulus must be positive")
        r = residue % modulus
        return IndexSet.eventually_periodic((), tuple(i == r for i in range(modulus)))

    @staticmethod
    def sampled(fn: Callable[[int], bool], horizon: int) -> "IndexSet":
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        return IndexSet(SAMPLED, fn=fn, horizon=horizon)

    # -- membership --------------------------------------------------------

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if self.kind == FINITE:
            return n in self.members
        if self.kind == COFINITE:
            return n not in self.members
        if self.kind == PERIODIC:
            return unrolled(self.pre, self.cycle, n)
        if n > self.horizon:
            raise BeyondHorizon(f"sampled set evaluated at n={n} beyond horizon {self.horizon}")
        return bool(self.fn(n))

    __contains__ = contains

    @property
    def exact(self) -> bool:
        return self.kind != SAMPLED

    def is_empty(self) -> bool:
        return self.kind == FINITE and not self.members

    def is_naturals(self) -> bool:
        return self.kind == COFINITE and not self.members

    # -- boolean algebra ----------------------------------------------------

    def _period_form(self) -> tuple[tuple, tuple]:
        """(pre bits, cycle bits) view of an exact set."""
        if self.kind == PERIODIC:
            return self.pre, self.cycle
        span = max(self.members) + 1 if self.members else 0
        bits = tuple(self.contains(n) for n in range(span))
        return bits, ((self.kind == COFINITE),)

    def complement(self) -> "IndexSet":
        if self.kind == FINITE:
            return IndexSet.cofinite(self.members)
        if self.kind == COFINITE:
            return IndexSet.finite(self.members)
        if self.kind == PERIODIC:
            return IndexSet.eventually_periodic(
                tuple(not b for b in self.pre), tuple(not b for b in self.cycle)
            )
        fn = self.fn
        return IndexSet.sampled(lambda n: not fn(n), self.horizon)

    def _pointwise(self, other: "IndexSet", op) -> "IndexSet":
        if self.kind == SAMPLED or other.kind == SAMPLED:
            horizon = min(
                s.horizon for s in (self, other) if s.kind == SAMPLED
            )
            a, b = self, other
            return IndexSet.sampled(lambda n: op(a.contains(n), b.contains(n)), horizon)
        head, bits = aligned([Unrolled(*self._period_form()), Unrolled(*other._period_form())], op)
        return IndexSet.eventually_periodic(bits[:head], bits[head:])

    # Between exact sets, a finite or cofinite operand whose listed numbers
    # decide the result is combined by membership, so a large member is
    # never unrolled. Finite with periodic under union, and cofinite with
    # periodic under intersection, are unrolled: their form holds those bits.

    def union(self, other: "IndexSet") -> "IndexSet":
        if self.is_naturals() or other.is_empty():
            return self
        if other.is_naturals() or self.is_empty():
            return other
        if self.exact and other.exact:
            if self.kind == COFINITE:
                return IndexSet.cofinite(m for m in self.members if m not in other)
            if other.kind == COFINITE:
                return IndexSet.cofinite(m for m in other.members if m not in self)
            if self.kind == FINITE and other.kind == FINITE:
                return IndexSet.finite(self.members | other.members)
        return self._pointwise(other, lambda a, b: a or b)

    def intersection(self, other: "IndexSet") -> "IndexSet":
        if self.is_empty() or other.is_naturals():
            return self
        if other.is_empty() or self.is_naturals():
            return other
        if self.exact and other.exact:
            if self.kind == FINITE:
                return IndexSet.finite(m for m in self.members if m in other)
            if other.kind == FINITE:
                return IndexSet.finite(m for m in other.members if m in self)
            if self.kind == COFINITE and other.kind == COFINITE:
                return IndexSet.cofinite(self.members | other.members)
        return self._pointwise(other, lambda a, b: a and b)

    # -- residue-class containment (used by the filter oracle) --------------

    def class_inside(self, residue: int, modulus: int) -> bool:
        """Does this set contain {n : n = residue (mod modulus)} up to
        finitely many exceptions?

        Requires the set's own period to divide ``modulus`` so membership is
        constant along the class beyond the preperiod.
        """
        if self.kind == FINITE:
            return False
        if self.kind == COFINITE:
            return True
        if self.kind != PERIODIC:
            raise BeyondHorizon("class containment is only decidable for exact sets")
        if modulus % len(self.cycle) != 0:
            raise ValueError("modulus must be a multiple of the set's period")
        return on_residue(self.pre, self.cycle, residue)

    # -- comparisons and rendering ------------------------------------------

    def window_agrees(self, other: "IndexSet", upto: int) -> bool:
        """Pointwise agreement for all n <= upto (both sides evaluable)."""
        return all(self.contains(n) == other.contains(n) for n in range(upto + 1))

    def __eq__(self, other):
        if not isinstance(other, IndexSet):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind in (FINITE, COFINITE):
            return self.members == other.members
        if self.kind == PERIODIC:
            return self.pre == other.pre and self.cycle == other.cycle
        return self.fn is other.fn and self.horizon == other.horizon

    def __hash__(self):
        if self.kind in (FINITE, COFINITE):
            return hash((self.kind, self.members))
        if self.kind == PERIODIC:
            return hash((self.kind, self.pre, self.cycle))
        return hash((self.kind, id(self.fn), self.horizon))

    def describe(self) -> str:
        # Index sets are never changed after the factories build them, so
        # the text is rendered once: the oracle audit describes the same
        # few sets over and over.
        if self._text is None:
            self._text = self._render()
        return self._text

    def _render(self) -> str:
        if self.kind == FINITE:
            return "finite={%s}" % ",".join(str(n) for n in sorted(self.members))
        if self.kind == COFINITE:
            return "cofinite={%s}" % ",".join(str(n) for n in sorted(self.members))
        if self.kind == PERIODIC:
            cyc = "cycle=[%s]" % ",".join("1" if b else "0" for b in self.cycle)
            if self.pre:
                return "pre=[%s] %s" % (",".join("1" if b else "0" for b in self.pre), cyc)
            return cyc
        return f"sampled(horizon={self.horizon})"

    def __repr__(self):
        return f"IndexSet({self.describe()})"
