"""Decidable subsets of the natural numbers.

Two representations:

* exact -- a ``cycle`` of membership bits anchored at index 0 and repeated
  forever, plus a finite set of exceptions (``members``): n is a member
  exactly when ``cycle[n % len(cycle)]`` differs from ``n in members``.
  A finite set is the cycle ``(False,)`` with its members as exceptions,
  a cofinite set the cycle ``(True,)`` with its non-members; every other
  exact set is eventually periodic. ``kind`` names which of the three
  (``finite``, ``cofinite``, ``periodic``) a set is.
* ``sampled`` -- an arbitrary membership function evaluable up to a finite
  horizon only.

Exact sets are closed under complement, union and intersection. Two sets
combine their cycles over the lcm of their periods (``_periodic.aligned``),
and only an exception of either operand can be an exception of the result,
so a large listed number is never unrolled. Sampled sets are deliberately
second class; combining anything with a sampled set stays sampled (unless
the exact operand alone settles it: the naturals under union, the empty
set under intersection), and membership past the horizon raises
``BeyondHorizon`` instead of guessing.

Construction always canonicalizes: the cycle is cut to its minimal period,
and the exceptions are then exactly the indices where the set differs from
it. Equality is therefore structural equality of the underlying set,
independent of how it was described. By Łoś's theorem the exceptions never
matter to the filter oracle: an exact set is large exactly when its cycle
holds at the selected residue.
"""

from __future__ import annotations

from operator import and_, or_
from typing import Callable, Iterable

from ._periodic import Unrolled, aligned, period
from .errors import BeyondHorizon

FINITE = "finite"
COFINITE = "cofinite"
PERIODIC = "periodic"
SAMPLED = "sampled"


def _listed(numbers: Iterable[int]) -> frozenset:
    ms = frozenset(int(n) for n in numbers)
    if any(n < 0 for n in ms):
        raise ValueError("index sets live inside the naturals")
    return ms


def _bits(values) -> str:
    return ",".join("1" if b else "0" for b in values)


class IndexSet:
    __slots__ = ("kind", "cycle", "members", "fn", "horizon", "_text")

    def __init__(self, kind, cycle=(), members=frozenset(), fn=None, horizon=0):
        # Use the factory functions below instead of calling this directly;
        # they canonicalize.
        self.kind = kind
        self.cycle = cycle
        self.members = members
        self.fn = fn
        self.horizon = horizon
        self._text = None  # describe(), rendered on first use

    @staticmethod
    def _exact(cycle: tuple, exceptions: Iterable[int]) -> "IndexSet":
        """The exact set with these bits from index 0 on, flipped at the
        exceptions: every exact set is built here, its cycle cut to the
        minimal period."""
        cycle = cycle[: period(cycle)]
        kind = PERIODIC if len(cycle) > 1 else COFINITE if cycle[0] else FINITE
        return IndexSet(kind, cycle, frozenset(exceptions))

    # -- factories ---------------------------------------------------------

    @staticmethod
    def finite(members: Iterable[int] = ()) -> "IndexSet":
        return IndexSet._exact((False,), _listed(members))

    @staticmethod
    def cofinite(non_members: Iterable[int] = ()) -> "IndexSet":
        return IndexSet._exact((True,), _listed(non_members))

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
        # The cycle starts after the preperiod; rotate it to start at 0.
        p = len(cycle_bits)
        k = -len(pre_bits) % p
        anchored = cycle_bits[k:] + cycle_bits[:k]
        return IndexSet._exact(
            anchored, (n for n, b in enumerate(pre_bits) if b != anchored[n % p])
        )

    @staticmethod
    def residue_class(modulus: int, residue: int) -> "IndexSet":
        if modulus < 1:
            raise ValueError("modulus must be positive")
        r = residue % modulus
        return IndexSet._exact(tuple(i == r for i in range(modulus)), ())

    @staticmethod
    def sampled(fn: Callable[[int], bool], horizon: int) -> "IndexSet":
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        return IndexSet(SAMPLED, fn=fn, horizon=horizon)

    # -- membership --------------------------------------------------------

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        if self.kind == SAMPLED:
            if n > self.horizon:
                raise BeyondHorizon(f"sampled set evaluated at n={n} beyond horizon {self.horizon}")
            return bool(self.fn(n))
        return self.cycle[n % len(self.cycle)] != (n in self.members)

    __contains__ = contains

    @property
    def exact(self) -> bool:
        return self.kind != SAMPLED

    def is_empty(self) -> bool:
        return self.kind == FINITE and not self.members

    def is_naturals(self) -> bool:
        return self.kind == COFINITE and not self.members

    # -- boolean algebra ----------------------------------------------------

    def complement(self) -> "IndexSet":
        if self.kind == SAMPLED:
            fn = self.fn
            return IndexSet.sampled(lambda n: not fn(n), self.horizon)
        return IndexSet._exact(tuple(not b for b in self.cycle), self.members)

    def _combine(self, other: "IndexSet", op) -> "IndexSet":
        if self.kind == SAMPLED or other.kind == SAMPLED:
            # The naturals or the empty set either settles the result or
            # leaves the other operand as it is.
            for a, b in ((self, other), (other, self)):
                if a.is_empty() or a.is_naturals():
                    return a if op(a.cycle[0], True) == op(a.cycle[0], False) else b
            horizon = min(s.horizon for s in (self, other) if s.kind == SAMPLED)
            a, b = self, other
            return IndexSet.sampled(lambda n: op(a.contains(n), b.contains(n)), horizon)
        _, cycle = aligned([Unrolled((), self.cycle), Unrolled((), other.cycle)], op)
        p = len(cycle)
        return IndexSet._exact(
            cycle,
            (
                n
                for n in self.members | other.members
                if op(self.contains(n), other.contains(n)) != cycle[n % p]
            ),
        )

    def union(self, other: "IndexSet") -> "IndexSet":
        return self._combine(other, or_)

    def intersection(self, other: "IndexSet") -> "IndexSet":
        return self._combine(other, and_)

    # -- comparisons and rendering ------------------------------------------

    def window_agrees(self, other: "IndexSet", upto: int) -> bool:
        """Pointwise agreement for all n <= upto (both sides evaluable)."""
        return all(self.contains(n) == other.contains(n) for n in range(upto + 1))

    def __eq__(self, other):
        if not isinstance(other, IndexSet):
            return NotImplemented
        return (
            self.cycle == other.cycle
            and self.members == other.members
            and self.fn is other.fn
            and self.horizon == other.horizon
        )

    def __hash__(self):
        return hash((self.cycle, self.members, id(self.fn), self.horizon))

    def describe(self) -> str:
        # Index sets are never changed after the factories build them, so
        # the text is rendered once: the oracle audit describes the same
        # few sets over and over.
        if self._text is None:
            self._text = self._render()
        return self._text

    def _render(self) -> str:
        if self.kind == SAMPLED:
            return f"sampled(horizon={self.horizon})"
        if self.kind != PERIODIC:
            return "%s={%s}" % (self.kind, ",".join(str(n) for n in sorted(self.members)))
        # The minimal preperiod ends just past the last exception, and the
        # cycle is read on from there.
        head = max(self.members) + 1 if self.members else 0
        k = head % len(self.cycle)
        cyc = "cycle=[%s]" % _bits(self.cycle[k:] + self.cycle[:k])
        if head:
            return "pre=[%s] %s" % (_bits(map(self.contains, range(head))), cyc)
        return cyc

    def __repr__(self):
        return f"IndexSet({self.describe()})"
