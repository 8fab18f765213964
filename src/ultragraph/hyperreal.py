"""Hyperreal and hypernatural numbers as sequence classes modulo the oracle.

A ``Hyperreal`` is a sequence descriptor taken modulo the chosen
ultrafilter: two numbers are equal when their agreement set is accepted by
the oracle. Arithmetic is pointwise; eventually periodic descriptors are
closed under it, so exact inputs stay exact. Field laws then hold for the
classes because they hold pointwise and the oracle respects intersections.

Magnitude classification and standard parts never extrapolate numerically:

* a periodic descriptor is, as a class, equal to the constant it takes on
  the residue class the oracle selects (Łoś; ``_periodic.on_residue``
  reads that value), so its standard part is exact;
* a generated descriptor yields a verdict only with a certificate: a
  declared limit with the monotone trait (verified up to the horizon) for
  infinitesimal/finite, declared unbounded plus monotone for infinite;
* anything else is ``Unknown``, and ``standard_part`` raises
  ``NoCertificate``.

A number is immutable, so its certificate is checked once: ``trait_check``
runs the first time ``classify``, ``standard_part`` or ``describe`` needs
it, and ``certify`` returns a number carrying the check it made. A
``Hypernatural`` keeps its representative as such a number, so
``is_standard`` checks it once too. A ``TraitViolated`` is kept and raised
again; any other exception met while reading the window is not kept, so
the next call reads again.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Any

from . import sequences as sq
from ._periodic import on_residue
from .errors import DivisionByZeroClass, NoCertificate, TraitViolated, Undecidable
from .oracle import FilterOracle, Membership
from .sequences import PeriodicSeq, SeqDescriptor, _relation_set


class MagnitudeClass(Enum):
    INFINITESIMAL = "infinitesimal"
    FINITE = "finite"
    INFINITE = "infinite"
    UNKNOWN = "unknown"


def _div(a, b):
    # Safe only after the zero-set of the divisor was rejected by the
    # oracle; the value on that rejected set does not affect the class.
    return a / b if b != 0 else 0.0


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div}


class Hyperreal:
    """A sequence class representing one nonstandard real."""

    __slots__ = ("rep", "oracle", "_cert")

    def __init__(self, rep: SeqDescriptor, oracle: FilterOracle):
        self.rep = rep
        self.oracle = oracle
        self._cert = None

    @classmethod
    def lift(cls, value, oracle: FilterOracle) -> "Hyperreal":
        """The standard number ``value`` as a constant class."""
        return cls(sq.constant(value), oracle)

    def _coerce(self, other) -> "Hyperreal":
        if isinstance(other, Hyperreal):
            return other
        return Hyperreal.lift(other, self.oracle)

    # -- equality and order ---------------------------------------------------

    def eq(self, other) -> bool:
        other = self._coerce(other)
        agree = sq.agreement_set(self.rep, other.rep)
        return self.oracle.decide(agree, context="hyperreal equality") is Membership.IN

    def lt(self, other) -> bool:
        other = self._coerce(other)
        below = _relation_set(self.rep, other.rep, lambda a, b: a < b)
        return self.oracle.decide(below, context="hyperreal order") is Membership.IN

    # -- arithmetic -------------------------------------------------------------

    def _arith(self, other, op: str, swapped: bool = False) -> "Hyperreal":
        other = self._coerce(other)
        a, b = (other.rep, self.rep) if swapped else (self.rep, other.rep)
        if op == "/":
            _guard_divisor(b, self.oracle)
        return Hyperreal(_combine(a, b, op), self.oracle)

    def __add__(self, other):
        return self._arith(other, "+")

    __radd__ = __add__

    def __sub__(self, other):
        return self._arith(other, "-")

    def __rsub__(self, other):
        return self._arith(other, "-", swapped=True)

    def __mul__(self, other):
        return self._arith(other, "*")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._arith(other, "/")

    def __rtruediv__(self, other):
        return self._arith(other, "/", swapped=True)

    def __neg__(self):
        return Hyperreal.lift(0, self.oracle) - self

    # -- classification -----------------------------------------------------------

    def selected_value(self):
        """The value taken on the residue class the oracle selects.

        Only periodic descriptors determine this; as a class the number is
        exactly equal to this constant.
        """
        if not isinstance(self.rep, PeriodicSeq):
            raise NoCertificate("selected value requires a periodic descriptor")
        residue = self.oracle.selected_residue(len(self.rep.cycle))
        return on_residue(self.rep.pre, self.rep.cycle, residue)

    def _certificate(self) -> tuple:
        """(class, standard part or None, ``TraitViolated`` or None) of a
        generated number, from one ``trait_check`` kept on the number."""
        if self._cert is None:
            rep = self.rep
            cls, st, violation = MagnitudeClass.UNKNOWN, None, None
            try:
                sq.trait_check(rep)
            except TraitViolated as exc:
                violation = exc
            else:
                if rep.limit is not None and sq.MONOTONE in rep.traits:
                    st = rep.limit
                    cls = MagnitudeClass.INFINITESIMAL if st == 0 else MagnitudeClass.FINITE
                elif sq.UNBOUNDED in rep.traits and sq.MONOTONE in rep.traits:
                    cls = MagnitudeClass.INFINITE
            self._cert = (cls, st, violation)
        return self._cert

    def classify(self) -> MagnitudeClass:
        if isinstance(self.rep, PeriodicSeq):
            return (
                MagnitudeClass.INFINITESIMAL
                if self.selected_value() == 0
                else MagnitudeClass.FINITE
            )
        return self._certificate()[0]

    def standard_part(self):
        """The standard number infinitely close to this one.

        Exact for periodic descriptors (the oracle-selected value); for
        generated descriptors it requires a declared limit with the
        monotone trait, verified up to the horizon.
        """
        if isinstance(self.rep, PeriodicSeq):
            return self.selected_value()
        if self.rep.limit is None or sq.MONOTONE not in self.rep.traits:
            raise NoCertificate(
                "no convergence certificate: declare a limit with the monotone trait"
            )
        _, st, violation = self._certificate()
        if violation is not None:
            raise violation
        return st

    def certify(self, limit=None, monotone=False, unbounded=False, injective=False) -> "Hyperreal":
        """Attach declared traits or a limit, spot-checking them first.

        Returns a new number with the declarations recorded, carrying that
        check as its certificate; raises ``TraitViolated`` when the samples
        contradict them.
        """
        if isinstance(self.rep, PeriodicSeq):
            return self
        traits = set(self.rep.traits)
        if monotone:
            traits.add(sq.MONOTONE)
        if unbounded:
            traits.add(sq.UNBOUNDED)
        if injective:
            traits.add(sq.INJECTIVE_BEYOND)
        rep = self.rep.declaring(frozenset(traits), self.rep.limit if limit is None else limit)
        certified = Hyperreal(rep, self.oracle)
        violation = certified._certificate()[2]
        if violation is not None:
            raise violation
        return certified

    # -- rendering -------------------------------------------------------------------

    def describe(self) -> str:
        cls = self.classify()
        text = f"⟨{self.rep.describe()}⟩ :: {cls.value}"
        try:
            text += f", st={sq._fmt(self.standard_part())}"
        except NoCertificate:
            pass
        return text

    def __repr__(self):
        return f"Hyperreal({self.rep.describe()})"


class Hypernatural:
    """A sequence class of naturals: either standard or beyond every standard."""

    __slots__ = ("rep", "oracle", "_number")

    def __init__(self, rep: SeqDescriptor, oracle: FilterOracle, check_upto: int = 64):
        if isinstance(rep, PeriodicSeq):
            vals: Any = rep.pre + rep.cycle
        else:
            vals = sq.values_window(rep, min(check_upto, rep.n_max))
        for v in vals:
            if not (isinstance(v, int) and v >= 0):
                raise ValueError(f"hypernatural representative takes non-natural value {v!r}")
        self.rep = rep
        self.oracle = oracle
        self._number = Hyperreal(rep, oracle)  # keeps the certificate, checked once

    def is_standard(self) -> bool:
        """Standard means equal to some constant class.

        Periodic representatives always are. Generated ones are certified
        nonstandard when their declared traits force infinitely many values
        on every infinite index set (injectivity beyond an index, or
        unbounded plus monotone); otherwise the question is undecidable.
        """
        if isinstance(self.rep, PeriodicSeq):
            return True
        traits = self.rep.traits
        if sq.INJECTIVE_BEYOND in traits or (
            sq.UNBOUNDED in traits and sq.MONOTONE in traits
        ):
            violation = self._number._certificate()[2]
            if violation is not None:
                raise violation
            return False
        raise Undecidable(
            "cannot tell whether the rank sequence is eventually constant; "
            "declare injectivity or unboundedness, or use a periodic descriptor"
        )

    def value(self) -> int:
        if not self.is_standard():
            raise NoCertificate("a nonstandard hypernatural has no standard value")
        return self._number.selected_value()

    def eq(self, other: "Hypernatural") -> bool:
        agree = sq.agreement_set(self.rep, other.rep)
        return self.oracle.decide(agree, context="hypernatural equality") is Membership.IN

    def describe(self) -> str:
        try:
            standard = self.is_standard()
        except Undecidable:
            return f"⟨{self.rep.describe()}⟩ :: hypernatural, undecided"
        if standard:
            return f"⟨{self.rep.describe()}⟩ :: hypernatural, standard value {self.value()}"
        return f"⟨{self.rep.describe()}⟩ :: hypernatural, nonstandard"

    def __repr__(self):
        return f"Hypernatural({self.rep.describe()})"


# -- shared helpers ------------------------------------------------------------------


def _combine(a: SeqDescriptor, b: SeqDescriptor, op: str) -> SeqDescriptor:
    """``pointwise`` of op; a generated result is keyed and labelled by op
    when both operands have a key."""
    fn = _OPS[op]
    ka, kb = sq.form_key(a), sq.form_key(b)
    if ka is None or kb is None or isinstance(a, PeriodicSeq) and isinstance(b, PeriodicSeq):
        return sq.pointwise((a, b), fn)
    key = ({"+": "add", "-": "sub", "*": "mul", "/": "div"}[op], ka, kb)
    return sq.pointwise((a, b), fn, key, f"({_short(a)} {op} {_short(b)})")


def _short(seq: SeqDescriptor) -> str:
    if isinstance(seq, PeriodicSeq):
        return seq.describe()
    return seq.label or "gen"


def _guard_divisor(divisor: SeqDescriptor, oracle: FilterOracle) -> None:
    if isinstance(divisor, PeriodicSeq):
        zero = sq.agreement_set(divisor, sq.constant(0))
        if oracle.decide(zero, context="division zero-set") is Membership.IN:
            raise DivisionByZeroClass("divisor is the zero class")
        return
    values = sq.span(divisor, 0, divisor.n_max + 1)
    for n, value in enumerate(values):
        if value == 0:
            raise DivisionByZeroClass(
                f"divisor vanishes at n={n}; its zero-set is not decidably negligible"
            )
    if len(values) <= divisor.n_max:  # the span stopped where the rule raises
        sq.value_at(divisor, len(values))


def hr_eq(x: Hyperreal, y: Hyperreal) -> bool:
    return x.eq(y)
