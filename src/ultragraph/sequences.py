"""Finite descriptions of infinite sequences.

Two forms only:

* ``PeriodicSeq`` -- an eventually periodic sequence given by a preperiod
  list and a nonempty cycle. Construction canonicalizes (minimal cycle,
  minimal preperiod) so equal sequences compare equal structurally.
* ``GeneratedSeq`` -- an arbitrary evaluator n -> value, trusted only up to
  a declared horizon ``n_max``. It may carry declared traits (monotone,
  unbounded, injective beyond some index), a declared limit, and a
  canonical ``key`` identifying the generating rule. Two generated
  descriptors with the same non-None key denote the same function; keys are
  produced by the generator registry and composed by arithmetic, never
  guessed.

Traits and limits are declarations. ``trait_check`` verifies them
exhaustively up to the horizon and raises ``TraitViolated`` with a witness
index when the samples contradict the declaration; beyond the horizon they
are trusted. That trust boundary is explicit and reported, since properties
like unboundedness are not decidable from finitely many samples.

A generated rule is evaluated at most once per index: ``trait_check``,
``values_window`` and ``samples`` read one window of values kept per rule
(per ``fn``, so copies of a descriptor share it) for as long as the rule
lives. Rules must therefore be deterministic. An evaluation that raises
leaves its index unrecorded, so asking again raises again.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from math import lcm
from typing import Any, Callable, Iterable, Iterator

from ._periodic import minimize, unrolled
from .errors import BeyondHorizon, TraitViolated
from .indexsets import IndexSet

MONOTONE = "monotone"
UNBOUNDED = "unbounded"
INJECTIVE_BEYOND = "injective-beyond"
TRAITS = frozenset({MONOTONE, UNBOUNDED, INJECTIVE_BEYOND})


@dataclass(frozen=True)
class PeriodicSeq:
    pre: tuple
    cycle: tuple

    @staticmethod
    def make(pre: Iterable, cycle: Iterable) -> "PeriodicSeq":
        head, cyc = minimize(tuple(pre), tuple(cycle))
        return PeriodicSeq(head, cyc)

    def describe(self) -> str:
        cyc = "cycle=[%s]" % ",".join(_fmt(v) for v in self.cycle)
        if self.pre:
            return "pre=[%s] %s" % (",".join(_fmt(v) for v in self.pre), cyc)
        return cyc


@dataclass(frozen=True, eq=False)
class GeneratedSeq:
    fn: Callable[[int], Any]
    n_max: int
    traits: frozenset = frozenset()
    limit: Any = None
    key: tuple | None = None
    label: str | None = None

    def __post_init__(self):
        bad = self.traits - TRAITS
        if bad:
            raise ValueError(f"unknown traits: {sorted(bad)}")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    def __eq__(self, other):
        if not isinstance(other, GeneratedSeq):
            return NotImplemented
        if self.key is not None and other.key is not None:
            return self.key == other.key
        return self is other

    def __hash__(self):
        return hash(self.key) if self.key is not None else id(self)

    def describe(self) -> str:
        name = self.label or (render_key(self.key) if self.key else "?")
        return f"gen={name} nmax={self.n_max}"


SeqDescriptor = PeriodicSeq | GeneratedSeq


def constant(value) -> PeriodicSeq:
    return PeriodicSeq.make((), (value,))


def periodic(pre: Iterable, cycle: Iterable) -> PeriodicSeq:
    return PeriodicSeq.make(pre, cycle)


def generated(fn, n_max, traits=(), limit=None, key=None, label=None) -> GeneratedSeq:
    return GeneratedSeq(fn, n_max, frozenset(traits), limit, key, label)


def value_at(seq: SeqDescriptor, n: int):
    if n < 0:
        raise ValueError("indices are natural numbers")
    if isinstance(seq, PeriodicSeq):
        return unrolled(seq.pre, seq.cycle, n)
    if n > seq.n_max:
        raise BeyondHorizon(f"generated sequence evaluated at n={n} beyond horizon {seq.n_max}")
    return seq.fn(n)


def horizon(seq: SeqDescriptor) -> float:
    return math.inf if isinstance(seq, PeriodicSeq) else seq.n_max


# fn -> [fn(0), fn(1), ...]: every value of a generated rule computed so far.
_WINDOWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _window(fn) -> list:
    try:
        return _WINDOWS.setdefault(fn, [])
    except TypeError:  # fn cannot be weakly referenced or hashed: keep nothing
        return []


def _values(seq: GeneratedSeq, upto: int) -> list:
    """``seq.fn(n)`` for n = 0..upto, computing only indices not seen before."""
    vals = _window(seq.fn)
    for n in range(len(vals), upto + 1):
        vals.append(seq.fn(n))
    return vals[: upto + 1]


def samples(seq: GeneratedSeq, upto: int) -> Iterator:
    """Like ``_values``, lazily: a scan that stops early computes no further.

    The horizon is the caller's to respect.
    """
    vals = _window(seq.fn)
    for n in range(upto + 1):
        if n == len(vals):
            vals.append(seq.fn(n))
        yield vals[n]


def values_window(seq: SeqDescriptor, upto: int) -> list:
    if isinstance(seq, PeriodicSeq):
        return [value_at(seq, n) for n in range(upto + 1)]
    vals = _values(seq, min(upto, seq.n_max))
    if upto > seq.n_max:
        raise BeyondHorizon(
            f"generated sequence evaluated at n={seq.n_max + 1} beyond horizon {seq.n_max}"
        )
    return vals


def structural_window(*seqs: SeqDescriptor) -> tuple[int, int]:
    """(preperiod length, combined cycle length) for periodic descriptors."""
    head = max((len(s.pre) for s in seqs), default=0)
    period = 1
    for s in seqs:
        period = lcm(period, len(s.cycle))
    return head, period


def pointwise(seqs: Iterable[PeriodicSeq], fn) -> PeriodicSeq:
    """Apply fn to aligned values of periodic descriptors; result is periodic."""
    seqs = list(seqs)
    head, period = structural_window(*seqs)
    values = [fn(*(value_at(s, n) for s in seqs)) for n in range(head + period)]
    return PeriodicSeq.make(values[:head], values[head:])


def agreement_set(a: SeqDescriptor, b: SeqDescriptor) -> IndexSet:
    """The set of indices where the two sequences take equal values.

    Exact (eventually periodic) when both descriptors are periodic or when
    they are recognizably the same function (equal descriptors, including
    equal generator keys). Otherwise sampled up to the shorter horizon.
    """
    if a == b:
        return IndexSet.naturals()
    if isinstance(a, PeriodicSeq) and isinstance(b, PeriodicSeq):
        head, period = structural_window(a, b)
        bits = [value_at(a, n) == value_at(b, n) for n in range(head + period)]
        return IndexSet.eventually_periodic(bits[:head], bits[head:])
    upto = int(min(horizon(a), horizon(b)))
    return IndexSet.sampled(lambda n: value_at(a, n) == value_at(b, n), upto)


@dataclass
class TraitReport:
    ok: bool
    notes: list[str] = field(default_factory=list)


def trait_check(seq: SeqDescriptor, upto: int | None = None) -> TraitReport:
    """Verify declared traits (and a declared limit) against samples.

    Periodic descriptors need no declarations; the report just records the
    finitely many values they take. For generated descriptors every check
    runs exhaustively up to the horizon and raises ``TraitViolated`` with
    the earliest witness on failure.
    """
    if isinstance(seq, PeriodicSeq):
        vals = sorted({_fmt(v) for v in seq.pre + seq.cycle})
        return TraitReport(True, [f"finitely many values {{{', '.join(vals)}}}"])
    end = seq.n_max if upto is None else min(upto, seq.n_max)
    vals = _values(seq, end)
    notes = []
    if MONOTONE in seq.traits:
        _check_monotone(vals)
        notes.append(f"monotone verified for n <= {end}")
    if UNBOUNDED in seq.traits:
        _check_unbounded(vals)
        notes.append(f"unbounded spot-checked for n <= {end} (trusted beyond)")
    if INJECTIVE_BEYOND in seq.traits:
        _check_injective(vals)
        notes.append(f"injective beyond some index verified for n <= {end}")
    if seq.limit is not None:
        _check_limit(vals, seq.limit)
        notes.append(f"approach to limit {seq.limit} verified for n <= {end} (trusted beyond)")
    return TraitReport(True, notes)


def _check_monotone(vals):
    up = all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    down = all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
    if not (up or down):
        rises = next(i for i in range(len(vals) - 1) if vals[i] < vals[i + 1])
        falls = next(i for i in range(len(vals) - 1) if vals[i] > vals[i + 1])
        n = max(min(rises, falls), 1)
        raise TraitViolated(
            f"monotone declared but values change direction near n={n}", witness=n
        )


def _check_unbounded(vals):
    # The running max of |values| must still be growing in the second half
    # of the window; a genuinely unbounded sequence keeps setting records.
    mid = len(vals) // 2
    early = max(abs(v) for v in vals[: mid + 1])
    late = max(abs(v) for v in vals)
    if not late > early:
        raise TraitViolated(
            f"unbounded declared but |values| set no new record after n={mid}",
            witness=len(vals) - 1,
        )


def _check_injective(vals):
    # Find the longest duplicate-free suffix; it must cover at least the
    # second half of the window for the declaration to be plausible.
    seen: dict = {}
    start = 0
    for i, v in enumerate(vals):
        if v in seen and seen[v] >= start:
            start = seen[v] + 1
        seen[v] = i
    if start > len(vals) // 2:
        raise TraitViolated(
            f"injectivity declared but duplicates persist through n={start - 1}",
            witness=start - 1,
        )


def _check_limit(vals, limit):
    devs = [abs(v - limit) for v in vals]
    for i in range(len(devs) - 1):
        if devs[i + 1] > devs[i]:
            raise TraitViolated(
                f"limit {limit} declared but |value - limit| grows at n={i + 1}",
                witness=i + 1,
            )
    # Nonincreasing deviations alone also fit every limit below the true
    # one (the gap just stops shrinking), so insist on genuine decay: by
    # the horizon the deviation must have dropped to a quarter of its
    # starting size, and it must still be shrinking over the second half
    # of the window (a gap of order 1/n halves there; a gap settling on a
    # nonzero floor does not).  Slowly converging sequences need a longer
    # horizon.
    if devs and devs[-1] > 0.25 * devs[0] + 1e-12:
        raise TraitViolated(
            f"limit {limit} declared but |value - limit| only shrinks from "
            f"{devs[0]:.6g} to {devs[-1]:.6g} over the horizon",
            witness=len(devs) - 1,
        )
    mid = len(devs) // 2
    if devs and devs[-1] > 0.75 * devs[mid] + 1e-12:
        raise TraitViolated(
            f"limit {limit} declared but |value - limit| levels off near "
            f"{devs[-1]:.6g} after n={mid}",
            witness=len(devs) - 1,
        )


# -- generator registry --------------------------------------------------------

def named_generator(name: str, args: tuple, n_max: int) -> SeqDescriptor:
    """Build a descriptor from a registry name.

    ``identity`` (n), ``const(k)``, ``affine(a, b)`` (a*n + b) and
    ``mod(p)`` (n mod p) are available. Constant cases normalize to the
    periodic form, which is strictly more informative.
    """
    if name == "identity":
        if args:
            raise ValueError("identity takes no arguments")
        return generated(
            lambda n: n,
            n_max,
            traits=(MONOTONE, UNBOUNDED, INJECTIVE_BEYOND),
            key=("affine", 1, 0),
            label="identity",
        )
    if name == "const":
        (k,) = args
        return constant(k)
    if name == "affine":
        a, b = args
        if a == 0:
            return constant(b)
        return generated(
            lambda n: a * n + b,
            n_max,
            traits=(MONOTONE, UNBOUNDED, INJECTIVE_BEYOND),
            key=("affine", a, b),
            label=f"affine({_fmt(a)},{_fmt(b)})",
        )
    if name == "mod":
        (p,) = args
        if not isinstance(p, int) or p < 1:
            raise ValueError("mod takes one positive integer period")
        # Deliberately left in generated form: the same values written as a
        # cycle are exactly decidable, while this rule stays opaque — useful
        # for exercising the sampled/undecidable trust boundary.
        return generated(
            lambda n: n % p,
            n_max,
            key=("mod", p),
            label=f"mod({p})",
        )
    raise ValueError(f"unknown generator {name!r}")


def form_key(seq: SeqDescriptor) -> tuple | None:
    """A canonical identity for the descriptor, or None when it has none."""
    if isinstance(seq, PeriodicSeq):
        return ("ep", seq.pre, seq.cycle)
    return seq.key


def render_key(key: tuple) -> str:
    if key and key[0] == "affine":
        return f"affine({_fmt(key[1])},{_fmt(key[2])})"
    if key and key[0] == "ep":
        return "periodic"
    return str(key[0]) if key else "?"


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
