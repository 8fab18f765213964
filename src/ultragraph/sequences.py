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

A range of a descriptor is read in one of two ways. ``values_window(seq,
upto)`` gives the values at 0 .. upto and raises what the rule raises at
the first index that fails, or ``BeyondHorizon`` past the horizon.
``span(seq, start, stop)`` never raises: it gives the values over the
range, cut short where a generated one raises or passes its horizon; a
caller that needs the exception reads the index where the span stopped
with ``value_at``. ``value_at`` is the read of a single index.

A generated rule is evaluated at most once per index: both range reads,
and so ``trait_check``, read one window of values kept per rule (per
``fn``, so copies of a descriptor share it) for as long as the rule
lives. Rules must therefore be deterministic. An evaluation that raises
leaves its index unrecorded, so asking again raises again. A rule that
keeps no window (one that cannot be weakly referenced) is evaluated over
the range read alone.

A rule may also carry a ``fill(start, stop)`` attribute that computes a
block of its window at once. The contract: return ``fn(n)`` for n =
start, start + 1, ..., stopping before the first index whose evaluation
raises; never raise, and never read past the rule's horizon. A window is
grown through ``fill`` when the rule has one, and otherwise by calling
``fn(n)`` index by index, as for rules without ``fill`` (``affine``,
``mod``, user callables). After a short fill the next index is evaluated
by ``fn`` itself, which raises the real exception, so a raising index is
still never recorded. ``fn`` stays the rule: ``value_at`` calls it per
index. ``span`` is the read a ``fill`` makes of another descriptor.

A periodic descriptor is read by whole cycles, never through ``value_at``
index by index: ``values_window`` and ``span`` slice its unrolled values,
and ``pointwise`` and ``agreement_set`` map over aligned columns across
the joint window of the descriptors (``_periodic`` holds the layout).
"""

from __future__ import annotations

import math
import weakref
from itertools import compress, count, repeat
from operator import eq, ge, gt, le, lt, sub
from typing import Any, Callable, Iterable, NamedTuple

from ._periodic import Unrolled, aligned, minimize, unrolled
from .errors import BeyondHorizon, TraitViolated
from .indexsets import IndexSet

MONOTONE = "monotone"
UNBOUNDED = "unbounded"
INJECTIVE_BEYOND = "injective-beyond"
TRAITS = frozenset({MONOTONE, UNBOUNDED, INJECTIVE_BEYOND})


class PeriodicSeq(NamedTuple):
    pre: tuple
    cycle: tuple

    @staticmethod
    def make(pre: Iterable, cycle: Iterable) -> "PeriodicSeq":
        head, cyc = minimize(tuple(pre), tuple(cycle))
        return PeriodicSeq(head, cyc)

    def describe(self) -> str:
        cyc = "cycle=[%s]" % _render(self.cycle)
        if self.pre:
            return "pre=[%s] %s" % (_render(self.pre), cyc)
        return cyc


class GeneratedSeq:
    """Immutable: its fields are set once, by the constructor."""

    __slots__ = ("fn", "n_max", "traits", "limit", "key", "label", "__weakref__")

    def __init__(
        self,
        fn: Callable[[int], Any],
        n_max: int,
        traits: frozenset = frozenset(),
        limit: Any = None,
        key: tuple | None = None,
        label: str | None = None,
    ):
        bad = traits - TRAITS
        if bad:
            raise ValueError(f"unknown traits: {sorted(bad)}")
        if n_max < 1:
            raise ValueError("n_max must be at least 1")
        for name, value in zip(self.__slots__, (fn, n_max, traits, limit, key, label)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a GeneratedSeq")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a GeneratedSeq")

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


def _extend(fn, vals: list, stop: int) -> list:
    """Grow ``vals``, the window of rule ``fn``, to ``stop`` values: through
    ``fn.fill`` when the rule has one, then ``fn(n)`` index by index, which
    raises where the rule does (module docstring)."""
    fill = getattr(fn, "fill", None)
    if fill is not None and len(vals) < stop:
        vals += fill(len(vals), stop)
    for n in range(len(vals), stop):
        vals.append(fn(n))
    return vals


def span(seq: SeqDescriptor, start: int, stop: int) -> list:
    """The values of ``seq`` at start .. stop - 1; for a generated
    descriptor only those before the first index that raises or lies past
    its horizon. Never raises: this is how a ``fill`` reads its operands."""
    if isinstance(seq, PeriodicSeq):
        return Unrolled(seq.pre, seq.cycle).span(start, stop)
    stop = min(stop, seq.n_max + 1)
    try:
        vals = _WINDOWS.setdefault(seq.fn, [])
    except TypeError:  # no window is kept for this rule (``_window``): read the range alone
        vals = []
        for n in range(start, stop):
            try:
                vals.append(seq.fn(n))
            except Exception:  # noqa: BLE001 - vals holds every value before it
                break
        return vals
    try:
        _extend(seq.fn, vals, stop)
    except Exception:  # noqa: BLE001 - the window holds every value before it
        pass
    return vals[start:stop]


def values_window(seq: SeqDescriptor, upto: int) -> list:
    """The values of ``seq`` at 0 .. upto. Raises where a generated rule
    raises, or ``BeyondHorizon`` when upto lies past its horizon."""
    if isinstance(seq, PeriodicSeq):
        return Unrolled(seq.pre, seq.cycle).span(0, upto + 1)
    end = min(upto, seq.n_max) + 1
    vals = _extend(seq.fn, _window(seq.fn), end)[:end]
    if upto > seq.n_max:
        raise BeyondHorizon(
            f"generated sequence evaluated at n={seq.n_max + 1} beyond horizon {seq.n_max}"
        )
    return vals


def pointwise(seqs: list, fn, key=None, label=None) -> SeqDescriptor:
    """The descriptor n -> fn(x_n, y_n, ...) of the descriptors ``seqs``:
    periodic when they all are (each unrolled once over the joint window,
    fn called at n = 0, 1, ... in that order, no key or label), otherwise
    generated up to the shortest horizon (``_generated_pointwise``)."""
    try:
        columns = [Unrolled(s.pre, s.cycle) for s in seqs]
    except AttributeError:  # a generated descriptor has no preperiod
        return _generated_pointwise(seqs, fn, key, label)
    head, values = aligned(columns, fn)
    return PeriodicSeq.make(values[:head], values[head:])


def _generated_pointwise(seqs: list, fn, key, label) -> GeneratedSeq:
    """Its rule reads the descriptors at n in order, then calls fn; its fill
    reads each one's span only as far as the one before went."""
    n_max = int(min(map(horizon, seqs)))

    def rule(n: int):
        return fn(*[value_at(s, n) for s in seqs])

    def fill(start: int, stop: int) -> list:
        spans, end = [], min(stop, n_max + 1)
        for s in seqs:
            spans.append(span(s, start, end))
            end = start + len(spans[-1])
        try:
            return list(map(fn, *spans))
        except Exception:  # noqa: BLE001 - keep the values before the failing index
            values = []
            for args in zip(*spans):
                try:
                    values.append(fn(*args))
                except Exception:  # noqa: BLE001 - rule(n) raises it again
                    break
            return values

    rule.fill = fill
    return generated(rule, n_max, key=key, label=label)


def agreement_set(a: SeqDescriptor, b: SeqDescriptor) -> IndexSet:
    """The set of indices where the two sequences take equal values.

    Exact (eventually periodic) when both descriptors are periodic or when
    they are recognizably the same function (equal descriptors, including
    equal generator keys). Otherwise sampled up to the shorter horizon.
    """
    if a == b:
        return IndexSet.naturals()
    return _relation_set(a, b, eq)


def _relation_set(a: SeqDescriptor, b: SeqDescriptor, rel) -> IndexSet:
    """The indices where ``rel`` holds between the two sequences' values:
    exact when both are periodic, else sampled up to the shorter horizon."""
    if isinstance(a, PeriodicSeq) and isinstance(b, PeriodicSeq):
        head, bits = aligned([Unrolled(a.pre, a.cycle), Unrolled(b.pre, b.cycle)], rel)
        return IndexSet.eventually_periodic(bits[:head], bits[head:])
    upto = int(min(horizon(a), horizon(b)))
    return IndexSet.sampled(lambda n: rel(value_at(a, n), value_at(b, n)), upto)


class TraitReport:
    __slots__ = ("ok", "notes")

    def __init__(self, ok: bool, notes: list[str]):
        self.ok = ok
        self.notes = notes


def trait_check(seq: SeqDescriptor) -> TraitReport:
    """Verify declared traits (and a declared limit) against samples.

    Periodic descriptors need no declarations; the report just records the
    finitely many values they take. For generated descriptors every check
    runs exhaustively up to the horizon and raises ``TraitViolated`` with
    the earliest witness on failure.

    When every value of the window and the declared limit are ``float``
    (``_render``'s rule), the monotone, unbounded and limit checks run on
    one float64 array, with the list checks' comparisons and arithmetic,
    so every message, witness and note is theirs. Any other value (an int,
    a ``Fraction``, an extremity) keeps the list checks, which compare
    exactly, and so does injectivity: a dict of the values, in which a NaN
    matches only itself. numpy is imported only for a float window.
    """
    if isinstance(seq, PeriodicSeq):
        vals = sorted({_fmt(v) for v in seq.pre + seq.cycle})
        return TraitReport(True, [f"finitely many values {{{', '.join(vals)}}}"])
    end = seq.n_max
    vals = values_window(seq, end)
    window, (monotone, unbounded, limit) = vals, _LIST_CHECKS
    if (
        (MONOTONE in seq.traits or UNBOUNDED in seq.traits or seq.limit is not None)
        and type(seq.limit) in (float, type(None))
        and set(map(type, vals)) == {float}
    ):
        import numpy as np

        window, (monotone, unbounded, limit) = np.array(vals, dtype=float), _FLOAT_CHECKS
    notes = []
    if MONOTONE in seq.traits:
        monotone(window)
        notes.append(f"monotone verified for n <= {end}")
    if UNBOUNDED in seq.traits:
        unbounded(window)
        notes.append(f"unbounded spot-checked for n <= {end} (trusted beyond)")
    if INJECTIVE_BEYOND in seq.traits:
        _check_injective(vals)
        notes.append(f"injective beyond some index verified for n <= {end}")
    if seq.limit is not None:
        limit(window, seq.limit)
        notes.append(f"approach to limit {seq.limit} verified for n <= {end} (trusted beyond)")
    return TraitReport(True, notes)


def _check_monotone(vals):
    nxt = vals[1:]
    up = all(map(le, vals, nxt))
    down = all(map(ge, vals, nxt))
    if not (up or down):
        rises = next(compress(count(), map(lt, vals, nxt)), None)
        falls = next(compress(count(), map(gt, vals, nxt)), None)
        if rises is None or falls is None:
            # A step that neither rises, falls nor stays (a NaN) breaks both.
            n = next(compress(count(1), map(_unordered, vals, nxt)))
            raise TraitViolated(
                f"monotone declared but the values at n={n - 1} and n={n} are unordered",
                witness=n,
            )
        n = max(min(rises, falls), 1)
        raise TraitViolated(
            f"monotone declared but values change direction near n={n}", witness=n
        )


def _unordered(a, b) -> bool:
    return not (a <= b or a >= b)


def _check_unbounded(vals):
    # The running max of |values| must still be growing in the second half
    # of the window; a genuinely unbounded sequence keeps setting records.
    mid = len(vals) // 2
    early = max(map(abs, vals[: mid + 1]))
    late = max(map(abs, vals))
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
    devs = list(map(abs, map(sub, vals, repeat(limit))))
    grows = next(compress(count(1), map(gt, devs[1:], devs)), None)
    if grows is not None:
        raise TraitViolated(
            f"limit {limit} declared but |value - limit| grows at n={grows}",
            witness=grows,
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


def _monotone_floats(x):
    """``_check_monotone`` of a float64 array: neighbours compared with
    ``<=`` and ``>=``, never subtracted (inf - inf is NaN)."""
    import numpy as np

    a, b = x[:-1], x[1:]
    le, ge = a <= b, a >= b
    if le.all() or ge.all():
        return
    rises, falls = a < b, a > b
    if not (rises.any() and falls.any()):
        n = int(np.argmax(~(le | ge))) + 1
        raise TraitViolated(
            f"monotone declared but the values at n={n - 1} and n={n} are unordered",
            witness=n,
        )
    n = max(min(int(np.argmax(rises)), int(np.argmax(falls))), 1)
    raise TraitViolated(
        f"monotone declared but values change direction near n={n}", witness=n
    )


def _first_max(x) -> float:
    """``max`` of a nonempty float64 array as Python's ``max`` finds it: a
    leading NaN is kept, any later one is passed over."""
    import numpy as np

    return float(x[0]) if x[0] != x[0] else float(np.fmax.reduce(x))


def _unbounded_floats(x):
    """``_check_unbounded`` of a float64 array."""
    import numpy as np

    mid = len(x) // 2
    magnitudes = np.abs(x)
    if not _first_max(magnitudes) > _first_max(magnitudes[: mid + 1]):
        raise TraitViolated(
            f"unbounded declared but |values| set no new record after n={mid}",
            witness=len(x) - 1,
        )


def _limit_floats(x, limit: float):
    """``_check_limit`` of a float64 array and a float limit."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        devs = np.abs(x - limit)
    grows = devs[1:] > devs[:-1]
    if grows.any():
        n = int(np.argmax(grows)) + 1
        raise TraitViolated(
            f"limit {limit} declared but |value - limit| grows at n={n}",
            witness=n,
        )
    first, last, mid = float(devs[0]), float(devs[-1]), len(devs) // 2
    if last > 0.25 * first + 1e-12:
        raise TraitViolated(
            f"limit {limit} declared but |value - limit| only shrinks from "
            f"{first:.6g} to {last:.6g} over the horizon",
            witness=len(devs) - 1,
        )
    if last > 0.75 * float(devs[mid]) + 1e-12:
        raise TraitViolated(
            f"limit {limit} declared but |value - limit| levels off near "
            f"{last:.6g} after n={mid}",
            witness=len(devs) - 1,
        )


_LIST_CHECKS = (_check_monotone, _check_unbounded, _check_limit)
_FLOAT_CHECKS = (_monotone_floats, _unbounded_floats, _limit_floats)


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


def _render(values: tuple) -> str:
    """``",".join(map(_fmt, values))``; plain floats are rendered by one
    C-level map. Float subclasses such as ``numpy.float64`` take ``_fmt``,
    whose ``repr`` may differ from ``float.__repr__``."""
    if set(map(type, values)) == {float}:
        return ",".join(map(float.__repr__, values))
    return ",".join(map(_fmt, values))
