"""A decidable stand-in for a fixed nonprincipal ultrafilter on the naturals.

Membership questions "is this index set large?" are answered exactly on the
algebra of finite, cofinite and eventually periodic sets. The choice of
ultrafilter is encoded by a residue tower: one residue c_m per modulus m,
compatible in the sense that c_{m'} = c_m (mod m) whenever m divides m'.
An exact set with period P is accepted exactly when it contains the
residue class c_P (mod P) up to its finitely many exceptions, that is
when its cycle holds at c_P. Because all decisions come from a single
tower, the ultrafilter laws (complementarity, closure under supersets and
intersections, rejection of every finite set) hold unconditionally, even
after pinning.

Pins let the user steer toward a different ultrafilter. A pin names an
exact set and is a constraint on the tower: a residue modulo the lcm of
all pin periods is admissible when every pinned set's cycle reads the
pinned verdict there, the same read ``decide`` makes. An oracle is built
in one step: the constructor merges the tower, stores the pins and
selects the tower once, and ``pin`` builds a new oracle from the same
base plus one more pin. Construction raises ``InconsistentPin`` when no
residue is admissible, which is exactly the finite intersection property
check (the intersection of all required-in sets must be infinite). The
selected integer is the smallest admissible one, preferring integers
that agree with the configured base residues. It is found by a first-hit
scan: first over the integers that agree with the base residues, then,
only if none of those is admissible, over every residue below the lcm.
No list of admissible residues is kept, so memory does not grow with the
lcm; the time of the scan does when the first hit lies far out. Base
residues merge by the closed-form Chinese remainder theorem.

A sampled set is never pinned. It decides when it agrees with a pinned
set, or with that set's complement, on its own sampled window; that trust
boundary is the same one sampled sets carry everywhere else.

``select_from_partition`` intersects each pair of exact parts and tests
their union for cover before it decides each part.

The audit is a list of lines. An oracle given an ``audit`` list appends
one ``"CONTEXT: SET -> in|out"`` line to it for every decision, and
``decide`` is its only writer: kind, rank, owner and identity selection
(one line each, on the selected value's set), the pair by pair shorting
and identity decisions that remain for other data, and every other
question reach the audit by deciding, so the trail is the record of the
ultrafilter decisions a run made, one line each.

Concurrency: oracles are cheap immutable values. ``pin`` returns a new
oracle; configure first, then share freely between readers.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from itertools import chain, combinations
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    InconsistentPin,
    IncompatibleTower,
    InvariantBreach,
    NotAPartition,
    Undecidable,
)
from .indexsets import COFINITE, SAMPLED, IndexSet


class Membership(Enum):
    IN = "in"
    OUT = "out"

    def flipped(self) -> "Membership":
        return Membership.OUT if self is Membership.IN else Membership.IN


class Pin(NamedTuple):
    target: IndexSet
    verdict: Membership


def _crt_merge(mod_a: int, res_a: int, mod_b: int, res_b: int) -> tuple[int, int]:
    g = gcd(mod_a, mod_b)
    if (res_a - res_b) % g != 0:
        raise IncompatibleTower(
            f"residue {res_a} (mod {mod_a}) conflicts with {res_b} (mod {mod_b})"
        )
    m = lcm(mod_a, mod_b)
    # res_a + k * mod_a fits res_b exactly when (mod_a / g) * k is
    # (res_b - res_a) / g modulo mod_b / g, where mod_a / g is invertible.
    k = (res_b - res_a) // g * pow(mod_a // g, -1, mod_b // g) % (mod_b // g)
    return m, (res_a + k * mod_a) % m


class FilterOracle:
    """Decides index-set membership for one fixed nonprincipal ultrafilter."""

    def __init__(
        self,
        tower: Iterable[tuple[int, int]] = (),
        pins: Iterable[tuple[IndexSet, Membership]] = (),
        audit: list[str] | None = None,
    ):
        base_mod, base_res = 1, 0
        for modulus, residue in tower:
            if modulus < 1:
                raise IncompatibleTower(f"modulus {modulus} must be positive")
            base_mod, base_res = _crt_merge(base_mod, base_res, modulus, residue % modulus)
        self._base_mod, self._base_res = base_mod, base_res
        self._pins = tuple(Pin(target, verdict) for target, verdict in pins)
        if any(pin.target.kind == SAMPLED for pin in self._pins):
            raise ValueError("pins name exact index sets")
        self.audit = audit
        self._refresh()

    # -- configuration -------------------------------------------------------

    def pin(self, target: IndexSet, verdict: Membership) -> "FilterOracle":
        """Return a new oracle honoring the pin; raise InconsistentPin if the
        pin cannot coexist with the existing ones."""
        return FilterOracle(
            [(self._base_mod, self._base_res)],
            self._pins + (Pin(target, verdict),),
            self.audit,
        )

    def _refresh(self) -> None:
        """Select the tower: the first admissible integer that agrees with
        the base residues, else the first admissible one."""
        modulus = self._base_mod
        for pin in self._pins:
            modulus = lcm(modulus, len(pin.target.cycle))
        wanted = [(pin.target.cycle, pin.verdict is Membership.IN) for pin in self._pins]

        def admissible(r: int) -> bool:
            return all(cycle[r % len(cycle)] == inside for cycle, inside in wanted)

        candidates = chain(range(self._base_res, modulus, self._base_mod), range(modulus))
        selected = next(filter(admissible, candidates), None)
        if selected is None:
            raise InconsistentPin(
                "pins leave no admissible residue class; the required sets "
                "have a finite intersection"
            )
        self._modulus = modulus
        self._selected = selected

    # -- queries --------------------------------------------------------------

    def selected_residue(self, modulus: int) -> int:
        """The residue class the tower selects at the given modulus."""
        if modulus < 1:
            raise ValueError("modulus must be positive")
        return self._selected % modulus

    def _record(self, subject: IndexSet, verdict: Membership, context: str) -> None:
        # The one place an audit line is laid out. A build records tens of
        # thousands; a ``str`` is not tracked by the garbage collector.
        if self.audit is not None:
            self.audit.append(f"{context}: {subject.describe()} -> {verdict._value_}")

    def decide(self, subject: IndexSet, context: str = "decide") -> Membership:
        """Is the set a member of the chosen ultrafilter?

        Exact sets always decide, by Łoś's theorem at the selected index:
        a set is large exactly when its cycle holds there. Sampled sets
        decide only when they (or their complements) match a pin pointwise
        on their sampled window; otherwise ``Undecidable`` is raised.
        """
        if subject.kind == SAMPLED:
            verdict = self._match_sampled(subject)
            if verdict is None:
                raise Undecidable(
                    f"{context}: {subject.describe()} is sampled and matches "
                    "no pin; membership beyond the horizon is unknown"
                )
            self._record(subject, verdict, context)
            return verdict
        cycle = subject.cycle
        verdict = Membership.IN if cycle[self._selected % len(cycle)] else Membership.OUT
        self._record(subject, verdict, context)
        return verdict

    def _match_sampled(self, subject: IndexSet) -> Membership | None:
        comp = subject.complement()
        for pin in self._pins:
            if subject.window_agrees(pin.target, subject.horizon):
                return pin.verdict
            if comp.window_agrees(pin.target, subject.horizon):
                return pin.verdict.flipped()
        return None

    def select_from_partition(
        self, parts: Sequence[IndexSet], context: str = "partition"
    ) -> int:
        """Index of the unique part the ultrafilter accepts.

        Parts must be pairwise disjoint and must jointly cover all but
        finitely many indices. Each pair of exact parts is intersected, in
        list order, and the first pair that meets is named; then, when every
        part is exact, their union must be cofinite. So an overlap is
        reported before a gap. Sampled parts are left out of both checks.
        Each part is then decided, and exactly one must be accepted.
        """
        if not parts:
            raise NotAPartition("no parts given")
        exact = [p for p in parts if p.exact]
        for a, b in combinations(exact, 2):
            if not a.intersection(b).is_empty():
                raise NotAPartition(f"parts overlap: {a.describe()} and {b.describe()}")
        if len(exact) == len(parts) and reduce(IndexSet.union, parts).kind != COFINITE:
            raise NotAPartition("union of parts misses infinitely many indices")
        verdicts = [self.decide(p, context=context) for p in parts]
        winners = [i for i, v in enumerate(verdicts) if v is Membership.IN]
        if len(winners) != 1:
            raise InvariantBreach(
                f"partition selection found {len(winners)} accepted parts; "
                "the inputs cannot form a partition"
            )
        return winners[0]

    # -- rendering -------------------------------------------------------------

    def describe(self) -> str:
        bits = [f"tower={self._selected} (mod {self._modulus})"]
        for pin in self._pins:
            bits.append(f"pin {pin.verdict.value} {pin.target.describe()}")
        return "; ".join(bits)

    def __repr__(self):
        return f"FilterOracle({self.describe()})"

