"""Hyperreals and hypernaturals over the filter oracle.

Law tests run on eventually periodic descriptors with Fraction entries:
class equality is exact there, so associativity/distributivity are real
identities instead of floating-point accidents.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ultragraph import (
    FilterOracle,
    Hypernatural,
    Hyperreal,
    IndexSet,
    MagnitudeClass,
    Membership,
    constant,
    generated,
    hr_eq,
    named_generator,
    periodic,
)
from ultragraph import sequences
from ultragraph.errors import (
    BeyondHorizon,
    DivisionByZeroClass,
    NoCertificate,
    SolverFailure,
    TraitViolated,
    Undecidable,
)
from ultragraph.hyperreal import _combine, _relation_set
from ultragraph._periodic import joint_window
from ultragraph.sequences import MONOTONE, UNBOUNDED, value_at, values_window

from conftest import outcome

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
frac_cycles = st.lists(fractions, min_size=1, max_size=5)
small_ints_cycle = st.lists(st.integers(-3, 3), min_size=1, max_size=6)


def hyper(pre, cycle, orc):
    return Hyperreal(periodic(pre, cycle), orc)


@pytest.fixture
def orc():
    return FilterOracle()


@given(
    pre=st.lists(st.integers(0, 3), max_size=4),
    cycle=st.lists(st.integers(0, 3), min_size=1, max_size=6),
    modulus=st.integers(1, 12),
    residue=st.integers(0, 11),
)
def test_selected_value_matches_a_read_at_the_first_selected_index_past_the_preperiod(
    pre, cycle, modulus, residue
):
    pinned = FilterOracle().pin(IndexSet.residue_class(modulus, residue), Membership.IN)
    rep = periodic(pre, cycle)
    head, period = len(rep.pre), len(rep.cycle)
    n0 = head + ((pinned.selected_residue(period) - head) % period)
    assert Hyperreal(rep, pinned).selected_value() == value_at(rep, n0)
    assert Hypernatural(rep, pinned).value() == value_at(rep, n0)


def test_identical_constants_are_equal(orc):
    assert hr_eq(Hyperreal.lift(3.0, orc), Hyperreal.lift(3.0, orc))


def test_distinct_constants_are_not_equal(orc):
    assert not hr_eq(Hyperreal.lift(1.0, orc), Hyperreal.lift(2.0, orc))


def test_cycle_vs_constant_follows_the_selected_class(orc):
    x = hyper([], [1, 2], orc)
    one = Hyperreal.lift(1, orc)
    # default tower selects the even positions, where the cycle reads 1
    assert hr_eq(x, one)
    pinned = orc.pin(IndexSet.residue_class(2, 1), Membership.IN)
    assert not hr_eq(Hyperreal(x.rep, pinned), Hyperreal(one.rep, pinned))


def test_selected_value_is_the_class_representative(orc):
    assert hyper([], [7, 8, 9], orc).selected_value() == 7


def test_reciprocal_product_is_one_exactly_with_fractions(orc):
    a = Hyperreal(
        generated(lambda n: Fraction(1, n + 1), 512, key=("recip",)), orc
    )
    b = Hyperreal(generated(lambda n: Fraction(n + 1), 512, key=("succ",)), orc)
    prod = a * b
    values = [prod.rep.fn(n) for n in range(64)]
    assert all(v == 1 for v in values)


def test_additive_identity_and_small_products(orc):
    x = hyper([], [2, 5], orc)
    zero = Hyperreal.lift(0, orc)
    assert hr_eq(x + zero, x)
    assert hr_eq(Hyperreal.lift(2, orc) * Hyperreal.lift(3, orc), Hyperreal.lift(6, orc))


def test_division_by_zero_class_is_refused(orc):
    x = Hyperreal.lift(1.0, orc)
    with pytest.raises(DivisionByZeroClass):
        x / Hyperreal.lift(0.0, orc)


def test_division_by_cycle_with_selected_zero_is_refused(orc):
    x = Hyperreal.lift(1, orc)
    zero_on_evens = hyper([], [0, 1], orc)
    with pytest.raises(DivisionByZeroClass):
        x / zero_on_evens
    # zero only on the *unselected* class divides fine
    quotient = x / hyper([], [1, 0], orc)
    assert quotient.selected_value() == 1


def test_generated_divisor_with_any_zero_sample_is_refused(orc):
    x = Hyperreal.lift(1.0, orc)
    dips = Hyperreal(generated(lambda n: float(n - 7), 64), orc)
    with pytest.raises(DivisionByZeroClass):
        x / dips


@pytest.mark.parametrize(
    "zero_at, raise_at, raised, at",
    [
        (3, 5, DivisionByZeroClass, 3),
        (5, 3, LookupError, 3),
        (None, 3, LookupError, 3),
        (3, 3, LookupError, 3),
        (7, None, DivisionByZeroClass, 7),
    ],
)
def test_a_generated_divisor_fails_at_its_first_zero_or_raising_index(orc, zero_at, raise_at, raised, at):
    def rule(n):
        if n == raise_at:
            raise LookupError(f"no value at n={n}")
        return 0.0 if n == zero_at else 1.0 + n

    with pytest.raises(raised, match=f"n={at}"):
        Hyperreal.lift(1.0, orc) / Hyperreal(generated(rule, 64), orc)


def test_classify_certified_decay_is_infinitesimal(orc):
    x = Hyperreal(
        generated(lambda n: 1 / (n + 1), 512, traits=(MONOTONE,), limit=0.0), orc
    )
    assert x.classify() is MagnitudeClass.INFINITESIMAL
    assert x.standard_part() == 0.0


def test_classify_constant_is_finite_with_exact_standard_part(orc):
    x = Hyperreal.lift(7.0, orc)
    assert x.classify() is MagnitudeClass.FINITE
    assert x.standard_part() == 7.0


def test_classify_certified_growth_is_infinite(orc):
    x = Hyperreal(named_generator("identity", (), 512), orc)
    assert x.classify() is MagnitudeClass.INFINITE


def test_classify_uncertified_is_unknown(orc):
    x = Hyperreal(generated(lambda n: (-1) ** n, 64), orc)
    assert x.classify() is MagnitudeClass.UNKNOWN
    with pytest.raises(NoCertificate):
        x.standard_part()


def test_certify_spot_checks_before_attaching(orc):
    x = Hyperreal(generated(lambda n: 1 + 1 / (n + 1), 128), orc)
    certified = x.certify(limit=1.0, monotone=True)
    assert certified.standard_part() == 1.0
    with pytest.raises(TraitViolated):
        x.certify(limit=0.0, monotone=True)


def test_certify_rejects_a_gap_that_levels_off(orc):
    # |x| falls from 6 to about 1.0025: below a quarter of where it started,
    # yet the limit is 1, not 0
    x = Hyperreal(generated(lambda n: 1 + 5 / (n + 1), 2000), orc)
    with pytest.raises(TraitViolated, match="levels off"):
        x.certify(limit=0.0, monotone=True)
    assert x.certify(limit=1.0, monotone=True).standard_part() == 1.0


# -- one certificate per number ----------------------------------------------------------


@pytest.fixture
def trait_checks(monkeypatch):
    """The descriptors ``sequences.trait_check`` is called on, in order."""
    calls = []
    check = sequences.trait_check

    def counted(seq):
        calls.append(seq)
        return check(seq)

    monkeypatch.setattr(sequences, "trait_check", counted)
    return calls


def test_a_declared_number_is_checked_once(orc, trait_checks):
    x = Hyperreal(generated(lambda n: 1 / (n + 1), 512, traits=(MONOTONE,), limit=0.0), orc)
    assert x.classify() is MagnitudeClass.INFINITESIMAL
    assert x.standard_part() == 0.0
    assert x.describe().endswith(":: infinitesimal, st=0.0")
    assert trait_checks == [x.rep]


def test_a_certified_number_carries_the_check_certify_made(orc, trait_checks):
    x = Hyperreal(generated(lambda n: 1 + 1 / (n + 1), 512), orc)
    certified = x.certify(limit=1.0, monotone=True)
    assert trait_checks == [certified.rep]
    assert certified.describe().endswith(":: finite, st=1.0")
    assert trait_checks == [certified.rep]


def test_a_false_limit_is_one_violation_raised_each_time(orc, trait_checks):
    x = Hyperreal(generated(lambda n: 1 + 1 / (n + 1), 512, traits=(MONOTONE,), limit=0.0), orc)
    assert x.classify() is MagnitudeClass.UNKNOWN
    with pytest.raises(TraitViolated) as first:
        x.standard_part()
    with pytest.raises(TraitViolated) as again:
        x.describe()
    assert again.value is first.value
    assert len(trait_checks) == 1


def test_a_failing_window_read_is_met_by_every_call(orc, trait_checks):
    def rule(n):
        if n == 40:
            raise SolverFailure("no solution", index=n)
        return 1 / (n + 1)

    x = Hyperreal(generated(rule, 512, traits=(MONOTONE,), limit=0.0), orc)
    for call in (x.classify, x.standard_part, x.describe) * 2:
        with pytest.raises(SolverFailure, match="n=40"):
            call()
    # nothing is kept, so every call reads the window again
    assert len(trait_checks) == 6


def test_describe_renders_class_and_standard_part(orc):
    x = Hyperreal.lift(5.0, orc)
    assert "finite" in x.describe() and "st=5.0" in x.describe()


def test_comparison_uses_the_selected_class(orc):
    small = hyper([], [0, 100], orc)
    big = hyper([], [1, -100], orc)
    assert small.lt(big)
    assert not big.lt(small)


# -- field laws on the eventually periodic fragment ----------------------------


@given(frac_cycles, frac_cycles)
def test_addition_and_multiplication_commute(xs, ys):
    orc = FilterOracle()
    x, y = hyper([], xs, orc), hyper([], ys, orc)
    assert hr_eq(x + y, y + x)
    assert hr_eq(x * y, y * x)


@given(frac_cycles, frac_cycles, frac_cycles)
def test_associativity_and_distributivity(xs, ys, zs):
    orc = FilterOracle()
    x, y, z = (hyper([], c, orc) for c in (xs, ys, zs))
    assert hr_eq((x + y) + z, x + (y + z))
    assert hr_eq((x * y) * z, x * (y * z))
    assert hr_eq(x * (y + z), x * y + x * z)


@given(frac_cycles, frac_cycles, frac_cycles)
def test_arithmetic_is_representative_independent(xs, ys, zs):
    orc = FilterOracle()
    x = hyper([], xs, orc)
    # same class, different spelling: doubled cycle plus a harmless preperiod
    x_alias = hyper(list(xs), list(xs) * 2, orc)
    y = hyper([], ys, orc)
    assert hr_eq(x, x_alias)
    assert hr_eq(x + y, x_alias + y)
    assert hr_eq(x * y, x_alias * y)


@given(fractions, fractions)
def test_lifting_constants_is_a_homomorphism(a, b):
    orc = FilterOracle()
    lift = lambda v: Hyperreal.lift(v, orc)
    assert hr_eq(lift(a) + lift(b), lift(a + b))
    assert hr_eq(lift(a) * lift(b), lift(a * b))
    assert hr_eq(lift(a), lift(b)) == (a == b)
    if a < b:
        assert lift(a).lt(lift(b))


@given(frac_cycles, frac_cycles, frac_cycles)
def test_hr_eq_is_an_equivalence(xs, ys, zs):
    orc = FilterOracle()
    u = [hyper([], c, orc) for c in (xs, ys, zs)]
    for x in u:
        assert hr_eq(x, x)
    for x in u:
        for y in u:
            assert hr_eq(x, y) == hr_eq(y, x)
            for z in u:
                if hr_eq(x, y) and hr_eq(y, z):
                    assert hr_eq(x, z)


# -- hypernaturals -------------------------------------------------------------


def test_constant_hypernatural_is_standard(orc):
    h = Hypernatural(constant(3), orc)
    assert h.is_standard()
    assert h.value() == 3


def test_growing_hypernatural_is_nonstandard(orc):
    h = Hypernatural(named_generator("identity", (), 4096), orc)
    assert not h.is_standard()
    assert "nonstandard" in h.describe()


def test_uncertified_hypernatural_is_undecidable(orc):
    h = Hypernatural(generated(lambda n: (n * 7919) % 1000, 64), orc)
    with pytest.raises(Undecidable):
        h.is_standard()
    assert "undecided" in h.describe()


def test_hypernatural_rejects_negative_entries(orc):
    with pytest.raises(ValueError):
        Hypernatural(constant(-2), orc)


# -- operand readers and relation sets by columns ---------------------------------------


@given(
    xs=st.lists(st.integers(-3, 3), max_size=3),
    ys=small_ints_cycle,
    us=st.lists(st.integers(-3, 3), max_size=3),
    vs=small_ints_cycle,
)
def test_relation_sets_match_per_index_evaluation(xs, ys, us, vs):
    a, b = periodic(xs, ys), periodic(us, vs)
    head, period = joint_window([a, b])
    bits = [value_at(a, n) < value_at(b, n) for n in range(head + period)]
    want = IndexSet.eventually_periodic(bits[:head], bits[head:])
    assert _relation_set(a, b, lambda x, y: x < y) == want


def test_relation_set_stops_where_its_relation_raises():
    a, b = periodic([1], [2, 3]), periodic([], [5, 7, 11])
    calls = []

    def rel(x, y):
        calls.append((x, y))
        if len(calls) == 4:
            raise ArithmeticError("refused")
        return x < y

    with pytest.raises(ArithmeticError):
        _relation_set(a, b, rel)
    assert calls == [(value_at(a, n), value_at(b, n)) for n in range(4)]


def test_combined_numbers_keep_their_horizons(orc):
    short = Hyperreal(generated(lambda n: n + 1.0, 10), orc)
    long = Hyperreal(generated(lambda n: 2.0 * n, 20), orc)
    cyc = Hyperreal(periodic([7.0], [1.0, 2.0]), orc)
    for combined in (short + cyc, cyc * short, short - long, (short + long) * cyc):
        assert combined.rep.n_max == 10
        with pytest.raises(BeyondHorizon):
            value_at(combined.rep, 11)
        with pytest.raises(ValueError):
            value_at(combined.rep, -1)
    # the combined rule itself still refuses to read an operand past its horizon
    with pytest.raises(BeyondHorizon, match="beyond horizon 10"):
        (short + long).rep.fn(15)
    sums = short + cyc
    assert [value_at(sums.rep, n) for n in range(11)] == [
        value_at(short.rep, n) + value_at(cyc.rep, n) for n in range(11)
    ]


# -- combined rules filled from their operands' windows ---------------------------------------


def operand(kind, name, n_max, raise_at, huge_at):
    """A periodic descriptor, or a rule read index by index ("plain") or with
    a ``fill`` ("filled") that raises at ``raise_at`` and gives an int too
    large for a float at ``huge_at``."""
    if kind == "periodic":
        return periodic([7.0], [1.0, 2.0, -3.0])

    def value(n):
        if n == raise_at:
            raise LookupError(f"{name}: no value at n={n}")
        return 10**400 if n == huge_at else 0.5 * n - 3.0

    def rule(n):
        return value(n)

    if kind == "filled":

        def fill(start, stop):
            values = []
            for n in range(start, stop):
                if n == raise_at:
                    break
                values.append(value(n))
            return values

        rule.fill = fill
    return generated(rule, n_max)


def per_index_window(seq, upto):
    """``values_window`` computed with ``value_at``, one index at a time."""
    return [value_at(seq, n) for n in range(upto + 1)]


maybe_index = st.one_of(st.none(), st.integers(0, 18))


@given(
    kinds=st.tuples(*[st.sampled_from(["periodic", "plain", "filled"])] * 2),
    raise_at=st.tuples(maybe_index, maybe_index),
    huge_at=maybe_index,
    op=st.sampled_from("+-*/"),
    nested=st.booleans(),
    uptos=st.lists(st.integers(0, 20), min_size=1, max_size=3),
)
def test_a_combined_window_reads_as_the_rule_index_by_index(kinds, raise_at, huge_at, op, nested, uptos):
    if kinds == ("periodic", "periodic"):
        kinds = ("periodic", "filled")
    a = operand(kinds[0], "a", 18, raise_at[0], huge_at)
    b = operand(kinds[1], "b", 15, raise_at[1], None)
    combined = _combine(a, b, op)
    if nested:
        combined = _combine(periodic([], [2.0, 0.5]), combined, "*")
    for upto in uptos:
        # same values, or the same exception (a's first where both fail) at the same index
        got = outcome(lambda: values_window(combined, upto))
        assert got == outcome(lambda: per_index_window(combined, upto))
