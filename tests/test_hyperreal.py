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
from ultragraph.errors import (
    DivisionByZeroClass,
    NoCertificate,
    TraitViolated,
    Undecidable,
)
from ultragraph.sequences import MONOTONE, UNBOUNDED

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
frac_cycles = st.lists(fractions, min_size=1, max_size=5)


def hyper(pre, cycle, orc):
    return Hyperreal(periodic(pre, cycle), orc)


@pytest.fixture
def orc():
    return FilterOracle()


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
