"""Sequence descriptors: values, canonical forms, agreement, traits."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ultragraph import (
    FilterOracle,
    GeneratedSeq,
    Hyperreal,
    PeriodicSeq,
    agreement_set,
    constant,
    generated,
    named_generator,
    periodic,
    trait_check,
)
from ultragraph.cli import _advisory_class
from ultragraph.errors import BeyondHorizon, TraitViolated
from ultragraph.sequences import (
    MONOTONE,
    UNBOUNDED,
    agreement_set as agree,
    form_key,
    horizon,
    pointwise,
    structural_window,
    value_at,
    values_window,
)

small_cycles = st.lists(st.integers(-3, 3), min_size=1, max_size=6)
small_pres = st.lists(st.integers(-3, 3), max_size=4)


def test_constant_value_everywhere():
    s = constant("a")
    assert value_at(s, 0) == "a"
    assert value_at(s, 17) == "a"


def test_preperiod_then_cycle():
    s = periodic(["x"], ["a", "b"])
    # unrolls x, a, b, a, b, ...
    assert [value_at(s, n) for n in range(5)] == ["x", "a", "b", "a", "b"]
    assert value_at(s, 2) == "b"


def test_generated_evaluates_directly():
    s = generated(lambda n: n * n, 100)
    assert value_at(s, 7) == 49


def test_generated_refuses_past_horizon():
    s = generated(lambda n: n, 100)
    with pytest.raises(BeyondHorizon):
        value_at(s, 101)
    assert horizon(s) == 100
    assert horizon(constant(1)) == float("inf")


@given(small_pres, small_cycles)
def test_canonicalization_is_idempotent(pre, cycle):
    once = PeriodicSeq.make(pre, cycle)
    twice = PeriodicSeq.make(once.pre, once.cycle)
    assert once == twice
    assert (once.pre, once.cycle) == (twice.pre, twice.cycle)


@given(small_pres, small_cycles, st.integers(1, 3), st.integers(0, 3))
def test_equal_unrollings_compare_equal(pre, cycle, reps, shift):
    base = PeriodicSeq.make(pre, cycle)
    # same values, clumsier spelling: repeat the cycle and push some of it
    # into the preperiod
    unrolled = list(pre) + list(cycle) * reps
    head = unrolled[: len(pre) + shift]
    rest = (list(cycle) * reps)[shift:] or list(cycle)
    clumsy = PeriodicSeq.make(head, (rest * ((len(cycle) // max(len(rest), 1)) + 1))[: len(cycle) * reps] or cycle)
    window = 40
    if [value_at(base, n) for n in range(window)] == [
        value_at(clumsy, n) for n in range(window)
    ] and len(clumsy.pre) + len(clumsy.cycle) <= window // 2:
        assert base == clumsy


def test_agreement_with_itself_is_naturals():
    s = periodic([1], [2, 3])
    assert agree(s, s).is_naturals()


def test_agreement_constant_vs_cycle_is_evens_like():
    a = constant(1)
    b = periodic([], [1, 2])
    got = agree(a, b)
    assert [got.contains(n) for n in range(6)] == [True, False] * 3
    assert agree(b, a) == got


def test_agreement_generated_vs_constant_is_sampled():
    a = generated(lambda n: n, 64)
    b = constant(5)
    got = agree(a, b)
    assert got.kind == "sampled"
    assert [n for n in range(64) if got.contains(n)] == [5]


def test_agreement_equal_generator_keys_is_naturals():
    a = named_generator("affine", (2, 1), 100)
    b = named_generator("affine", (2, 1), 100)
    assert agree(a, b).is_naturals()


@given(small_pres, small_cycles, small_pres, small_cycles, small_pres, small_cycles)
def test_transitivity_inclusion_pointwise(p1, c1, p2, c2, p3, c3):
    a, b, c = periodic(p1, c1), periodic(p2, c2), periodic(p3, c3)
    nab, nbc, nac = agree(a, b), agree(b, c), agree(a, c)
    for n in range(64):
        if nab.contains(n) and nbc.contains(n):
            assert nac.contains(n)


def test_trait_check_passes_identity():
    s = named_generator("identity", (), 1000)
    assert trait_check(s).ok


def test_trait_check_reports_finite_value_pool():
    rep = trait_check(periodic([], [1, 2]))
    assert rep.ok
    assert any("finitely many values" in note and "{1, 2}" in note for note in rep.notes)


def test_trait_check_catches_bounded_pretender():
    s = generated(lambda n: 5, 100, traits=(UNBOUNDED,))
    with pytest.raises(TraitViolated):
        trait_check(s)


def test_trait_check_catches_direction_change():
    s = generated(lambda n: (-1) ** n, 100, traits=(MONOTONE,))
    with pytest.raises(TraitViolated):
        trait_check(s)


def test_trait_check_limit_deviations_must_shrink():
    good = generated(lambda n: 1 / (n + 1), 200, traits=(MONOTONE,), limit=0.0)
    assert trait_check(good).ok
    bad = generated(lambda n: n % 7, 200, limit=0.0)
    with pytest.raises(TraitViolated):
        trait_check(bad)


def test_pointwise_combines_periodic_descriptors_exactly():
    a = periodic([9], [1, 2])
    b = periodic([], [10, 20, 30])
    got = pointwise([a, b], lambda x, y: x + y)
    assert isinstance(got, PeriodicSeq)
    for n in range(30):
        assert value_at(got, n) == value_at(a, n) + value_at(b, n)


def test_structural_window_covers_pre_and_lcm():
    a = periodic([9], [1, 2])
    b = periodic([], [10, 20, 30])
    head, period = structural_window(a, b)
    assert head >= 1 and period % 6 == 0


def test_values_window():
    assert values_window(periodic([], [1, 2]), 4) == [1, 2, 1, 2, 1]
    s = generated(lambda n: n * n, 10)
    assert values_window(s, 4) == [0, 1, 4, 9, 16]
    with pytest.raises(BeyondHorizon):
        values_window(s, 11)
    # a builtin cannot be weakly referenced, so its values are not kept
    assert values_window(generated(abs, 3), 3) == [0, 1, 2, 3]


def test_a_generated_rule_is_evaluated_once_per_index():
    calls = Counter()

    def rule(n):
        calls[n] += 1
        return 1.0 / (n + 2)

    x = _advisory_class(Hyperreal(generated(rule, 300), FilterOracle()))
    assert x.describe().endswith(":: infinitesimal, st=0.0")
    assert set(calls) == set(range(301))
    assert max(calls.values()) == 1


def test_a_raising_rule_raises_again_and_keeps_nothing_for_that_index():
    calls = Counter()

    def rule(n):
        calls[n] += 1
        if n == 7:
            raise ZeroDivisionError(f"no value at n={n}")
        return 1.0 / (n + 2)

    x = Hyperreal(generated(rule, 300), FilterOracle())
    raised = []
    for _ in range(2):
        with pytest.raises(ZeroDivisionError) as info:
            _advisory_class(x)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == (ZeroDivisionError, "no value at n=7")
    assert calls == Counter({**dict.fromkeys(range(7), 1), 7: 2})


def test_named_generator_registry():
    assert isinstance(named_generator("const", (4,), 10), PeriodicSeq)
    aff = named_generator("affine", (2, 3), 10)
    assert [value_at(aff, n) for n in range(3)] == [3, 5, 7]
    assert named_generator("affine", (0, 3), 10) == constant(3)
    mod = named_generator("mod", (3,), 10)
    assert isinstance(mod, GeneratedSeq)
    assert [value_at(mod, n) for n in range(5)] == [0, 1, 2, 0, 1]
    with pytest.raises(ValueError):
        named_generator("nope", (), 10)


def test_generated_equality_is_by_key():
    a = named_generator("affine", (1, 1), 100)
    b = named_generator("affine", (1, 1), 200)
    c = named_generator("affine", (1, 2), 100)
    anon = generated(lambda n: n + 1, 100)
    assert a == b
    assert a != c
    assert anon != a and anon == anon


def test_form_key_distinguishes_forms():
    assert form_key(periodic([], [1]))[0] == "ep"
    assert form_key(named_generator("mod", (2,), 8)) == ("mod", 2)
    assert form_key(generated(lambda n: n, 8)) is None
