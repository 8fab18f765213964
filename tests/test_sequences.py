"""Sequence descriptors: values, canonical forms, agreement, traits."""

import math
import subprocess
import sys
from collections import Counter
from unittest import mock

import numpy as np
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
from ultragraph._periodic import minimize
from ultragraph import sequences
from ultragraph.errors import BeyondHorizon, TraitViolated
from ultragraph.sequences import (
    MONOTONE,
    TRAITS,
    UNBOUNDED,
    _check_limit,
    _check_monotone,
    _check_unbounded,
    _limit_floats,
    _monotone_floats,
    _unbounded_floats,
    _fmt,
    agreement_set as agree,
    form_key,
    horizon,
    pointwise,
    span,
    value_at,
    values_window,
)
from ultragraph._periodic import Unrolled, joint_window

from conftest import outcome

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


@pytest.mark.parametrize(
    "vals, witness",
    [([1.0, math.nan, 2.0], 1), ([3.0, 2.0, math.nan], 2), ([0.0, 0.0, 1.0, math.nan, 1.0], 3)],
)
def test_a_nan_in_a_monotone_window_is_a_violation(vals, witness):
    s = generated(vals.__getitem__, len(vals) - 1, traits={MONOTONE})
    with pytest.raises(TraitViolated) as err:
        trait_check(s)
    assert err.value.witness == witness
    assert f"values at n={witness - 1} and n={witness} are unordered" in str(err.value)


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
    head, period = joint_window([a, b])
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


# -- column reads by whole cycles ------------------------------------------------------


def per_index_pointwise(seqs, fn):
    """The per-index ``pointwise`` that columns replaced, kept as its reference."""
    head, period = joint_window(seqs)
    values = [fn(*(value_at(s, n) for s in seqs)) for n in range(head + period)]
    return PeriodicSeq.make(values[:head], values[head:])


@given(
    parts=st.lists(st.tuples(small_pres, small_cycles), min_size=1, max_size=3),
    raise_at=st.one_of(st.none(), st.integers(0, 30)),
)
def test_pointwise_by_columns_matches_per_index_evaluation(parts, raise_at):
    seqs = [periodic(pre, cycle) for pre, cycle in parts]

    def traced(calls):
        def fn(*args):
            if len(calls) == raise_at:
                raise ArithmeticError(f"fn refuses call {len(calls)}")
            calls.append(args)
            return sum(args) * len(calls) % 5

        return fn

    got_calls, want_calls = [], []
    try:
        got = pointwise(seqs, traced(got_calls))
    except ArithmeticError as exc:
        got = str(exc)
    try:
        want = per_index_pointwise(seqs, traced(want_calls))
    except ArithmeticError as exc:
        want = str(exc)
    # same result, or the same refusal after the same calls in the same order
    assert got == want and got_calls == want_calls


@given(pre=small_pres, cycle=small_cycles, start=st.integers(0, 40), length=st.integers(-2, 40))
def test_values_window_and_span_match_value_at(pre, cycle, start, length):
    seq = periodic(pre, cycle)
    assert values_window(seq, length) == [value_at(seq, n) for n in range(length + 1)]
    assert Unrolled(seq.pre, seq.cycle).span(start, start + length) == [
        value_at(seq, n) for n in range(start, start + length)
    ]


# -- windows grown through a rule's fill ------------------------------------------------


def rule_pair(raise_at):
    """The same rule twice: read index by index, and with a ``fill`` that
    follows the contract. Returns (plain, filled, indices the fill read)."""

    def value(n):
        if n == raise_at:
            raise LookupError(f"no value at n={n}")
        return (-1) ** n * 2.0 / (n + 1)

    def plain(n):
        return value(n)

    def filled(n):
        return value(n)

    fill_reads = []

    def fill(start, stop):
        values = []
        for n in range(start, stop):
            if n == raise_at:
                break
            fill_reads.append(n)
            values.append(value(n))
        return values

    filled.fill = fill
    return plain, filled, fill_reads


@given(
    n_max=st.integers(1, 40),
    raise_at=st.one_of(st.none(), st.integers(0, 45)),
    reads=st.lists(st.tuples(st.integers(0, 45), st.integers(0, 50)), min_size=1, max_size=5),
)
def test_a_filled_window_reads_as_the_rule_index_by_index(n_max, raise_at, reads):
    plain, filled, fill_reads = rule_pair(raise_at)
    per_index, blocky = generated(plain, n_max), generated(filled, n_max)
    for start, stop in reads:
        for call in (
            lambda s: values_window(s, start),
            lambda s: span(s, start, stop),
        ):
            # same values, or the same exception naming the same index
            assert outcome(lambda: call(blocky)) == outcome(lambda: call(per_index))
    want = []
    for n in range(n_max + 1):
        try:
            want.append(plain(n))
        except LookupError:
            break
    for start, stop in reads:
        assert span(blocky, start, stop) == want[start:stop]
    # the fill was never asked for an index past the horizon or one that raises
    assert all(n <= n_max and n != raise_at for n in fill_reads)
    assert len(fill_reads) == len(set(fill_reads))


def test_a_short_fill_leaves_the_raising_index_to_the_rule():
    calls = Counter()

    def rule(n):
        calls[n] += 1
        if n == 5:
            raise ZeroDivisionError("no value at n=5")
        return float(n)

    rule.fill = lambda start, stop: [float(n) for n in range(start, min(stop, 5))]
    seq = generated(rule, 20)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError, match="n=5"):
            values_window(seq, 20)
    # the rule itself was called only at the raising index, once per read
    assert calls == Counter({5: 2})
    assert span(seq, 3, 9) == [3.0, 4.0]


# -- one pointwise for periodic and generated descriptors --------------------------------


def combine_rule(a, b, fn):
    """The rule ``hyperreal._combine`` wrote by hand for two descriptors
    before it became ``pointwise``, kept as a reference."""

    def rule(n):
        return fn(value_at(a, n), value_at(b, n))

    return rule


def reference_rule(seqs, fn):
    """fn of the descriptors' values at n, read in order: ``combine_rule``
    for two descriptors."""
    if len(seqs) == 2:
        return combine_rule(*seqs, fn)
    return lambda n: fn(*[value_at(s, n) for s in seqs])


@st.composite
def operand_specs(draw):
    kind = draw(st.sampled_from(["periodic", "plain", "filled"]))
    if kind == "periodic":
        return kind, draw(small_pres), draw(small_cycles)
    return kind, draw(st.integers(3, 14)), draw(st.one_of(st.none(), st.integers(0, 9)))


def traced_operand(k, spec, evaluated):
    """The descriptor ``spec`` draws: periodic, or a generated rule read
    index by index ("plain") or with a ``fill`` ("filled") that raises
    ``LookupError`` at its drawn index. Each value a rule computes is
    logged in ``evaluated`` as (k, n)."""
    kind, a, b = spec
    if kind == "periodic":
        return periodic(a, b)
    n_max, raise_at = a, b

    def value(n):
        if n == raise_at:
            raise LookupError(f"x{k}: no value at n={n}")
        evaluated.append((k, n))
        return n * (k + 2) % 7 - 3

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


@given(
    specs=st.lists(operand_specs(), min_size=1, max_size=3),
    bad=st.one_of(st.none(), st.integers(-9, 9)),
    uptos=st.lists(st.integers(0, 16), min_size=1, max_size=3),
)
def test_pointwise_reads_as_its_reference_rule_index_by_index(specs, bad, uptos):
    def fn(*xs):
        return sum(xs) * len(xs) if bad is None else 12 // (sum(xs) - bad)

    evaluated = []
    seqs = [traced_operand(k, spec, evaluated) for k, spec in enumerate(specs)]
    want = reference_rule([traced_operand(k, spec, []) for k, spec in enumerate(specs)], fn)
    n_max = min(map(horizon, seqs))
    if n_max == math.inf:
        # all periodic: fn runs over the joint window when the result is made
        head, period = joint_window(seqs)
        got = outcome(lambda: pointwise(seqs, fn))
        expected = outcome(lambda: [want(n) for n in range(head + period)])
        assert isinstance(got, PeriodicSeq) == isinstance(expected, list)
        if isinstance(got, PeriodicSeq):
            assert values_window(got, head + period - 1) == expected
        else:
            assert got == expected
        return
    combined = pointwise(seqs, fn)
    assert isinstance(combined, GeneratedSeq) and combined.n_max == n_max
    assert (combined.key, combined.label) == (None, None)

    def reference_window(upto):
        values = []
        for n in range(upto + 1):
            if n > n_max:
                raise BeyondHorizon(f"generated sequence evaluated at n={n} beyond horizon {n_max}")
            values.append(want(n))
        return values

    for upto in uptos:
        # the same values, or the first failing operand's (or fn's) exception
        assert outcome(lambda: values_window(combined, upto)) == outcome(lambda: reference_window(upto))
    first_failure = next(
        (n for n in range(n_max + 1) if isinstance(outcome(lambda: want(n)), tuple)), n_max + 1
    )
    # the fill, asked past the horizon, stops at the first failing index
    assert combined.fn.fill(0, n_max + 10) == reference_window(first_failure - 1)
    # no operand is read past the horizon, nor evaluated twice below the
    # first failing index
    assert all(n <= n_max for _, n in evaluated)
    assert max(Counter(e for e in evaluated if e[1] < first_failure).values(), default=1) == 1
    # an operand is read only as far as the operands before it went
    for k, (kind, _, raise_at) in enumerate(specs):
        if kind != "periodic" and raise_at is not None:
            assert all(n < raise_at for j, n in evaluated if j > k)


# -- trait checks and canonical forms against the per-value code they replaced ------------


def reference_minimize(pre, cycle):
    if not cycle:
        raise ValueError("cycle must be nonempty")
    p = len(cycle)
    cyc = list(cycle)
    for d in range(1, p + 1):
        if p % d == 0 and list(cycle) == list(cycle[:d]) * (p // d):
            cyc = list(cycle[:d])
            break
    head = list(pre)
    while head and head[-1] == cyc[-1]:
        head.pop()
        cyc.insert(0, cyc.pop())
    return tuple(head), tuple(cyc)


def reference_check_monotone(vals):
    up = all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))
    down = all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
    if not (up or down):
        steps = range(len(vals) - 1)
        rises = [i for i in steps if vals[i] < vals[i + 1]]
        falls = [i for i in steps if vals[i] > vals[i + 1]]
        if not rises or not falls:
            n = next(
                i + 1 for i in steps if not (vals[i] <= vals[i + 1] or vals[i] >= vals[i + 1])
            )
            raise TraitViolated(
                f"monotone declared but the values at n={n - 1} and n={n} are unordered",
                witness=n,
            )
        n = max(min(rises[0], falls[0]), 1)
        raise TraitViolated(
            f"monotone declared but values change direction near n={n}", witness=n
        )


def reference_check_unbounded(vals):
    mid = len(vals) // 2
    early = max(abs(v) for v in vals[: mid + 1])
    late = max(abs(v) for v in vals)
    if not late > early:
        raise TraitViolated(
            f"unbounded declared but |values| set no new record after n={mid}",
            witness=len(vals) - 1,
        )


def reference_check_limit(vals, limit):
    devs = [abs(v - limit) for v in vals]
    for i in range(len(devs) - 1):
        if devs[i + 1] > devs[i]:
            raise TraitViolated(
                f"limit {limit} declared but |value - limit| grows at n={i + 1}",
                witness=i + 1,
            )
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


def check_outcome(check, *args):
    """None, or the type, text and witness of what the check raises."""
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - compared as data
        return type(exc), str(exc), getattr(exc, "witness", None)
    return None


NAN_A, NAN_B = float("nan"), float("nan")  # distinct objects, equal to nothing
# identity-sensitive, infinite, and mixed 1 / 1.0 / True values
odd_values = st.sampled_from(
    [NAN_A, NAN_B, math.inf, -math.inf, 1, 1.0, True, 0, 0.0, False, -0.0, 2.5, -3]
)
odd_lists = st.lists(odd_values, max_size=12)
monotone_ish = st.lists(st.floats(-4, 4, allow_nan=False), max_size=12).map(sorted)


@given(st.one_of(odd_lists, monotone_ish, monotone_ish.map(lambda v: v[::-1])))
def test_monotone_and_unbounded_checks_match_the_per_value_code(vals):
    assert check_outcome(_check_monotone, vals) == check_outcome(reference_check_monotone, vals)
    assert check_outcome(_check_unbounded, vals) == check_outcome(reference_check_unbounded, vals)


@given(
    vals=st.one_of(odd_lists, monotone_ish.map(lambda v: v[::-1])),
    limit=st.one_of(odd_values, st.floats(-4, 4)),
)
def test_the_limit_check_matches_the_per_value_code(vals, limit):
    assert check_outcome(_check_limit, vals, limit) == check_outcome(
        reference_check_limit, vals, limit
    )


def same_objects(got, want):
    return len(got) == len(want) and all(x is y for x, y in zip(got, want))


@given(
    pre=st.lists(odd_values, max_size=4),
    base=st.lists(odd_values, min_size=1, max_size=4),
    reps=st.integers(1, 6),
    change=st.one_of(st.none(), st.tuples(st.integers(0, 23), odd_values)),
)
def test_minimize_matches_the_per_divisor_lists(pre, base, reps, change):
    cycle = base * reps
    if change is not None:
        k, value = change
        cycle[k % len(cycle)] = value
    for form in (tuple, list):
        got, want = minimize(form(pre), form(cycle)), reference_minimize(form(pre), form(cycle))
        assert same_objects(got[0], want[0]) and same_objects(got[1], want[1])


@given(
    st.lists(
        st.sampled_from([0.1, -2.0, 1e300, math.inf, NAN_A, 3, True, "ohm", np.float64(0.1), np.float64(2.0)]),
        min_size=1,
        max_size=8,
    )
)
def test_rendered_cycles_match_fmt_per_value(values):
    seq = PeriodicSeq((), tuple(values))
    assert seq.describe() == "cycle=[%s]" % ",".join(_fmt(v) for v in values)
    assert PeriodicSeq(tuple(values), (0.5,)).describe().startswith(
        "pre=[%s] " % ",".join(_fmt(v) for v in values)
    )


# -- float64 trait checks against the list checks -----------------------------------


# NaN objects, infinities, signed zeros, subnormals, huge values and ties
special_floats = st.sampled_from(
    [NAN_A, NAN_B, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, -1e308, 1.0, 1.0, 2.5, -3.0]
)
float_values = st.one_of(special_floats, st.floats())
float_lists = st.lists(float_values, min_size=1, max_size=12)
float_windows = st.one_of(
    float_lists,
    float_lists.map(sorted),
    float_lists.map(lambda v: sorted(v, reverse=True)),
    # nonincreasing deviations from 0.0, so the decay tests are reached
    float_lists.map(lambda v: sorted(v, key=abs, reverse=True)),
)
float_limits = st.one_of(float_values, st.sampled_from([0, 1, -2]))


@given(vals=float_windows, limit=float_values)
def test_float64_checks_match_the_list_checks(vals, limit):
    x = np.array(vals)
    assert check_outcome(_monotone_floats, x) == check_outcome(_check_monotone, vals)
    assert check_outcome(_unbounded_floats, x) == check_outcome(_check_unbounded, vals)
    assert check_outcome(_limit_floats, x, limit) == check_outcome(_check_limit, vals, limit)


def trait_outcome(vals, traits, limit):
    """The report's notes, or the type, text and witness of the violation,
    of ``trait_check`` on a fresh rule giving ``vals``."""
    seq = generated(vals.__getitem__, len(vals) - 1, traits=traits, limit=limit)
    try:
        return trait_check(seq).notes
    except TraitViolated as exc:
        return type(exc), str(exc), exc.witness


@given(
    vals=float_windows.filter(lambda v: len(v) >= 2),
    traits=st.sets(st.sampled_from(sorted(TRAITS))),
    limit=st.one_of(st.none(), float_limits),
)
def test_trait_checks_on_float64_arrays_match_the_list_checks(vals, traits, limit):
    got = trait_outcome(vals, traits, limit)
    # the list checks, handed the array's values back as a list
    list_checks = tuple(
        lambda x, *rest, check=check: check(x.tolist(), *rest) for check in sequences._LIST_CHECKS
    )
    with mock.patch.object(sequences, "_FLOAT_CHECKS", list_checks):
        assert got == trait_outcome(vals, traits, limit)


def test_a_window_that_is_not_all_floats_never_imports_numpy():
    script = """
import sys
from fractions import Fraction
from ultragraph.errors import TraitViolated
from ultragraph.sequences import generated, trait_check

windows = (
    ([3, 2, 1, 0], 0.0),
    ([3.0, 2.0, 1.0, 0.0], 0),
    ([3.0, 2, 1.0, 0.0], 0.0),
    ([Fraction(1, n + 1) for n in range(8)], Fraction(0)),
    ([1, True, 0.5, 0.0], None),
)
for vals, limit in windows:
    try:
        trait_check(generated(vals.__getitem__, len(vals) - 1, traits={"monotone", "unbounded"}, limit=limit))
    except TraitViolated:
        pass
assert "numpy" not in sys.modules, "a window that is not all floats imported numpy"
trait_check(generated([2.0, 1.0, 0.0].__getitem__, 2, traits={"monotone"}, limit=0.0))
assert "numpy" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
