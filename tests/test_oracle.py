"""Filter oracle: ultrafilter laws, pins, partition selection, audit."""

import re
import time
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragraph import FilterOracle, IndexSet, Membership
from ultragraph.errors import (
    IncompatibleTower,
    InconsistentPin,
    InvariantBreach,
    NotAPartition,
    Undecidable,
)
from ultragraph.indexsets import COFINITE, PERIODIC
from ultragraph.oracle import Pin, _crt_merge

from conftest import audit_fields, outcome

ep_sets = st.builds(
    IndexSet.eventually_periodic,
    st.lists(st.booleans(), max_size=4),
    st.lists(st.booleans(), min_size=1, max_size=12),
)

IN, OUT = Membership.IN, Membership.OUT


def test_finite_sets_are_out():
    assert FilterOracle().decide(IndexSet.finite(range(10))) is OUT


def test_cofinite_sets_are_in():
    orc = FilterOracle()
    assert orc.decide(IndexSet.naturals()) is IN
    assert orc.decide(IndexSet.cofinite([7, 9])) is IN


def test_default_tower_picks_evens():
    orc = FilterOracle()
    evens = IndexSet.residue_class(2, 0)
    assert orc.decide(evens) is IN
    assert orc.decide(evens.complement()) is OUT


def test_decisions_are_stable_across_calls():
    orc = FilterOracle()
    s = IndexSet.eventually_periodic([True, False], [False, False, True])
    assert all(orc.decide(s) is orc.decide(s) for _ in range(3))


def test_pin_odds_flips_the_even_verdict():
    orc = FilterOracle().pin(IndexSet.residue_class(2, 1), IN)
    assert orc.decide(IndexSet.residue_class(2, 0)) is OUT
    assert orc.decide(IndexSet.residue_class(2, 1)) is IN


def test_pin_returns_a_new_oracle():
    base = FilterOracle()
    pinned = base.pin(IndexSet.residue_class(2, 1), IN)
    assert base.decide(IndexSet.residue_class(2, 0)) is IN
    assert pinned is not base


def test_pinning_a_finite_set_in_is_rejected():
    with pytest.raises(InconsistentPin):
        FilterOracle().pin(IndexSet.finite({0, 1, 2}), IN)


def test_disjoint_sets_cannot_both_be_pinned_in():
    orc = FilterOracle().pin(IndexSet.residue_class(2, 0), IN)
    with pytest.raises(InconsistentPin):
        orc.pin(IndexSet.residue_class(2, 1), IN)


def test_sampled_set_is_undecidable_without_a_pin():
    orc = FilterOracle()
    s = IndexSet.sampled(lambda n: n % 2 == 0, 64)
    with pytest.raises(Undecidable):
        orc.decide(s)


def test_sampled_set_matching_a_pin_decides():
    orc = FilterOracle().pin(IndexSet.residue_class(3, 0), IN)
    s = IndexSet.sampled(lambda n: n % 3 == 0, 64)
    assert orc.decide(s) is IN
    # ... and its complement decides the other way
    assert orc.decide(s.complement()) is OUT


def test_partition_selects_evens_by_default():
    orc = FilterOracle()
    evens = IndexSet.residue_class(2, 0)
    assert orc.select_from_partition([evens, evens.complement()]) == 0


def test_single_part_partition():
    assert FilterOracle().select_from_partition([IndexSet.naturals()]) == 0


def test_partition_mod_three_selects_the_zero_class():
    orc = FilterOracle()
    parts = [IndexSet.residue_class(3, r) for r in range(3)]
    assert orc.select_from_partition(parts) == 0


def test_overlapping_parts_are_rejected():
    evens = IndexSet.residue_class(2, 0)
    with pytest.raises(NotAPartition):
        FilterOracle().select_from_partition([evens, evens])


def test_coinfinite_union_is_rejected():
    evens = IndexSet.residue_class(2, 0)
    four = IndexSet.residue_class(4, 1)
    with pytest.raises(NotAPartition):
        FilterOracle().select_from_partition([evens, four])


def test_audit_records_context_and_verdict():
    audit = []
    orc = FilterOracle(audit=audit)
    orc.decide(IndexSet.residue_class(2, 0), context="parity check")
    assert audit == ["parity check: cycle=[1,0] -> in"]
    assert audit_fields(audit[0]) == ("parity check", "cycle=[1,0]", "in")


# -- ultrafilter laws ---------------------------------------------------------


@given(ep_sets)
def test_complementarity(s):
    orc = FilterOracle()
    assert (orc.decide(s) is IN) != (orc.decide(s.complement()) is IN)


@given(ep_sets, ep_sets)
def test_superset_closure(s, t):
    orc = FilterOracle()
    sup = s.union(t)
    if orc.decide(s) is IN:
        assert orc.decide(sup) is IN


@given(ep_sets, ep_sets)
def test_finite_intersection_closure(s, t):
    orc = FilterOracle()
    if orc.decide(s) is IN and orc.decide(t) is IN:
        assert orc.decide(s.intersection(t)) is IN


@given(st.integers(min_value=0, max_value=10**6))
def test_nonprincipality(k):
    assert FilterOracle().decide(IndexSet.finite({k})) is OUT


@given(ep_sets, st.integers(min_value=1, max_value=11))
def test_laws_survive_pinning(s, residue_mod):
    # pin an arbitrary infinite residue class In; laws must still hold
    target = IndexSet.residue_class(residue_mod + 1, residue_mod % (residue_mod + 1))
    orc = FilterOracle().pin(target, IN)
    assert (orc.decide(s) is IN) != (orc.decide(s.complement()) is IN)
    if orc.decide(s) is IN and orc.decide(target) is IN:
        assert orc.decide(s.intersection(target)) is IN


@given(st.lists(st.booleans(), min_size=2, max_size=8))
def test_partition_chooses_exactly_one_part(bits):
    # residue classes mod k form a partition; selection is deterministic
    k = len(bits)
    parts = [IndexSet.residue_class(k, r) for r in range(k)]
    orc = FilterOracle()
    first = orc.select_from_partition(parts)
    assert first == orc.select_from_partition(parts)
    verdicts = [orc.decide(p) for p in parts]
    assert verdicts.count(IN) == 1
    assert verdicts.index(IN) == first


# -- partition check against an independent pairwise reference ---------------


def pairwise_select(oracle, parts, context="partition"):
    """``select_from_partition`` the plain way: every pair of exact parts
    intersected, then, when every part is exact, their union tested for
    being cofinite."""
    if not parts:
        raise NotAPartition("no parts given")
    exact = [p for p in parts if p.exact]
    for i in range(len(exact)):
        for j in range(i + 1, len(exact)):
            if not exact[i].intersection(exact[j]).is_empty():
                raise NotAPartition(
                    f"parts overlap: {exact[i].describe()} and {exact[j].describe()}"
                )
    if len(exact) == len(parts):
        union = IndexSet.empty()
        for p in parts:
            union = union.union(p)
        if union.kind != COFINITE:
            raise NotAPartition("union of parts misses infinitely many indices")
    verdicts = [oracle.decide(p, context=context) for p in parts]
    winners = [i for i, v in enumerate(verdicts) if v is IN]
    if len(winners) != 1:
        raise InvariantBreach(
            f"partition selection found {len(winners)} accepted parts; "
            "the inputs cannot form a partition"
        )
    return winners[0]


small_numbers = st.lists(st.integers(0, 12), max_size=3)
exact_parts = st.one_of(
    st.builds(IndexSet.residue_class, st.integers(1, 6), st.integers(0, 5)),
    st.builds(IndexSet.finite, small_numbers),
    st.builds(IndexSet.cofinite, small_numbers),
    st.builds(
        IndexSet.eventually_periodic,
        st.lists(st.booleans(), min_size=1, max_size=3),
        st.lists(st.booleans(), min_size=1, max_size=6),
    ),
)


@st.composite
def value_partitions(draw):
    """The parts {n : x_n = v} of a drawn periodic sequence x, which
    partition the naturals, with a few indices moved from one part to
    another as finite exceptions."""
    values = st.integers(0, 3)
    pre = draw(st.lists(values, max_size=3))
    cycle = draw(st.lists(values, min_size=1, max_size=6))
    xs = [*pre, *cycle]
    moved = dict(draw(st.lists(st.tuples(st.integers(0, 12), values), max_size=3)))
    parts = []
    for v in dict.fromkeys(xs):
        part = IndexSet.eventually_periodic([x == v for x in pre], [x == v for x in cycle])
        gained = {n for n, w in moved.items() if w == v}
        lost = {n for n, w in moved.items() if w != v}
        parts.append(part.union(IndexSet.finite(gained)).intersection(IndexSet.cofinite(lost)))
    return parts


@st.composite
def part_lists(draw):
    """Partitions, partitions with one part dropped, repeated or added, and
    free lists of exact parts, which mostly overlap or leave gaps."""
    kind = draw(st.sampled_from(["partition", "drop", "repeat", "add", "free"]))
    if kind == "free":
        return draw(st.lists(exact_parts, max_size=4))
    parts = draw(value_partitions())
    if kind == "drop":
        del parts[draw(st.integers(0, len(parts) - 1))]
    elif kind == "repeat":
        parts.append(parts[draw(st.integers(0, len(parts) - 1))])
    elif kind == "add":
        parts.insert(draw(st.integers(0, len(parts))), draw(exact_parts))
    return parts


@settings(max_examples=300, deadline=None)
@given(part_lists(), st.integers(1, 12), st.integers(0, 11))
def test_partition_check_matches_the_pairwise_reference(parts, modulus, residue):
    audit_new, audit_old = [], []
    tower = [(modulus, residue % modulus)]
    new = outcome(lambda: FilterOracle(tower, audit=audit_new).select_from_partition(parts, "p"))
    old = outcome(lambda: pairwise_select(FilterOracle(tower, audit=audit_old), parts, "p"))
    assert new == old
    assert audit_new == audit_old


def test_overlapping_classes_of_large_moduli_are_refused_at_once():
    parts = [IndexSet.residue_class(m, 0) for m in (1009, 1013, 1019)]
    start = time.perf_counter()
    with pytest.raises(NotAPartition, match="parts overlap"):
        FilterOracle().select_from_partition(parts)
    assert time.perf_counter() - start < 0.5


# -- tower construction against the stepping and full-scan references --------


def stepping_crt_merge(mod_a, res_a, mod_b, res_b):
    """The former ``_crt_merge``: step res_a by mod_a until it fits res_b."""
    g = gcd(mod_a, mod_b)
    if (res_a - res_b) % g != 0:
        raise IncompatibleTower(
            f"residue {res_a} (mod {mod_a}) conflicts with {res_b} (mod {mod_b})"
        )
    m = lcm(mod_a, mod_b)
    r = res_a
    while r % mod_b != res_b % mod_b:
        r += mod_a
    return m, r % m


def full_scan_selection(base_mod, base_res, pins):
    """The former ``_refresh``: list every admissible residue below the lcm,
    then take the least one agreeing with the base residues, else the least."""
    modulus = base_mod
    for pin in pins:
        period = len(pin.target.cycle) if pin.target.kind == PERIODIC else 1
        modulus = lcm(modulus, period)
    def late_member(target, r):
        # An index of the class r (mod modulus) past every exception.
        return target.contains(r + modulus * (max(target.members, default=0) // modulus + 1))

    allowed = [
        r
        for r in range(modulus)
        if all(late_member(pin.target, r) == (pin.verdict is IN) for pin in pins)
    ]
    if not allowed:
        raise InconsistentPin(
            "pins leave no admissible residue class; the required sets "
            "have a finite intersection"
        )
    preferred = [r for r in allowed if r % base_mod == base_res]
    return modulus, min(preferred) if preferred else min(allowed)


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=39),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=39),
)
def test_closed_form_crt_matches_stepping(mod_a, res_a, mod_b, res_b):
    res_a, res_b = res_a % mod_a, res_b % mod_b
    try:
        expected = stepping_crt_merge(mod_a, res_a, mod_b, res_b)
    except IncompatibleTower as exc:
        with pytest.raises(IncompatibleTower, match=re.escape(str(exc))):
            _crt_merge(mod_a, res_a, mod_b, res_b)
    else:
        assert _crt_merge(mod_a, res_a, mod_b, res_b) == expected


def test_tower_of_two_large_primes_builds_at_once():
    start = time.perf_counter()
    orc = FilterOracle([(999999937, 5), (999999929, 7)])
    assert time.perf_counter() - start < 0.5
    assert orc.selected_residue(999999937) == 5
    assert orc.selected_residue(999999929) == 7


small_ep_sets = st.builds(
    IndexSet.eventually_periodic,
    st.lists(st.booleans(), max_size=3),
    st.lists(st.booleans(), min_size=1, max_size=6),
)


@given(
    st.lists(st.integers(min_value=1, max_value=6), max_size=3),
    st.integers(min_value=0, max_value=59),
    st.lists(st.tuples(small_ep_sets, st.sampled_from([IN, OUT])), max_size=4),
)
def test_first_hit_selection_matches_full_scan(moduli, c, pins):
    orc = FilterOracle([(m, c % m) for m in moduli])
    assert (orc._modulus, orc._selected) == full_scan_selection(
        orc._base_mod, orc._base_res, ()
    )
    for target, verdict in pins:
        tried = orc._pins + (Pin(target, verdict),)
        try:
            expected = full_scan_selection(orc._base_mod, orc._base_res, tried)
        except InconsistentPin as exc:
            with pytest.raises(InconsistentPin, match=re.escape(str(exc))):
                orc.pin(target, verdict)
            continue
        orc = orc.pin(target, verdict)
        assert (orc._modulus, orc._selected) == expected


pin_lists = st.lists(st.tuples(small_ep_sets, st.sampled_from([IN, OUT])), max_size=4)


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=3), st.integers(0, 59), pin_lists)
def test_one_step_construction_matches_successive_pins(moduli, c, pins):
    tower = [(m, c % m) for m in moduli]
    probes = [IndexSet.residue_class(k, r) for k in range(1, 7) for r in range(k)]
    try:
        built = FilterOracle(tower, pins)
    except InconsistentPin as exc:
        message = str(exc)
        built = None
    stepped = FilterOracle(tower)
    for target, verdict in pins:
        before = [stepped.decide(p) for p in probes]
        try:
            stepped = stepped.pin(target, verdict)
        except InconsistentPin as exc:
            assert built is None and str(exc) == message
            assert [stepped.decide(p) for p in probes] == before
            return
    assert built is not None
    assert (built._modulus, built._selected) == (stepped._modulus, stepped._selected)
    assert built.describe() == stepped.describe()


def test_pins_on_sampled_sets_are_refused():
    sampled = IndexSet.sampled(lambda n: n % 2 == 1, 64)
    with pytest.raises(ValueError, match="pins name exact index sets"):
        FilterOracle((), [(sampled, IN)])
    with pytest.raises(ValueError, match="pins name exact index sets"):
        FilterOracle().pin(sampled, IN)


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_one_construction_selects_the_tower_once(monkeypatch, count):
    calls = []
    refresh = FilterOracle._refresh

    def counting_refresh(self):
        calls.append(self)
        return refresh(self)

    monkeypatch.setattr(FilterOracle, "_refresh", counting_refresh)
    pins = [(IndexSet.residue_class(k + 2, 1), IN) for k in range(count)]
    FilterOracle([(3, 1)], pins)
    assert len(calls) == 1
    FilterOracle().pin(IndexSet.residue_class(2, 1), IN)
    assert len(calls) == 3
