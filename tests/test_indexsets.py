"""Index sets: exact membership, Boolean closure, canonical forms."""

import time
from operator import and_, or_

from hypothesis import given, settings
from hypothesis import strategies as st

from ultragraph import IndexSet
from ultragraph._periodic import Unrolled, aligned, minimize
from ultragraph.indexsets import COFINITE, FINITE, PERIODIC, SAMPLED
from ultragraph.errors import BeyondHorizon

import pytest


# random exact sets: eventually periodic ones, periods <= 12 as the law suite
# demands, and finite and cofinite ones with members up to 300
members = st.frozensets(st.integers(0, 300), max_size=8)
ep_sets = st.one_of(
    st.builds(
        IndexSet.eventually_periodic,
        st.lists(st.booleans(), max_size=6),
        st.lists(st.booleans(), min_size=1, max_size=12),
    ),
    st.builds(IndexSet.finite, members),
    st.builds(IndexSet.cofinite, members),
)


def unrolled(s, upto=400):
    return [s.contains(n) for n in range(upto)]


def test_finite_membership_is_exact():
    s = IndexSet.finite(range(10))
    assert s.kind == FINITE
    assert all(s.contains(n) for n in range(10))
    assert not s.contains(10) and not s.contains(10**9)


def test_cofinite_membership_is_exact():
    s = IndexSet.cofinite([3, 5])
    assert s.kind == COFINITE
    assert not s.contains(3) and not s.contains(5)
    assert s.contains(0) and s.contains(10**9)


def test_naturals_and_empty():
    assert IndexSet.naturals().is_naturals()
    assert IndexSet.empty().is_empty()
    assert IndexSet.naturals().complement().is_empty()


def test_eventually_periodic_unrolls_past_preperiod():
    s = IndexSet.eventually_periodic([True], [False, True])
    # 0 -> True (pre), then alternating False,True from n=1
    assert unrolled(s, 6) == [True, False, True, False, True, False]


def test_evens_via_residue_class():
    evens = IndexSet.residue_class(2, 0)
    assert unrolled(evens, 8) == [True, False] * 4
    odds = evens.complement()
    assert unrolled(odds, 8) == [False, True] * 4


def test_canonical_form_ignores_representation():
    a = IndexSet.eventually_periodic([], [True, False])
    b = IndexSet.eventually_periodic([], [True, False, True, False])
    c = IndexSet.eventually_periodic([True, False], [True, False])
    assert a == b == c
    assert len(a.cycle) == 2 and len(b.cycle) == 2


def test_all_true_cycle_collapses_to_naturals():
    s = IndexSet.eventually_periodic([True], [True, True])
    assert s.is_naturals()
    assert s == IndexSet.naturals()


def test_sampled_reports_horizon_and_refuses_beyond():
    s = IndexSet.sampled(lambda n: n % 3 == 0, 50)
    assert s.kind == SAMPLED
    assert s.contains(48) and not s.contains(49)
    with pytest.raises(BeyondHorizon):
        s.contains(51)


def test_window_agrees():
    a = IndexSet.residue_class(2, 1)
    b = IndexSet.sampled(lambda n: n % 2 == 1, 32)
    assert a.window_agrees(b, 32)
    assert not a.window_agrees(b.complement(), 32)


@given(ep_sets, ep_sets)
def test_boolean_ops_match_pointwise_evaluation(a, b):
    au, bu = unrolled(a), unrolled(b)
    assert unrolled(a.union(b)) == [x or y for x, y in zip(au, bu)]
    assert unrolled(a.intersection(b)) == [x and y for x, y in zip(au, bu)]
    assert unrolled(a.complement()) == [not x for x in au]


@pytest.mark.parametrize("member", [10**8, 10**8 + 1, 8, 9])
def test_a_finite_meet_and_a_cofinite_join_never_unroll_to_the_member(member):
    kept = {member} if member % 2 == 0 else ()
    start = time.perf_counter()
    meet = IndexSet.finite({member}).intersection(IndexSet.residue_class(2, 0))
    assert time.perf_counter() - start < 0.1
    assert meet == IndexSet.finite(kept)
    start = time.perf_counter()
    join = IndexSet.cofinite({member}).union(IndexSet.residue_class(2, 1))
    assert time.perf_counter() - start < 0.1
    assert join == IndexSet.cofinite(kept)
    # With a periodic result the member is an exception to the evens (or
    # odds) exactly when it is odd.
    odd = {member} if member % 2 else set()
    next_odd = member + 1 + member % 2
    start = time.perf_counter()
    join = IndexSet.finite({member}).union(IndexSet.residue_class(2, 0))
    assert time.perf_counter() - start < 0.1
    assert (join.cycle, join.members) == ((True, False), odd)
    assert join.contains(member) and not join.contains(next_odd)
    start = time.perf_counter()
    meet = IndexSet.cofinite({member}).intersection(IndexSet.residue_class(2, 1))
    assert time.perf_counter() - start < 0.1
    assert (meet.cycle, meet.members) == ((False, True), odd)
    assert not meet.contains(member) and meet.contains(next_odd)


@given(ep_sets, ep_sets)
def test_de_morgan_as_canonical_equality(a, b):
    assert a.union(b).complement() == a.complement().intersection(b.complement())
    assert a.intersection(b).complement() == a.complement().union(b.complement())


@given(ep_sets)
def test_complement_is_involutive(a):
    assert a.complement().complement() == a


def test_finite_cofinite_mixed_algebra():
    f = IndexSet.finite({1, 2, 3})
    evens = IndexSet.residue_class(2, 0)
    u = f.union(evens)
    assert u.contains(1) and u.contains(3) and u.contains(100)
    assert not u.contains(5)
    i = f.intersection(evens)
    assert unrolled(i, 10) == [n == 2 for n in range(10)]


@settings(max_examples=30)
@given(ep_sets)
def test_describe_round_trips_by_eye(a):
    # describe() is for reports; it should at least be stable and non-empty
    assert a.describe() == a.describe()
    assert a.describe()


def test_describe_is_rendered_once_per_set():
    sets = [
        IndexSet.finite([3, 1]),
        IndexSet.cofinite([2]),
        IndexSet.eventually_periodic([1, 0, 0], [0, 1]),
        IndexSet.residue_class(3, 1),
        IndexSet.sampled(lambda n: n % 2 == 0, 10),
    ]
    texts = ["finite={1,3}", "cofinite={2}", "pre=[1,0,0] cycle=[0,1]", "cycle=[0,1,0]", "sampled(horizon=10)"]
    for s, text in zip(sets, texts):
        first = s.describe()
        assert first == text and s.describe() is first


# A reference for describe() and ==: the minimized (pre bits, cycle bits)
# form, in which sets were once stored and combined bit by bit over their
# joint window. Random sets are drawn as expressions, and each expression
# is evaluated both as an index set and as a reference form.
set_exprs = st.recursive(
    st.one_of(
        st.tuples(
            st.just("periodic"),
            st.lists(st.booleans(), max_size=6),
            st.lists(st.booleans(), min_size=1, max_size=12),
        ),
        st.tuples(st.sampled_from(["finite", "cofinite"]), members),
    ),
    lambda inner: st.one_of(
        st.tuples(st.just("complement"), inner),
        st.tuples(st.sampled_from(["union", "intersection"]), inner, inner),
    ),
    max_leaves=6,
)


def evaluate(expr):
    """(index set, reference form) of a drawn expression."""
    op, *args = expr
    if op == "periodic":
        pre, cycle = args
        return IndexSet.eventually_periodic(pre, cycle), minimize(tuple(pre), tuple(cycle))
    if op in ("finite", "cofinite"):
        (listed,) = args
        inside = op == "finite"
        head = max(listed) + 1 if listed else 0
        form = minimize(tuple((n in listed) == inside for n in range(head)), (not inside,))
        return getattr(IndexSet, op)(listed), form
    if op == "complement":
        s, (pre, cycle) = evaluate(args[0])
        return s.complement(), (tuple(not b for b in pre), tuple(not b for b in cycle))
    (a, fa), (b, fb) = evaluate(args[0]), evaluate(args[1])
    head, bits = aligned([Unrolled(*fa), Unrolled(*fb)], or_ if op == "union" else and_)
    return getattr(a, op)(b), minimize(bits[:head], bits[head:])


def reference_text(form):
    pre, cycle = form
    if cycle == (False,):
        return "finite={%s}" % ",".join(str(n) for n, b in enumerate(pre) if b)
    if cycle == (True,):
        return "cofinite={%s}" % ",".join(str(n) for n, b in enumerate(pre) if not b)
    text = "cycle=[%s]" % ",".join("1" if b else "0" for b in cycle)
    return "pre=[%s] %s" % (",".join("1" if b else "0" for b in pre), text) if pre else text


@given(set_exprs, set_exprs)
def test_describe_and_equality_match_the_minimized_pre_cycle_form(x, y):
    (a, fa), (b, fb) = evaluate(x), evaluate(y)
    assert a.describe() == reference_text(fa)
    assert b.describe() == reference_text(fb)
    assert (a == b) == (fa == fb)
    # a rebuilt from its parts on either side of b: equal, and hashed alike
    c, fc = evaluate(("union", ("intersection", x, y), ("intersection", x, ("complement", y))))
    assert fc == fa and c == a and hash(c) == hash(a)
    assert c.describe() == reference_text(fc)
