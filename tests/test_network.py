"""Standard and nonstandard network solving, checked against the brute-force oracle."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragraph import (
    Branch,
    FilterOracle,
    GraphFamily,
    Hyperreal,
    MagnitudeClass,
    NsNetwork,
    StandardGraph,
    StandardNetwork,
    operating_point,
    periodic,
    solve_standard,
    verify_laws,
)
from ultragraph.errors import EmptyNetwork, NumericalFailure, SolverFailure
from ultragraph.network import _BLOCK, _solve_batch
from ultragraph.sequences import generated, named_generator, value_at

from conftest import random_network
from reference_solver import brute_force_solve, close


def two_branch_loop(r1, e1, r2, e2):
    g = StandardGraph(
        "loop0",
        0,
        nodes0=["a", "b"],
        branches={"b1": ("a", "b"), "b2": ("b", "a")},
    )
    return StandardNetwork(g, {"b1": Branch(r1, e1), "b2": Branch(r2, e2)})


# -- hand-derived fixtures ----------------------------------------------------------


def test_series_loop_carries_one_ampere():
    # 3 V source around 1 + 2 ohms: i = 3/3 = 1 A, drops -2 V and 2 V
    sol = solve_standard(two_branch_loop(1.0, 3.0, 2.0, 0.0))
    assert sol.currents["b1"] == pytest.approx(1.0, rel=1e-12)
    assert sol.currents["b2"] == pytest.approx(1.0, rel=1e-12)
    assert sol.voltages["b1"] == pytest.approx(-2.0, rel=1e-12)
    assert sol.voltages["b2"] == pytest.approx(2.0, rel=1e-12)
    assert sol.potentials["a"] == 0.0
    assert sol.potentials["b"] == pytest.approx(2.0, rel=1e-12)


def test_parallel_opposed_sources_circulate_one_ampere():
    """Two 1-ohm branches a->b with +-1 V sources: i = +1 and -1, no drop."""
    g = StandardGraph(
        "par", 0, nodes0=["a", "b"], branches={"b1": ("a", "b"), "b2": ("a", "b")}
    )
    net = StandardNetwork(g, {"b1": Branch(1.0, 1.0), "b2": Branch(1.0, -1.0)})
    sol = solve_standard(net)
    assert sol.currents["b1"] == pytest.approx(1.0, rel=1e-12)
    assert sol.currents["b2"] == pytest.approx(-1.0, rel=1e-12)
    assert abs(sol.voltages["b1"]) < 1e-12 and abs(sol.voltages["b2"]) < 1e-12
    bf_i, bf_v, bf_phi = brute_force_solve(
        {"b1": ("a", "b", 1.0, 1.0), "b2": ("a", "b", 1.0, -1.0)}
    )
    for bid in ("b1", "b2"):
        assert close(sol.currents[bid], bf_i[bid])
        assert close(sol.voltages[bid], bf_v[bid])


def test_sourceless_network_is_everywhere_zero():
    sol = solve_standard(two_branch_loop(1.0, 0.0, 2.0, 0.0))
    assert all(v == 0.0 for v in sol.currents.values())
    assert all(v == 0.0 for v in sol.voltages.values())
    assert all(v == 0.0 for v in sol.potentials.values())


# -- agreement with the independent oracle ------------------------------------------


def test_matches_brute_force_on_random_networks():
    """Nodal analysis and the all-constraints least-squares oracle agree.

    Both pin the smallest node id of each component to zero, so the
    potentials are comparable directly, not just up to gauge.
    """
    rng = random.Random(20260814)
    for trial in range(24):
        plain, net = random_network(rng)
        sol = solve_standard(net)
        bf_i, bf_v, bf_phi = brute_force_solve(plain)
        for bid in plain:
            assert close(sol.currents[bid], bf_i[bid]), (trial, bid)
            assert close(sol.voltages[bid], bf_v[bid]), (trial, bid)
        for node in bf_phi:
            assert close(sol.potentials[node], bf_phi[node]), (trial, node)


def test_tellegen_holds_for_the_oracle_itself():
    rng = random.Random(5)
    plain, _ = random_network(rng, max_branches=5)
    bf_i, bf_v, _ = brute_force_solve(plain)
    power = sum(bf_v[b] * bf_i[b] for b in plain)
    scale = max(1.0, max(abs(x) for x in bf_i.values()) ** 2)
    assert abs(power) <= 1e-9 * scale


@settings(max_examples=40, deadline=None)
@given(
    emfs=st.tuples(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    ),
    more=st.tuples(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
    ),
)
def test_superposition_of_sources(emfs, more):
    """Currents are additive in the sources on a fixed topology."""
    g = StandardGraph(
        "tri",
        0,
        nodes0=["a", "b"],
        branches={"b1": ("a", "b"), "b2": ("b", "a"), "b3": ("a", "b")},
    )
    rs = (1.0, 2.0, 4.0)

    def solve_with(es):
        data = {f"b{k+1}": Branch(rs[k], es[k]) for k in range(3)}
        return solve_standard(StandardNetwork(g, data))

    one, two = solve_with(emfs), solve_with(more)
    both = solve_with(tuple(x + y for x, y in zip(emfs, more)))
    for bid in ("b1", "b2", "b3"):
        assert close(both.currents[bid], one.currents[bid] + two.currents[bid], 1e-9)


def test_scaling_the_sources_scales_the_solution():
    base = solve_standard(two_branch_loop(2.0, 3.0, 1.0, -1.5))
    scaled = solve_standard(two_branch_loop(2.0, 3.0 * 3.5, 1.0, -1.5 * 3.5))
    for bid in ("b1", "b2"):
        assert close(scaled.currents[bid], 3.5 * base.currents[bid])
        assert close(scaled.voltages[bid], 3.5 * base.voltages[bid])


def test_resolving_is_bitwise_deterministic():
    rng = random.Random(99)
    _, net = random_network(rng)
    first, second = solve_standard(net), solve_standard(net)
    assert first.currents == second.currents
    assert first.voltages == second.voltages
    assert first.potentials == second.potentials


# -- failure modes ------------------------------------------------------------------


def test_branchless_network_is_rejected():
    g = StandardGraph("bare", 0, nodes0=["a"], branches={})
    with pytest.raises(EmptyNetwork):
        solve_standard(StandardNetwork(g, {}))


def test_wildly_mismatched_conductances_fail_loudly():
    g = StandardGraph(
        "chain",
        0,
        nodes0=["a", "b", "c"],
        branches={"b1": ("a", "b"), "b2": ("b", "c")},
    )
    net = StandardNetwork(g, {"b1": Branch(1e-15), "b2": Branch(1e15)})
    with pytest.raises(NumericalFailure):
        solve_standard(net)


def test_nonpositive_resistance_names_the_index():
    fam = GraphFamily(
        "divfam",
        (
            StandardGraph(
                "div",
                0,
                nodes0=["a", "b"],
                branches={"b1": ("a", "b"), "b2": ("b", "a")},
            ),
        ),
    )
    net = NsNetwork(
        "bad",
        fam,
        {
            "b1": (periodic((), (1.0,)), periodic((), (1.0,))),
            "b2": (named_generator("affine", (-1, 2), 64), periodic((), (0.0,))),
        },
    )
    op = operating_point(net, FilterOracle())
    with pytest.raises(SolverFailure, match=r"at index n=2"):
        verify_laws(op)


# -- nonstandard operating points ----------------------------------------------------


def divider_network():
    """Unit source against a growing resistor: the loop current is 1/(n+2)."""
    g = StandardGraph(
        "div", 0, nodes0=["a", "b"], branches={"b1": ("a", "b"), "b2": ("b", "a")}
    )
    fam = GraphFamily("divfam", (g,))
    return NsNetwork(
        "divider",
        fam,
        {
            "b1": (periodic((), (1.0,)), periodic((), (1.0,))),
            "b2": (named_generator("affine", (1, 1), 512), periodic((), (0.0,))),
        },
    )


def test_divider_current_is_a_certified_infinitesimal():
    op = operating_point(divider_network(), FilterOracle())
    assert op.route == "generated"
    i = op.currents["b1"]
    assert value_at(i.rep, 0) == pytest.approx(0.5, rel=1e-12)
    assert value_at(i.rep, 6) == pytest.approx(1.0 / 8.0, rel=1e-12)
    certified = i.certify(limit=0.0, monotone=True)
    assert certified.classify() is MagnitudeClass.INFINITESIMAL
    assert certified.standard_part() == 0.0


def test_divider_satisfies_the_laws():
    op = operating_point(divider_network(), FilterOracle())
    report = verify_laws(op, tol=1e-9, check_upto=64)
    assert report.ok
    ohm = [c for c in report.checks if c.law == "Ohm"]
    assert ohm and all(c.class_verdict == "equal" for c in ohm)


def test_constant_family_transfer_is_exact():
    net = NsNetwork(
        "const",
        GraphFamily(
            "onefam",
            (
                StandardGraph(
                    "one",
                    0,
                    nodes0=["a", "b"],
                    branches={"b1": ("a", "b"), "b2": ("b", "a")},
                ),
            ),
        ),
        {
            "b1": (periodic((), (1.0,)), periodic((), (3.0,))),
            "b2": (periodic((), (2.0,)), periodic((), (0.0,))),
        },
    )
    op = operating_point(net, FilterOracle())
    assert op.route == "periodic"
    # the descriptor is the constant standard solution, not an approximation
    assert op.currents["b1"].rep == periodic((), (1.0,))
    assert op.voltages["b2"].rep == periodic((), (2.0,))
    assert op.potentials["b"].rep == periodic((), (2.0,))
    report = verify_laws(op, tol=1e-9)
    assert report.ok
    assert all(c.worst == 0.0 for c in report.checks)


def test_alternating_family_solves_per_phase():
    """Phase-dependent resistance: i alternates 3/1 and 3/3 exactly."""
    g = StandardGraph(
        "alt0", 0, nodes0=["a", "b"], branches={"b1": ("a", "b"), "b2": ("b", "a")}
    )
    fam = GraphFamily("altfam", (g,))
    net = NsNetwork(
        "alt",
        fam,
        {
            "b1": (periodic((), (1.0,)), periodic((), (3.0,))),
            "b2": (periodic((), (2.0, 0.5)), periodic((), (0.0,))),
        },
    )
    op = operating_point(net, FilterOracle())
    assert op.route == "periodic"
    assert value_at(op.currents["b1"].rep, 0) == pytest.approx(1.0)
    assert value_at(op.currents["b1"].rep, 1) == pytest.approx(2.0)
    # the class equals the even-phase value under the default oracle
    assert op.currents["b1"].selected_value() == pytest.approx(1.0)
    assert verify_laws(op).ok


def test_perturbed_current_is_caught_by_kcl():
    op = operating_point(divider_network(), FilterOracle())
    nudge = Hyperreal.lift(0.1, op.oracle)
    op.currents["b1"] = op.currents["b1"] + nudge
    report = verify_laws(op, tol=1e-9, check_upto=16)
    assert not report.ok
    broken = {c.law for c in report.checks if not c.ok}
    assert "KCL" in broken


def test_operating_point_descriptors_are_reproducible():
    first = operating_point(divider_network(), FilterOracle())
    second = operating_point(divider_network(), FilterOracle())
    window = [value_at(first.currents["b2"].rep, n) for n in range(32)]
    again = [value_at(second.currents["b2"].rep, n) for n in range(32)]
    assert window == again


# -- the batched nodal kernel ----------------------------------------------------------


def loop_solve(net):
    """Nodal analysis one network at a time, scalar assembly: the batch's reference."""
    nodes = sorted(net.graph.nodes0)
    parent = {w: w for w in nodes}

    def find(w):
        while parent[w] != w:
            w = parent[w]
        return w

    for u, v in net.graph.branches.values():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    unknowns = [w for w in nodes if find(w) != w]
    pos = {w: k for k, w in enumerate(unknowns)}
    matrix = np.zeros((len(unknowns), len(unknowns)))
    rhs = np.zeros(len(unknowns))
    for bid in sorted(net.graph.branches):
        u, v = net.graph.branches[bid]
        g = 1.0 / net.data[bid].resistance
        e = net.data[bid].emf
        for w, other, sign in ((u, v, -1.0), (v, u, 1.0)):
            if w in pos:
                matrix[pos[w], pos[w]] += g
                if other in pos:
                    matrix[pos[w], pos[other]] -= g
                rhs[pos[w]] += sign * e * g
    potentials = {w: 0.0 for w in nodes}
    if unknowns:
        assert float(np.linalg.cond(matrix)) <= 1e12
        for w, x in zip(unknowns, np.linalg.solve(matrix, rhs)):
            potentials[w] = float(x)
    currents, voltages = {}, {}
    for bid, (u, v) in sorted(net.graph.branches.items()):
        r, e = net.data[bid].resistance, net.data[bid].emf
        currents[bid] = (potentials[u] - potentials[v] + e) / r
        voltages[bid] = r * currents[bid] - e
    return potentials, currents, voltages


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 2 * _BLOCK + 3))
def test_batch_matches_single_solves_bit_for_bit(seed, size):
    rng = random.Random(seed)
    plain, net = random_network(rng)
    datas = [
        {bid: Branch(rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0)) for bid in plain}
        for _ in range(size)
    ]
    bids = sorted(plain)
    batch = _solve_batch(
        net.graph,
        [[d[bid].resistance for bid in bids] for d in datas],
        [[d[bid].emf for bid in bids] for d in datas],
        list(range(size)),
    )
    for n in sorted({0, size // 2, size - 1}):
        single = solve_standard(StandardNetwork(net.graph, datas[n]), index=n)
        got = batch[n]
        assert (got.potentials, got.currents, got.voltages) == (
            single.potentials,
            single.currents,
            single.voltages,
        )
        assert (got.potentials, got.currents, got.voltages) == loop_solve(
            StandardNetwork(net.graph, datas[n])
        )
        bf_i, bf_v, bf_phi = brute_force_solve(
            {bid: (u, v, datas[n][bid].resistance, datas[n][bid].emf) for bid, (u, v, _, _) in plain.items()}
        )
        assert all(close(got.currents[b], bf_i[b]) for b in plain)
        assert all(close(got.voltages[b], bf_v[b]) for b in plain)
        assert all(close(got.potentials[w], bf_phi[w]) for w in bf_phi)


def test_a_matrix_numpy_cannot_decompose_fails_only_its_own_index():
    # the self-loop's 1/1e-320 overflows to inf, and inf - inf on the diagonal
    # leaves a NaN that makes the SVD behind np.linalg.cond fail
    g = StandardGraph(
        "looped", 0, nodes0=["a", "b"], branches={"b1": ("a", "b"), "b2": ("b", "b"), "b3": ("b", "a")}
    )
    datas = [
        {"b1": Branch(1.0, 1.0), "b2": Branch(1e-320 if n == 3 else 1.0), "b3": Branch(2.0)}
        for n in range(6)
    ]
    bids = ["b1", "b2", "b3"]
    batch = _solve_batch(
        g,
        [[d[bid].resistance for bid in bids] for d in datas],
        [[d[bid].emf for bid in bids] for d in datas],
        list(range(6)),
    )
    assert isinstance(batch[3], np.linalg.LinAlgError)
    with pytest.raises(np.linalg.LinAlgError):
        solve_standard(StandardNetwork(g, datas[3]), index=3)
    for n in (0, 1, 2, 4, 5):
        assert batch[n] == solve_standard(StandardNetwork(g, datas[n]), index=n)


def chain_network(r_b1):
    """Triangle a-b-c: b1 = a-b with resistance r_b1 and a 2 V source, b2 1 ohm, b3 3 ohm."""
    g = StandardGraph(
        "chain", 0, nodes0=["a", "b", "c"], branches={"b1": ("a", "b"), "b2": ("b", "c"), "b3": ("c", "a")}
    )
    return NsNetwork(
        "chain",
        GraphFamily("chainfam", (g,)),
        {
            "b1": (r_b1, periodic((), (2.0,))),
            "b2": (periodic((), (1.0,)), periodic((), (0.0,))),
            "b3": (periodic((), (3.0,)), periodic((), (0.0,))),
        },
    )


def spike(k, value):
    """1 + n ohms everywhere except index k, where the rule gives ``value``."""

    def rule(n):
        if n != k:
            return 1.0 + n
        if isinstance(value, Exception):
            raise value
        return value

    return generated(rule, 3 * _BLOCK, key=("spike", k, repr(value)))


def failure_of(call):
    with pytest.raises(Exception) as info:
        call()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "index", None), getattr(exc, "condition", None)


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(1, 2 * _BLOCK + 5),
    value=st.sampled_from([0.0, -2.5, math.inf, 1e-15, "ohm", ValueError("no data here")]),
)
def test_a_failing_index_fails_alone_and_as_before(k, value):
    net = chain_network(spike(k, value))
    expected = failure_of(lambda: solve_standard(net.network_at(k), index=k))
    op = operating_point(net, FilterOracle())
    assert op.route == "generated"
    current = op.currents["b2"].rep
    for _ in range(2):  # a cached failure raises again, identically
        assert failure_of(lambda: value_at(current, k)) == expected
    for n in (k - 1, k + 1):
        assert value_at(current, n) == solve_standard(net.network_at(n), index=n).currents["b2"]
    assert verify_laws(op, check_upto=k).ok
    # the periodic route raises the same for the first failing phase
    if not isinstance(value, Exception):
        phases = [1.0 + n for n in range(k)] + [value]
        periodic_net = chain_network(periodic((), phases))
        assert failure_of(lambda: operating_point(periodic_net, FilterOracle())) == expected
