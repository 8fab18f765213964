"""Standard and nonstandard network solving, checked against the brute-force oracle."""

import math
import random
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
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
    StandardSolution,
    operating_point,
    periodic,
    solve_standard,
    verify_laws,
)
from ultragraph import network
from ultragraph.cli import _advisory_class, main
from ultragraph.errors import BeyondHorizon, EmptyNetwork, NumericalFailure, SolverFailure
from ultragraph._periodic import joint_window
from ultragraph.network import (
    _BLOCK,
    _SOLVED_BLOCK,
    _solve_at_indices,
    _solve_batch,
    _spanning_tree,
)
from ultragraph.sequences import (
    PeriodicSeq,
    generated,
    named_generator,
    value_at,
    values_window,
)

from conftest import random_network
from reference_solver import brute_force_solve, close


def network_at(net: NsNetwork, n: int) -> StandardNetwork:
    """The n-th standard network, read one datum at a time: the per-index
    reference for the routes, which read data by ranges."""
    branch_data = {
        bid: Branch(float(value_at(r, n)), float(value_at(e, n)))
        for bid, (r, e) in net.data.items()
    }
    return StandardNetwork(net.family.graph_at(n), branch_data)


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


def test_branchless_nonstandard_network_is_rejected_per_index():
    g = StandardGraph("bare", 0, nodes0=["a"], branches={})
    net = NsNetwork("none", GraphFamily("barefam", (g,)), {})
    with pytest.raises(EmptyNetwork, match=r"at index n=0"):
        operating_point(net, FilterOracle())
    found = _solve_at_indices(net, range(3, 5))
    assert found.indices == range(3, 5)
    assert [(n, type(x), x.index) for n, x in sorted(found.failed.items())] == [
        (3, EmptyNetwork, 3),
        (4, EmptyNetwork, 4),
    ]
    assert (found.currents, found.voltages) == ({}, {})
    assert found.potentials == {"a": [0.0, 0.0]}


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


@pytest.mark.parametrize(
    "b1,message",
    [
        (Branch(10**400), "nonfinite resistance inf"),
        (Branch(-(10**400)), "resistance -inf"),
        (Branch(1.0, 10**400), "nonfinite source value inf"),
        (Branch(10**5000), "nonfinite resistance inf"),
    ],
    ids=["resistance", "negative", "source", "past-the-digit-limit"],
)
def test_an_integer_too_large_for_a_float_is_a_solver_failure(b1, message):
    g = StandardGraph("pair", 0, nodes0=["a", "b"], branches={"b1": ("a", "b"), "b2": ("b", "a")})
    net = StandardNetwork(g, {"b1": b1, "b2": Branch(1.0)})
    with pytest.raises(SolverFailure, match=rf"branch b1 has .*{message} \(at index n=3\)"):
        solve_standard(net, index=3)


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


def batch_outcomes(graph, indices, batch):
    """Index -> the StandardSolution that row of ``_solve_batch``'s arrays
    holds, or the index's failure."""
    phi, currents, voltages, failed = batch
    nodes, bids = sorted(graph.nodes0), sorted(graph.branches)
    return {
        n: failed[n]
        if n in failed
        else StandardSolution(
            dict(zip(nodes, phi[j].tolist())),
            dict(zip(bids, currents[j].tolist())),
            dict(zip(bids, voltages[j].tolist())),
        )
        for j, n in enumerate(indices)
    }


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
    batch = batch_outcomes(
        net.graph,
        list(range(size)),
        _solve_batch(
            net.graph,
            [[d[bid].resistance for bid in bids] for d in datas],
            [[d[bid].emf for bid in bids] for d in datas],
            list(range(size)),
        ),
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
    found = _solve_batch(
        g,
        [[d[bid].resistance for bid in bids] for d in datas],
        [[d[bid].emf for bid in bids] for d in datas],
        list(range(6)),
    )
    assert list(found[3]) == [3]
    batch = batch_outcomes(g, list(range(6)), found)
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
    expected = failure_of(lambda: solve_standard(network_at(net, k), index=k))
    op = operating_point(net, FilterOracle())
    assert op.route == "generated"
    current = op.currents["b2"].rep
    for _ in range(2):  # a cached failure raises again, identically
        assert failure_of(lambda: value_at(current, k)) == expected
    for n in (k - 1, k + 1):
        assert value_at(current, n) == solve_standard(network_at(net, n), index=n).currents["b2"]
    assert verify_laws(op, check_upto=k).ok
    # the periodic route raises the same for the first failing phase
    if not isinstance(value, Exception):
        phases = [1.0 + n for n in range(k)] + [value]
        periodic_net = chain_network(periodic((), phases))
        assert failure_of(lambda: operating_point(periodic_net, FilterOracle())) == expected


# -- law checks by columns -----------------------------------------------------------------


def reference_law_worst(op, check_upto=64, nan_worst=False):
    """The per-index law check that ``verify_laws`` replaced, kept as its
    reference: (law, subject) -> (worst normalized residual, first index).
    With ``nan_worst``, a NaN residual is worse than any number, as in
    ``verify_laws``; without, a NaN is kept only where it comes first."""
    net = op.network
    if op.route == "periodic":
        seqs = [net.family.assignment]
        for h in list(op.currents.values()) + list(op.voltages.values()):
            seqs.append(h.rep)
        for r, e in net.data.values():
            seqs.extend((r, e))
        head, period = joint_window(seqs)
        indices = range(head + period)
    else:
        indices = range(min(check_upto, int(op.horizon)))
    worst = {}

    def record(law, subject, residual, scale, n):
        value = abs(residual) / max(1.0, scale)
        key = (law, subject)
        if key not in worst or value > worst[key][0]:
            worst[key] = (value, n)
        elif nan_worst and value != value and worst[key][0] == worst[key][0]:
            worst[key] = (value, n)

    def tree_potentials(graph, tree, voltages_at):
        phi = {}
        for root in sorted(graph.nodes0):
            if root in phi:
                continue
            phi[root] = 0.0
            changed = True
            while changed:
                changed = False
                for bid in tree:
                    u, v = graph.branches[bid]
                    drop = voltages_at(bid)
                    for x, y, d in ((u, v, drop), (v, u, -drop)):
                        if x in phi and y not in phi:
                            phi[y] = phi[x] - d
                            changed = True
        return phi

    trees = {}
    for n in indices:
        graph = net.family.graph_at(n)
        proto = value_at(net.family.assignment, n)
        if proto not in trees:
            trees[proto] = _spanning_tree(graph)
        tree, chords = trees[proto]
        i_at = {bid: value_at(op.currents[bid].rep, n) for bid in net.data}
        v_at = {bid: value_at(op.voltages[bid].rep, n) for bid in net.data}
        r_at = {bid: value_at(net.data[bid][0], n) for bid in net.data}
        e_at = {bid: value_at(net.data[bid][1], n) for bid in net.data}
        scale = max(
            [1.0]
            + [abs(x) for x in i_at.values()]
            + [abs(x) for x in v_at.values()]
            + [abs(x) for x in e_at.values()]
        )
        flow = {w: 0.0 for w in graph.nodes0}
        for bid, (u, v) in graph.branches.items():
            flow[u] += i_at[bid]
            flow[v] -= i_at[bid]
        for w in sorted(graph.nodes0):
            record("KCL", f"node {w}", flow[w], scale, n)
        phi = tree_potentials(graph, tree, lambda bid: v_at[bid])
        for bid in chords:
            u, v = graph.branches[bid]
            record("KVL", f"loop of {bid}", v_at[bid] - (phi[u] - phi[v]), scale, n)
        for bid in sorted(net.data):
            record("Ohm", f"branch {bid}", v_at[bid] - (r_at[bid] * i_at[bid] - e_at[bid]), scale, n)
        # A running sum from 0, which ``sum`` is up to Python 3.11; from 3.12
        # on ``sum`` compensates float rounding.
        power = 0
        for bid in net.data:
            power += v_at[bid] * i_at[bid]
        record("Tellegen", "total power", power, scale * scale, n)
    return worst


def checks_by_subject(report):
    return {(c.law, c.subject): (c.worst.hex(), c.witness, c.ok) for c in report.checks}


def random_periodic_network(rng, n_protos):
    """Prototypes on one branch-id set with their own nodes and endpoints
    (disconnected ones and self-loops included), under a periodic
    assignment, with periodic data of short cycles and preperiods."""
    bids = [f"b{k}" for k in range(rng.randint(1, 7))]
    protos = []
    for p in range(n_protos):
        nodes = [f"n{k}" for k in range(rng.randint(2, 5))]
        branches = {}
        for bid in bids:
            u = rng.choice(nodes)
            v = u if rng.random() < 0.1 else rng.choice(nodes)
            branches[bid] = (u, v)
        protos.append(StandardGraph(f"p{p}", 0, nodes0=nodes, branches=branches))

    def cycle(values):
        return periodic(
            [values() for _ in range(rng.randint(0, 2))],
            [values() for _ in range(rng.randint(1, 4))],
        )

    assignment = cycle(lambda: rng.randrange(n_protos))
    data = {
        bid: (
            cycle(lambda: rng.uniform(0.2, 5.0)),
            cycle(lambda: rng.uniform(-3.0, 3.0) if rng.random() < 0.6 else 0.0),
        )
        for bid in bids
    }
    return NsNetwork("rand", GraphFamily("randfam", tuple(protos), assignment), data)


def perturbed(h, rng, width, nudges):
    """The periodic number ``h`` with ``nudges`` random phases of its first
    ``width`` values moved by a finite amount (or set to ``nudges`` values
    when that is a list of (phase, value) pairs)."""
    values = values_window(h.rep, width - 1)
    if isinstance(nudges, list):
        for k, value in nudges:
            values[k] = value
    else:
        for _ in range(nudges):
            values[rng.randrange(width)] += rng.choice([1e-12, 1e-6, 0.5, -3.0, 1e3])
    head = len(h.rep.pre)
    return Hyperreal(PeriodicSeq.make(values[:head], values[head:]), h.oracle)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_protos=st.integers(1, 3), nudges=st.integers(0, 3))
def test_column_law_checks_match_the_per_index_loop(seed, n_protos, nudges):
    rng = random.Random(seed)
    net = random_periodic_network(rng, n_protos)
    audit = []
    modulus = rng.randint(1, 12)
    try:
        op = operating_point(net, FilterOracle([(modulus, rng.randrange(modulus))], audit=audit))
    except NumericalFailure:
        return  # a random prototype can be singular; nothing to check then
    assert op.route == "periodic"
    head, period = joint_window(net.descriptors())
    width = head + period
    for part in (op.currents, op.voltages):
        for bid in list(part):
            if rng.random() < 0.5:
                part[bid] = perturbed(part[bid], rng, width, nudges)
    del audit[:]
    report = verify_laws(op)
    reference = reference_law_worst(op)
    assert checks_by_subject(report) == {
        key: (value.hex(), n, value <= 1e-9) for key, (value, n) in reference.items()
    }
    assert report.ok == all(value <= 1e-9 for value, _ in reference.values())
    # the Ohm verdicts read from the columns are the hyperreal ones, audit included
    decided = audit[:]
    del audit[:]
    verdicts = [network._ohm_class_verdict(op, bid) for bid in sorted(net.data)]
    assert [c.class_verdict for c in report.checks if c.law == "Ohm"] == verdicts
    assert decided == audit
    event(f"{verdicts.count('UNEQUAL')} of {len(verdicts)} unequal")


def test_column_law_checks_match_on_the_generated_route():
    op = operating_point(divider_network(), FilterOracle())
    op.currents["b2"] = op.currents["b2"] + Hyperreal(
        generated(lambda n: 1e-6 * (n % 5), 512), op.oracle
    )
    report = verify_laws(op, check_upto=40)
    assert checks_by_subject(report) == {
        key: (value.hex(), n, value <= 1e-9)
        for key, (value, n) in reference_law_worst(op, check_upto=40).items()
    }
    assert not report.ok


def law_fault(name, raise_at, bad_at, value, bad):
    """``value(n)``, but raising at ``raise_at`` and ``bad`` at ``bad_at``
    (either None for no fault), as a keyed generated rule."""

    def rule(n):
        if n == raise_at:
            raise LookupError(f"{name}: no value at n={n}")
        return bad if n == bad_at else value(n)

    return generated(rule, 4 * _BLOCK, key=(name, raise_at, bad_at))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_law_checks_fail_as_the_per_index_check(data):
    # The family reads its assignment at 0..64 when it is built, so the
    # assignment's fault lies past 64; the others may share its index.
    at = data.draw(st.integers(65, 95), label="at")

    def where(low):
        return data.draw(st.one_of(st.none(), st.just(at), st.integers(low, 95)))

    r_raise, r_bad, e_raise, proto_raise = where(0), where(0), where(0), where(65)
    check_upto = data.draw(st.integers(60, 100), label="check_upto")
    g0 = StandardGraph(
        "tri", 0, nodes0=["a", "b", "c"], branches={"b1": ("a", "b"), "b2": ("b", "c"), "b3": ("c", "a")}
    )
    g1 = StandardGraph(
        "par", 0, nodes0=["a", "b", "c"], branches={"b1": ("a", "b"), "b2": ("a", "b"), "b3": ("b", "c")}
    )
    net = NsNetwork(
        "faults",
        GraphFamily("faultfam", (g0, g1), law_fault("proto", proto_raise, None, lambda n: n % 3 // 2, 0)),
        {
            "b3": (periodic((), (2.0,)), periodic((), (2.0, -1.0))),
            "b1": (
                law_fault("r", r_raise, r_bad, lambda n: 1.0 + n / 8, -1.0),
                law_fault("e", e_raise, None, lambda n: 0.5, 0.0),
            ),
            "b2": (periodic((3.0,), (1.5,)), periodic((), (0.0,))),
        },
    )
    op = operating_point(net, FilterOracle())
    assert op.route == "generated"
    try:
        reference = reference_law_worst(op, check_upto=check_upto)
    except Exception:  # noqa: BLE001 - verify_laws must raise the same
        expected = failure_of(lambda: reference_law_worst(op, check_upto=check_upto))
        assert failure_of(lambda: verify_laws(op, check_upto=check_upto)) == expected
        return
    assert checks_by_subject(verify_laws(op, check_upto=check_upto)) == {
        key: (value.hex(), n, value <= 1e-9) for key, (value, n) in reference.items()
    }


def test_generated_law_checks_make_no_single_value_reads(monkeypatch):
    import ultragraph.sequences as sequences_module
    import ultragraph.ultrapower as ultrapower_module

    calls, rule_calls = [], []
    solution_rule, original = network._solution_rule, sequences_module.value_at

    def counted_rule(*args):
        rule = solution_rule(*args)

        def counted(n):
            rule_calls.append(n)
            return rule(n)

        counted.fill = rule.fill
        return counted

    def counting(seq, n):
        calls.append(n)
        return original(seq, n)

    monkeypatch.setattr(network, "_solution_rule", counted_rule)
    op = operating_point(chain_network(named_generator("affine", (1, 1), 700)), FilterOracle())
    for module in (network, sequences_module, ultrapower_module):
        monkeypatch.setattr(module, "value_at", counting)
    report = verify_laws(op)
    assert report.ok and report.checks
    assert calls == [] and rule_calls == []


def alternating_op():
    """The two-phase loop of ``test_alternating_family_solves_per_phase``."""
    g = StandardGraph(
        "alt0", 0, nodes0=["a", "b"], branches={"b1": ("a", "b"), "b2": ("b", "a")}
    )
    net = NsNetwork(
        "alt",
        GraphFamily("altfam", (g,)),
        {
            "b1": (periodic((), (1.0,)), periodic((), (3.0,))),
            "b2": (periodic((), (2.0, 0.5)), periodic((), (0.0,))),
        },
    )
    return operating_point(net, FilterOracle())


@pytest.mark.parametrize("route", ["periodic", "generated"])
@pytest.mark.parametrize("phase", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_nan_residual_violates_its_law_at_its_first_index(route, phase, bad):
    if route == "periodic":
        op = alternating_op()
        op.currents["b1"] = perturbed(op.currents["b1"], None, 2, [(phase, bad)])
    else:
        op = operating_point(divider_network(), FilterOracle())
        op.currents["b1"] = op.currents["b1"] + Hyperreal(
            generated(lambda n: bad if n in (phase, phase + 2) else 0.0, 512), op.oracle
        )
    report = verify_laws(op, check_upto=8)
    checks = {(c.law, c.subject): c for c in report.checks}
    assert not report.ok
    # an infinite current gives inf/inf = NaN once normalized by the scale
    for key in (("KCL", "node a"), ("KCL", "node b"), ("Ohm", "branch b1"), ("Tellegen", "total power")):
        check = checks[key]
        assert math.isnan(check.worst) and check.witness == phase and not check.ok
        assert "VIOLATED (worst residual nan at n=%d" % phase in check.render()
    assert checks[("Ohm", "branch b2")].ok and checks[("KVL", "loop of b2")].ok


def test_periodic_law_checks_make_no_single_value_reads(monkeypatch):
    import ultragraph.network as network_module
    import ultragraph.sequences as sequences_module
    import ultragraph.ultrapower as ultrapower_module

    g0 = StandardGraph("g0", 0, nodes0=["a", "b"], branches={"b1": ("a", "b"), "b2": ("b", "a")})
    g1 = StandardGraph("g1", 0, nodes0=["a", "c"], branches={"b1": ("a", "c"), "b2": ("a", "c")})
    net = NsNetwork(
        "two",
        GraphFamily("twofam", (g0, g1), periodic((1,), (0, 1, 1))),
        {
            "b1": (periodic((), (1.0, 2.0)), periodic((0.5,), (3.0,))),
            "b2": (periodic((), (2.0, 0.5, 4.0)), periodic((), (0.0, 1.0))),
        },
    )
    op = operating_point(net, FilterOracle())
    calls = []
    original = sequences_module.value_at

    def counting(seq, n):
        calls.append(n)
        return original(seq, n)

    for module in (network_module, sequences_module, ultrapower_module):
        monkeypatch.setattr(module, "value_at", counting)
    report = verify_laws(op)
    assert report.ok and calls == []


SPECIAL_VALUES = [math.inf, -math.inf, math.nan, -0.0, 0, 3, -7]


def integral(net, rng):
    """``net`` with the data of some branches rounded to Python ints, each
    resistance at least 1."""
    data = dict(net.data)
    for bid in rng.sample(sorted(data), rng.randint(0, len(data))):
        r, e = data[bid]
        data[bid] = (
            periodic([max(1, round(x)) for x in r.pre], [max(1, round(x)) for x in r.cycle]),
            periodic([round(x) for x in e.pre], [round(x) for x in e.cycle]),
        )
    return NsNetwork(net.name, net.family, data)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_protos=st.integers(1, 3),
    nudges=st.lists(
        st.tuples(st.sampled_from(["currents", "voltages"]), st.integers(0, 10**6), st.sampled_from(SPECIAL_VALUES)),
        max_size=4,
    ),
)
def test_array_law_checks_match_the_per_index_loop_on_special_values(seed, n_protos, nudges):
    rng = random.Random(seed)
    net = integral(random_periodic_network(rng, n_protos), rng)
    try:
        op = operating_point(net, FilterOracle())
    except NumericalFailure:
        return  # a random prototype can be singular; nothing to check then
    head, period = joint_window(net.descriptors())
    width = head + period
    for part, at, value in nudges:
        numbers = getattr(op, part)
        bid = sorted(numbers)[at % len(numbers)]
        numbers[bid] = perturbed(numbers[bid], rng, width, [(at % width, value)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_laws(op)
    reference = reference_law_worst(op, nan_worst=True)
    assert checks_by_subject(report) == {
        key: (value.hex(), n, value <= 1e-9) for key, (value, n) in reference.items()
    }


# -- column reads for nodal solves -----------------------------------------------------


def row_major_solve(net, indices):
    """The row-major reader ``_solve_at_indices`` replaced, kept as its reference."""
    declared = list(net.data)
    seqs = [seq for bid in declared for seq in net.data[bid]]
    order = [declared.index(bid) for bid in sorted(declared)]
    results = {}
    groups = {}
    for n in indices:
        try:
            values = [float(value_at(seq, n)) for seq in seqs]
            graph = net.family.graph_at(n)
        except Exception as exc:
            results[n] = exc
            continue
        _, ns, rows = groups.setdefault(id(graph), (graph, [], []))
        ns.append(n)
        rows.append(values)
    for graph, ns, rows in groups.values():
        table = np.array(rows)
        r, e = table[:, 0::2][:, order], table[:, 1::2][:, order]
        results.update(batch_outcomes(graph, ns, _solve_batch(graph, r, e, ns)))
    return results


def outcome(result):
    if isinstance(result, Exception):
        return type(result), str(result), getattr(result, "index", None)
    return result


def cells(solution, graph):
    """A StandardSolution's values of ``graph``'s nodes and branches by
    (part, name), as float.hex."""
    return {
        (part, name): getattr(solution, part)[name].hex()
        for part, names in (
            ("potentials", graph.nodes0),
            ("currents", graph.branches),
            ("voltages", graph.branches),
        )
        for name in names
    }


def column_cells(net, solved):
    """``cells`` per index of a column result: its failure, or its row of
    every column that the index's prototype has."""
    found = {}
    for k, n in enumerate(solved.indices):
        if n in solved.failed:
            found[n] = outcome(solved.failed[n])
            continue
        graph = net.family.graph_at(n)
        columns = (
            (solved.potentials, graph.nodes0),
            (solved.currents, graph.branches),
            (solved.voltages, graph.branches),
        )
        row = StandardSolution(*({name: col[name][k] for name in names} for col, names in columns))
        found[n] = cells(row, graph)
    return found


def assert_columns_match_rows(net, indices):
    """``_solve_at_indices`` against the row-major reader: the same failed
    indices with the same failures, and every other cell by float.hex."""
    solved, expected = _solve_at_indices(net, indices), row_major_solve(net, indices)
    assert solved.indices == indices
    assert sorted(solved.currents) == sorted(solved.voltages) == sorted(net.data)
    parts = (solved.potentials, solved.currents, solved.voltages)
    assert all(len(col) == len(indices) for part in parts for col in part.values())
    assert set(solved.failed) == {n for n, x in expected.items() if isinstance(x, Exception)}
    assert column_cells(net, solved) == {
        n: outcome(x) if isinstance(x, Exception) else cells(x, net.family.graph_at(n))
        for n, x in expected.items()
    }


FAULTS = [None, "ohm", ValueError("no data here"), KeyError("gone"), math.inf, -1.0]


def faulty(fault, k, base, periodic_form):
    """``base + n`` at every index but k, where the datum is ``fault`` (a
    value, or an exception its rule raises; None for no fault). Written as
    a cycle of k + 2 values after one preperiod value when asked and the
    fault is a value, else as a generated rule."""
    if periodic_form and not isinstance(fault, Exception):
        values = [base + n for n in range(k + 3)]
        if fault is not None:
            values[k] = fault
        return periodic(values[:1], values[1:])

    def rule(n):
        if n != k or fault is None:
            return base + n
        if isinstance(fault, Exception):
            raise fault
        return fault

    return generated(rule, 4 * _BLOCK, key=("faulty", base, k, repr(fault)))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 2 * _BLOCK + 5),
    faults=st.tuples(st.sampled_from(FAULTS), st.sampled_from(FAULTS), st.sampled_from(FAULTS)),
    forms=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    start=st.integers(0, 2 * _BLOCK),
)
def test_column_reads_fail_each_index_as_the_row_major_reader(k, faults, forms, start):
    g0 = StandardGraph(
        "tri", 0, nodes0=["a", "b", "c"], branches={"b1": ("a", "b"), "b2": ("b", "c"), "b3": ("c", "a")}
    )
    g1 = StandardGraph(
        "par", 0, nodes0=["a", "b", "c"], branches={"b1": ("a", "b"), "b2": ("a", "b"), "b3": ("b", "c")}
    )
    net = NsNetwork(
        "faults",
        GraphFamily("faultfam", (g0, g1), periodic((1,), (0, 0, 1))),
        {
            "b3": (faulty(faults[0], k, 1.0, forms[0]), periodic((), (2.0, -1.0))),
            "b1": (faulty(faults[1], k, 2.0, forms[1]), faulty(faults[2], k, 0.5, forms[2])),
            "b2": (periodic((3.0,), (1.5,)), periodic((), (0.0,))),
        },
    )
    for indices in (range(start, start + _BLOCK), range(max(0, k - 3), k + 4)):
        assert_columns_match_rows(net, indices)


HORIZON = 2000
LAST_BLOCK = HORIZON - HORIZON % _BLOCK  # the last block, 1792 .. 2000, is partial


@pytest.mark.parametrize(
    "fault", [0.0, 1e-15, ValueError("no data here")], ids=["nonpositive", "ill-conditioned", "raising"]
)
@pytest.mark.parametrize(
    "k",
    [300, _BLOCK, 2 * _BLOCK - 1, LAST_BLOCK, 1900, HORIZON],
    ids=["mid-block", "block-start", "block-end", "last-block-start", "last-block-mid", "horizon"],
)
def test_columns_match_the_row_major_reader_up_to_the_horizon(k, fault):
    def rule(n):
        if n != k:
            return 1.0 + n
        if isinstance(fault, Exception):
            raise fault
        return fault

    net = chain_network(generated(rule, HORIZON, key=("spike", HORIZON, k, repr(fault))))
    for start in range(0, HORIZON + 1, _BLOCK):
        assert_columns_match_rows(net, range(start, min(start + _BLOCK, HORIZON + 1)))
    filled, single = (operating_point(net, FilterOracle()) for _ in range(2))
    assert filled.horizon == HORIZON
    for part in ("currents", "potentials"):
        for name, number in getattr(filled, part).items():
            ref = getattr(single, part)[name].rep
            assert read_outcome(lambda: values_window(number.rep, HORIZON)) == read_outcome(
                lambda: [value_at(ref, n) for n in range(HORIZON + 1)]
            )


def test_generated_data_are_read_through_their_windows(monkeypatch):
    calls = []

    def counting(seq, n):
        calls.append(n)
        return value_at(seq, n)

    monkeypatch.setattr(network, "value_at", counting)
    healthy = chain_network(named_generator("affine", (1, 1), 700))
    for start in range(0, 701, _BLOCK):
        assert not _solve_at_indices(healthy, range(start, min(start + _BLOCK, 701))).failed
    op = operating_point(healthy, FilterOracle())
    assert [_advisory_class(h).describe() for h in [*op.currents.values(), *op.potentials.values()]]
    assert calls == []
    # a rule that cannot be weakly referenced is evaluated once per index
    # too: the window lives on its descriptor
    class Unkept:
        __slots__ = ()

        def __call__(self, n):
            calls.append(n)
            return 1.0 + n

    unkept = chain_network(generated(Unkept(), 700))
    for start in range(0, 701, _BLOCK):
        assert not _solve_at_indices(unkept, range(start, min(start + _BLOCK, 701))).failed
    assert calls == list(range(701))
    calls.clear()
    # a datum is read index by index only from where its window stops short
    faulted = chain_network(spike(300, ValueError("no data here")))
    assert list(_solve_at_indices(faulted, range(_BLOCK, 2 * _BLOCK)).failed) == [300]
    assert calls == list(range(300, 2 * _BLOCK))


def test_a_periodic_solve_converts_each_cycle_value_once(monkeypatch):
    # Every datum's values are distinct from every other's, so a value seen
    # twice was converted twice.
    g = StandardGraph(
        "tri", 0, nodes0=["a", "b", "c"], branches={"b1": ("a", "b"), "b2": ("b", "c"), "b3": ("c", "a")}
    )
    data = {
        bid: tuple(
            periodic([100.0 * k + 50.5 + d], [100.0 * k + d + j + 1 for j in range(length)])
            for d in (0, 10)
        )
        for k, (bid, length) in enumerate((("b1", 2), ("b2", 3), ("b3", 5)))
    }
    net = NsNetwork("once", GraphFamily("oncefam", (g,)), data)
    head, period = joint_window(net.descriptors())
    calls = []
    as_float = network._as_float

    def counting(value):
        calls.append(value)
        return as_float(value)

    monkeypatch.setattr(network, "_as_float", counting)
    for indices in (range(head + period), range(_BLOCK + 1, 2 * _BLOCK), range(7, 9)):
        calls.clear()
        assert not _solve_at_indices(net, indices).failed
        assert calls and max(Counter(calls).values()) == 1
        assert set(calls) <= {x for r, e in data.values() for seq in (r, e) for x in seq.pre + seq.cycle}
    assert operating_point(net, FilterOracle()).route == "periodic"
    assert_columns_match_rows(net, range(head + period))


def grid_network(rows=3, cols=4, seed=5):
    """A periodic-data grid: resistances and EMFs cycle with lengths 1, 2, 3
    and 5, some after a preperiod."""
    rng = random.Random(seed)
    nodes = [f"n{i}{j}" for i in range(rows) for j in range(cols)]
    branches = {}
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                branches[f"h{i}{j}"] = (f"n{i}{j}", f"n{i}{j + 1}")
            if i + 1 < rows:
                branches[f"v{i}{j}"] = (f"n{i}{j}", f"n{i + 1}{j}")
    g = StandardGraph("grid", 0, nodes0=nodes, branches=branches)

    def cycling(lo, hi):
        pre = [rng.uniform(lo, hi) for _ in range(rng.choice((0, 0, 1)))]
        return periodic(pre, [rng.uniform(lo, hi) for _ in range(rng.choice((1, 2, 3, 5)))])

    data = {bid: (cycling(0.5, 4.0), cycling(-3.0, 3.0)) for bid in branches}
    return NsNetwork("mesh", GraphFamily("gridfam", (g,)), data)


def test_a_healthy_periodic_solve_makes_no_svd(monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counting(*args, **kwargs):
        calls.append(args)
        return cond(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting)
    op = operating_point(grid_network(), FilterOracle())
    assert op.route == "periodic"
    assert verify_laws(op).ok
    assert calls == []
    # an ill-conditioned phase still gets its SVD estimate
    with pytest.raises(NumericalFailure, match=r"at index n=1"):
        operating_point(chain_network(periodic((), (1.0, 1e-15))), FilterOracle())
    assert len(calls) == 1


def svd_gate(matrices, indices):
    """The condition gate without certificates, kept as the reference:
    np.linalg.cond on each matrix alone against the limit 1e12."""
    passed, failed = [], {}
    for row, (matrix, n) in enumerate(zip(matrices, indices)):
        try:
            condition = float(np.linalg.cond(matrix))
        except np.linalg.LinAlgError as exc:
            failed[n] = exc
            continue
        if math.isfinite(condition) and condition <= 1e12:
            passed.append(row)
        else:
            failed[n] = NumericalFailure(
                f"nodal matrix is ill-conditioned (condition {condition:.3e})",
                condition=condition,
                index=n,
            )
    return passed, failed


def failures(found):
    return {
        n: (type(x), str(x), getattr(x, "index", None), repr(getattr(x, "condition", None)))
        for n, x in found.items()
    }


def gated_solve(graph, r, e, indices):
    """``_solve_batch`` with every gate decision checked against ``svd_gate``,
    and the same solve with no matrix certified: both must agree bit for bit.
    Also returns each gated stack with the matrices the certificate passed,
    every one of which the SVD places at most 1e10."""
    gate, stacks = network._well_conditioned, []

    def compared(matrices, passed, at, failed):
        certified = passed.copy()
        found = {}
        got = gate(matrices, passed, at, found)
        expected_passed, expected_failed = svd_gate(matrices, at)
        assert got.tolist() == expected_passed
        assert failures(found) == failures(expected_failed)
        assert all(np.linalg.cond(matrix) <= 1e10 for matrix in matrices[certified])
        failed.update(found)
        stacks.append((matrices.copy(), certified))
        return got

    with mock.patch.object(network, "_well_conditioned", compared):
        got = _solve_batch(graph, r, e, indices)
    with mock.patch.object(network, "_certified", lambda g, limits: np.zeros(len(g), dtype=bool)):
        svd_only = _solve_batch(graph, r, e, indices)
    for array, reference in zip(got[:3], svd_only[:3]):
        assert array.tobytes() == reference.tobytes()
    assert failures(got[3]) == failures(svd_only[3])
    return got, stacks


RESISTANCES = {
    "plain": lambda rng: rng.uniform(0.1, 10.0),
    "spread": lambda rng: 10.0 ** rng.uniform(-150, 150),
    "subnormal": lambda rng: 5e-324 * rng.randint(1, 2**52),  # 1/r overflows to inf
    "singular": lambda rng: rng.choice((1.0, 1e-20, 1e20)),
}


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_nodes=st.integers(1, 6),
    n_branches=st.integers(1, 8),
    size=st.integers(1, 6),
    kinds=st.lists(st.sampled_from(sorted(RESISTANCES)), min_size=1, max_size=3),
)
def test_certified_gate_decides_as_the_svd_gate(seed, n_nodes, n_branches, size, kinds):
    # endpoints drawn independently: self-loops, parallel branches, isolated
    # nodes and disconnected components all occur
    rng = random.Random(seed)
    nodes = [f"n{k}" for k in range(n_nodes)]
    branches = {f"b{k}": (rng.choice(nodes), rng.choice(nodes)) for k in range(n_branches)}
    graph = StandardGraph("rand", 0, nodes0=nodes, branches=branches)
    r = [[RESISTANCES[rng.choice(kinds)](rng) for _ in branches] for _ in range(size)]
    e = [[rng.uniform(-5.0, 5.0) for _ in branches] for _ in range(size)]
    _, stacks = gated_solve(graph, r, e, list(range(7, 7 + size)))
    for _, certified in stacks:
        event(f"certified {certified.sum()} of {len(certified)}")


def counted(monkeypatch, module, name):
    """Record the first argument of each call to ``module.name``."""
    calls, original = [], getattr(module, name)

    def counting(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_an_exactly_singular_matrix_falls_back_to_the_svd_gate_alone(monkeypatch):
    # b2's conductance 1e20 absorbs b1's 1 on the diagonal: [[1e20, -1e20], [-1e20, 1e20]]
    g = StandardGraph("chain", 0, nodes0=["a", "b", "c"], branches={"b1": ("a", "b"), "b2": ("b", "c")})
    r = [[1.0, 2.0], [1.0, 1e-20], [3.0, 0.5]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.array([[1e20, -1e20], [-1e20, 1e20]]), np.ones(2))
    (phi, _, _, failed), ((_, certified),) = gated_solve(g, r, [[1.0, 0.0]] * 3, [0, 1, 2])
    assert list(failed) == [1]
    assert isinstance(failed[1], NumericalFailure) and failed[1].index == 1
    assert phi[[0, 2]].any()
    # the singular matrix goes to the SVD alone; the others are certified
    assert certified.tolist() == [True, False, True]
    judged = counted(monkeypatch, network, "_condition_numbers")
    _solve_batch(g, r, [[1.0, 0.0]] * 3, [0, 1, 2])
    assert [len(stack) for stack in judged] == [1]


def test_a_fully_certified_block_makes_one_solve_and_no_svd(monkeypatch):
    graph = grid_network().family.prototypes[0]
    m = len(graph.nodes0) - 1
    rng = random.Random(5)
    r = [[rng.uniform(0.5, 4.0) for _ in graph.branches] for _ in range(_BLOCK)]
    e = [[rng.uniform(-3.0, 3.0) for _ in graph.branches] for _ in range(_BLOCK)]
    solves = counted(monkeypatch, np.linalg, "solve")
    svds = counted(monkeypatch, np.linalg, "cond")
    phi, _, _, failed = _solve_batch(graph, r, e, list(range(_BLOCK)))
    assert not failed and phi.any()
    # the unit-conductance matrix once per batch, then the block in one call
    assert [stack.shape for stack in solves] == [(m, m), (_BLOCK, m, m)]
    assert svds == []


# -- generated windows filled from solved blocks -----------------------------------------


def read_outcome(read):
    """Each value as float.hex, or what the read raises, as ``failure_of`` gives it."""
    try:
        return [value.hex() for value in read()]
    except Exception:  # noqa: BLE001 - compared as data
        return failure_of(read)


@pytest.mark.parametrize(
    "k", [300, _BLOCK, 2 * _BLOCK - 1, 10**6], ids=["mid-block", "block-start", "block-end", "healthy"]
)
def test_generated_windows_match_per_index_solves_bit_for_bit(k):
    net = chain_network(spike(k, 0.0))
    filled, single = (operating_point(net, FilterOracle()) for _ in range(2))
    for part in ("currents", "voltages", "potentials"):
        for name, number in getattr(filled, part).items():
            rep, ref = number.rep, getattr(single, part)[name].rep
            # windows grown from index 0, then from inside and across blocks
            for upto in (10, min(k, 500) - 1, min(k, 500), 3 * _BLOCK):
                assert read_outcome(lambda: values_window(rep, upto)) == read_outcome(
                    lambda: [value_at(ref, n) for n in range(upto + 1)]
                )


def test_advisory_labels_solve_each_block_once_and_call_no_rule_per_index(monkeypatch):
    solved, rule_calls = [], []
    solve_at_indices, solution_rule = network._solve_at_indices, network._solution_rule

    def counted_solve(net, indices):
        solved.append(indices)
        return solve_at_indices(net, indices)

    def counted_rule(*args):
        rule = solution_rule(*args)

        def counted(n):
            rule_calls.append(n)
            return rule(n)

        counted.fill = rule.fill
        return counted

    monkeypatch.setattr(network, "_solve_at_indices", counted_solve)
    monkeypatch.setattr(network, "_solution_rule", counted_rule)
    horizon = _SOLVED_BLOCK + 700  # more than one block
    op = operating_point(chain_network(named_generator("affine", (1, 1), horizon)), FilterOracle())
    labels = [*op.currents.values(), *op.voltages.values(), *op.potentials.values()]
    assert [_advisory_class(h).describe() for h in labels]
    assert rule_calls == []
    assert len(solved) > 1
    assert sorted(n for indices in solved for n in indices) == list(range(horizon + 1))


def test_only_the_periodic_route_turns_voltages_into_columns(monkeypatch):
    blocks = []
    solve_at_indices = network._solve_at_indices

    def keeping(net, indices):
        found = solve_at_indices(net, indices)
        blocks.append(found)
        return found

    monkeypatch.setattr(network, "_solve_at_indices", keeping)
    horizon = _SOLVED_BLOCK + 700  # more than one block
    op = operating_point(chain_network(named_generator("affine", (1, 1), horizon)), FilterOracle())
    labels = [*op.currents.values(), *op.voltages.values(), *op.potentials.values()]
    assert [_advisory_class(h).describe() for h in labels]
    assert verify_laws(op, tol=1e-9).ok
    assert len(blocks) > 1 and not any("voltages" in vars(found) for found in blocks)
    blocks.clear()
    op = operating_point(chain_network(periodic((1,), (2.0, 5.0))), FilterOracle())
    (found,) = blocks
    assert "voltages" in vars(found)
    assert found.voltages == dict(zip(sorted(op.voltages), found.voltage_rows.T.tolist()))
    assert [value_at(op.voltages["b1"].rep, n) for n in range(3)] == found.voltages["b1"]


def test_a_generated_assignment_is_solved_within_its_horizon():
    g = StandardGraph(
        "loop0", 0, nodes0=["a", "b"], branches={"b1": ("a", "b"), "b2": ("b", "a")}
    )
    data = {
        "b1": (periodic((), (1.0,)), periodic((), (3.0,))),
        "b2": (periodic((4.0,), (2.0, 5.0)), periodic((), (0.0,))),
    }
    gen = NsNetwork("series", GraphFamily("f", (g,), named_generator("mod", (1,), 100)), data)
    fixed = NsNetwork("series", GraphFamily("f", (g,), periodic((), (0,))), data)
    op, ref = operating_point(gen, FilterOracle()), operating_point(fixed, FilterOracle())
    assert (op.route, op.horizon, ref.route) == ("generated", 100, "periodic")
    for bid in data:
        got = values_window(op.currents[bid].rep, 100)
        assert [v.hex() for v in got] == [v.hex() for v in values_window(ref.currents[bid].rep, 100)]
    with pytest.raises(BeyondHorizon, match="n=101 beyond horizon 100"):
        value_at(op.currents["b1"].rep, 101)
    assert verify_laws(op).ok


# -- one solve per generated block ----------------------------------------------------


def test_the_generated_law_check_reaches_the_last_solved_index():
    op = operating_point(divider_network(), FilterOracle())
    assert op.horizon == 512
    v = op.voltages["b1"].rep
    op.voltages["b1"] = Hyperreal(
        generated(lambda n: value_at(v, n) + (1.0 if n == 512 else 0.0), 512), op.oracle
    )
    report = verify_laws(op, check_upto=10**6)
    ohm = {c.subject: c for c in report.checks if c.law == "Ohm"}["branch b1"]
    assert (ohm.ok, ohm.witness) == (False, 512)
    assert verify_laws(op, check_upto=512).ok  # n = 0 .. 511


def test_one_block_reads_each_periodic_datum_once(tmp_path, monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    path = tmp_path / "generated-solve.ug"
    subprocess.run(
        [sys.executable, str(root / "ugbench" / "gen.py"), "generated-solve", "--seed", "1", "--out", str(path)],
        check=True,
        capture_output=True,
    )
    solving, solves, columns = [], [], []
    solve_at_indices, periodic_column = network._solve_at_indices, network._periodic_column

    def counted_solve(net, indices):
        solves.append(net)
        solving.append(net)
        try:
            return solve_at_indices(net, indices)
        finally:
            solving.pop()

    def counted_column(seq, indices, convert):
        if solving:  # the law check reads its own columns
            columns.append((id(solving[-1]), id(seq), indices))
        return periodic_column(seq, indices, convert)

    monkeypatch.setattr(network, "_solve_at_indices", counted_solve)
    monkeypatch.setattr(network, "_periodic_column", counted_column)
    assert main(["solve", str(path)]) == 0
    assert [net.name for net in solves] == ["drawn", "fault"]  # one block each
    periodic_data = {
        (id(net), id(seq))
        for net in solves
        for pair in net.data.values()
        for seq in pair
        if isinstance(seq, PeriodicSeq)
    }
    assert len(columns) == len(periodic_data) == 46
    assert {(name, key) for name, key, _ in columns} == periodic_data
    assert all(indices == range(2001) for _, _, indices in columns)
    capsys.readouterr()
