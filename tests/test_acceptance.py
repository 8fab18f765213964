"""Acceptance gate: the eight documented criteria, one PASS/FAIL line each.

Every criterion is a seeded, deterministic run with pinned tolerances; the
PASS/FAIL lines are written through the capture so they land in the plain
pytest transcript.
"""

import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ultragraph import (
    OMEGA,
    Branch,
    Extremity,
    FilterOracle,
    GraphFamily,
    Hypernatural,
    Hyperreal,
    IndexSet,
    MagnitudeClass,
    Membership,
    NsNetwork,
    StandardGraph,
    StandardNetwork,
    StandardNode,
    build_ns_graph,
    classify,
    extremities,
    hr_eq,
    ns_extremity,
    ns_shorted,
    omega_exceptional_query,
    omega_tip_query,
    operating_point,
    periodic,
    solve_standard,
    truncate,
    verify_laws,
)
from ultragraph.sequences import agreement_set, value_at

from conftest import (
    alternating_3graphs,
    audit_fields,
    ladder_1graph,
    loop_2graph,
    random_network,
    tower_omega_graph,
)
from reference_solver import brute_force_solve, close

TOL = 1e-9
POINTWISE_UPTO = 64
ROOT = Path(__file__).resolve().parent.parent


def _line(k: int, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail and not ok else ""
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'}{tail}", file=sys.__stdout__)


def _random_ep_set(rng: random.Random) -> IndexSet:
    pre = [rng.random() < 0.5 for _ in range(rng.randint(0, 4))]
    cycle = [rng.random() < 0.5 for _ in range(rng.randint(1, 12))]
    if not any(cycle) and not any(pre):
        cycle[0] = True
    return IndexSet.eventually_periodic(pre, cycle)


def test_criterion_1_ultrafilter_laws():
    started = time.monotonic()
    rng = random.Random(101)
    orc = FilterOracle()
    try:
        for _ in range(200):
            s = _random_ep_set(rng)
            t = _random_ep_set(rng)
            s_in = orc.decide(s, context="s") is Membership.IN
            c_in = orc.decide(s.complement(), context="~s") is Membership.IN
            assert s_in != c_in  # complementarity
            if s_in:
                assert orc.decide(s.union(t), context="s|t") is Membership.IN
            if s_in and orc.decide(t, context="t") is Membership.IN:
                assert orc.decide(s.intersection(t), context="s&t") is Membership.IN
            finite = IndexSet.finite(rng.sample(range(200), rng.randint(0, 8)))
            assert orc.decide(finite, context="finite") is Membership.OUT
        for _ in range(50):
            m = rng.randint(2, 8)
            groups = rng.randint(2, min(m, 8))
            labels = [rng.randrange(groups) for _ in range(m)]
            while len(set(labels)) < 2:
                labels = [rng.randrange(groups) for _ in range(m)]
            parts = [
                IndexSet.eventually_periodic((), [lab == g for lab in labels])
                for g in sorted(set(labels))
            ]
            chosen = orc.select_from_partition(parts, context="parts")
            verdicts = [orc.decide(p, context="part") for p in parts]
            assert verdicts.count(Membership.IN) == 1
            assert verdicts[chosen] is Membership.IN
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
    except AssertionError as err:
        _line(1, False, str(err))
        raise
    _line(1, True)


def split_1graph():
    return StandardGraph(
        "split",
        1,
        nodes0=["a", "b"],
        branches={"b1": ("a", "b"), "b2": ("b", "a")},
        tips={0: ["p0", "q0"]},
        nodes=[
            StandardNode.make("x1", 1, ("p0",)),
            StandardNode.make("y1", 1, ("q0",)),
        ],
    )


def test_criterion_2_equivalence_relations():
    rng = random.Random(202)
    orc = FilterOracle()
    try:
        # hyperreal equality over a universe of periodic classes
        numbers = []
        pool = [0.0, 1.0, 2.0]
        for _ in range(20):
            cycle = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
            numbers.append(Hyperreal(periodic((), cycle), orc))
        for x in numbers:
            assert hr_eq(x, x)
        for x in numbers:
            for y in numbers:
                assert hr_eq(x, y) == hr_eq(y, x)
        for x in numbers:
            for y in numbers:
                for z in numbers:
                    if hr_eq(x, y) and hr_eq(y, z):
                        assert hr_eq(x, z)
                    for n in range(POINTWISE_UPTO + 1):
                        xn, yn, zn = (value_at(w.rep, n) for w in (x, y, z))
                        if xn == yn and yn == zn:
                            assert xn == zn
        # shorting over a universe of periodic tip classes
        mix = GraphFamily("mix", (ladder_1graph(), split_1graph()), periodic((), (0, 1)))
        tips = [Extremity("tip", "p0", 0), Extremity("tip", "q0", 0)]
        universe = [
            ns_extremity(
                mix,
                1,
                periodic((), tuple(rng.choice(tips) for _ in range(rng.randint(1, 4)))),
            )
            for _ in range(20)
        ]
        shorted = {}
        for i, e in enumerate(universe):
            assert ns_shorted(e, e, orc)
            for j, f in enumerate(universe):
                shorted[i, j] = ns_shorted(e, f, orc)
                assert shorted[i, j] == shorted.get((j, i), shorted[i, j])
        for i in range(len(universe)):
            for j in range(len(universe)):
                for k in range(len(universe)):
                    if shorted[i, j] and shorted[j, k]:
                        assert shorted[i, k]
                    for n in range(POINTWISE_UPTO + 1):
                        owners = [
                            value_at(universe[w].owner_rep, n) for w in (i, j, k)
                        ]
                        if owners[0] == owners[1] and owners[1] == owners[2]:
                            assert owners[0] == owners[2]
    except AssertionError as err:
        _line(2, False, str(err))
        raise
    _line(2, True)


def _constant_families():
    a, b = alternating_3graphs()
    return [
        GraphFamily("lad", (ladder_1graph(),)),
        GraphFamily("spl", (split_1graph(),)),
        GraphFamily("loo", (loop_2graph(),)),
        GraphFamily("cA", (a,)),
        GraphFamily("cB", (b,)),
    ]


def test_criterion_3_constant_transfer():
    orc = FilterOracle()
    try:
        fams = _constant_families()
        assert len(fams) >= 5
        for fam in fams:
            proto = fam.prototypes[0]
            ns = build_ns_graph(fam, orc)
            for level in range(1, proto.rank + 1):
                layer = ns.layers[level]
                owners = []
                for node in layer.nodes:
                    owner_values = {
                        value_at(m.owner_rep, 0) for m in node.members
                    }
                    assert len(owner_values) == 1
                    owners.append(owner_values.pop())
                assert sorted(owners) == sorted(proto.layer_nodes(level))
            # the lifted operating point is the standard solution verbatim
            data = {
                bid: Branch(1.0 + k, 2.0 if k == 0 else 0.0)
                for k, bid in enumerate(sorted(proto.branches))
            }
            net = NsNetwork(
                f"{fam.name}net",
                fam,
                {
                    bid: (
                        periodic((), (br.resistance,)),
                        periodic((), (br.emf,)),
                    )
                    for bid, br in data.items()
                },
            )
            op = operating_point(net, orc)
            std = solve_standard(StandardNetwork(proto, data))
            assert op.route == "periodic"
            for bid in data:
                assert op.currents[bid].rep == periodic((), (std.currents[bid],))
                assert op.voltages[bid].rep == periodic((), (std.voltages[bid],))
    except AssertionError as err:
        _line(3, False, str(err))
        raise
    _line(3, True)


def test_criterion_4_node_properties():
    orc = FilterOracle()
    try:
        a, b = alternating_3graphs()
        tower = GraphFamily("towerfam", (tower_omega_graph(),))
        builds = [
            build_ns_graph(GraphFamily("lad", (ladder_1graph(),)), orc),
            build_ns_graph(GraphFamily("loo", (loop_2graph(),)), orc),
            build_ns_graph(GraphFamily("alt", (a, b), periodic((), (0, 1))), orc),
            build_ns_graph(
                tower,
                orc,
                mu_max=3,
                queries={
                    OMEGA: [
                        omega_tip_query(tower, 4096),
                        omega_exceptional_query(tower, 4096),
                    ]
                },
            ),
        ]
        for ns in builds:
            for level, layer in ns.layers.items():
                for node in layer.nodes:
                    assert node.tip_count() >= 1
                    exceptional = [
                        m
                        for m, c in zip(node.members, node.classes)
                        if c.kind == "node"
                    ]
                    tips = [
                        m for m, c in zip(node.members, node.classes) if c.kind == "tip"
                    ]
                    for m in exceptional:
                        assert any(ns_shorted(m, t, orc) for t in tips)
                # no exceptional member occurs in two nodes: across distinct
                # nodes of one layer, owner descriptors must disagree a.e.
                for i, first in enumerate(layer.nodes):
                    for second in layer.nodes[i + 1 :]:
                        for m in first.members:
                            for f in second.members:
                                assert not ns_shorted(m, f, orc)
        rank = classify(omega_exceptional_query(tower, 4096), orc).rank
        assert isinstance(rank, Hypernatural) and not rank.is_standard()
    except AssertionError as err:
        _line(4, False, str(err))
        raise
    _line(4, True)


def alt_rank_query(fam):
    return ns_extremity(
        fam,
        3,
        periodic((), (Extremity("node", "w1", 1), Extremity("node", "w2", 2))),
        label="whichrank",
    )


def test_criterion_5_rank_selection():
    try:
        fam = GraphFamily("alt", alternating_3graphs(), periodic((), (0, 1)))
        audit_a: list = []
        plain = FilterOracle(audit=audit_a)
        first = classify(alt_rank_query(fam), plain)
        assert first.rank == 1 and first.standard_rank
        assert classify(alt_rank_query(fam), plain).rank == 1  # deterministic
        assert any(audit_fields(line)[0].startswith("rank of") for line in audit_a)
        audit_b: list = []
        pinned = FilterOracle(audit=audit_b).pin(
            IndexSet.residue_class(2, 1), Membership.IN
        )
        second = classify(alt_rank_query(fam), pinned)
        assert second.rank == 2 and second.standard_rank
        assert classify(alt_rank_query(fam), pinned).rank == 2
        assert any(audit_fields(line)[0].startswith("rank of") for line in audit_b)
    except AssertionError as err:
        _line(5, False, str(err))
        raise
    _line(5, True)


def divider_network():
    g = StandardGraph(
        "div", 0, nodes0=["a", "b"], branches={"b1": ("a", "b"), "b2": ("b", "a")}
    )
    from ultragraph.sequences import named_generator

    return NsNetwork(
        "divider",
        GraphFamily("divfam", (g,)),
        {
            "b1": (periodic((), (1.0,)), periodic((), (1.0,))),
            "b2": (named_generator("affine", (1, 1), 512), periodic((), (0.0,))),
        },
    )


def test_criterion_6_circuit_oracle_equivalence():
    rng = random.Random(606)
    try:
        for trial in range(20):
            plain, net = random_network(rng, max_branches=12)
            sol = solve_standard(net)
            bf_i, bf_v, bf_phi = brute_force_solve(plain)
            for bid in plain:
                assert close(sol.currents[bid], bf_i[bid], TOL), (trial, bid)
                assert close(sol.voltages[bid], bf_v[bid], TOL), (trial, bid)
            for node in bf_phi:
                assert close(sol.potentials[node], bf_phi[node], TOL), (trial, node)
        op = operating_point(divider_network(), FilterOracle())
        report = verify_laws(op, tol=TOL, check_upto=POINTWISE_UPTO)
        assert report.ok
        assert {c.law for c in report.checks} == {"KCL", "KVL", "Ohm", "Tellegen"}
        assert all(c.worst <= TOL for c in report.checks)
        certified = op.currents["b1"].certify(limit=0.0, monotone=True)
        assert certified.classify() is MagnitudeClass.INFINITESIMAL
        assert certified.standard_part() == 0.0
    except AssertionError as err:
        _line(6, False, str(err))
        raise
    _line(6, True)


def test_criterion_7_truncation_coherence():
    try:
        a, b = alternating_3graphs()
        fams = _constant_families() + [
            GraphFamily("alt", (a, b), periodic((), (0, 1)))
        ]
        checked = 0
        for fam in fams:
            nu = fam.rank
            if not isinstance(nu, int) or nu < 2:
                continue
            full = build_ns_graph(fam, FilterOracle())
            for rho in range(1, nu):
                truncated = GraphFamily(
                    fam.name,
                    tuple(truncate(g, rho) for g in fam.prototypes),
                    fam.assignment,
                )
                partial = build_ns_graph(truncated, FilterOracle())
                for level in range(1, rho + 1):
                    full_ids = sorted(
                        tuple(sorted(m.label for m in node.members))
                        for node in full.layers[level].nodes
                    )
                    part_ids = sorted(
                        tuple(sorted(m.label for m in node.members))
                        for node in partial.layers[level].nodes
                    )
                    assert full_ids == part_ids, (fam.name, rho, level)
                    checked += 1
        assert checked > 0
    except AssertionError as err:
        _line(7, False, str(err))
        raise
    _line(7, True)


def test_criterion_8_cli_golden_and_exit_codes():
    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "ultragraph", *args],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )

    try:
        for project in sorted((ROOT / "projects").glob("*.ug")):
            first = run_cli("report", str(project))
            second = run_cli("report", str(project))
            assert first.returncode == 0, (project.name, first.stderr)
            assert first.stdout == second.stdout, project.name
            assert first.stdout.encode() == second.stdout.encode()
        faults = Path(__file__).resolve().parent / "data"
        expected = {
            "fault_syntax.ug": ("validate", 2),
            "fault_graph.ug": ("validate", 3),
            "fault_undecidable.ug": ("build", 4),
            "fault_solver.ug": ("solve", 5),
        }
        for fault, (command, code) in expected.items():
            proc = run_cli(command, str(faults / fault))
            assert proc.returncode == code, (fault, proc.returncode, proc.stderr)
    except AssertionError as err:
        _line(8, False, str(err))
        raise
    _line(8, True)
