"""Ultrapower construction: classes, classification, ns nodes and graphs."""

import gc
import itertools
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ultragraph import (
    OMEGA,
    Extremity,
    FilterOracle,
    GraphFamily,
    Hypernatural,
    IndexSet,
    Membership,
    NsExtremity,
    StandardGraph,
    StandardNode,
    build_ns_graph,
    build_ns_nodes,
    classify,
    constant_extremity,
    ns_extremity,
    ns_shorted,
    omega_exceptional_query,
    omega_tip_query,
    parse_project,
    periodic,
    truncate,
)
from ultragraph._periodic import joint_window
from ultragraph.errors import (
    IncompatibleTower,
    InconsistentPin,
    InvariantBreach,
    RankTooHigh,
    Undecidable,
)
from ultragraph.sequences import PeriodicSeq, agreement_set, generated, horizon, value_at, values_window
from ultragraph.ultrapower import _audit_pointwise, _select_value, constant_extremities

from conftest import (
    alternating_3graphs,
    audit_fields,
    ladder_1graph,
    loop_2graph,
    outcome,
    tower_omega_graph,
)


PROJECTS = Path(__file__).resolve().parent.parent / "projects"


def odds_pinned():
    return FilterOracle().pin(IndexSet.residue_class(2, 1), Membership.IN)


@pytest.fixture
def tower_family():
    return GraphFamily("towerfam", (tower_omega_graph(),))


def alt_query(family):
    rep = periodic(
        (), (Extremity("node", "w1", 1), Extremity("node", "w2", 2))
    )
    return ns_extremity(family, 3, rep, label="whichrank")


# -- classification ------------------------------------------------------------


def test_constant_tip_classifies_as_tip(alternating_family, oracle):
    e = constant_extremity(alternating_family, 1, Extremity("tip", "t0", 0))
    got = classify(e, oracle)
    assert got.kind == "tip" and got.rank == 0 and got.standard_rank


def test_alternating_exceptional_rank_is_one_by_default(alternating_family, oracle):
    got = classify(alt_query(alternating_family), oracle)
    assert got.kind == "node"
    assert got.rank == 1 and got.standard_rank


def test_pinning_the_odds_selects_rank_two(alternating_family):
    got = classify(alt_query(alternating_family), odds_pinned())
    assert got.rank == 2 and got.standard_rank


def test_classification_is_deterministic_and_audited(alternating_family):
    audit = []
    orc = FilterOracle(audit=audit)
    first = classify(alt_query(alternating_family), orc)
    again = classify(alt_query(alternating_family), orc)
    assert (first.kind, first.rank) == (again.kind, again.rank)
    assert any(audit_fields(line)[0].startswith("rank of") for line in audit)


def test_exactly_one_of_tip_or_exceptional(alternating_family, oracle):
    # every valid periodic mix of level-3 extremities classifies as exactly
    # one kind (positions must respect the assignment: A on evens, B on odds)
    even_choices = [Extremity("tip", "t2", 2), Extremity("node", "w1", 1)]
    odd_choices = [Extremity("tip", "t2", 2), Extremity("node", "w2", 2)]
    for pair in itertools.product(even_choices, odd_choices):
        got = classify(ns_extremity(alternating_family, 3, periodic((), pair)), oracle)
        assert got.kind in ("tip", "node")
        assert got.standard_rank


def test_omega_family_rank_is_a_nonstandard_hypernatural(tower_family, oracle):
    got = classify(omega_exceptional_query(tower_family, 4096), oracle)
    assert got.kind == "node"
    assert isinstance(got.rank, Hypernatural)
    assert not got.standard_rank
    assert not got.rank.is_standard()


def test_omega_arrow_tip_classifies_as_tip(tower_family, oracle):
    got = classify(omega_tip_query(tower_family, 4096), oracle)
    assert got.kind == "tip" and "omega-arrow" in str(got.detail)


# -- shorting ------------------------------------------------------------------


def test_ns_shorted_is_reflexive(alternating_family, oracle):
    e = constant_extremity(alternating_family, 1, Extremity("tip", "t0", 0))
    assert ns_shorted(e, e, oracle)


def test_everywhere_shorted_pair(oracle):
    fam = GraphFamily("lad", (ladder_1graph(),))
    e = constant_extremity(fam, 1, Extremity("tip", "p0", 0))
    f = constant_extremity(fam, 1, Extremity("tip", "q0", 0))
    assert ns_shorted(e, f, oracle)


def test_shorting_on_the_evens_follows_the_oracle():
    joined = ladder_1graph()
    split, _ = alternating_3graphs()
    # in `joined`, p0/q0 share a node; in the rank-3 prototypes they do not
    fam = GraphFamily(
        "mix",
        (
            joined,
            StandardGraph_like_split(),
        ),
        periodic((), (0, 1)),
    )
    e = constant_extremity(fam, 1, Extremity("tip", "p0", 0))
    f = constant_extremity(fam, 1, Extremity("tip", "q0", 0))
    assert ns_shorted(e, f, FilterOracle())
    assert not ns_shorted(e, f, odds_pinned())


def StandardGraph_like_split():
    from ultragraph import StandardGraph, StandardNode

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


def test_transitivity_inclusion_holds_pointwise(alternating_family):
    univ = [
        constant_extremity(alternating_family, 1, Extremity("tip", "t0", 0)),
        constant_extremity(alternating_family, 1, Extremity("tip", "s0", 0)),
        ns_extremity(
            alternating_family,
            1,
            periodic((), (Extremity("tip", "t0", 0), Extremity("tip", "s0", 0))),
        ),
    ]
    for e, f, g in itertools.permutations(univ, 3):
        nef = agreement_set(e.owner_rep, f.owner_rep)
        nfg = agreement_set(f.owner_rep, g.owner_rep)
        neg = agreement_set(e.owner_rep, g.owner_rep)
        for n in range(65):
            if nef.contains(n) and nfg.contains(n):
                assert neg.contains(n)


# -- node building ---------------------------------------------------------------


def test_never_shorted_universe_gives_singletons(oracle):
    a, _ = alternating_3graphs()
    fam = GraphFamily("alt-a", (a,))
    univ = [
        constant_extremity(fam, 1, Extremity("tip", "t0", 0)),
        constant_extremity(fam, 1, Extremity("tip", "s0", 0)),
    ]
    layer = build_ns_nodes(fam, 1, univ, oracle)
    assert len(layer.nodes) == 2
    assert all(len(node.members) == 1 for node in layer.nodes)


def test_constant_family_nodes_transfer(oracle, loop_family):
    g = loop_family.prototypes[0]
    for level in (1, 2):
        univ = [
            constant_extremity(loop_family, level, e)
            for e in __import__("ultragraph").extremities(g, level)
        ]
        layer = build_ns_nodes(loop_family, level, univ, oracle)
        assert len(layer.nodes) == len(g.layer_nodes(level))


def test_alternating_tips_join_exactly_when_the_oracle_says_so(oracle):
    fam = GraphFamily(
        "mix", (ladder_1graph(), StandardGraph_like_split()), periodic((), (0, 1))
    )
    univ = [
        constant_extremity(fam, 1, Extremity("tip", "p0", 0)),
        constant_extremity(fam, 1, Extremity("tip", "q0", 0)),
    ]
    assert len(build_ns_nodes(fam, 1, univ, oracle).nodes) == 1
    assert len(build_ns_nodes(fam, 1, univ, odds_pinned()).nodes) == 2


def test_tipless_class_is_an_invariant_breach(oracle, loop_family):
    lone = constant_extremity(loop_family, 2, Extremity("node", "x1", 1))
    with pytest.raises(InvariantBreach):
        build_ns_nodes(loop_family, 2, [lone], oracle)


def test_second_exceptional_class_in_one_node_is_a_breach(tower_family, oracle):
    # A user-supplied duplicate of the omega exceptional query under an
    # opaque key: ownership provably agrees (shared owner key) but identity
    # with the library's query is only sampled, so the pair is treated as
    # two distinct exceptional classes inside one node — a breach.
    from ultragraph import NsExtremity
    from ultragraph.sequences import (
        INJECTIVE_BEYOND,
        MONOTONE,
        UNBOUNDED,
        generated,
    )

    official = omega_exceptional_query(tower_family, 2048)
    shadow = NsExtremity(
        tower_family,
        OMEGA,
        generated(
            lambda n: Extremity("node", f"x{n + 1}_0", n + 1),
            2048,
            key=("shadow-probe",),
            label="shadow",
        ),
        generated(
            lambda n: f"W_{n + 1}",
            2048,
            key=("graded-omega-owner", tower_family.name),
            label="W_{n+1}",
        ),
        IndexSet.empty(),
        generated(
            lambda n: n + 1,
            2048,
            traits=(MONOTONE, UNBOUNDED, INJECTIVE_BEYOND),
            key=("affine", 1, 1),
            label="n+1",
        ),
        "shadow",
    )
    univ = [omega_tip_query(tower_family, 2048), official, shadow]
    with pytest.raises(InvariantBreach, match="two distinct exceptional"):
        build_ns_nodes(tower_family, OMEGA, univ, oracle)


def exceptional(family, label, rep, owner_rep):
    """An exceptional-node member with the given representative and owner."""
    return NsExtremity(family, 1, rep, owner_rep, IndexSet.empty(), periodic((), (1,)), label)


def two_node_universe(family, rep_a, rep_b, owner_a, owner_b):
    """Tips tA and tB, each owned like the exceptional member beside it, eA
    or eB: two nodes that each embrace one exceptional class."""
    tip = periodic((), (Extremity("tip", "t0", 0),))

    def tip_of(label, owner):
        return NsExtremity(family, 1, tip, owner, IndexSet.naturals(), periodic((), (0,)), label)

    return [
        tip_of("tA", owner_a),
        exceptional(family, "eA", rep_a, owner_a),
        tip_of("tB", owner_b),
        exceptional(family, "eB", rep_b, owner_b),
    ]


def test_nodes_sharing_a_periodic_exceptional_class_is_a_breach(loop_family):
    # eA and eB differ at odd indices and agree at even ones, which the
    # default tower selects: by Łoś they are one class, in two nodes.
    x1, x2, x3 = (Extremity("node", f"x{k}", 1) for k in (1, 2, 3))
    exts = two_node_universe(
        loop_family, periodic((), (x1, x2)), periodic((), (x1, x3)),
        periodic((), ("A",)), periodic((), ("B",)),
    )
    audit = []
    with pytest.raises(InvariantBreach, match=r"nodes \*1\.0 and \*1\.1 embrace the same exceptional class \(eA\)"):
        build_ns_nodes(loop_family, 1, exts, FilterOracle(audit=audit))
    assert [line for line in audit if line.startswith("identity of")] == [
        "identity of eA: cycle=[1,0] -> in",
        "identity of eB: cycle=[1,0] -> in",
    ]
    # Pinning the odds selects x2 for eA and x3 for eB: two classes.
    layer = build_ns_nodes(loop_family, 1, exts, odds_pinned())
    assert [[m.label for m in node.members] for node in layer.nodes] == [["eA", "tA"], ["eB", "tB"]]


def test_nodes_sharing_a_generated_exceptional_class_is_a_breach(loop_family):
    shared = generated(lambda n: Extremity("node", "x1", 1), 5, key=("shared-x1",), label="x1")
    exts = two_node_universe(
        loop_family, shared, shared,
        short_window_owner("aaaaaa", "A"), short_window_owner("bbbbbb", "B"),
    )
    audit = []
    pinned = window_pins(FilterOracle(audit=audit), set(range(6)))
    with pytest.raises(InvariantBreach, match=r"nodes \*1\.0 and \*1\.1 embrace the same exceptional class \(eA\)"):
        build_ns_nodes(loop_family, 1, exts, pinned)
    assert [line for line in audit if line.startswith("identity of")] == [
        "identity of eA and eB: cofinite={} -> in"
    ]


def test_an_undecidable_identity_audit_is_noted_and_treated_as_distinct(oracle, loop_family):
    # eA and eB agree at even indices only: the sampled agreement set
    # matches no pin, so the audit cannot tell whether they are one class.
    x1, x2 = Extremity("node", "x1", 1), Extremity("node", "x2", 1)
    exts = two_node_universe(
        loop_family,
        generated(lambda n: x1, 5, label="x1"),
        generated(lambda n: x1 if n % 2 == 0 else x2, 5, label="x1|x2"),
        short_window_owner("aaaaaa", "A"), short_window_owner("bbbbbb", "B"),
    )
    layer = build_ns_nodes(loop_family, 1, exts, window_pins(oracle, set(range(6))))
    assert len(layer.nodes) == 2
    assert layer.notes == [
        "identity audit of eA and eB is undecidable; treating them as distinct"
    ]


def test_a_node_with_one_exceptional_member_makes_no_identity_read(loop_family):
    g = loop_family.prototypes[0]
    univ = [
        constant_extremity(loop_family, 2, e)
        for e in __import__("ultragraph").extremities(g, 2)
    ]
    audit = []
    build_ns_nodes(loop_family, 2, univ, FilterOracle(audit=audit))
    assert not any(line.startswith("identity of") for line in audit)


def test_exceptional_member_is_shorted_to_a_tip(oracle, loop_family):
    g = loop_family.prototypes[0]
    univ = [
        constant_extremity(loop_family, 2, e)
        for e in __import__("ultragraph").extremities(g, 2)
    ]
    layer = build_ns_nodes(loop_family, 2, univ, oracle)
    (node,) = layer.nodes
    kinds = {cls.kind for cls in node.classes}
    assert kinds == {"tip", "node"}


# -- whole graphs ------------------------------------------------------------------


def test_constant_family_graph_transfers_layer_by_layer(oracle, loop_family):
    ns = build_ns_graph(loop_family, oracle)
    g = loop_family.prototypes[0]
    assert sorted(ns.zero_classes) == sorted(g.nodes0)
    assert sorted(ns.branch_classes) == sorted(g.branches)
    for level in (1, 2):
        assert len(ns.layers[level].nodes) == len(g.layer_nodes(level))


def test_alternating_family_graph_builds(alternating_family, oracle):
    ns = build_ns_graph(alternating_family, oracle)
    assert len(ns.layers[1].nodes) == 2
    assert len(ns.layers[2].nodes) == 1
    assert len(ns.layers[3].nodes) == 1


def test_truncation_coherence(oracle):
    for fam in (
        GraphFamily("loopfam", (loop_2graph(),)),
        GraphFamily("alt", alternating_3graphs(), periodic((), (0, 1))),
    ):
        full = build_ns_graph(fam, oracle)
        for rho in range(1, (fam.rank if isinstance(fam.rank, int) else 3)):
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
                assert full_ids == part_ids


def test_omega_graph_has_an_omega_layer_and_no_arrow_layer(tower_family, oracle):
    queries = {
        OMEGA: [
            omega_tip_query(tower_family, 2048),
            omega_exceptional_query(tower_family, 2048),
        ]
    }
    ns = build_ns_graph(tower_family, oracle, mu_max=3, queries=queries)
    assert OMEGA in ns.layers
    assert ns.layers[OMEGA].nodes
    from ultragraph import OMEGA_ARROW

    assert OMEGA_ARROW not in ns.layers
    # the rising exceptional element is shorted to the rising arrow tip
    (w,) = ns.layers[OMEGA].nodes
    assert len(w.members) == 2


def test_omega_queries_short_by_shared_owner(tower_family, oracle):
    tip_q = omega_tip_query(tower_family, 2048)
    exc_q = omega_exceptional_query(tower_family, 2048)
    assert ns_shorted(tip_q, exc_q, oracle)


def test_every_ns_node_contains_a_tip_everywhere(oracle, alternating_family, tower_family):
    builds = [
        build_ns_graph(alternating_family, oracle),
        build_ns_graph(
            tower_family,
            oracle,
            mu_max=3,
            queries={OMEGA: [omega_tip_query(tower_family, 1024),
                             omega_exceptional_query(tower_family, 1024)]},
        ),
    ]
    for ns in builds:
        for layer in ns.layers.values():
            for node in layer.nodes:
                assert any(cls.kind == "tip" for cls in node.classes)


def test_generated_assignment_makes_shorting_undecidable(oracle):
    from ultragraph import named_generator

    fam = GraphFamily(
        "flicker",
        (ladder_1graph(), StandardGraph_like_split()),
        named_generator("mod", (2,), 64),
    )
    e = constant_extremity(fam, 1, Extremity("tip", "p0", 0))
    f = constant_extremity(fam, 1, Extremity("tip", "q0", 0))
    with pytest.raises(Undecidable):
        ns_shorted(e, f, oracle)
    # a pin covering the sampled window restores decidability
    pinned = oracle.pin(IndexSet.residue_class(2, 0), Membership.IN)
    assert ns_shorted(e, f, pinned)


# -- shorting by unrolled owner patterns against the pairwise loop -----------------


def pairwise_partition(exts, oracle):
    """What ``build_ns_nodes`` decides, the plain way: classify every
    extremity, refuse a universe spanning two levels, then one
    ``ns_shorted`` call per pair, merged by union-find, then every pair
    declared apart checked against the merged nodes."""
    for e in exts:
        classify(e, oracle)
    for e in exts[1:]:
        first = exts[0].level
        if not (e.level is first or e.level == first):
            raise RankTooHigh(
                f"cannot short across levels {first} and {e.level}"
            )
    parent = list(range(len(exts)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    apart = []
    for i, j in itertools.combinations(range(len(exts)), 2):
        if ns_shorted(exts[i], exts[j], oracle):
            parent[find(i)] = find(j)
        else:
            apart.append((i, j))
    for i, j in apart:
        if find(i) == find(j):
            raise InvariantBreach(
                f"shorting decisions are not transitive: {exts[i].label} and "
                f"{exts[j].label} were declared distinct yet share a node"
            )
    groups = {}
    for i, e in enumerate(exts):
        groups.setdefault(find(i), []).append(e.label)
    return sorted(tuple(sorted(g)) for g in groups.values())


def owner_values(ext):
    """The distinct values of a periodic owner; TypeError if one cannot be hashed."""
    return {*ext.owner_rep.pre, *ext.owner_rep.cycle}


def pairwise_path(exts):
    """Whether ``build_ns_nodes`` shorts the universe pair by pair: some
    owner is generated or sampled, or has a value that cannot be hashed."""
    for e in exts:
        if not isinstance(e.owner_rep, PeriodicSeq):
            return True
        try:
            owner_values(e)
        except TypeError:
            return True
    return False


def check_audit(exts, audit_new, audit_old, raised):
    """The build's audit against the pairwise reference's. On the pairwise
    path they are identical. Otherwise the build makes no shorting decision
    and its other lines are the reference's other lines; where it did not
    raise, it holds one owner selection per extremity, in order: one line,
    on the set where the owner takes one of its values, and in."""
    if pairwise_path(exts):
        assert audit_new == audit_old
        return
    owner = [f for f in map(audit_fields, audit_new) if f[0].startswith("owner of ")]
    assert [line for line in audit_new if not line.startswith("owner of ")] == [
        line for line in audit_old if not line.startswith("shorting ")
    ]
    if raised:
        assert owner == []
        return
    assert [c for c, _, _ in owner] == [f"owner of {e.label}" for e in exts]
    for (_, subject, verdict), e in zip(owner, exts):
        o = e.owner_rep
        parts = {
            IndexSet.eventually_periodic([x == v for x in o.pre], [x == v for x in o.cycle]).describe()
            for v in owner_values(e)
        }
        assert subject in parts and verdict == "in"


def tip_family(tips, groupings, assignment):
    """Rank-1 prototypes over one set of 0-tips, the k-th grouping them into
    1-nodes by ``groupings[k]`` (node x{g} owns the tips in group g)."""
    protos = []
    for k, groups in enumerate(groupings):
        nodes = [
            StandardNode.make(f"x{g}", 1, [t for t, h in zip(tips, groups) if h == g])
            for g in sorted(set(groups))
        ]
        protos.append(
            StandardGraph(
                f"P{k}", 1, nodes0=["a", "b"], branches={"b1": ("a", "b")},
                tips={0: tips}, nodes=nodes,
            )
        )
    return GraphFamily("rand", tuple(protos), assignment)


def owned_extremity(family, label, owner_rep, level=1):
    """A tip extremity whose owner sequence is given outright."""
    return NsExtremity(
        family,
        level,
        periodic((), (Extremity("tip", "t0", 0),)),
        owner_rep,
        IndexSet.naturals(),
        periodic((), (0,)),
        label,
    )


def keyed_extremity(family, label):
    # Periodic in kind, but with an opaque owner rule: only its key says that
    # two such extremities share every owner.
    return owned_extremity(
        family, label, generated(lambda n: "x0", 64, key=("keyed-owner",), label="x0")
    )


def descriptors(ext):
    return (
        ext.family, ext.level, ext.rep, ext.owner_rep, ext.kind_tip_set, ext.rank_rep, ext.label
    )


@st.composite
def tip_universes(draw):
    tips = [f"t{k}" for k in range(draw(st.integers(2, 6)))]
    groupings = draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=len(tips), max_size=len(tips)),
            min_size=1,
            max_size=3,
        )
    )
    proto = st.integers(0, len(groupings) - 1)
    assignment = periodic(
        draw(st.lists(proto, max_size=2)), draw(st.lists(proto, min_size=1, max_size=4))
    )
    family = tip_family(tips, groupings, assignment)
    tip = st.sampled_from([Extremity("tip", t, 0) for t in tips])
    exts = [constant_extremity(family, 1, Extremity("tip", t, 0)) for t in tips]
    for q in range(draw(st.integers(0, 3))):
        rep = periodic(
            draw(st.lists(tip, max_size=2)), draw(st.lists(tip, min_size=1, max_size=3))
        )
        exts.append(ns_extremity(family, 1, rep, label=f"q{q}"))
    # Owners over the family's own node names, given outright: their shared
    # values often sit only in a preperiod, or at positions that never
    # coincide, so they agree on a finite set or nowhere.
    owner = st.sampled_from(["x0", "x1", "x2", "x3"])
    for q in range(draw(st.integers(0, 3))):
        owners = periodic(
            draw(st.lists(owner, max_size=2)), draw(st.lists(owner, min_size=1, max_size=3))
        )
        exts.append(owned_extremity(family, f"o{q}", owners))
    # Owners whose values are lists: they cannot be hashed, so every owner
    # is compared with them position by position.
    for q in range(draw(st.sampled_from([0, 0, 1, 2]))):
        cycle = draw(st.lists(owner, min_size=1, max_size=3))
        exts.append(owned_extremity(family, f"u{q}", periodic((), tuple([v] for v in cycle))))
    # Generated owners read from a drawn cycle: a pair with one is decided
    # through a sampled agreement set, which only a pin can decide.
    for q in range(draw(st.sampled_from([0, 0, 1, 2]))):
        cycle = tuple(draw(st.lists(owner, min_size=1, max_size=3)))
        rule = generated(lambda n, c=cycle: c[n % len(c)], 64, label=f"g{q}")
        exts.append(owned_extremity(family, f"g{q}", rule))
    exts = draw(st.permutations(exts))
    if draw(st.integers(0, 3)) == 2:
        # Two keyed extremities first: their pair is decided through
        # ``agreement_set``, and the next pair, against a periodic owner,
        # is undecidable unless a pin decides it.
        exts = [keyed_extremity(family, "k0"), keyed_extremity(family, "k1"), *exts]
    if draw(st.integers(0, 5)) == 2:
        # One extremity of another level, anywhere: shorting across levels
        # is an error at the first pair that crosses.
        stray = owned_extremity(family, "lv2", periodic((), ("x0",)), level=2)
        exts.insert(draw(st.integers(0, len(exts))), stray)
    return family, exts


@settings(deadline=None)
@given(
    tip_universes(),
    st.integers(1, 12),
    st.integers(0, 11),
    st.lists(st.tuples(st.integers(2, 4), st.integers(0, 3)), max_size=2),
)
def test_build_matches_pairwise_shorting(universe, modulus, residue, pins):
    family, exts = universe

    def oracle(audit):
        # Pinning the naturals changes no exact verdict; it decides the
        # sampled sets that hold everywhere or nowhere on their window.
        orc = FilterOracle([(modulus, residue % modulus)], audit=audit)
        orc = orc.pin(IndexSet.naturals(), Membership.IN)
        for m, r in pins:
            try:
                orc = orc.pin(IndexSet.residue_class(m, r), Membership.IN)
            except InconsistentPin:
                pass
        return orc

    for e in family.shared_extremities(1):
        assert descriptors(constant_extremity(family, 1, e)) == descriptors(
            ns_extremity(family, 1, periodic((), (e,)), label=e.describe())
        )
    recorded = []
    record = FilterOracle._record

    def counted(self, subject, verdict, context):
        recorded.append(context)
        record(self, subject, verdict, context)

    audit_new, audit_old = [], []
    raised = True
    try:
        with mock.patch.object(FilterOracle, "_record", counted):
            layer = build_ns_nodes(family, 1, exts, oracle(audit_new))
    except (Undecidable, RankTooHigh, InvariantBreach) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            pairwise_partition(exts, oracle(audit_old))
    else:
        raised = False
        got = sorted(tuple(m.label for m in node.members) for node in layer.nodes)
        assert got == pairwise_partition(exts, oracle(audit_old))
    check_audit(exts, audit_new, audit_old, raised)
    # every entry made by ``_record``
    assert len(recorded) == len(audit_new)


@pytest.mark.parametrize(
    "family",
    [
        GraphFamily("alt", alternating_3graphs(), periodic((), (0, 1))),
        GraphFamily("alt-pre", alternating_3graphs(), periodic((1, 1, 0), (0, 1, 1))),
        GraphFamily("tower", (tower_omega_graph(),)),
        GraphFamily("loop", (loop_2graph(),)),
    ],
    ids=lambda f: f.name,
)
def test_constant_extremities_equal_the_derived_ones(family):
    levels = range(1, (family.rank if isinstance(family.rank, int) else 3) + 1)
    for level in levels:
        shared = family.shared_extremities(level)
        assert shared

        def derived(batch):
            return [
                descriptors(ns_extremity(family, level, periodic((), (e,)), e.describe()))
                for e in batch
            ]

        stray = [Extremity("tip", "nowhere", level - 1), Extremity("node", "x1", level)]
        for e in [*shared, *stray]:
            got = outcome(lambda: descriptors(constant_extremity(family, level, e)))
            assert got == outcome(lambda: derived([e])[0])
        # One call per level, as ``build_ns_graph`` makes it; a stray
        # extremity in the middle of the batch raises what the one-by-one
        # loop raises.
        half = len(shared) // 2
        for batch in [shared, *([*shared[:half], e, *shared[half:]] for e in stray)]:
            got = outcome(lambda: list(map(descriptors, constant_extremities(family, level, batch))))
            assert got == outcome(lambda: derived(batch))


def test_one_canonical_form_per_owner_pattern_and_level(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    path = tmp_path / "wide-build.ug"
    subprocess.run(
        [sys.executable, str(root / "ugbench" / "gen.py"), "wide-build", "--seed", "1", "--out", str(path)],
        check=True,
        capture_output=True,
    )
    project = parse_project(path.read_text())
    family = project.family("wide")
    assignment = family.assignment
    occurring = [family.prototypes[k] for k in dict.fromkeys((*assignment.pre, *assignment.cycle))]
    patterns = set()
    for e in family.shared_extremities(1):
        row = [g.owner_of(e, 1) for g in occurring]
        patterns.add(tuple(row.index(owner) for owner in row))
    assert 1 < len(patterns) < len(family.shared_extremities(1))
    made = []
    make = PeriodicSeq.make

    def counted(pre, cycle):
        made.append(1)
        return make(pre, cycle)

    monkeypatch.setattr(PeriodicSeq, "make", staticmethod(counted))
    graph = build_ns_graph(family, project.oracle(), mu_max=1)
    assert len(made) == len(patterns)
    assert sum(len(node.members) for node in graph.layer(1).nodes) == 240


def edge_universe(case):
    """Universes over one two-prototype family whose periodic owners share
    values in ways a pairwise comparison must still look at."""
    tips = ["t0", "t1", "t2", "t3"]
    family = tip_family(tips, [[0, 0, 1, 2], [0, 1, 1, 3]], periodic((1,), (0, 1)))
    exts = [constant_extremity(family, 1, Extremity("tip", t, 0)) for t in tips]
    own = {
        # x0 shared with t0's owner only at index 0, in both preperiods
        "pre-only": periodic(("x0",), ("x2",)),
        # x0 and x1 shared with t1's owner, never at the same index
        "never-coincide": periodic((), ("x1", "x0")),
        "finite-and-cofinite": periodic(("x3", "x0"), ("x0",)),
    }
    if case == "unhashable":
        own["unhashable"] = periodic((), (["x0"], ["x1"]))
        own["unhashable-twin"] = periodic((), (["x0"], ["x1"]))
    if case == "mixed-levels":
        stray = owned_extremity(family, "lv2", periodic((), ("x0",)), level=2)
        return family, [*exts[:2], stray, *exts[2:]]
    if case == "generated":
        rule = generated(lambda n: "x0" if n % 2 else "x1", 64, label="g")
        return family, [*exts[:2], owned_extremity(family, "g", rule), *exts[2:]]
    return family, [*exts, *(owned_extremity(family, label, o) for label, o in own.items())]


@pytest.mark.parametrize("case", ["shared-values", "unhashable", "mixed-levels", "generated"])
@pytest.mark.parametrize("odds", [False, True])
def test_build_matches_pairwise_shorting_on_edge_universes(case, odds):
    family, exts = edge_universe(case)

    def oracle(audit):
        orc = FilterOracle(audit=audit)
        return orc.pin(IndexSet.residue_class(2, 1), Membership.IN) if odds else orc

    audit_new, audit_old = [], []
    raised = True
    try:
        layer = build_ns_nodes(family, 1, exts, oracle(audit_new))
    except (Undecidable, RankTooHigh) as exc:
        assert case in ("mixed-levels", "generated")
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            pairwise_partition(exts, oracle(audit_old))
    else:
        raised = False
        assert case != "mixed-levels"
        got = sorted(tuple(m.label for m in node.members) for node in layer.nodes)
        assert got == pairwise_partition(exts, oracle(audit_old))
    check_audit(exts, audit_new, audit_old, raised)
    assert pairwise_path(exts) == (case in ("unhashable", "generated"))
    contexts = [context for context, _, _ in map(audit_fields, audit_new)]
    subjects = {
        subject
        for context, subject, _ in map(audit_fields, audit_new)
        if context.startswith("shorting ")
    }
    if case == "unhashable":
        # the shared values still gave finite, empty and cofinite sets
        assert {"finite={0}", "finite={}", "cofinite={0}"} <= subjects
    if case == "mixed-levels":
        # levels are checked once, after classification and before shorting
        assert contexts and all(c.startswith("tip-kind of ") for c in contexts)


def short_window_owner(values, label):
    """A generated owner whose trusted window is the values given."""
    return generated(lambda n: values[n], len(values) - 1, label=label)


def window_pins(oracle, *members):
    """Pin, for each run of members, the exact set holding exactly those
    indices on [0, 5] and every index from 6 on."""
    for chosen in members:
        target = IndexSet.eventually_periodic([n in chosen for n in range(6)], [True])
        oracle = oracle.pin(target, Membership.IN)
    return oracle


def test_non_transitive_shorting_among_generated_owners_is_a_breach(oracle, loop_family):
    # g1 ~ g2 on {0, 1}, g2 ~ g3 on {2, 3}, g1 and g3 never agree; pins on
    # the sampled window make the first two large and the last small.
    exts = [
        owned_extremity(loop_family, "g1", short_window_owner("xxxxxx", "g1")),
        owned_extremity(loop_family, "g2", short_window_owner("xxyyzz", "g2")),
        owned_extremity(loop_family, "g3", short_window_owner("wwyyww", "g3")),
    ]
    pinned = window_pins(oracle, {0, 1}, {2, 3}, set(range(6)))
    with pytest.raises(InvariantBreach, match="g1 and g3 were declared distinct"):
        build_ns_nodes(loop_family, 1, exts, pinned)


def test_generated_owner_joining_periodic_owners_declared_apart_is_a_breach(oracle, loop_family):
    # p1 and p2 never agree, so they are apart exactly; a generated owner
    # that the pins short to both joins them all the same.
    exts = [
        owned_extremity(loop_family, "p1", periodic((), ("x",))),
        owned_extremity(loop_family, "p2", periodic((), ("y",))),
        owned_extremity(loop_family, "g", short_window_owner("xxyyzz", "g")),
    ]
    pinned = window_pins(oracle, {0, 1}, {2, 3})
    with pytest.raises(InvariantBreach, match="p1 and p2 were declared distinct"):
        build_ns_nodes(loop_family, 1, exts, pinned)


def test_build_on_a_shipped_project_audits_lines_the_collector_does_not_track():
    project = parse_project((PROJECTS / "alternating.ug").read_text())
    audit = []
    oracle = project.oracle(audit=audit)
    for name in project.families:
        build_ns_graph(project.family(name), oracle)
    assert any(line.startswith("owner of ") for line in audit)
    assert not any(line.startswith("shorting ") for line in audit)
    assert all(type(line) is str and not gc.is_tracked(line) for line in audit)


def test_owner_selection_decides_each_owner_value_once_and_owners_are_indexed_once(monkeypatch):
    tips = [f"t{k}" for k in range(24)]
    groupings = [[k // 2 for k in range(24)], [k // 3 for k in range(24)], [k % 5 for k in range(24)]]
    family = tip_family(tips, groupings, periodic((1,), (0, 2, 1, 2, 0, 0)))

    indexed = Counter()
    build_index = StandardGraph._build_owner_index

    def counting_build_index(self, level):
        indexed[(id(self), level)] += 1
        return build_index(self, level)

    decided = []
    decide = FilterOracle.decide

    def counting_decide(self, subject, context="decide"):
        decided.append(context)
        return decide(self, subject, context)

    monkeypatch.setattr(StandardGraph, "_build_owner_index", counting_build_index)
    monkeypatch.setattr(FilterOracle, "decide", counting_decide)
    exts = [constant_extremity(family, 1, Extremity("tip", t, 0)) for t in tips]
    exts.append(ns_extremity(family, 1, periodic((), tuple(Extremity("tip", t, 0) for t in tips[:5]))))
    assert len(exts) == 25
    layer = build_ns_nodes(family, 1, exts, FilterOracle())
    monkeypatch.undo()
    assert indexed and max(indexed.values()) == 1
    owner = [c for c in decided if c.startswith("owner of ")]
    assert len(owner) == len(exts)
    assert len(owner) < len(exts) * (len(exts) - 1) // 2
    assert not any(c.startswith("shorting ") for c in decided)
    got = sorted(tuple(m.label for m in node.members) for node in layer.nodes)
    assert got == pairwise_partition(exts, FilterOracle())


def partition_selection(pre, cycle, oracle, context):
    """The selection ``_select_value`` replaced, kept as its reference: the
    partition of N by the values of the periodic sequence (pre, cycle), one
    part per value in order of first occurrence, handed to
    ``select_from_partition``. Returns the selected value and the audit
    line of the accepted part, read from ``oracle.audit``."""
    order = list(dict.fromkeys((*pre, *cycle)))
    parts = [
        IndexSet.eventually_periodic([x == v for x in pre], [x == v for x in cycle]) for v in order
    ]
    start = len(oracle.audit)
    chosen = oracle.select_from_partition(parts, context=context)
    [line] = [line for line in oracle.audit[start:] if line.endswith(" -> in")]
    return order[chosen], line


def fresh_select_value(pre, cycle, oracle, context, patterns):
    """Every set built anew, whatever ``patterns`` holds."""
    return _select_value(pre, cycle, oracle, context, {})


# Universes that ``build_ns_nodes`` decides by owner selection: periodic
# owners with hashable values, all at one level.
owner_selection_universes = tip_universes().filter(
    lambda u: not pairwise_path(u[1]) and all(e.level == 1 for e in u[1])
)


@settings(deadline=None)
@given(owner_selection_universes, st.integers(1, 12), st.integers(0, 11))
def test_owner_selection_builds_each_part_pattern_once_per_call(universe, modulus, residue):
    family, exts = universe
    tower = [(modulus, residue % modulus)]
    patterns = Counter()
    for e in exts:
        o = e.owner_rep
        v, _ = partition_selection(o.pre, o.cycle, FilterOracle(tower, audit=[]), "owner")
        patterns[len(o.pre), tuple(x == v for x in (*o.pre, *o.cycle))] = 1
    built = Counter()
    canonicalize = IndexSet.eventually_periodic

    def counting(pre, cycle):
        pre, cycle = tuple(pre), tuple(cycle)
        built[len(pre), pre + cycle] += 1
        return canonicalize(pre, cycle)

    audit = []
    with mock.patch.object(IndexSet, "eventually_periodic", staticmethod(counting)):
        layer = build_ns_nodes(family, 1, exts, FilterOracle(tower, audit=audit))
        assert built == patterns
        build_ns_nodes(family, 1, exts, FilterOracle(tower))
        assert built == patterns + patterns
    reference = []
    with mock.patch("ultragraph.ultrapower._select_value", fresh_select_value):
        expected = build_ns_nodes(family, 1, exts, FilterOracle(tower, audit=reference))
    assert audit == reference
    assert [[m.label for m in node.members] for node in layer.nodes] == [
        [m.label for m in node.members] for node in expected.nodes
    ]


@st.composite
def periodic_values(draw, values):
    """(pre, cycle) of a periodic sequence over the drawn values."""
    return draw(st.lists(values, max_size=3)), draw(st.lists(values, min_size=1, max_size=4))


@st.composite
def selection_oracles(draw):
    """An oracle factory, taking the audit list: a tower of up to two
    moduli, then up to two pins of eventually periodic sets, each kept
    when it is consistent with those before."""
    tower = [
        (m, draw(st.integers(0, m - 1)))
        for m in draw(st.lists(st.integers(1, 12), max_size=2))
    ]
    try:
        FilterOracle(tower)
    except IncompatibleTower:
        assume(False)
    pins = draw(st.lists(st.tuples(periodic_values(st.booleans()), st.booleans()), max_size=2))

    def make(audit):
        orc = FilterOracle(tower, audit=audit)
        for (pre, cycle), inside in pins:
            try:
                orc = orc.pin(
                    IndexSet.eventually_periodic(pre, cycle),
                    Membership.IN if inside else Membership.OUT,
                )
            except InconsistentPin:
                pass
        return orc

    return make


@settings(deadline=None, max_examples=150)
@given(
    st.lists(periodic_values(st.sampled_from(["x0", "x1", "x2", "x3"])), min_size=1, max_size=5),
    selection_oracles(),
)
def test_owner_selection_at_the_selected_index_matches_partition_selection(owners, make_oracle):
    family = tip_family(["t0"], [[0]], periodic((), (0,)))
    exts = [owned_extremity(family, f"o{k}", periodic(*owner)) for k, owner in enumerate(owners)]
    audit = []
    layer = build_ns_nodes(family, 1, exts, make_oracle(audit))
    reference = make_oracle([])
    groups, lines = {}, []
    for e in exts:
        o = e.owner_rep
        value, line = partition_selection(o.pre, o.cycle, reference, f"owner of {e.label}")
        assert _select_value(o.pre, o.cycle, make_oracle(None), "owner", {}) == value
        groups.setdefault(value, []).append(e.label)
        lines.append(line)
    assert [line for line in audit if line.startswith("owner of ")] == lines
    assert sorted(tuple(m.label for m in node.members) for node in layer.nodes) == sorted(
        tuple(group) for group in groups.values()
    )


rank_elements = st.one_of(
    st.integers(0, 3).map(lambda r: Extremity("node", f"w{r}", r)),
    st.just(Extremity("tip", "t2", 2)),
)


@settings(deadline=None, max_examples=150)
@given(periodic_values(rank_elements), selection_oracles())
def test_rank_selection_at_the_selected_index_matches_partition_selection(elements, make_oracle):
    family = tip_family(["t0"], [[0]], periodic((), (0,)))
    rep = periodic(*elements)
    tips = IndexSet.eventually_periodic(
        [e.kind == "tip" for e in rep.pre], [e.kind == "tip" for e in rep.cycle]
    )
    ext = NsExtremity(family, 3, rep, periodic((), ("x0",)), tips, periodic((), (0,)), "q")
    audit = []
    got = classify(ext, make_oracle(audit))
    ranks = [line for line in audit if line.startswith("rank of ")]
    reference = make_oracle([])
    if reference.decide(tips) is Membership.IN:
        assert got.kind == "tip" and ranks == []
        return
    keys = ["tip" if e.kind == "tip" else e.rank for e in (*rep.pre, *rep.cycle)]
    head = len(rep.pre)
    value, line = partition_selection(keys[:head], keys[head:], reference, "rank of q")
    assert (got.kind, got.rank) == ("node", value)
    assert ranks == [line]


@settings(deadline=None, max_examples=150)
@given(
    periodic_values(st.sampled_from(["x0", "x1", "x2"])),
    periodic_values(st.sampled_from(["x0", "x1", "x2"])),
    selection_oracles(),
)
def test_identity_at_the_selected_index_matches_the_agreement_set(a, b, make_oracle):
    oracle = make_oracle(None)
    a, b = periodic(*a), periodic(*b)
    same = _select_value(*a, oracle, "a", {}) == _select_value(*b, oracle, "b", {})
    assert same == (oracle.decide(agreement_set(a, b)) is Membership.IN)


def reference_audit_pointwise(nodes, upto, notes):
    """The per-index owner comparison ``_audit_pointwise`` replaced, kept as its reference."""
    for node in nodes:
        if len(node.members) < 2:
            continue
        for a, b in itertools.combinations(node.members, 2):
            window = int(min(upto, horizon(a.owner_rep), horizon(b.owner_rep)))
            hits = sum(
                1 for n in range(window) if value_at(a.owner_rep, n) == value_at(b.owner_rep, n)
            )
            if hits == 0 and window > 0:
                notes.append(
                    f"{a.label} and {b.label} share no owner in the first "
                    f"{window} indices; their identification rests on the "
                    "selected tail"
                )


def test_owner_audit_of_periodic_owners_reads_only_their_joint_window():
    family = tip_family(["t0"], [[0]], periodic((), (0,)))
    owners = [
        periodic(["q"] * 5, ["x"] * 6 + ["y"]),
        periodic((), ["x"] * 10 + ["z"]),
        periodic(["r"] * 2, ["w"] + ["x"] * 12),
    ]
    exts = [owned_extremity(family, f"e{k}", owner) for k, owner in enumerate(owners)]
    start = time.perf_counter()
    layer = build_ns_nodes(family, 1, exts, FilterOracle(), audit_upto=10**12)
    elapsed = time.perf_counter() - start
    head, period = joint_window(owners)
    want = []
    reference_audit_pointwise(layer.nodes, head + period, want)
    assert [len(node.members) for node in layer.nodes] == [3]
    assert layer.notes == want
    assert elapsed < 1.0


owner_cycles = st.lists(st.sampled_from("xyz"), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(
    owners=st.lists(
        st.one_of(
            st.tuples(st.just("periodic"), st.lists(st.sampled_from("xyz"), max_size=3), owner_cycles),
            st.tuples(st.just("generated"), st.integers(1, 4), st.integers(0, 70)),
        ),
        min_size=1,
        max_size=4,
    ),
    upto=st.integers(0, 70),
)
def test_owner_audit_by_windows_matches_per_index_reads(owners, upto):
    members = []
    for k, (form, a, b) in enumerate(owners):
        if form == "periodic":
            rep = periodic(a, b)
        else:
            rep = generated(lambda n, p=a: "wxyz"[n % p], max(b, 1))
        members.append(SimpleNamespace(owner_rep=rep, label=f"e{k}"))
    nodes = [SimpleNamespace(members=members), SimpleNamespace(members=members[:1])]
    got, want = [], []
    _audit_pointwise(nodes, upto, got)
    reference_audit_pointwise(nodes, upto, want)
    assert got == want


# -- owners through one pointwise; assignment values checked on every read -------------------


def reference_owner_at(family, level, rep):
    """The per-index owner rule ``ns_extremity`` wrote for a generated
    assignment or representative before its owner became ``pointwise``,
    kept as a reference."""

    def owner_at(n):
        return family.graph_at(n).owner_of(value_at(rep, n), level)

    return owner_at


@pytest.mark.parametrize("rep_kind", ["periodic", "generated", "raising"])
@pytest.mark.parametrize("assignment_kind", ["periodic", "generated"])
def test_owners_read_as_the_per_index_owner_rule(rep_kind, assignment_kind):
    pattern = periodic((1,), (0, 1, 1))
    assignment = pattern
    if assignment_kind == "generated":
        assignment = generated(lambda n: value_at(pattern, n), 40)
    tips = ["t0", "t1", "t2"]
    family = tip_family(tips, [[0, 0, 1], [0, 1, 1]], assignment)
    exts = family.shared_extremities(1)
    rep = periodic((exts[-1],), exts)
    if rep_kind != "periodic":
        cycle = rep

        def rule(n):
            if rep_kind == "raising" and n == 7:
                raise LookupError("no extremity at n=7")
            return value_at(cycle, n)

        rep = generated(rule, 30)
    ext = ns_extremity(family, 1, rep, label="q")
    owner_at = reference_owner_at(family, 1, rep)
    n_max = min(horizon(rep), horizon(family.assignment))
    if n_max == float("inf"):
        assert isinstance(ext.owner_rep, PeriodicSeq)
        head, period = joint_window([rep, family.assignment])
        n_max = head + period
    else:
        owner = ext.owner_rep
        assert (owner.n_max, owner.key, owner.label) == (n_max, None, "owner(q)")
    if rep_kind != "periodic":
        assert ext.kind_tip_set.horizon == ext.rank_rep.n_max == n_max
    got = outcome(lambda: values_window(ext.owner_rep, n_max))
    assert got == outcome(lambda: [owner_at(n) for n in range(n_max + 1)])
    assert isinstance(got, list) == (rep_kind != "raising")
    assert rep_kind == "raising" or len(set(got)) == 2  # the owner of t1 varies


def test_an_assignment_value_that_numbers_no_prototype_is_refused_where_it_is_read():
    a, b = alternating_3graphs()
    with pytest.raises(ValueError, match=r"^assignment value 2 at n=3 is not a prototype index$"):
        GraphFamily("bad", (a, b), periodic((0, 1, 0), (2, 1)))
    with pytest.raises(ValueError, match=r"^assignment value -1 at n=5 is not a prototype index$"):
        GraphFamily("bad", (a, b), generated(lambda n: -1 if n == 5 else 0, 100))
    # a generated assignment is checked up to n = 64 when the family is
    # built, and every later value as it is read
    family = GraphFamily("late", (a, b), generated(lambda n: {70: -1, 80: 2}.get(n, n % 2), 100))
    for n, k in ((70, -1), (80, 2)):
        with pytest.raises(ValueError, match=rf"^assignment value {k} at n={n} is not a"):
            family.graph_at(n)
    assert values_window(family.assignment, 69) == [n % 2 for n in range(70)]
    with pytest.raises(ValueError, match="value -1 at n=70"):
        values_window(family.assignment, 100)
    ext = ns_extremity(family, 3, periodic((), family.shared_extremities(3)), label="q")
    with pytest.raises(ValueError, match="value -1 at n=70"):
        values_window(ext.owner_rep, 100)
    assert family.assignment.describe() == "gen=? nmax=100"
