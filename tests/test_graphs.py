"""Standard transfinite graphs: axioms, truncation, extremities, shorting."""

import copy
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragraph import (
    OMEGA,
    OMEGA_ARROW,
    Extremity,
    StandardGraph,
    StandardNode,
    TowerScheme,
    extremities,
    shorted_std,
    truncate,
    validate,
)
from ultragraph.errors import NotAnExtremity, RankTooHigh
from ultragraph import graphs
from ultragraph.graphs import ValidationReport, parse_rank

from conftest import alternating_3graphs, ladder_1graph, loop_2graph, tower_omega_graph


def codes(report):
    return sorted(v.code for v in report.violations)


def test_ladder_validates():
    report = validate(ladder_1graph())
    assert report.passed
    assert any("not checked" in note for note in report.notes)


def test_loop_and_alternating_prototypes_validate():
    for g in (loop_2graph(), *alternating_3graphs()):
        assert validate(g).passed, g.name


def test_shared_exceptional_is_a_violation():
    g = StandardGraph(
        "bad",
        2,
        nodes0=["p", "q", "z"],
        branches={"b1": ("p", "q")},
        tips={0: ["t0"], 1: ["t1", "u1"]},
        nodes=[
            StandardNode.make("x1", 1, ("t0",)),
            StandardNode.make("x2", 2, ("t1",), "z"),
            StandardNode.make("y2", 2, ("u1",), "z"),
        ],
    )
    assert "exceptional-shared" in codes(validate(g))
    # owner lookup still answers: the node declared last
    assert g.owner_of(Extremity("node", "z", 0), 2) == "y2"


def explicit_omega_graph(omega_tips=("T0", "T1"), omega_nodes=None):
    if omega_nodes is None:
        omega_nodes = [
            StandardNode.make("W0", OMEGA, ("T0",), "x1_0"),
            StandardNode.make("W1", OMEGA, ("T1",), "x2_0"),
        ]
    return StandardGraph(
        "T",
        OMEGA,
        nodes0=["a", "b"],
        branches={"b1": ("a", "b")},
        scheme=TowerScheme(2),
        omega_tips=omega_tips,
        omega_nodes=omega_nodes,
    )


def test_shared_exceptional_on_an_explicit_omega_layer_is_a_violation():
    g = explicit_omega_graph(
        omega_nodes=[
            StandardNode.make("W0", OMEGA, ("T0",), "x1_0"),
            StandardNode.make("W1", OMEGA, ("T1",), "x1_0"),
        ]
    )
    report = validate(g)
    assert codes(report) == ["exceptional-shared"]
    assert report.violations[0].detail == "node x1_0 is the exceptional element of W0, W1"
    # resolved as on a finite layer
    assert g.owner_of(Extremity("node", "x1_0", 1), OMEGA) == "W1"


def test_an_explicit_omega_layer_is_stored_with_the_finite_layers():
    g = explicit_omega_graph()
    assert sorted(g.layer_nodes(OMEGA)) == ["W0", "W1"]
    assert g.layer_tips(OMEGA_ARROW) == frozenset({"T0", "T1"})
    assert g.node_rank("W1") is OMEGA
    assert validate(g).passed
    assert [(e.describe(), e.rank) for e in extremities(g, OMEGA)] == [
        ("node:x1_0", 1),
        ("node:x2_0", 2),
        ("tip:T0", OMEGA_ARROW),
        ("tip:T1", OMEGA_ARROW),
    ]
    assert g.owner_of(Extremity("node", "x2_0", 2), OMEGA) == "W1"
    assert g.owner_of(Extremity("tip", "T0", OMEGA_ARROW), OMEGA) == "W0"


def test_an_omega_nodes_entry_lands_in_the_omega_layer_whatever_its_rank():
    g = explicit_omega_graph(omega_nodes=[StandardNode.make("W0", 3, ("T0", "T1"))])
    assert list(g.layer_nodes(OMEGA)) == ["W0"]
    assert g.node_rank("W0") is OMEGA


def test_an_empty_explicit_omega_layer_is_an_empty_top_layer():
    # a graph without omega-nodes is declared rank omega-arrow instead
    g = explicit_omega_graph(omega_tips=None, omega_nodes=[])
    report = validate(g)
    assert codes(report) == ["layer-empty-top"]
    assert report.violations[0].detail == "rank-omega graph has no omega-nodes"
    arrow = StandardGraph(
        "T", OMEGA_ARROW, nodes0=["a", "b"], branches={"b1": ("a", "b")},
        scheme=TowerScheme(2),
    )
    assert validate(arrow).passed


def test_explicit_omega_violations_name_omega_nodes_and_arrow_tips():
    g = explicit_omega_graph(
        omega_tips=["T0", "T1", "T2", "T3"],
        omega_nodes=[
            StandardNode.make("W0", OMEGA, ("T0", "T9")),
            StandardNode.make("W1", OMEGA, ("T0",)),
            StandardNode.make("W2", OMEGA, ()),
            StandardNode.make("W3", OMEGA, ("T3",), "nowhere"),
        ],
    )
    assert [v.render() for v in validate(g).violations] == [
        "[unknown-tip] omega-node W0 references undeclared tip T9",
        "[node-empty] omega-node W2 owns no omega-arrow tip",
        "[exceptional-missing] node W3 embraces unknown node nowhere",
        "[tip-shared] omega-arrow tip T0 belongs to nodes W0, W1",
        "[tip-unowned] omega-arrow tip T1 belongs to no omega-node",
        "[tip-unowned] omega-arrow tip T2 belongs to no omega-node",
    ]


def test_an_undeclared_omega_tip_is_not_an_extremity():
    g = explicit_omega_graph(
        omega_nodes=[StandardNode.make("W0", OMEGA, ("T0", "T1", "T9"))]
    )
    assert g.owner_of(Extremity("tip", "T1", OMEGA_ARROW), OMEGA) == "W0"
    with pytest.raises(NotAnExtremity) as err:
        g.owner_of(Extremity("tip", "T9", OMEGA_ARROW), OMEGA)
    assert str(err.value) == "tip:T9 is not an owned rank-omega-arrow tip of graph T"
    with pytest.raises(NotAnExtremity) as err:
        g.owner_of(Extremity("node", "x1_0", 1), OMEGA)
    assert str(err.value) == (
        "node:x1_0 is not the exceptional element of any rank-omega node of graph T"
    )


ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)


@ROUND_TRIPS
def test_a_round_tripped_omega_graph_keeps_its_omega_layer(round_trip):
    g = explicit_omega_graph(omega_nodes=[StandardNode.make("W0", OMEGA, ("T0", "T9"))])
    copied = round_trip(g)
    assert copied == g
    assert [v.render() for v in validate(g).violations] == [
        "[unknown-tip] omega-node W0 references undeclared tip T9",
        "[tip-unowned] omega-arrow tip T1 belongs to no omega-node",
    ]
    assert validate(copied).violations == validate(g).violations
    assert copied.extremity_list(OMEGA, 3) == g.extremity_list(OMEGA, 3)


@ROUND_TRIPS
def test_a_round_tripped_rank_equals_the_constant(round_trip):
    for rank in (OMEGA_ARROW, OMEGA):
        copied = round_trip(rank)
        assert copied == rank and hash(copied) == hash(rank)
        assert str(copied) == str(rank)
    assert round_trip(OMEGA) != OMEGA_ARROW


def test_ranks_order_by_value():
    assert sorted([OMEGA, 3, OMEGA_ARROW, 0, 10]) == [0, 3, 10, OMEGA_ARROW, OMEGA]
    assert 10**9 < OMEGA_ARROW < OMEGA and OMEGA > OMEGA_ARROW >= 10**9
    assert not OMEGA < 3 and OMEGA != 3 and OMEGA <= OMEGA


def test_a_printed_rank_parses_back():
    for rank in (0, 3, OMEGA_ARROW, OMEGA, copy.deepcopy(OMEGA)):
        assert parse_rank(str(rank)) == rank
        assert parse_rank(f"{rank}") == rank


def test_an_omega_layer_on_a_finite_graph_is_out_of_range():
    g = StandardGraph(
        "g", 1, nodes0=["a", "b"], branches={"b1": ("a", "b")},
        tips={0: ["p"]}, nodes=[StandardNode.make("x", 1, ("p",))],
        omega_tips=["T0"], omega_nodes=[StandardNode.make("W0", OMEGA, ("T0",))],
    )
    assert [v.render() for v in validate(g).violations] == [
        "[rank-range] node layer at invalid rank omega",
        "[rank-range] tip layer at invalid rank omega-arrow",
    ]


def test_stored_natural_layers_on_a_scheme_graph_are_out_of_range():
    g = StandardGraph(
        "G", OMEGA, nodes0=["a", "b"], branches={"b1": ("a", "b")},
        tips={0: ["zz"]}, nodes=[StandardNode.make("q", 1, ("zz",))],
        scheme=TowerScheme(2),
        omega_tips=["T0"], omega_nodes=[StandardNode.make("W0", OMEGA, ("T0",))],
    )
    assert sorted(g.layer_nodes(1)) == ["x1_0", "x1_1"]
    assert [v.render() for v in validate(g).violations] == [
        "[rank-range] node layer at invalid rank 1",
        "[rank-range] tip layer at invalid rank 0",
    ]


def test_an_omega_layer_on_a_rank_omega_arrow_graph_is_out_of_range():
    g = StandardGraph(
        "G", OMEGA_ARROW, nodes0=["a", "b"], branches={"b1": ("a", "b")},
        scheme=TowerScheme(2),
        omega_tips=["T0"], omega_nodes=[StandardNode.make("W0", OMEGA, ("T0",))],
    )
    assert [v.render() for v in validate(g).violations] == [
        "[rank-range] node layer at invalid rank omega",
        "[rank-range] tip layer at invalid rank omega-arrow",
    ]


def test_a_stored_omega_arrow_node_layer_is_out_of_range():
    g = StandardGraph(
        "T", OMEGA, nodes0=["a", "b"], branches={"b1": ("a", "b")},
        scheme=TowerScheme(2),
        omega_tips=["T0"], omega_nodes=[StandardNode.make("W0", OMEGA, ("T0",))],
        nodes=[StandardNode.make("V", OMEGA_ARROW, ("zz",))],
    )
    assert [v.render() for v in validate(g).violations] == [
        "[rank-range] node layer at invalid rank omega-arrow",
    ]


def test_a_graded_omega_layer_is_not_listed_as_one_layer():
    g = tower_omega_graph()
    with pytest.raises(RankTooHigh):
        g.layer_nodes(OMEGA)
    with pytest.raises(RankTooHigh):
        g.layer_tips(OMEGA_ARROW)
    assert validate(g).passed


def test_a_graded_omega_layer_cannot_also_be_listed():
    for listed in ({"omega_tips": ["T0"]}, {"omega_tips": []},
                   {"omega_nodes": [StandardNode.make("W0", OMEGA, ("T0",))]}):
        with pytest.raises(ValueError, match="graded omega layer"):
            StandardGraph(
                "T", OMEGA, nodes0=["a", "b"], branches={"b1": ("a", "b")},
                scheme=TowerScheme(2), graded_omega=True, **listed,
            )


def test_tipless_node_is_a_violation():
    g = StandardGraph(
        "empty",
        1,
        nodes0=["p", "q"],
        branches={"b1": ("p", "q")},
        tips={0: ["t0"]},
        nodes=[
            StandardNode.make("x1", 1, ("t0",)),
            StandardNode.make("e1", 1, ()),
        ],
    )
    assert "node-empty" in codes(validate(g))


def test_tip_owned_twice_is_a_violation():
    g = StandardGraph(
        "dup",
        1,
        nodes0=["p", "q"],
        branches={"b1": ("p", "q")},
        tips={0: ["t0"]},
        nodes=[
            StandardNode.make("x1", 1, ("t0",)),
            StandardNode.make("y1", 1, ("t0",)),
        ],
    )
    assert "tip-shared" in codes(validate(g))


def test_orphan_tip_is_a_violation():
    g = StandardGraph(
        "orphan",
        1,
        nodes0=["p", "q"],
        branches={"b1": ("p", "q")},
        tips={0: ["t0", "lost"]},
        nodes=[StandardNode.make("x1", 1, ("t0",))],
    )
    assert "tip-unowned" in codes(validate(g))


def test_self_loops_are_flagged():
    g = StandardGraph("loopy", 0, nodes0=["a"], branches={"b1": ("a", "a")})
    assert "branch-loop" in codes(validate(g))


def test_branch_endpoints_must_exist():
    g = StandardGraph("dangling", 0, nodes0=["a", "b"], branches={"b1": ("a", "c")})
    assert "branch-endpoint" in codes(validate(g))


def test_truncate_drops_upper_layers():
    g2 = loop_2graph()
    g1 = truncate(g2, 1)
    assert g1.rank == 1
    assert g1.layer_nodes(1)
    with pytest.raises(RankTooHigh):
        g1.layer_nodes(2)
    assert g1.branches == g2.branches
    assert validate(g1).passed


def test_truncate_to_own_rank_is_identity():
    g = loop_2graph()
    assert truncate(g, 2) == g


def test_truncate_beyond_rank_is_an_error():
    with pytest.raises(RankTooHigh):
        truncate(ladder_1graph(), 3)


def test_truncating_an_omega_template_materializes_a_finite_graph():
    t = tower_omega_graph()
    g3 = truncate(t, 3)
    assert g3.rank == 3
    assert sorted(g3.layer_nodes(3)) == ["x3_0", "x3_1"]
    assert validate(g3).passed


def test_validate_passes_on_all_truncations():
    for g in (loop_2graph(), *alternating_3graphs()):
        for rank in range(1, g.rank + 1):
            assert validate(truncate(g, rank)).passed


def test_ladder_extremity_count():
    # two 0-tips, no exceptional elements -> two extremities at level 1
    exts = extremities(ladder_1graph(), 1)
    assert sorted(e.ident for e in exts) == ["p0", "q0"]
    assert all(e.kind == "tip" and e.rank == 0 for e in exts)


def test_exceptional_element_appears_exactly_once():
    exts = extremities(loop_2graph(), 2)
    embraced = [e for e in exts if e.kind == "node"]
    assert [e.ident for e in embraced] == ["x1"]
    assert embraced[0].rank == 1


def test_shorted_std_is_reflexive():
    g = ladder_1graph()
    e = Extremity("tip", "p0", 0)
    assert shorted_std(g, e, e, 1)


def test_two_tips_in_one_node_are_shorted():
    g = ladder_1graph()
    assert shorted_std(g, Extremity("tip", "p0", 0), Extremity("tip", "q0", 0), 1)


def test_tips_in_distinct_nodes_are_not_shorted():
    a, _ = alternating_3graphs()
    assert not shorted_std(a, Extremity("tip", "t0", 0), Extremity("tip", "s0", 0), 1)


def test_unknown_extremity_is_an_error():
    g = ladder_1graph()
    with pytest.raises(NotAnExtremity):
        shorted_std(g, Extremity("tip", "zz", 0), Extremity("tip", "p0", 0), 1)


def test_partition_recovery_reproduces_the_node_layer():
    # rebuilding classes from pairwise shorted_std queries gives back X^mu
    for g, level in [(loop_2graph(), 1), (loop_2graph(), 2), (alternating_3graphs()[1], 2)]:
        exts = list(extremities(g, level))
        classes = []
        for e in exts:
            for cls in classes:
                if shorted_std(g, e, cls[0], level):
                    cls.append(e)
                    break
            else:
                classes.append([e])
        assert len(classes) == len(g.layer_nodes(level))
        for cls in classes:
            owners = {g.owner_of(e, level) for e in cls}
            assert len(owners) == 1


def test_structural_equality_ignores_construction_order():
    a1 = StandardGraph(
        "same", 1, nodes0=["a", "b"], branches={"b1": ("a", "b")},
        tips={0: ["t"]}, nodes=[StandardNode.make("x1", 1, ("t",))],
    )
    a2 = StandardGraph(
        "same", 1, nodes0=["b", "a"], branches={"b1": ("a", "b")},
        tips={0: ["t"]}, nodes=[StandardNode.make("x1", 1, ("t",))],
    )
    assert a1 == a2 and hash(a1) == hash(a2)


def test_omega_template_basics():
    t = tower_omega_graph()
    report = validate(t)
    assert report.passed
    assert any("scheme layers spot-checked" in n for n in report.notes)
    w0 = t.omega_node_at(0)
    assert w0.exceptional is None
    w3 = t.omega_node_at(3)
    assert w3.exceptional == "x3_0"
    assert t.node_rank("x7_1") == 7


def test_graded_omega_extremities_pair_tips_with_embraced_nodes():
    t = tower_omega_graph()
    exts = extremities(t, OMEGA, bound=4)
    kinds = {e.kind for e in exts}
    assert kinds == {"tip", "node"}
    tips = [e for e in exts if e.kind == "tip"]
    assert all(e.rank is OMEGA_ARROW for e in tips)


# -- natural ranks ----------------------------------------------------------------------


def random_natural_graph(rng):
    """A natural-rank graph with tip and node layers stored at random levels,
    some past its rank or below 1, owning declared and undeclared tips."""
    rank = rng.randint(0, 6)
    tips = {
        r: [f"t{r}_{k}" for k in range(rng.randint(0, 3))]
        for r in rng.sample(range(8), rng.randint(0, 5))
    }
    nodes = []
    for r in rng.sample(range(9), rng.randint(0, 5)):
        for k in range(rng.randint(1, 3)):
            owned = [t for t in tips.get(r - 1, ()) if rng.random() < 0.6]
            if rng.random() < 0.2:
                owned.append(f"undeclared{r}")
            nodes.append(StandardNode.make(f"x{r}_{k}", r, owned))
    return StandardGraph(
        "g", rank, nodes0=["a", "b"], branches={"b1": ("a", "b")}, tips=tips, nodes=nodes
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_validate_skips_only_levels_without_violations(seed):
    g = random_natural_graph(random.Random(seed))
    checked = []
    check_layer = graphs._check_layer

    def recording(graph, level, report):
        checked.append(level)
        check_layer(graph, level, report)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphs, "_check_layer", recording)
        report = validate(g)
    assert checked == sorted(set(checked)) and all(1 <= level <= g.rank for level in checked)
    for level in sorted(set(range(1, g.rank + 1)) - set(checked)):
        skipped = ValidationReport(g.name)
        check_layer(g, level, skipped)
        assert skipped.violations == [], level
    assert ("layer-empty-top" in codes(report)) == (g.rank >= 1 and not g.layer_nodes(g.rank))


@pytest.mark.parametrize("rank", [10**8, 10**399], ids=["1e8", "400-digit"])
def test_a_large_natural_rank_is_validated_from_its_stored_layers(rank):
    g = StandardGraph(
        "big", rank, nodes0=["a", "b"], branches={"b1": ("a", "b")},
        tips={0: ["p"]}, nodes=[StandardNode.make("x", 1, ("p",))],
    )
    start = time.perf_counter()
    report = validate(g)
    assert time.perf_counter() - start < 0.5
    assert [v.render() for v in report.violations] == [
        f"[layer-empty-top] rank-{rank} graph has no rank-{rank} nodes"
    ]


def test_owner_of_checks_each_level_once_and_refuses_what_it_refused(monkeypatch):
    checked = []
    check = StandardGraph._check_level

    def counting(self, level):
        checked.append(level)
        return check(self, level)

    monkeypatch.setattr(StandardGraph, "_check_level", counting)
    g = loop_2graph()
    for _ in range(3):
        assert g.owner_of(Extremity("tip", "p0", 0), 1) == "x1"
        assert g.owner_of(Extremity("node", "x1", 1), 2) == "x2"
    assert checked == [1, 2]
    # 1.0 and True hash like 1, and only True is a level (an int)
    for level in (1.0, 0, 3, -1, OMEGA, OMEGA_ARROW, "1", [1], None):
        with pytest.raises(RankTooHigh):
            g.owner_of(Extremity("tip", "p0", 0), level)
    assert g.owner_of(Extremity("tip", "p0", 0), True) == "x1"
    # a graded omega layer is answered by its scheme, checked at every call
    t = tower_omega_graph()
    del checked[:]
    for _ in range(2):
        assert t.owner_of(Extremity("tip", "T_3", OMEGA_ARROW), OMEGA) == "W_3"
    assert checked == [OMEGA, OMEGA]
    with pytest.raises(RankTooHigh):
        t.owner_of(Extremity("tip", "T_3", OMEGA_ARROW), OMEGA_ARROW)
