"""Each layer's work against the parameter that drives it, as call counts.

Timings cannot resolve a few milliseconds, but call counts are exact. Each
test builds synthetic projects in-process at several sizes of one parameter,
holding the rest fixed, counts calls with wrappers and checks how each
count grows with the parameter:

* extremities per node, k: oracle decisions, ``owner_of`` and the
  selected-value reads grow linearly in k;
* the periodic joint window L of a network's data: one periodic column per
  datum per read range, and one stacked solve per ``_BLOCK`` indices;
* the generated horizon H: one ``_solve_at_indices`` call per
  ``_SOLVED_BLOCK`` indices of the horizon.

Work that grows faster today (the node audit's pairwise owner reads, and
queries resolved index by index) is not counted here.
"""

import math

import numpy as np
import pytest

from ultragraph import network, ultrapower
from ultragraph.graphs import StandardGraph
from ultragraph.network import _BLOCK, _SOLVED_BLOCK, operating_point, verify_laws
from ultragraph.oracle import FilterOracle
from ultragraph.project import parse_project
from ultragraph.sequences import values_window
from ultragraph.ultrapower import build_ns_graph


def counter(monkeypatch, owner, name, counts=lambda *args: True):
    """Count the calls of ``owner.name`` from now on, those whose arguments
    ``counts`` accepts; returns the list of counted calls, one entry each."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        if counts(*args):
            calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def linear(counts: dict) -> bool:
    """Whether counts taken at sizes s, 2s, 4s grow by a constant amount
    per unit of size: c(4s) - c(2s) == 2 * (c(2s) - c(s)), and they grow."""
    small, middle, large = (counts[s] for s in sorted(counts))
    return middle > small and large - middle == 2 * (middle - small)


def tip_project(k: int) -> str:
    """Two rank-1 prototypes alternating under a periodic assignment: A
    groups 2k tips into two 1-nodes of k, and B moves one tip to the other
    node, so that tip's owner alternates. A periodic universe of 2k
    extremities."""
    a, b = [f"a{j}" for j in range(k)], [f"b{j}" for j in range(k)]
    moved = {"first": ", ".join(a[:-1]), "second": ", ".join(b + a[-1:])}
    graph = (
        "graph {name} rank=1 {{\n"
        "  nodes0 p q\n"
        "  branch b1 p q\n"
        "  tips 0 = {all}\n"
        "  node x1 rank=1 tips={{{first}}}\n"
        "  node y1 rank=1 tips={{{second}}}\n"
        "}}\n"
    )
    return (
        "oracle main {\n}\n"
        + graph.format(name="A", all=" ".join(a + b), first=", ".join(a), second=", ".join(b))
        + graph.format(name="B", all=" ".join(a + b), **moved)
        + "family fam {\n  prototypes A B\n  assignment cycle=[0, 1]\n}\n"
    )


def test_node_building_grows_linearly_in_the_extremities_per_node(monkeypatch):
    decide = counter(monkeypatch, FilterOracle, "decide")
    owner_of = counter(monkeypatch, StandardGraph, "owner_of")
    select = counter(monkeypatch, ultrapower, "_select_value")
    counts = {name: {} for name in ("decide", "owner_of", "select")}
    for k in (4, 8, 16):
        project = parse_project(tip_project(k))
        family = project.family("fam")
        for calls in (decide, owner_of, select):
            calls.clear()
        layer = build_ns_graph(family, project.oracle(), mu_max=1).layer(1)
        assert sum(len(node.members) for node in layer.nodes) == 2 * k
        counts["decide"][k], counts["owner_of"][k], counts["select"][k] = map(
            len, (decide, owner_of, select)
        )
    assert all(map(linear, counts.values())), counts


GRID = {"b1": ("a", "b"), "b2": ("b", "c"), "b3": ("c", "a"), "b4": ("a", "c")}


def grid_network(r_cycle: int, e_cycle: int, generated_horizon: int | None = None):
    """A four-branch network whose resistance on b1 cycles with length
    ``r_cycle`` and whose EMF on b2 cycles with length ``e_cycle``, so
    their joint window is lcm(r_cycle, e_cycle); with ``generated_horizon``
    the resistance on b3 is the generated n + 1 up to that horizon."""
    r3 = "cycle=[2.0]" if generated_horizon is None else f"gen=affine(1, 1) nmax={generated_horizon}"
    branches = "".join(f"  branch {bid} {u} {v}\n" for bid, (u, v) in GRID.items())
    text = f"""
oracle main {{
}}
graph g rank=0 {{
  nodes0 a b c
{branches}}}
family fam {{
  prototypes g
  assignment cycle=[0]
}}
network net on fam {{
  r b1 = cycle=[{", ".join(str(1.0 + j) for j in range(r_cycle))}]
  e b2 = cycle=[{", ".join(str(0.5 * j) for j in range(e_cycle))}]
  r b2 = cycle=[1.0]
  r b3 = {r3}
  r b4 = cycle=[4.0]
}}
"""
    project = parse_project(text)
    return project.network("net"), project.oracle()


@pytest.mark.parametrize("cycles", [(2, 3), (5, 7), (15, 17), (33, 35), (41, 43)])
def test_periodic_solves_follow_the_joint_window(monkeypatch, cycles):
    net, oracle = grid_network(*cycles)
    window = math.lcm(*cycles)
    columns = counter(monkeypatch, network, "_periodic_column")
    # a stacked solve takes one matrix per index; the certificate's bounds
    # take one more solve of a single matrix per prototype
    solves = counter(monkeypatch, np.linalg, "solve", lambda a, b: np.ndim(a) == 3)
    op = operating_point(net, oracle)
    assert op.route == "periodic"
    data = 2 * len(GRID)  # a resistance and an EMF per branch
    assert (len(columns), len(solves)) == (data, -(-window // _BLOCK))
    columns.clear()
    report = verify_laws(op)
    assert report.ok
    # currents, voltages, resistances and EMFs, one column each per branch
    assert len(columns) == 4 * len(GRID) and len(solves) == -(-window // _BLOCK)


@pytest.mark.parametrize("horizon", [100, _SOLVED_BLOCK - 1, _SOLVED_BLOCK, 2 * _SOLVED_BLOCK + 5])
def test_generated_solves_follow_the_horizon(monkeypatch, horizon):
    net, oracle = grid_network(2, 3, generated_horizon=horizon)
    solved = counter(monkeypatch, network, "_solve_at_indices")
    op = operating_point(net, oracle)
    assert op.route == "generated" and op.horizon == horizon
    for bid in GRID:
        assert len(values_window(op.currents[bid].rep, horizon)) == horizon + 1
    for w in ("a", "b", "c"):
        values_window(op.potentials[w].rep, horizon)
    assert len(solved) == -(-(horizon + 1) // _SOLVED_BLOCK)
