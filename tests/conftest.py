"""Shared builders for the test suite.

The hand-built prototypes here mirror the example projects under
projects/ so unit tests and CLI golden tests exercise the same shapes.
"""

import random

import pytest

from ultragraph import (
    OMEGA,
    Branch,
    FilterOracle,
    GraphFamily,
    StandardGraph,
    StandardNetwork,
    StandardNode,
    TowerScheme,
    periodic,
)


def ladder_1graph():
    # an endless-ladder stand-in: both 0-tips land in the single 1-node
    return StandardGraph(
        "ladder",
        1,
        nodes0=["a", "b"],
        branches={"b1": ("a", "b"), "b2": ("b", "a")},
        tips={0: ["p0", "q0"]},
        nodes=[StandardNode.make("x1", 1, ("p0", "q0"))],
    )


def loop_2graph():
    # series loop 1 ohm + 2 ohm / 3 V at rank 0; x2 embraces x1
    return StandardGraph(
        "loop",
        2,
        nodes0=["a", "b"],
        branches={"b1": ("a", "b"), "b2": ("b", "a")},
        tips={0: ["p0", "q0"], 1: ["t1"]},
        nodes=[
            StandardNode.make("x1", 1, ("p0", "q0")),
            StandardNode.make("x2", 2, ("t1",), "x1"),
        ],
    )


def alternating_3graphs():
    """Rank-3 pair: A embraces the rank-1 node w1, B the rank-2 node w2."""
    a = StandardGraph(
        "A",
        3,
        nodes0=["p", "q"],
        branches={"b1": ("p", "q")},
        tips={0: ["t0", "s0"], 1: ["t1"], 2: ["t2"]},
        nodes=[
            StandardNode.make("x1", 1, ("t0",)),
            StandardNode.make("w1", 1, ("s0",)),
            StandardNode.make("x2", 2, ("t1",)),
            StandardNode.make("x3", 3, ("t2",), "w1"),
        ],
    )
    b = StandardGraph(
        "B",
        3,
        nodes0=["p", "q"],
        branches={"b1": ("p", "q")},
        tips={0: ["t0", "s0"], 1: ["t1", "s1"], 2: ["t2"]},
        nodes=[
            StandardNode.make("x1", 1, ("t0",)),
            StandardNode.make("w1", 1, ("s0",)),
            StandardNode.make("x2", 2, ("t1",)),
            StandardNode.make("w2", 2, ("s1",)),
            StandardNode.make("x3", 3, ("t2",), "w2"),
        ],
    )
    return a, b


def tower_omega_graph(width=2):
    return StandardGraph(
        "T",
        OMEGA,
        nodes0=["a", "b"],
        branches={"b1": ("a", "b")},
        scheme=TowerScheme(width),
        graded_omega=True,
    )


@pytest.fixture
def oracle():
    return FilterOracle()


@pytest.fixture
def alternating_family():
    return GraphFamily("alt", alternating_3graphs(), periodic((), (0, 1)))


@pytest.fixture
def loop_family():
    return GraphFamily("loopfam", (loop_2graph(),))


def random_network(rng: random.Random, max_branches=12):
    """A random multigraph network as plain data for both solvers.

    Returns ({bid: (u, v, r, e)}, StandardNetwork).
    """
    n_nodes = rng.randint(2, 6)
    nodes = [f"n{k}" for k in range(n_nodes)]
    n_branches = rng.randint(1, max_branches)
    plain = {}
    for k in range(n_branches):
        u, v = rng.sample(nodes, 2)
        r = rng.uniform(0.1, 10.0)
        e = rng.uniform(-5.0, 5.0) if rng.random() < 0.7 else 0.0
        plain[f"b{k}"] = (u, v, r, e)
    graph = StandardGraph(
        "rand",
        0,
        nodes0=nodes,
        branches={bid: (u, v) for bid, (u, v, _, _) in plain.items()},
    )
    net = StandardNetwork(
        graph, {bid: Branch(r, e) for bid, (_, _, r, e) in plain.items()}
    )
    return plain, net


def audit_fields(line: str) -> tuple[str, str, str]:
    """The context, subject and verdict of one oracle audit line."""
    rest, verdict = line.rsplit(" -> ", 1)
    context, subject = rest.rsplit(": ", 1)
    return context, subject, verdict


def outcome(call):
    """The value a call returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - compared as data
        return type(exc), str(exc)
