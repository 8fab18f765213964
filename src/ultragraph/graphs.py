"""Standard transfinite graphs of rank up to omega.

A graph of finite rank mu is the family {X^0, B, X^1, ..., X^mu}: a set of
0-nodes, branches joining two distinct 0-nodes, and for each rank
1 <= rho <= mu a layer of rho-nodes. Tips are primitive identifiers: the
declared tip universe of rank rho-1 is partitioned among the rho-nodes
(each tip owned by exactly one node). A rho-node may additionally embrace
one exceptional element, a node of some lower rank; distinct rho-nodes
never share their exceptional element, and every node owns at least one
tip. Whether a tip is "really" the end of a one-ended path is the input
author's responsibility and is deliberately not checked here.

Ranks are plain values. A natural rank is an ``int``; omega-arrow and
omega are the two :class:`Transfinite` constants ``OMEGA_ARROW`` and
``OMEGA``, which sit above every natural rank, omega-arrow below omega.
Ranks compare with ``<``, sort with ``sorted``, test with ``==``, key
dicts, and print in the project-file spelling.

Graphs of rank omega-arrow or omega cannot list their infinitely many
natural-rank layers, so they carry a layer scheme: a uniform template
instantiated on demand. The omega layer (omega-nodes owning omega-arrow
tips) is either declared explicitly or generated by the graded scheme,
whose j-th omega-node embraces the rank-j node of the tower as its
exceptional element. An explicit omega layer is one more stored layer:
its nodes sit at rank OMEGA and its tips at rank OMEGA_ARROW in the same
tables as the finite layers, so listing, owner lookup and validation
treat it exactly like a finite one. Only the graded layer, being
infinite, has code of its own. No graph here has omega-arrow nodes.

Extremities of a graph at level mu are the raw material for higher nodes:
the tips of rank ``tip_rank(mu)`` (mu-1 for a natural level, omega-arrow
for omega) together with the exceptional elements of the mu-nodes. Two
extremities are shorted when the same mu-node contains both.

All structures are immutable after construction; layer materialization for
schemes is cached and idempotent, so sharing between readers is safe.
"""

from __future__ import annotations

import re
from functools import total_ordering
from itertools import chain
from typing import Iterable, NamedTuple

from .errors import DuplicateId, NotAnExtremity, RankTooHigh


@total_ordering
class Transfinite:
    """A rank above every natural one: ``OMEGA_ARROW`` < ``OMEGA``.

    Equal by value, so a pickled or copied rank still equals the constant;
    printed in the project-file spelling.
    """

    __slots__ = ("_order", "_name")

    def __init__(self, order: int, name: str):
        self._order = order
        self._name = name

    def __eq__(self, other):
        return isinstance(other, Transfinite) and self._order == other._order

    def __hash__(self):
        return hash(self._order)

    def __lt__(self, other):
        if isinstance(other, Transfinite):
            return self._order < other._order
        return False if isinstance(other, int) else NotImplemented

    def __repr__(self):
        return self._name


OMEGA_ARROW = Transfinite(1, "omega-arrow")
OMEGA = Transfinite(2, "omega")


def tip_rank(level):
    """The rank of the tips that the nodes of a level own."""
    return OMEGA_ARROW if level == OMEGA else level - 1


def parse_rank(text: str):
    if text == "omega":
        return OMEGA
    if text == "omega-arrow":
        return OMEGA_ARROW
    return int(text)


class Extremity(NamedTuple):
    """A (level-1)-tip or the exceptional node of a level-node."""

    kind: str  # "tip" or "node"
    ident: str
    rank: object  # the tip's rank, or the node's rank

    def describe(self) -> str:
        return f"{self.kind}:{self.ident}"

    def sort_key(self):
        return (self.kind, self.ident)


class StandardNode(NamedTuple):
    ident: str
    rank: object
    tips: frozenset
    exceptional: str | None = None

    @staticmethod
    def make(ident, rank, tips, exceptional=None) -> "StandardNode":
        return StandardNode(ident, rank, frozenset(tips), exceptional)


_NODE_RE = re.compile(r"^x(\d+)_(\d+)$")
_OTIP_RE = re.compile(r"^T_(\d+)$")
_ONODE_RE = re.compile(r"^W_(\d+)$")
_PROBE_DEPTH = 4  # scheme-layer ranks and generated omega-node indices ``validate`` checks


class TowerScheme:
    """Uniform layers: width-k ranks where node x{rho}_i owns tip t{rho-1}_i."""

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("scheme width must be at least 1")
        self.width = width

    def tips_at(self, rank: int) -> frozenset:
        return frozenset(f"t{rank}_{i}" for i in range(self.width))

    def nodes_at(self, rank: int) -> dict:
        if rank < 1:
            raise ValueError("scheme layers start at rank 1")
        return {
            f"x{rank}_{i}": StandardNode.make(
                f"x{rank}_{i}", rank, (f"t{rank - 1}_{i}",)
            )
            for i in range(self.width)
        }

    def node_rank(self, ident: str) -> int | None:
        m = _NODE_RE.match(ident)
        if m and int(m.group(2)) < self.width and int(m.group(1)) >= 1:
            return int(m.group(1))
        return None

    def graded_omega_node(self, j: int) -> StandardNode:
        # Omega-node j owns the j-th omega-arrow tip; for j >= 1 it also
        # embraces the rank-j tower node as its exceptional element.
        exceptional = f"x{j}_0" if j >= 1 else None
        return StandardNode.make(f"W_{j}", OMEGA, (f"T_{j}",), exceptional)

    def params(self) -> tuple:
        return ("tower", self.width)


class StandardGraph:
    def __init__(
        self,
        name: str,
        rank,
        nodes0: Iterable[str],
        branches: dict[str, tuple[str, str]],
        tips: dict[int, Iterable[str]] | None = None,
        nodes: Iterable[StandardNode] = (),
        scheme: TowerScheme | None = None,
        omega_tips: Iterable[str] | None = None,
        omega_nodes: Iterable[StandardNode] = (),
        graded_omega: bool = False,
    ):
        self.name = name
        self.rank = rank
        self.nodes0 = frozenset(nodes0)
        self.branches = dict(branches)
        self._tip_layers = {r: frozenset(ids) for r, ids in (tips or {}).items()}
        self._node_layers: dict[object, dict[str, StandardNode]] = {}
        self.scheme = scheme
        self.graded_omega = graded_omega
        if isinstance(rank, Transfinite) and scheme is None:
            raise ValueError("graphs of unbounded rank need a layer scheme")
        if not isinstance(rank, Transfinite) and scheme is not None:
            raise ValueError("finite-rank graphs list their layers explicitly")
        omega_nodes = tuple(omega_nodes)
        if graded_omega and (omega_tips is not None or omega_nodes):
            raise ValueError("a graded omega layer cannot also list omega-tips or omega-nodes")
        if omega_tips:
            self._tip_layers[OMEGA_ARROW] = frozenset(omega_tips)
        seen = set(self.nodes0)
        for layer, node in chain(((n.rank, n) for n in nodes), ((OMEGA, n) for n in omega_nodes)):
            if node.ident in seen:
                raise DuplicateId(f"node id {node.ident!r} declared twice")
            seen.add(node.ident)
            self._node_layers.setdefault(layer, {})[node.ident] = node
        self._layer_cache: dict[int, dict[str, StandardNode]] = {}
        self._owner_cache: dict[object, tuple[dict[str, str], dict[str, str]]] = {}

    # -- layers ---------------------------------------------------------------

    def layer_nodes(self, rank) -> dict[str, StandardNode]:
        if rank < 1:
            raise ValueError("node layers start at rank 1")
        if self.scheme is not None and isinstance(rank, int):
            if rank not in self._layer_cache:
                self._layer_cache[rank] = self.scheme.nodes_at(rank)
            return self._layer_cache[rank]
        if self.rank < rank:
            raise RankTooHigh(f"graph {self.name} has rank {self.rank}")
        if rank == OMEGA and self.graded_omega:
            raise RankTooHigh(f"graph {self.name}: the generated omega layer is infinite")
        return self._node_layers.get(rank, {})

    def layer_tips(self, rank) -> frozenset:
        if rank < 0:
            raise ValueError("tip layers start at rank 0")
        if self.scheme is not None and isinstance(rank, int):
            return self.scheme.tips_at(rank)
        if rank >= self.rank:
            raise RankTooHigh(f"graph {self.name} of rank {self.rank} has no rank-{rank} tips")
        if rank == OMEGA_ARROW and self.graded_omega:
            raise RankTooHigh(f"graph {self.name}: the generated omega-arrow tips are infinite")
        return self._tip_layers.get(rank, frozenset())

    def node_rank(self, ident: str):
        if ident in self.nodes0:
            return 0
        for r, layer in self._node_layers.items():
            if ident in layer:
                return r
        if self.scheme is not None:
            r = self.scheme.node_rank(ident)
            if r is not None:
                return r
            if self.graded_omega and _ONODE_RE.match(ident):
                return OMEGA
        return None

    def omega_node_at(self, j: int) -> StandardNode:
        if not self.graded_omega:
            raise RankTooHigh("graph has no generated omega layer")
        return self.scheme.graded_omega_node(j)

    # -- extremities ----------------------------------------------------------------

    def _check_level(self, level) -> None:
        if level == OMEGA_ARROW:
            raise RankTooHigh("there are no omega-arrow nodes, hence no such level")
        if level == OMEGA:
            if self.rank != OMEGA:
                raise RankTooHigh(f"graph {self.name} has rank {self.rank}")
            return
        if not isinstance(level, int) or level < 1:
            raise RankTooHigh(f"{level!r} is not a node level")
        if level > self.rank:
            raise RankTooHigh(
                f"level {level} exceeds the rank {self.rank} of graph {self.name}"
            )

    def extremity_list(self, level, bound: int | None = None) -> list[Extremity]:
        """All extremities at the level, sorted; for a generated omega layer a
        bound on the layer index is required."""
        self._check_level(level)
        if level == OMEGA and self.graded_omega:
            if bound is None:
                raise RankTooHigh("the generated omega layer is unbounded; pass a bound")
            out = [Extremity("tip", f"T_{j}", OMEGA_ARROW) for j in range(bound)]
            nodes = [self.omega_node_at(j) for j in range(bound)]
        else:
            rank = tip_rank(level)
            out = [Extremity("tip", t, rank) for t in self.layer_tips(rank)]
            nodes = self.layer_nodes(level).values()
        for node in nodes:
            if node.exceptional is not None:
                out.append(
                    Extremity("node", node.exceptional, self.node_rank(node.exceptional))
                )
        return sorted(out, key=Extremity.sort_key)

    def owner_of(self, e: Extremity, level) -> str:
        """The ident of the level-node containing the extremity.

        A level is checked once, when its owner index is built. Only an
        ``int`` or a ``Transfinite`` level looks the index up, so a level
        such as ``1.0``, which hashes like ``1``, is still checked and
        refused."""
        index = self._owner_cache.get(level) if type(level) in (int, Transfinite) else None
        if index is None:
            self._check_level(level)
            if level == OMEGA and self.graded_omega:
                return self._graded_omega_owner(e)
            index = self._owner_cache[level] = self._build_owner_index(level)
        tips, exceptional = index
        if e.kind == "tip":
            owner = tips.get(e.ident)
            if owner is None:
                raise NotAnExtremity(
                    f"{e.describe()} is not an owned rank-{tip_rank(level)} tip "
                    f"of graph {self.name}"
                )
            return owner
        owner = exceptional.get(e.ident)
        if owner is None:
            raise NotAnExtremity(
                f"{e.describe()} is not the exceptional element of any "
                f"rank-{level} node of graph {self.name}"
            )
        return owner

    def _graded_omega_owner(self, e: Extremity) -> str:
        if e.kind == "tip":
            m = _OTIP_RE.match(e.ident)
            if m:
                return f"W_{m.group(1)}"
        else:
            m = _NODE_RE.match(e.ident)
            if m and int(m.group(1)) >= 1 and m.group(2) == "0":
                return f"W_{m.group(1)}"
        raise NotAnExtremity(
            f"{e.describe()} is not an omega extremity of graph {self.name}"
        )

    def _build_owner_index(self, level) -> tuple[dict[str, str], dict[str, str]]:
        """(declared tip -> owner, exceptional element -> owner) at a level
        with a stored or scheme layer; built once per level, since graphs do
        not change after construction."""
        declared = self.layer_tips(tip_rank(level))
        tips: dict[str, str] = {}
        exceptional: dict[str, str] = {}
        for node in self.layer_nodes(level).values():
            for t in node.tips:
                if t in declared:
                    tips.setdefault(t, node.ident)
            if node.exceptional is not None:
                exceptional[node.exceptional] = node.ident
        return tips, exceptional

    # -- equality (structural) -----------------------------------------------------

    def _canonical(self) -> tuple:
        return (
            self.name,
            self.rank,
            tuple(sorted(self.nodes0)),
            tuple(sorted((b, u, v) for b, (u, v) in self.branches.items())),
            tuple(sorted((r, tuple(sorted(ids))) for r, ids in self._tip_layers.items())),
            tuple(
                sorted(
                    (r, n.ident, tuple(sorted(n.tips)), n.exceptional)
                    for r, layer in self._node_layers.items()
                    for n in layer.values()
                )
            ),
            self.scheme.params() if self.scheme else None,
            self.graded_omega,
        )

    def __eq__(self, other):
        if not isinstance(other, StandardGraph):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash(self._canonical())

    def __repr__(self):
        return f"StandardGraph({self.name}, rank {self.rank})"


# -- operations ---------------------------------------------------------------------


class Violation(NamedTuple):
    code: str
    detail: str

    def render(self) -> str:
        return f"[{self.code}] {self.detail}"


class ValidationReport:
    __slots__ = ("graph", "violations", "notes")

    def __init__(self, graph: str):
        self.graph = graph
        self.violations: list[Violation] = []
        self.notes: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.violations


def validate(graph: StandardGraph) -> ValidationReport:
    """Check the node/tip/branch axioms; violations are data, not errors.

    Scheme-backed layers are spot-checked up to ``_PROBE_DEPTH``; of a
    natural-rank graph, only the stored layers within its rank. Tip
    path-consistency is out of scope by design and noted as unchecked.
    """
    report = ValidationReport(graph.name)
    bad = report.violations.append
    for bid, (u, v) in sorted(graph.branches.items()):
        if u == v:
            bad(Violation("branch-loop", f"branch {bid} joins {u} to itself"))
        for end in (u, v):
            if end not in graph.nodes0:
                bad(Violation("branch-endpoint", f"branch {bid} endpoint {end} is not a 0-node"))
    schemed = not isinstance(graph.rank, int)
    if schemed:
        levels = list(range(1, _PROBE_DEPTH + 1))
        if graph.rank == OMEGA and not graph.graded_omega:
            levels.append(OMEGA)
        top = levels[-1] == graph.rank
    else:
        # A level that stores no nodes and owns no stored tips has nothing
        # to check, so a large rank costs nothing.
        stored = {r for r in graph._node_layers if isinstance(r, int)}
        stored.update(r + 1 for r in graph._tip_layers if isinstance(r, int))
        levels = sorted(r for r in stored if 1 <= r <= graph.rank)
        top = graph.rank >= 1
    if top and not graph.layer_nodes(graph.rank):
        bad(Violation("layer-empty-top", f"rank-{graph.rank} graph has no {_words(graph.rank)[2]}s"))
    if schemed:
        report.notes.append(
            f"scheme layers spot-checked up to rank {_PROBE_DEPTH}; the template "
            "repeats uniformly beyond"
        )
    # A stored layer counts only within the rank and where no scheme
    # generates the layer instead; no graph has omega-arrow nodes.
    for r in graph._node_layers:
        if r < 1 or graph.rank < r or r == OMEGA_ARROW or (schemed and isinstance(r, int)):
            bad(Violation("rank-range", f"node layer at invalid rank {r}"))
    for r in graph._tip_layers:
        if r < 0 or r >= graph.rank or (schemed and isinstance(r, int)):
            bad(Violation("rank-range", f"tip layer at invalid rank {r}"))
    for level in levels:
        _check_layer(graph, level, report)
    if graph.graded_omega and graph.rank == OMEGA:
        report.notes.append(f"generated omega layer spot-checked up to index {_PROBE_DEPTH}")
    report.notes.append("tip path-consistency: not checked (tips are primitive identifiers)")
    return report


def _words(level) -> tuple[str, str, str]:
    """How violations name a node of the level, a tip it owns, and a node of
    the level where nodes of other ranks are about."""
    if level == OMEGA:
        return "omega-node", "omega-arrow tip", "omega-node"
    return "node", f"rank-{level - 1} tip", f"rank-{level} node"


def _check_layer(graph: StandardGraph, level, report: ValidationReport) -> None:
    bad = report.violations.append
    node_word, tip, owner = _words(level)
    universe = graph.layer_tips(tip_rank(level))
    owners: dict[str, list[str]] = {}
    layer = graph.layer_nodes(level)
    for node in sorted(layer.values(), key=lambda n: n.ident):
        if not node.tips:
            bad(Violation("node-empty", f"{node_word} {node.ident} owns no {tip}"))
        for t in sorted(node.tips):
            owners.setdefault(t, []).append(node.ident)
            if t not in universe:
                bad(
                    Violation(
                        "unknown-tip",
                        f"{node_word} {node.ident} references undeclared tip {t}",
                    )
                )
        if node.exceptional is not None:
            _check_exceptional(graph, node, report)
    for t in sorted(universe):
        who = owners.get(t, [])
        if not who:
            bad(Violation("tip-unowned", f"{tip} {t} belongs to no {owner}"))
        elif len(who) > 1:
            bad(Violation("tip-shared", f"{tip} {t} belongs to nodes {', '.join(who)}"))
    shared: dict[str, list[str]] = {}
    for node in layer.values():
        if node.exceptional is not None:
            shared.setdefault(node.exceptional, []).append(node.ident)
    for target, who in sorted(shared.items()):
        if len(who) > 1:
            bad(
                Violation(
                    "exceptional-shared",
                    f"node {target} is the exceptional element of {', '.join(sorted(who))}",
                )
            )


def _check_exceptional(graph, node, report) -> None:
    bad = report.violations.append
    target_rank = graph.node_rank(node.exceptional)
    if target_rank is None:
        bad(
            Violation(
                "exceptional-missing",
                f"node {node.ident} embraces unknown node {node.exceptional}",
            )
        )
    elif target_rank >= node.rank:
        bad(
            Violation(
                "exceptional-rank",
                f"node {node.ident} of rank {node.rank} embraces "
                f"{node.exceptional} of rank {target_rank}",
            )
        )


def truncate(graph: StandardGraph, new_rank) -> StandardGraph:
    """The graph cut down to the given rank; identical at shared layers."""
    if graph.rank < new_rank:
        raise RankTooHigh(f"cannot truncate rank-{graph.rank} graph to {new_rank}")
    if new_rank == graph.rank:
        return graph
    if new_rank == OMEGA_ARROW:
        return StandardGraph(
            graph.name,
            OMEGA_ARROW,
            graph.nodes0,
            graph.branches,
            scheme=graph.scheme,
        )
    if not isinstance(new_rank, int):
        raise RankTooHigh(f"{new_rank!r} is not a truncation rank")
    if graph.scheme is not None:
        nodes = [
            node for r in range(1, new_rank + 1) for node in graph.layer_nodes(r).values()
        ]
        tips = {r: graph.layer_tips(r) for r in range(new_rank)}
    else:
        nodes = [
            node
            for r, layer in graph._node_layers.items()
            if r <= new_rank
            for node in layer.values()
        ]
        tips = {r: ids for r, ids in graph._tip_layers.items() if r < new_rank}
    return StandardGraph(graph.name, new_rank, graph.nodes0, graph.branches, tips, nodes)


def extremities(graph: StandardGraph, level, bound: int | None = None) -> tuple[Extremity, ...]:
    return tuple(graph.extremity_list(level, bound))


def shorted_std(graph: StandardGraph, e: Extremity, f: Extremity, level) -> bool:
    """Same-node test at the given level (reflexive by construction)."""
    return graph.owner_of(e, level) == graph.owner_of(f, level)
