"""Resistive networks on 0-graphs and their nonstandard operating points.

A branch joining u to v carries a positive resistance r and a series EMF
e, oriented with the branch: the branch current is i = (phi_u - phi_v + e)/r
and the branch voltage is the potential drop v = phi_u - phi_v, so Ohm's
law reads v = r*i - e. Standard networks are solved by nodal analysis
(one reference node per connected component, pinned to potential zero).

A nonstandard network attaches eventually periodic or generated resistance
and EMF sequences to the branches of a graph family whose prototypes all
share one branch-identifier set. Its operating point is the sequence of
standard solutions, packaged as hyperreals:

* all data eventually periodic — the solver runs once per phase of the
  joint structural window and the results are exact eventually periodic
  descriptors;
* otherwise — currents and potentials become generated sequences that
  solve the n-th network on demand, and each branch voltage is formed as
  the hyperreal combination r*i - e so that Ohm's law holds as a class
  identity by construction, not merely within tolerance.

Indices are solved in fixed-size blocks: per prototype graph, one stacked
assembly, condition estimate and solve covers a block of indices, with
every float equal to what a single solve gives. A failure still belongs to
its index: it is raised, naming that index, only when that index is asked
for, never because another index of its block failed.

``verify_laws`` re-reads values from the operating point's descriptors, so
a perturbed operating point is honestly re-checked: it confirms Kirchhoff's
current law at every node, Kirchhoff's voltage law around every fundamental
loop of a spanning tree, Ohm's law per branch, and Tellegen's theorem,
index by index, with residuals normalized by the magnitude of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyNetwork, InvariantBreach, NumericalFailure, SolverFailure, Undecidable
from .graphs import StandardGraph
from .hyperreal import Hyperreal, hr_eq
from .oracle import FilterOracle
from .sequences import (
    GeneratedSeq,
    PeriodicSeq,
    form_key,
    generated,
    structural_window,
    value_at,
)
from .ultrapower import GraphFamily

_COND_LIMIT = 1e12
# Indices per stacked nodal solve: bounds the (block, m, m) stack in memory.
_BLOCK = 256


@dataclass(frozen=True)
class Branch:
    resistance: float
    emf: float = 0.0


class StandardNetwork:
    def __init__(self, graph: StandardGraph, data: dict[str, Branch]):
        missing = sorted(set(graph.branches) - set(data))
        extra = sorted(set(data) - set(graph.branches))
        if missing or extra:
            raise InvariantBreach(
                f"branch data does not match the graph: missing {missing}, extra {extra}"
            )
        self.graph = graph
        self.data = dict(data)


@dataclass
class StandardSolution:
    potentials: dict[str, float]
    currents: dict[str, float]
    voltages: dict[str, float]


def _components(nodes: list[str], branches: dict) -> dict[str, str]:
    """Map each node to the smallest node id of its connected component."""
    parent = {w: w for w in nodes}

    def find(w: str) -> str:
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for u, v in branches.values():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return {w: find(w) for w in nodes}


def solve_standard(net: StandardNetwork, index: int | None = None) -> StandardSolution:
    """Nodal analysis; deterministic given the network (nodes sorted)."""
    bids = sorted(net.data)
    r = [net.data[bid].resistance for bid in bids]
    e = [net.data[bid].emf for bid in bids]
    if net.graph.branches:
        failure = _invalid_branch(bids, r, e, index)
        if failure is not None:
            raise failure
    (result,) = _solve_batch(net.graph, [r], [e], [index])
    if isinstance(result, Exception):
        raise result
    return result


def _invalid_branch(bids: list[str], r: list, e: list, index) -> SolverFailure | None:
    """The failure for the first branch, in ``bids`` order, with unusable data."""
    for bid, rb, eb in zip(bids, r, e):
        if not (isinstance(rb, (int, float)) and math.isfinite(rb)) or rb <= 0:
            return SolverFailure(
                f"branch {bid} has nonpositive or nonfinite resistance {rb!r}",
                index=index,
            )
        if not (isinstance(eb, (int, float)) and math.isfinite(eb)):
            return SolverFailure(f"branch {bid} has nonfinite source value {eb!r}", index=index)
    return None


def _condition_numbers(matrices: np.ndarray) -> list:
    """np.linalg.cond per matrix, or the LinAlgError that matrix alone raises."""
    try:
        return np.linalg.cond(matrices).tolist()
    except np.linalg.LinAlgError:
        # One failing matrix fails the whole stack; find it matrix by matrix.
        found = []
        for matrix in matrices:
            try:
                found.append(float(np.linalg.cond(matrix)))
            except np.linalg.LinAlgError as exc:
                found.append(exc)
        return found


def _solve_batch(graph: StandardGraph, r, e, indices: list) -> list:
    """Nodal analysis of one graph under many sets of branch values at once.

    Row j of ``r`` and ``e`` holds the resistances and EMFs of index
    ``indices[j]``, in sorted branch-id order. Entry j of the result is
    that index's ``StandardSolution``, or the exception solving it alone
    raises; one index failing never fails another. Conductances are
    accumulated branch by branch in sorted order, each update vectorised
    across the block, so every float equals the one a single solve gives.
    """
    if not graph.branches:
        return [EmptyNetwork("the network has no branches to solve", index=n) for n in indices]
    bids = sorted(graph.branches)
    r = np.asarray(r, dtype=float)
    e = np.asarray(e, dtype=float)
    results: list = [None] * len(indices)
    usable = np.isfinite(r).all(axis=1) & (r > 0).all(axis=1) & np.isfinite(e).all(axis=1)
    for j in np.flatnonzero(~usable).tolist():
        results[j] = _invalid_branch(bids, r[j].tolist(), e[j].tolist(), indices[j])
    valid = np.flatnonzero(usable)
    nodes = sorted(graph.nodes0)
    column = {w: k for k, w in enumerate(nodes)}
    roots = _components(nodes, graph.branches)
    unknowns = [w for w in nodes if roots[w] != w]
    pos = {w: k for k, w in enumerate(unknowns)}
    m = len(unknowns)
    tail = [column[graph.branches[bid][0]] for bid in bids]
    head = [column[graph.branches[bid][1]] for bid in bids]
    for start in range(0, len(valid), _BLOCK):
        block = valid[start : start + _BLOCK].tolist()
        rb, eb = r[block], e[block]
        phi = np.zeros((len(block), len(nodes)))
        solved = list(range(len(block)))
        # numpy would warn where Python floats silently overflow to inf/nan.
        with np.errstate(over="ignore", invalid="ignore"):
            if m:
                matrix = np.zeros((len(block), m, m))
                rhs = np.zeros((len(block), m))
                for col, bid in enumerate(bids):
                    u, v = graph.branches[bid]
                    g = 1.0 / rb[:, col]
                    for w, other, sign in ((u, v, -1.0), (v, u, 1.0)):
                        if w not in pos:
                            continue
                        k = pos[w]
                        matrix[:, k, k] += g
                        if other in pos:
                            matrix[:, k, pos[other]] -= g
                        rhs[:, k] += sign * eb[:, col] * g
                solved = []
                for row, condition in enumerate(_condition_numbers(matrix)):
                    if isinstance(condition, Exception):
                        results[block[row]] = condition
                    elif not math.isfinite(condition) or condition > _COND_LIMIT:
                        results[block[row]] = NumericalFailure(
                            f"nodal matrix is ill-conditioned (condition {condition:.3e})",
                            condition=condition,
                            index=indices[block[row]],
                        )
                    else:
                        solved.append(row)
                if solved:
                    x = np.linalg.solve(matrix[solved], rhs[solved][..., None])[..., 0]
                    phi[np.ix_(solved, [column[w] for w in unknowns])] = x
            currents = (phi[:, tail] - phi[:, head] + eb) / rb
            voltages = rb * currents - eb
        for row in solved:
            results[block[row]] = StandardSolution(
                dict(zip(nodes, phi[row].tolist())),
                dict(zip(bids, currents[row].tolist())),
                dict(zip(bids, voltages[row].tolist())),
            )
    return results


# -- nonstandard networks -------------------------------------------------------------


class NsNetwork:
    """Branch data sequences over a family with a common branch-id set."""

    def __init__(self, name: str, family: GraphFamily, data: dict[str, tuple]):
        bids = set(data)
        for g in family.prototypes:
            if set(g.branches) != bids:
                raise InvariantBreach(
                    f"prototype {g.name} has branches {sorted(g.branches)}, "
                    f"expected exactly {sorted(bids)}"
                )
        for bid, (r_seq, e_seq) in data.items():
            for seq in (r_seq, e_seq):
                if not isinstance(seq, (PeriodicSeq, GeneratedSeq)):
                    raise InvariantBreach(
                        f"branch {bid}: {seq!r} is not a value sequence"
                    )
        self.name = name
        self.family = family
        self.data = dict(data)

    def network_at(self, n: int) -> StandardNetwork:
        branch_data = {
            bid: Branch(float(value_at(r, n)), float(value_at(e, n)))
            for bid, (r, e) in self.data.items()
        }
        return StandardNetwork(self.family.graph_at(n), branch_data)

    def content_key(self):
        """Symbolic identity of the whole network, or None if any rule lacks one."""
        parts = []
        for bid in sorted(self.data):
            r, e = self.data[bid]
            kr, ke = form_key(r), form_key(e)
            if kr is None or ke is None:
                return None
            parts.append((bid, kr, ke))
        return (
            self.family.name,
            self.family.assignment.describe(),
            tuple(parts),
        )

    def all_periodic(self) -> bool:
        return all(
            isinstance(r, PeriodicSeq) and isinstance(e, PeriodicSeq)
            for r, e in self.data.values()
        )


@dataclass
class OperatingPoint:
    network: NsNetwork
    oracle: FilterOracle
    route: str  # "periodic" or "generated"
    currents: dict[str, Hyperreal]
    voltages: dict[str, Hyperreal]
    potentials: dict[str, Hyperreal]
    horizon: int | float
    notes: list[str] = field(default_factory=list)


def operating_point(
    net: NsNetwork, oracle: FilterOracle, horizon: int = 1_000_000
) -> OperatingPoint:
    shared_nodes = net.family.shared_zero_nodes()
    notes = []
    skipped = sorted(net.family.all_zero_nodes() - set(shared_nodes))
    if skipped:
        notes.append(
            "potentials reported only for 0-nodes common to every prototype; "
            "omitted: " + ", ".join(skipped)
        )
    if net.all_periodic():
        op = _periodic_operating_point(net, oracle, shared_nodes)
    else:
        op = _generated_operating_point(net, oracle, shared_nodes, horizon)
    op.notes.extend(notes)
    return op


def _solve_at_indices(net: NsNetwork, indices) -> dict:
    """Index -> the n-th network's StandardSolution, or what solving it raises.

    Values are read as ``network_at`` reads them, branch by branch in
    declaration order, and indices are solved in one batch per prototype.
    """
    declared = list(net.data)
    seqs = [seq for bid in declared for seq in net.data[bid]]
    order = [declared.index(bid) for bid in sorted(declared)]
    results: dict = {}
    groups: dict[int, tuple[StandardGraph, list, list]] = {}
    for n in indices:
        try:
            values = [float(value_at(seq, n)) for seq in seqs]
            graph = net.family.graph_at(n)
        except Exception as exc:  # noqa: BLE001 - raised again when index n is asked for
            results[n] = exc
            continue
        _, ns, rows = groups.setdefault(id(graph), (graph, [], []))
        ns.append(n)
        rows.append(values)
    for graph, ns, rows in groups.values():
        table = np.array(rows)
        r, e = table[:, 0::2][:, order], table[:, 1::2][:, order]
        results.update(zip(ns, _solve_batch(graph, r, e, ns)))
    return results


def _periodic_operating_point(net, oracle, shared_nodes) -> OperatingPoint:
    seqs = [net.family.assignment]
    for r, e in net.data.values():
        seqs.extend((r, e))
    head, period = structural_window(*seqs)
    window = head + period
    found = _solve_at_indices(net, range(window))
    solutions = [found[n] for n in range(window)]
    for result in solutions:
        if isinstance(result, Exception):
            raise result

    def packaged(values: list[float]) -> Hyperreal:
        return Hyperreal(PeriodicSeq.make(values[:head], values[head:]), oracle)

    currents = {
        bid: packaged([s.currents[bid] for s in solutions]) for bid in sorted(net.data)
    }
    voltages = {
        bid: packaged([s.voltages[bid] for s in solutions]) for bid in sorted(net.data)
    }
    potentials = {
        w: packaged([s.potentials[w] for s in solutions]) for w in shared_nodes
    }
    return OperatingPoint(
        net, oracle, "periodic", currents, voltages, potentials, float("inf")
    )


def _generated_operating_point(net, oracle, shared_nodes, horizon) -> OperatingPoint:
    n_max = horizon
    for r, e in net.data.values():
        for seq in (r, e):
            if isinstance(seq, GeneratedSeq):
                n_max = min(n_max, seq.n_max)
    cache: dict = {}

    def solve_at(n: int) -> StandardSolution:
        if n not in cache:
            start = n - n % _BLOCK
            stop = max(n + 1, min(start + _BLOCK, n_max + 1))
            cache.update(_solve_at_indices(net, range(start, stop)))
        result = cache[n]
        if isinstance(result, Exception):
            raise result
        return result

    ck = net.content_key()
    currents: dict[str, Hyperreal] = {}
    voltages: dict[str, Hyperreal] = {}
    for bid in sorted(net.data):
        key = ("ns-current", ck, bid) if ck is not None else None
        rep = generated(
            lambda n, b=bid: solve_at(n).currents[b],
            n_max,
            key=key,
            label=f"i({bid})",
        )
        i = Hyperreal(rep, oracle)
        r_h = Hyperreal(net.data[bid][0], oracle)
        e_h = Hyperreal(net.data[bid][1], oracle)
        currents[bid] = i
        voltages[bid] = r_h * i - e_h
    potentials = {}
    for w in shared_nodes:
        key = ("ns-potential", ck, w) if ck is not None else None
        potentials[w] = Hyperreal(
            generated(
                lambda n, x=w: solve_at(n).potentials[x],
                n_max,
                key=key,
                label=f"phi({w})",
            ),
            oracle,
        )
    op = OperatingPoint(
        net, oracle, "generated", currents, voltages, potentials, n_max
    )
    if ck is None:
        op.notes.append(
            "some branch data carries no symbolic identity; class-level "
            "equalities involving these results may be undecidable"
        )
    return op


# -- verification -----------------------------------------------------------------------


@dataclass
class LawCheck:
    law: str
    subject: str
    worst: float
    ok: bool
    witness: int
    class_verdict: str | None = None

    def render(self) -> str:
        state = "ok" if self.ok else "VIOLATED"
        extra = f", as classes: {self.class_verdict}" if self.class_verdict else ""
        return (
            f"{self.law} {self.subject}: {state} "
            f"(worst residual {self.worst:.3e} at n={self.witness}{extra})"
        )


@dataclass
class LawReport:
    ok: bool
    tol: float
    checks: list[LawCheck]
    notes: list[str] = field(default_factory=list)

    def render_lines(self) -> list[str]:
        lines = [c.render() for c in self.checks]
        lines.extend(f"note: {t}" for t in self.notes)
        return lines


def _spanning_tree(graph: StandardGraph):
    """Tree edges as {branch id: +-1 orientation consistent with BFS}, chords."""
    adj: dict[str, list[tuple[str, str]]] = {w: [] for w in graph.nodes0}
    for bid, (u, v) in sorted(graph.branches.items()):
        adj[u].append((bid, v))
        adj[v].append((bid, u))
    seen: set[str] = set()
    tree: dict[str, tuple[str, str]] = {}  # bid -> (from, to) as traversed
    for root in sorted(graph.nodes0):
        if root in seen:
            continue
        seen.add(root)
        frontier = [root]
        while frontier:
            here = frontier.pop()
            for bid, there in sorted(adj[here]):
                if there in seen or bid in tree:
                    continue
                seen.add(there)
                tree[bid] = (here, there)
                frontier.append(there)
    chords = sorted(set(graph.branches) - set(tree))
    return tree, chords


def _tree_potentials(graph: StandardGraph, tree, voltages_at) -> dict[str, float]:
    """Potentials implied by the branch voltages along the spanning tree."""
    phi: dict[str, float] = {}
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


def verify_laws(op: OperatingPoint, tol: float = 1e-9, check_upto: int = 64) -> LawReport:
    net = op.network
    if op.route == "periodic":
        seqs = [net.family.assignment]
        for h in list(op.currents.values()) + list(op.voltages.values()):
            seqs.append(h.rep)
        for r, e in net.data.values():
            seqs.extend((r, e))
        head, period = structural_window(*seqs)
        indices = range(head + period)
    else:
        indices = range(min(check_upto, int(op.horizon)))
    worst: dict[tuple[str, str], tuple[float, int]] = {}

    def record(law: str, subject: str, residual: float, scale: float, n: int) -> None:
        value = abs(residual) / max(1.0, scale)
        key = (law, subject)
        if key not in worst or value > worst[key][0]:
            worst[key] = (value, n)

    trees: dict[int, tuple] = {}
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
        phi = _tree_potentials(graph, tree, lambda bid: v_at[bid])
        for bid in chords:
            u, v = graph.branches[bid]
            record("KVL", f"loop of {bid}", v_at[bid] - (phi[u] - phi[v]), scale, n)
        for bid in sorted(net.data):
            record("Ohm", f"branch {bid}", v_at[bid] - (r_at[bid] * i_at[bid] - e_at[bid]), scale, n)
        power = sum(v_at[bid] * i_at[bid] for bid in net.data)
        record("Tellegen", "total power", power, scale * scale, n)
    checks: list[LawCheck] = []
    notes: list[str] = []
    for (law, subject), (value, witness) in sorted(worst.items()):
        check = LawCheck(law, subject, value, value <= tol, witness)
        if law == "Ohm":
            bid = subject.split()[-1]
            check.class_verdict = _ohm_class_verdict(op, bid)
        checks.append(check)
    if not indices:
        notes.append("no indices were available to check")
    report = LawReport(all(c.ok for c in checks), tol, checks, notes)
    return report


def _ohm_class_verdict(op: OperatingPoint, bid: str) -> str:
    r_h = Hyperreal(op.network.data[bid][0], op.oracle)
    e_h = Hyperreal(op.network.data[bid][1], op.oracle)
    try:
        same = hr_eq(op.voltages[bid], r_h * op.currents[bid] - e_h)
    except Undecidable:
        return "undecidable"
    return "equal" if same else "UNEQUAL"
