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

* all data and the prototype assignment eventually periodic — the solver
  runs once per phase of the joint window and the results are
  exact eventually periodic descriptors;
* otherwise — currents and potentials become generated sequences that
  solve the n-th network on demand, up to the shortest horizon of the
  data and the assignment, and whose windows are filled from whole
  solved blocks; each branch voltage is formed as the hyperreal
  combination r*i - e so that Ohm's law holds as a class identity by
  construction, not merely within tolerance.

A range of indices is solved at once: the periodic route's whole joint
window, and on the generated route blocks of ``_SOLVED_BLOCK`` indices,
so a horizon of a few thousand is one block. Per prototype graph, one
stacked assembly, condition gate and solve covers at most ``_BLOCK``
indices, with every float equal to what a single solve gives. The branch
data of a range are read into one float64 table: a periodic datum once
per cycle, each of its values converted once and repeated over the range
by numpy; generated data and the assignment cell by cell, a periodic
datum too when one of its values fails to convert, so every failure keeps
its index and its exception. A solved range comes back as columns, one list of values over
the range per node and per branch, plus the failures of the indices that
have no solution; the periodic route packages the columns as they are,
and the generated route slices its cached blocks. ``solve_standard`` alone builds a ``StandardSolution``,
from its single row. A failure still belongs to its index: it is raised,
naming that index, only when that index is asked for, never because
another index of its range failed.

The condition gate rejects a nodal matrix whose 2-norm condition number
exceeds ``_COND_LIMIT``. A well-conditioned nodal matrix passes without an
SVD, by a certificate that reads only its conductances. Let L be the
graph's nodal matrix with unit conductances, built once per batch: its
entries are small integers, exact in floats. Let g = 1/r be the
conductances as assembled, d the number of branches and m that of
unknowns, and rho = g_max/g_min over the branches that touch an unknown.
The exact nodal matrix A sums g times each branch's part of L, and every
part is positive semidefinite, so g_min L <= A <= g_max L and cond(A) <=
rho cond(L). Assembly adds at most 4d terms of size at most g_max into
each entry, from 0 (a self-loop adds four to its diagonal entry, any other
branch at most one), so the assembled matrix is A + E with |E_ij| <=
gamma_4d 4d g_max and |E|_2 <= m gamma_4d 4d g_max (Higham, *Accuracy and
Stability of Numerical Algorithms*, on summation). Self-loops and parallel
branches are counted, and a huge self-loop conductance only raises rho.
When |E|_2 <= g_min lambda_min(L)/2, Weyl's inequality gives cond(A + E)
<= 2 rho cond(L) + 1. The extreme eigenvalues of L are bounded without an
eigensolver. lambda_max(L) <= |L|_inf. L has no positive off-diagonal
entry, so it is a nonsingular M-matrix once some x > 0 has Lx > 0 (Berman
& Plemmons, *Nonnegative Matrices in the Mathematical Sciences*); then
L^-1 >= 0, so Lx >= c gives L^-1 1 <= x/c, and as L is symmetric,
lambda_min(L) = 1/|L^-1|_2 >= 1/|L^-1|_inf >= c/|x|_inf. The batch takes x
= solve(L, 1), one m-by-m solve with the LAPACK routine the stacked solve
runs anyway (an eigensolver would load more library code and raise the
peak RSS by about 0.7 MB), and c = min fl(Lx) - gamma_m+1 |L|_inf |x|_inf,
which bounds the rounding of fl(Lx). A matrix is certified when rho is
finite and at most the largest ratio that meets that bound on E and keeps
2 rho cond(L) + 1 <= _COND_LIMIT / 100, and 4d g_max is at most half the
largest float, so no sum overflows. Its condition is then at most 1e10,
100 times below the limit: a margin far wider than the rounding of these
few scalar bounds or of the SVD estimate, which would pass the gate as
well. Every other matrix, a singular one included, goes to
``np.linalg.cond``, and no certified matrix goes with it, so
every decision and every ``NumericalFailure`` is the one the SVD alone
gives.

``verify_laws`` re-reads values from the operating point's descriptors, so
a perturbed operating point is honestly re-checked: it confirms
Kirchhoff's current law at every node, Kirchhoff's voltage law around
every fundamental loop of a spanning tree, Ohm's law per branch, and
Tellegen's theorem, with residuals normalized by the magnitude of the
data. The laws are checked by columns, each descriptor read once over the
checked indices (the joint window on the periodic route, the first
``check_upto`` indices on the generated route) by the solver's readers:
the assignment and every generated column cell by cell, keeping each
index's first failing read in the order a per-index check reads it (the
assignment, then currents, voltages, resistances and EMFs in declaration
order), and a periodic column once per cycle. The failure of the first
failing index is raised, the exception that check raises. Indices are
grouped by prototype graph. The columns are float64 arrays, and each
residual column is formed from the same operands in the same order as a
per-index check, so every float equals the per-index one: KCL flows
accumulate in ``graph.branches`` order, Tellegen's power is a running sum
from 0, and the scale is the ``np.fmax`` of 1.0 and the magnitudes, which
skips a NaN as ``max`` does once 1.0 comes first. Only the worst residual
of each law subject is kept, with its first index as witness. A NaN
residual, which an infinite value also gives once normalized (inf/inf), is
worse than any number: its law is VIOLATED at the first index where it
occurs. numpy's floating-point warnings are silenced there, as Python
floats raise none. The generated route checks the first ``check_upto``
indices up to and including its horizon, the last index it solves.

Each Ohm check also carries its verdict as classes: whether the voltage
equals ``r*i - e`` modulo the oracle. On the periodic route it is decided
from the law columns: the agreement set is the naturals when v == r*i - e
holds at every index of the joint window, and otherwise the eventually
periodic set of those bits, which is the set ``agreement_set`` gives for
the two descriptors, as index sets are canonical. The generated route
combines the hyperreals and decides by key equality, reading no values.
Both decide as ``hyperreal equality``, in the order of the law subjects.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import NamedTuple

from ._periodic import joint_window
from .errors import EmptyNetwork, InvariantBreach, NumericalFailure, SolverFailure, Undecidable
from .graphs import StandardGraph
from .hyperreal import Hyperreal, hr_eq
from .indexsets import IndexSet
from .oracle import FilterOracle, Membership
from .sequences import (
    GeneratedSeq,
    PeriodicSeq,
    form_key,
    generated,
    span,
    value_at,
)
from .ultrapower import GraphFamily

# Largest accepted condition number. Only a matrix the certificate cannot
# place below _COND_LIMIT / 100 (module docstring) gets an SVD estimate.
_COND_LIMIT = 1e12
# Indices per stacked nodal solve: bounds the (block, m, m) stack in memory.
_BLOCK = 256
# Indices per block the generated route solves at once: one block holds a
# horizon of a few thousand, so its data are read once per block.
_SOLVED_BLOCK = 1 << 12
_HORIZON = 1_000_000  # last index the generated route solves


class Branch(NamedTuple):
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
        _check_endpoints(graph)
        self.graph = graph
        self.data = dict(data)


def _check_endpoints(graph: StandardGraph) -> None:
    """Every branch joins two 0-nodes; nodal analysis has no row for any other end."""
    for bid, ends in sorted(graph.branches.items()):
        for end in ends:
            if end not in graph.nodes0:
                raise InvariantBreach(
                    f"graph {graph.name}: branch {bid} endpoint {end} is not a 0-node"
                )


class StandardSolution:
    __slots__ = ("potentials", "currents", "voltages")

    def __init__(
        self, potentials: dict[str, float], currents: dict[str, float], voltages: dict[str, float]
    ):
        self.potentials = potentials
        self.currents = currents
        self.voltages = voltages

    def __eq__(self, other):
        if not isinstance(other, StandardSolution):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


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
    phi, currents, voltages, failed = _solve_batch(net.graph, [r], [e], [index])
    if failed:
        raise failed[index]
    return StandardSolution(
        dict(zip(sorted(net.graph.nodes0), phi[0].tolist())),
        dict(zip(bids, currents[0].tolist())),
        dict(zip(bids, voltages[0].tolist())),
    )


def _invalid_branch(bids: list[str], r: list, e: list, index) -> SolverFailure | None:
    """The failure for the first branch, in ``bids`` order, with unusable data."""
    for bid, rb, eb in zip(bids, r, e):
        rb, eb = (_as_float(x) if isinstance(x, int) else x for x in (rb, eb))
        if not (isinstance(rb, (int, float)) and math.isfinite(rb)) or rb <= 0:
            return SolverFailure(
                f"branch {bid} has nonpositive or nonfinite resistance {rb!r}",
                index=index,
            )
        if not (isinstance(eb, (int, float)) and math.isfinite(eb)):
            return SolverFailure(f"branch {bid} has nonfinite source value {eb!r}", index=index)
    return None


def _as_float(value) -> float:
    """float(value); a number too large for a float is the infinity of its
    sign, which the solver refuses as nonfinite data."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _ratio_limits(graph: StandardGraph, bids: list, pos: dict) -> tuple[float, float]:
    """(largest certified conductance ratio, largest certified conductance)
    for nodal matrices of ``graph`` with unknowns ``pos``: the bounds of the
    module docstring's certificate, from the unit-conductance matrix L."""
    import numpy as np

    m, terms = len(pos), 4 * len(bids)
    unit = np.zeros((m, m))
    for u, v in graph.branches.values():
        for w, other in ((u, v), (v, u)):
            if w in pos:
                unit[pos[w], pos[w]] += 1.0
                if other in pos:
                    unit[pos[w], pos[other]] -= 1.0
    eps = np.finfo(float).eps

    def gamma(n: int) -> float:
        return n * eps / 2 / (1 - n * eps / 2)

    high = np.abs(unit).sum(axis=1).max()
    x = np.linalg.solve(unit, np.ones(m))
    with np.errstate(all="ignore"):
        low = ((unit * x).sum(axis=1).min() - gamma(m + 1) * high * x.max()) / x.max()
    if not ((x > 0).all() and low > 0):
        return 0.0, 0.0
    ratio = min((_COND_LIMIT / 100 - 1) / (2 * high / low), low / (2 * m * gamma(terms) * terms))
    return ratio, np.finfo(float).max / (2 * terms)


def _certified(g: np.ndarray, limits: tuple[float, float]) -> np.ndarray:
    """Per row of conductances ``g`` (one column per branch that touches an
    unknown), whether the certificate of the module docstring places that
    index's nodal matrix below _COND_LIMIT / 100."""
    ratio, largest = limits
    g_max = g.max(axis=1)
    return (g_max / g.min(axis=1) <= ratio) & (g_max <= largest)


def _condition_numbers(matrices: np.ndarray) -> list:
    """np.linalg.cond per matrix, or the LinAlgError that matrix alone raises."""
    import numpy as np

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


def _well_conditioned(
    matrices: np.ndarray, passed: np.ndarray, indices: list, failed: dict
) -> np.ndarray:
    """Positions in the stack of the matrices that pass the condition gate.

    Row j belongs to index ``indices[j]``. A matrix ``passed`` marks as
    certified passes as is; every other one is judged by ``np.linalg.cond``,
    and its failure goes into ``failed`` under its index.
    """
    import numpy as np

    rest = np.flatnonzero(~passed).tolist()
    if rest:
        for row, condition in zip(rest, _condition_numbers(matrices[rest])):
            if isinstance(condition, Exception):
                failed[indices[row]] = condition
            elif not math.isfinite(condition) or condition > _COND_LIMIT:
                failed[indices[row]] = NumericalFailure(
                    f"nodal matrix is ill-conditioned (condition {condition:.3e})",
                    condition=condition,
                    index=indices[row],
                )
            else:
                passed[row] = True
    return np.flatnonzero(passed)


def _solve_batch(graph: StandardGraph, r, e, indices: list) -> tuple:
    """Nodal analysis of one graph under many sets of branch values at once.

    Row j of ``r`` and ``e`` holds the resistances and EMFs of index
    ``indices[j]``, in sorted branch-id order. Returns ``(phi, currents,
    voltages, failed)``: arrays with row j for index ``indices[j]`` and one
    column per node (sorted) or branch (sorted), and index -> the exception
    solving that index alone raises, whose row holds no solution. One index
    failing never fails another. Conductances are accumulated branch by
    branch in sorted order, each update vectorised across the block, so
    every float equals the one a single solve gives.
    """
    import numpy as np

    nodes = sorted(graph.nodes0)
    phi = np.zeros((len(indices), len(nodes)))
    if not graph.branches:
        failed = {n: EmptyNetwork("the network has no branches to solve", index=n) for n in indices}
        return phi, phi[:, :0], phi[:, :0], failed
    bids = sorted(graph.branches)
    r = np.asarray(r, dtype=float)
    e = np.asarray(e, dtype=float)
    failed: dict = {}
    usable = np.isfinite(r).all(axis=1) & (r > 0).all(axis=1) & np.isfinite(e).all(axis=1)
    for j in np.flatnonzero(~usable).tolist():
        failed[indices[j]] = _invalid_branch(bids, r[j].tolist(), e[j].tolist(), indices[j])
    valid = np.flatnonzero(usable)
    column = {w: k for k, w in enumerate(nodes)}
    roots = _components(nodes, graph.branches)
    unknowns = [w for w in nodes if roots[w] != w]
    pos = {w: k for k, w in enumerate(unknowns)}
    m = len(unknowns)
    tail = [column[graph.branches[bid][0]] for bid in bids]
    head = [column[graph.branches[bid][1]] for bid in bids]
    touching = [k for k, bid in enumerate(bids) if not pos.keys().isdisjoint(graph.branches[bid])]
    limits = _ratio_limits(graph, bids, pos) if m and len(valid) else None
    # numpy would warn where Python floats silently overflow to inf/nan.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(valid) if m else 0, _BLOCK):
            block = valid[start : start + _BLOCK]
            eb = e[block]
            conductances = 1.0 / r[block]
            matrix = np.zeros((len(block), m, m))
            rhs = np.zeros((len(block), m))
            for col, bid in enumerate(bids):
                u, v = graph.branches[bid]
                g = conductances[:, col]
                for w, other, sign in ((u, v, -1.0), (v, u, 1.0)):
                    if w not in pos:
                        continue
                    k = pos[w]
                    matrix[:, k, k] += g
                    if other in pos:
                        matrix[:, k, pos[other]] -= g
                    rhs[:, k] += sign * eb[:, col] * g
            passed = _certified(conductances[:, touching], limits)
            solved = _well_conditioned(matrix, passed, [indices[j] for j in block.tolist()], failed)
            if len(solved):
                x = np.linalg.solve(matrix[solved], rhs[solved][..., None])[..., 0]
                phi[np.ix_(block[solved], [column[w] for w in unknowns])] = x
        currents = (phi[:, tail] - phi[:, head] + e) / r
        voltages = r * currents - e
    return phi, currents, voltages, failed


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
            _check_endpoints(g)
        for bid, (r_seq, e_seq) in data.items():
            for seq in (r_seq, e_seq):
                if not isinstance(seq, (PeriodicSeq, GeneratedSeq)):
                    raise InvariantBreach(
                        f"branch {bid}: {seq!r} is not a value sequence"
                    )
        self.name = name
        self.family = family
        self.data = dict(data)

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

    def descriptors(self) -> list:
        """The prototype assignment, then the resistance and the EMF of each
        branch in declaration order."""
        return [self.family.assignment, *(seq for pair in self.data.values() for seq in pair)]

    def all_periodic(self) -> bool:
        return all(isinstance(seq, PeriodicSeq) for seq in self.descriptors())


class OperatingPoint:
    __slots__ = (
        "network", "oracle", "route", "currents", "voltages", "potentials", "horizon", "notes"
    )

    def __init__(
        self,
        network: NsNetwork,
        oracle: FilterOracle,
        route: str,  # "periodic" or "generated"
        currents: dict[str, Hyperreal],
        voltages: dict[str, Hyperreal],
        potentials: dict[str, Hyperreal],
        horizon: int | float,
    ):
        self.network = network
        self.oracle = oracle
        self.route = route
        self.currents = currents
        self.voltages = voltages
        self.potentials = potentials
        self.horizon = horizon
        self.notes: list[str] = []


def operating_point(net: NsNetwork, oracle: FilterOracle) -> OperatingPoint:
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
        op = _generated_operating_point(net, oracle, shared_nodes)
    op.notes.extend(notes)
    return op


def _read_cells(seq, indices: range, failed: dict, convert) -> list:
    """``convert(value_at(seq, n))`` for each n of ``indices``: the reader
    of generated data, of the prototype assignment, and of a periodic datum
    some value of which fails to convert (``_data_column``); the law check
    reads its generated columns and the assignment through it too.

    The range is read through ``span``: a periodic descriptor from its
    unrolled cycle, a generated one from its window. Only from where a
    generated span stops short is it read index by index, skipping indices
    already in ``failed``. A cell whose read or conversion raises holds
    0.0, and its exception goes into ``failed`` unless an earlier datum
    failed there.
    """
    raw = span(seq, indices.start, indices.stop)
    for n in indices[len(raw) :]:
        value = 0.0
        if n not in failed:
            try:
                value = value_at(seq, n)
            except Exception as exc:  # noqa: BLE001 - raised again when index n is asked for
                failed[n] = exc
        raw.append(value)
    if not failed:
        try:
            return list(map(convert, raw))
        except Exception:  # noqa: BLE001 - found cell by cell below
            pass
    cells = []
    for n, value in zip(indices, raw):
        if n not in failed:
            try:
                cells.append(convert(value))
                continue
            except Exception as exc:  # noqa: BLE001 - raised again when index n is asked for
                failed[n] = exc
        cells.append(0.0)
    return cells


def _floats(values: list) -> np.ndarray:
    """``_as_float`` of each value, as a float64 array."""
    import numpy as np

    return np.array([_as_float(x) for x in values], dtype=float)


def _periodic_column(seq: PeriodicSeq, indices: range, convert) -> np.ndarray:
    """The values of ``seq`` over ``indices`` as a float64 array. Only the
    values up to the end of the first whole cycle in the range are read,
    and turned into an array by ``convert`` in one call; numpy repeats
    that cycle over the rest of the range."""
    import numpy as np

    lead = max(len(seq.pre) - indices.start, 0)  # indices of the range in the preperiod
    stop = min(indices.stop, indices.start + lead + len(seq.cycle))
    values = convert(span(seq, indices.start, stop))
    if len(indices) > len(values):
        laps = -(-(len(indices) - lead) // len(seq.cycle))
        values = np.concatenate((values[:lead], np.tile(values[lead:], laps)))
    return values[: len(indices)]


def _data_column(seq, indices: range, failed: dict):
    """The floats of one datum over ``indices``: a periodic datum is read
    once per cycle, unless one of its values fails to convert; any other
    datum, and that one, cell by cell (``_read_cells``)."""
    if isinstance(seq, PeriodicSeq):
        try:
            return _periodic_column(seq, indices, _floats)
        except Exception:  # noqa: BLE001 - the cell reader keeps each failure at its index
            pass
    return _read_cells(seq, indices, failed, _as_float)


class _Solved:
    """The standard solutions over ``indices`` as columns: node or branch
    id -> its values over the range. ``failed`` maps each index that has no
    solution to the exception solving it raises; its cells are filler.

    The branch voltages stay one array, a row per index, until
    ``voltages`` is first read: only the periodic route reads them, as the
    generated route derives its voltages as ``r*i - e``."""

    def __init__(
        self,
        indices: range,
        potentials: dict[str, list],
        currents: dict[str, list],
        failed: dict,
        voltage_rows,  # numpy array, index x branch (sorted)
    ):
        self.indices = indices
        self.potentials = potentials
        self.currents = currents
        self.failed = failed
        self.voltage_rows = voltage_rows

    @cached_property
    def voltages(self) -> dict[str, list]:
        return dict(zip(self.currents, self.voltage_rows.T.tolist()))


def _solve_at_indices(net: NsNetwork, indices: range) -> _Solved:
    """The n-th networks' solutions for every n of ``indices``, as columns.

    Each datum is read once for the whole range as a column of one float64
    table, in declaration order, and then the prototype assignment: a
    periodic datum once per cycle, generated data and the assignment cell
    by cell (``_data_column``). An index fails with the exception of its
    first failing read, as reading that index alone (each branch's
    resistance and EMF, then its prototype) would raise it.
    Indices are solved in one batch per prototype. Potentials have a column
    for every node of a prototype solved in the range; a node that an
    index's prototype lacks holds filler there.
    """
    import numpy as np

    declared = list(net.data)
    failed: dict = {}
    seqs = [seq for bid in declared for seq in net.data[bid]]
    table = np.zeros((len(indices), len(seqs)))
    for k, seq in enumerate(seqs):
        table[:, k] = _data_column(seq, indices, failed)
    graphs = _read_cells(net.family.assignment, indices, failed, net.family.prototypes.__getitem__)
    bids = sorted(declared)
    order = [declared.index(bid) for bid in bids]
    groups: dict[int, tuple[StandardGraph, list, list]] = {}
    for row, (n, graph) in enumerate(zip(indices, graphs)):
        if n not in failed:
            _, ns, rows = groups.setdefault(id(graph), (graph, [], []))
            ns.append(n)
            rows.append(row)
    nodes = sorted(set().union(*(graph.nodes0 for graph, _, _ in groups.values())))
    phi = np.zeros((len(indices), len(nodes)))
    currents = np.zeros((len(indices), len(bids)))
    voltages = np.zeros((len(indices), len(bids)))
    if groups:
        column = {w: k for k, w in enumerate(nodes)}
        for graph, ns, rows in groups.values():
            block = table[rows]
            r, e = block[:, 0::2][:, order], block[:, 1::2][:, order]
            p, c, v, lost = _solve_batch(graph, r, e, ns)
            phi[np.ix_(rows, [column[w] for w in sorted(graph.nodes0)])] = p
            currents[rows], voltages[rows] = c, v
            failed.update(lost)
    return _Solved(
        indices,
        dict(zip(nodes, phi.T.tolist())),
        dict(zip(bids, currents.T.tolist())),
        failed,
        voltages,
    )


def _periodic_operating_point(net, oracle, shared_nodes) -> OperatingPoint:
    head, period = joint_window(net.descriptors())
    found = _solve_at_indices(net, range(head + period))
    if found.failed:
        raise found.failed[min(found.failed)]

    def packaged(values: list[float]) -> Hyperreal:
        return Hyperreal(PeriodicSeq.make(values[:head], values[head:]), oracle)

    currents = {bid: packaged(found.currents[bid]) for bid in sorted(net.data)}
    voltages = {bid: packaged(found.voltages[bid]) for bid in sorted(net.data)}
    potentials = {w: packaged(found.potentials[w]) for w in shared_nodes}
    return OperatingPoint(
        net, oracle, "periodic", currents, voltages, potentials, float("inf")
    )


def _solution_rule(solved_at, n_max: int, part: str, name: str):
    """The rule giving at n the value of ``name`` in the ``part`` columns
    of ``solved_at(n)``, the solved block holding n, or raising n's
    failure; with a ``fill`` (see ``sequences``) that slices the blocks'
    columns up to the first failed index. A window up to a horizon of a
    few thousand is one slice of one block."""

    def rule(n: int):
        block = solved_at(n)
        if n in block.failed:
            raise block.failed[n]
        return getattr(block, part)[name][n - block.indices.start]

    def fill(start: int, stop: int) -> list:
        values: list = []
        n, stop = start, min(stop, n_max + 1)
        while n < stop:
            block = solved_at(n)
            first, end = block.indices.start, min(stop, block.indices.stop)
            cut = min((k for k in block.failed if n <= k < end), default=end)
            values += getattr(block, part)[name][n - first : cut - first]
            if cut < end:
                break
            n = end
        return values

    rule.fill = fill
    return rule


def _generated_operating_point(net, oracle, shared_nodes) -> OperatingPoint:
    """Currents and potentials as generated sequences up to the shortest
    horizon of the data and the assignment (at most ``_HORIZON``), solved
    on demand in blocks of ``_SOLVED_BLOCK`` indices, each block once by
    one ``_solve_at_indices`` call; voltages are ``r*i - e``."""
    n_max = min([_HORIZON] + [s.n_max for s in net.descriptors() if isinstance(s, GeneratedSeq)])
    blocks: dict[int, _Solved] = {}

    def solved_at(n: int) -> _Solved:
        """The solved block holding index n: each block is solved once."""
        if n > n_max:  # past the horizon no block holds n: solve it alone
            return _solve_at_indices(net, range(n, n + 1))
        start = n - n % _SOLVED_BLOCK
        if start not in blocks:
            stop = min(start + _SOLVED_BLOCK, n_max + 1)
            blocks[start] = _solve_at_indices(net, range(start, stop))
        return blocks[start]

    ck = net.content_key()
    currents: dict[str, Hyperreal] = {}
    voltages: dict[str, Hyperreal] = {}
    for bid in sorted(net.data):
        key = ("ns-current", ck, bid) if ck is not None else None
        rep = generated(
            _solution_rule(solved_at, n_max, "currents", bid),
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
                _solution_rule(solved_at, n_max, "potentials", w),
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


class LawCheck:
    __slots__ = ("law", "subject", "worst", "ok", "witness", "class_verdict")

    def __init__(
        self,
        law: str,
        subject: str,
        worst: float,
        ok: bool,
        witness: int,
        class_verdict: str | None = None,
    ):
        self.law = law
        self.subject = subject
        self.worst = worst
        self.ok = ok
        self.witness = witness
        self.class_verdict = class_verdict

    def render(self) -> str:
        state = "ok" if self.ok else "VIOLATED"
        extra = f", as classes: {self.class_verdict}" if self.class_verdict else ""
        return (
            f"{self.law} {self.subject}: {state} "
            f"(worst residual {self.worst:.3e} at n={self.witness}{extra})"
        )


class LawReport:
    __slots__ = ("ok", "tol", "checks", "notes")

    def __init__(self, ok: bool, tol: float, checks: list[LawCheck], notes: list[str]):
        self.ok = ok
        self.tol = tol
        self.checks = checks
        self.notes = notes

    def render_lines(self) -> list[str]:
        lines = [c.render() for c in self.checks]
        lines.extend(f"note: {t}" for t in self.notes)
        return lines


def _spanning_tree(graph: StandardGraph):
    """The tree branches as {branch id: (from, to)} in traversal order, each
    ``from`` reached before its ``to``, and the chords."""
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


def _law_residuals(graph: StandardGraph, bids: list, width: int, i, v, r, e):
    """Yield (law, subject, residual column, divisor column) for one
    prototype, as float64 arrays over that prototype's indices; ``i``,
    ``v``, ``r`` and ``e`` hold one row per branch in ``bids`` order.

    Each residual is formed from the same operands in the same order as a
    per-index check would, so every float matches one: flows accumulate
    in ``graph.branches`` order, the scale is the ``np.fmax`` of 1.0 and
    every |i|, |v| and |e| (a NaN never wins, as in ``max`` from 1.0), and
    the power is a running sum from 0 (as ``sum`` is up to Python 3.11;
    from 3.12 on it compensates rounding), the same on every version.
    """
    import numpy as np

    scale = np.ones(width)
    for row in (*i, *v, *e):
        scale = np.fmax(scale, np.abs(row), out=scale)
    i, v, r, e = (dict(zip(bids, rows)) for rows in (i, v, r, e))
    flow = {w: np.zeros(width) for w in graph.nodes0}
    for bid, (a, b) in graph.branches.items():
        flow[a] = flow[a] + i[bid]
        flow[b] = flow[b] - i[bid]
    for w in sorted(graph.nodes0):
        yield "KCL", f"node {w}", flow[w], scale
    del flow
    tree, chords = _spanning_tree(graph)
    # Each component root sits at 0.0; every tree branch then fixes the
    # potential of its far end, phi[y] = phi[x] - drop, where the drop is
    # v(bid) when the branch runs x -> y and -v(bid) otherwise.
    reached = {y for _, y in tree.values()}
    phi = {w: np.zeros(width) for w in graph.nodes0 if w not in reached}
    for bid, (x, y) in tree.items():
        forward = graph.branches[bid][0] == x
        phi[y] = phi[x] - (v[bid] if forward else -v[bid])
    for bid in chords:
        a, b = graph.branches[bid]
        yield "KVL", f"loop of {bid}", v[bid] - (phi[a] - phi[b]), scale
    del phi
    for bid in sorted(bids):
        yield "Ohm", f"branch {bid}", v[bid] - (r[bid] * i[bid] - e[bid]), scale
    power = np.zeros(width)
    for bid in bids:
        power = power + v[bid] * i[bid]
    yield "Tellegen", "total power", power, scale * scale


def _worst(values) -> tuple[float, int]:
    """(worst value, its first position) of a nonempty array of nonnegative
    residuals; a NaN is worse than any number."""
    import numpy as np

    nan = np.isnan(values)
    at = int(np.argmax(nan if nan.any() else values))
    return float(values[at]), at


def _rank(entry: tuple[float, int]) -> tuple:
    """Orders (value, index) entries so that the worst one is the largest:
    a NaN first, then the larger value, then the earlier index."""
    value, n = entry
    nan = value != value
    return nan, 0.0 if nan else value, -n


def verify_laws(op: OperatingPoint, tol: float = 1e-9, check_upto: int = 64) -> LawReport:
    import numpy as np

    net = op.network
    bids = list(net.data)
    sources = (
        [op.currents[bid].rep for bid in bids],
        [op.voltages[bid].rep for bid in bids],
        [net.data[bid][0] for bid in bids],
        [net.data[bid][1] for bid in bids],
    )
    if op.route == "periodic":
        results = [h.rep for h in (*op.currents.values(), *op.voltages.values())]
        head, period = joint_window(net.descriptors() + results)
        indices = range(head + period)
    else:
        indices = range(min(check_upto, int(op.horizon) + 1))
    seqs = [seq for part in sources for seq in part]
    failed: dict = {}
    graphs = _read_cells(net.family.assignment, indices, failed, net.family.prototypes.__getitem__)
    table = np.empty((len(seqs), len(indices)))
    for k, seq in enumerate(seqs):
        if not isinstance(seq, PeriodicSeq):
            table[k] = _read_cells(seq, indices, failed, _as_float)
    if failed:
        raise failed[min(failed)]
    worst: dict[tuple[str, str], tuple[float, int]] = {}
    floats = partial(np.array, dtype=float)
    # numpy would warn where the per-index check's Python floats give inf/nan.
    with np.errstate(all="ignore"):
        for k, seq in enumerate(seqs):
            if isinstance(seq, PeriodicSeq):
                table[k] = _periodic_column(seq, indices, floats)
        table = table.reshape(len(sources), len(bids), len(indices))
        for graph in net.family.prototypes:
            at = [k for k, g in enumerate(graphs) if g is graph]
            if not at:
                continue
            group = table if len(at) == len(indices) else table[:, :, at]
            for law, subject, residuals, divisor in _law_residuals(graph, bids, len(at), *group):
                value, k = _worst(np.abs(residuals) / divisor)
                entry = (value, indices[at[k]])
                key = (law, subject)
                worst[key] = max(worst.get(key, entry), entry, key=_rank)
    checks: list[LawCheck] = []
    notes: list[str] = []
    for (law, subject), (value, witness) in sorted(worst.items()):
        check = LawCheck(law, subject, value, value <= tol, witness)
        if law == "Ohm":
            bid = subject.split()[-1]
            if op.route == "periodic":
                columns = table[:, bids.index(bid)]
                check.class_verdict = _ohm_column_verdict(op.oracle, columns, head)
            else:
                check.class_verdict = _ohm_class_verdict(op, bid)
        checks.append(check)
    if not indices:
        notes.append("no indices were available to check")
    return LawReport(all(c.ok for c in checks), tol, checks, notes)


def _ohm_column_verdict(oracle: FilterOracle, columns, head: int) -> str:
    """The class verdict of Ohm's law on the periodic route, from one
    branch's law columns (i, v, r and e over the joint window, ``head``
    indices and one period): the agreement set of v and r*i - e, the set
    ``agreement_set`` gives for the two descriptors."""
    import numpy as np

    i, v, r, e = columns
    with np.errstate(all="ignore"):  # overflow gives inf, as with Python floats
        agrees = v == r * i - e
    if agrees.all():
        agreement = IndexSet.naturals()
    else:
        bits = agrees.tolist()
        agreement = IndexSet.eventually_periodic(bits[:head], bits[head:])
    same = oracle.decide(agreement, context="hyperreal equality") is Membership.IN
    return "equal" if same else "UNEQUAL"


def _ohm_class_verdict(op: OperatingPoint, bid: str) -> str:
    r_h = Hyperreal(op.network.data[bid][0], op.oracle)
    e_h = Hyperreal(op.network.data[bid][1], op.oracle)
    try:
        same = hr_eq(op.voltages[bid], r_h * op.currents[bid] - e_h)
    except Undecidable:
        return "undecidable"
    return "equal" if same else "UNEQUAL"
