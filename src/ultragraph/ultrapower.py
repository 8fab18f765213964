"""Nonstandard graphs as reduced powers of standard-graph sequences.

A :class:`GraphFamily` is a sequence of standard graphs G_n drawn from a
finite list of prototypes under an eventually periodic assignment. A
nonstandard extremity is (the class of) a sequence e_n, where e_n is an
extremity of G_n at a fixed level; two such sequences are identified when
they agree on a set the membership oracle declares large. Shorting is
decided the same way: *e and *f are shorted exactly when the set of n at
which the same node of G_n contains both e_n and f_n is large — i.e. when
their owner-node identifier sequences agree almost everywhere.

Alongside the raw sequence, every nonstandard extremity carries derived
descriptors: the owner-id sequence, the index set where the element is a
tip, and the rank sequence. For eventually periodic data these are
computed exactly over a structural window; generated (rule-based)
sequences carry descriptors built from the same rule, tagged with symbolic
keys so that two constructions known to be identical compare equal on all
of N rather than on a sampled window.

Nonstandard nodes are the shorting classes of a universe of extremities:
the node containing *e is the class of the node sequence that owns e_n.
When every owner is periodic, ``build_ns_nodes`` reads each owner at the
oracle's selected index, one decision on the set where it takes that
value, and groups extremities by the value read; by Łoś's theorem that
is exactly pairwise shorting (periodic ranks are read the same way). A
universe holding a
generated or sampled owner, or an owner value that cannot be hashed, is
decided pair by pair and checked for transitivity, since a generated
owner's decisions rest on pins over a window. The builder also checks the
node axioms (at least one tip per node, at most one exceptional class per
node, no exceptional class shared between nodes); a failure is an
:class:`~ultragraph.errors.InvariantBreach`, signalling that the supplied
prototypes or queries were malformed rather than a fault of the oracle.
"""

from __future__ import annotations

from itertools import combinations
from operator import eq
from typing import NamedTuple

from ._periodic import Unrolled, aligned, joint_window, on_residue
from .errors import InvariantBreach, NotAnExtremity, RankTooHigh, Undecidable
from .graphs import (
    OMEGA,
    OMEGA_ARROW,
    Extremity,
    StandardGraph,
    tip_rank,
)
from .indexsets import IndexSet
from .oracle import Membership, FilterOracle
from .sequences import (
    INJECTIVE_BEYOND,
    MONOTONE,
    UNBOUNDED,
    GeneratedSeq,
    PeriodicSeq,
    agreement_set,
    constant,
    generated,
    horizon,
    named_generator,
    pointwise,
    value_at,
    values_window,
)
from .hyperreal import Hypernatural


class GraphFamily:
    """Graphs G_n = prototypes[assignment(n)].

    An eventually periodic assignment keeps every derived index set exactly
    decidable; a generated assignment is legal but opaque, so downstream
    classifications may come back Undecidable.
    """

    def __init__(
        self,
        name: str,
        prototypes: tuple[StandardGraph, ...],
        assignment=None,
    ):
        if not prototypes:
            raise ValueError("a family needs at least one prototype")
        if len({g.rank for g in prototypes}) != 1:
            raise ValueError("all prototypes in a family must share one rank")
        self.name = name
        self.prototypes = tuple(prototypes)
        if assignment is None:
            assignment = PeriodicSeq.make((), (0,))
        count = len(prototypes)
        if isinstance(assignment, PeriodicSeq):
            _prototype_indices(assignment.pre + assignment.cycle, count)
        else:  # checked as it is read, also past the probe below
            indices = named_generator("identity", (), assignment.n_max)
            check = lambda k, n: _prototype_indices((k,), count, n)[0]  # noqa: E731
            assignment = pointwise([assignment, indices], check, assignment.key, assignment.label)
            values_window(assignment, min(64, assignment.n_max))
        self.assignment = assignment
        self.rank = prototypes[0].rank

    def graph_at(self, n: int) -> StandardGraph:
        return self.prototypes[value_at(self.assignment, n)]

    def graded_omega(self) -> bool:
        return self.rank == OMEGA and all(g.graded_omega for g in self.prototypes)

    def shared_zero_nodes(self) -> list[str]:
        shared = set(self.prototypes[0].nodes0)
        for g in self.prototypes[1:]:
            shared &= g.nodes0
        return sorted(shared)

    def all_zero_nodes(self) -> set[str]:
        out: set[str] = set()
        for g in self.prototypes:
            out |= g.nodes0
        return out

    def shared_branches(self) -> list[str]:
        shared = set(self.prototypes[0].branches)
        for g in self.prototypes[1:]:
            shared &= set(g.branches)
        return sorted(shared)

    def all_branches(self) -> set[str]:
        out: set[str] = set()
        for g in self.prototypes:
            out |= set(g.branches)
        return out

    def shared_extremities(self, level) -> list[Extremity]:
        """Extremities valid at the level in every prototype."""
        if level == OMEGA and self.graded_omega():
            raise RankTooHigh(
                "the generated omega layer has no finite shared-extremity list"
            )
        pools = [set(g.extremity_list(level)) for g in self.prototypes]
        shared = set.intersection(*pools)
        return sorted(shared, key=Extremity.sort_key)

    def describe(self) -> str:
        names = ", ".join(g.name for g in self.prototypes)
        return (
            f"family {self.name}: rank {self.rank}, prototypes [{names}], "
            f"assignment {self.assignment.describe()}"
        )


def _prototype_indices(values, count: int, start: int = 0):
    """``values``, the assignment's at start, start + 1, ...; the first
    that numbers none of ``count`` prototypes is a ``ValueError``."""
    for n, k in enumerate(values, start):
        if not (isinstance(k, int) and 0 <= k < count):
            raise ValueError(f"assignment value {k!r} at n={n} is not a prototype index")
    return values


class NsExtremity:
    """A sequence of level extremities together with derived descriptors."""

    def __init__(
        self,
        family: GraphFamily,
        level,
        rep,
        owner_rep,
        kind_tip_set: IndexSet,
        rank_rep,
        label: str | None = None,
    ):
        self.family = family
        self.level = level
        self.rep = rep
        self.owner_rep = owner_rep
        self.kind_tip_set = kind_tip_set
        self.rank_rep = rank_rep
        self.label = label if label is not None else rep.describe()

    def describe(self) -> str:
        return self.label


def ns_extremity(family: GraphFamily, level, rep, label: str | None = None) -> NsExtremity:
    """Build a nonstandard extremity, deriving owner/kind/rank descriptors.

    The owner is ``pointwise`` over the assignment and the representative,
    read in that order: exact when both are periodic, else generated up to
    the shorter horizon. Kind and rank live on the extremity values: exact
    for a periodic representative, sampled over the owner's horizon for a
    bare rule (the graded omega constructors below know theirs exactly).
    """
    if isinstance(rep, PeriodicSeq):
        for e in list(rep.pre) + list(rep.cycle):
            if not isinstance(e, Extremity):
                raise NotAnExtremity(f"{e!r} is not an extremity")
        head, tips = aligned([Unrolled(rep.pre, rep.cycle)], lambda e: e.kind == "tip")
        kind_tip_set = IndexSet.eventually_periodic(tips[:head], tips[head:])
        rank_rep = pointwise([rep], lambda e: e.rank)
    elif not isinstance(rep, GeneratedSeq):
        raise NotAnExtremity(f"{rep!r} is not an extremity sequence")
    owner_rep = pointwise(
        [family.assignment, rep],
        lambda k, e: family.prototypes[k].owner_of(e, level),
        label=f"owner({label or rep.describe()})",
    )
    if isinstance(rep, GeneratedSeq):
        kind_tip_set = IndexSet.sampled(lambda n: value_at(rep, n).kind == "tip", owner_rep.n_max)
        rank_rep = generated(lambda n: value_at(rep, n).rank, owner_rep.n_max, label="rank")
    return NsExtremity(family, level, rep, owner_rep, kind_tip_set, rank_rep, label)


def constant_extremities(family: GraphFamily, level, extremities) -> list[NsExtremity]:
    """The constant sequences e, e, ... of the given extremities as
    nonstandard extremities, in order.

    Under a periodic assignment, the owner of a constant e at n depends only
    on the prototype G_n: its owner sequence is the assignment mapped
    through e's row of an owner table, one owner per prototype that occurs,
    asked in the order ``ns_extremity`` would first ask them (so a stray
    extremity raises what it raises there). The canonical form of that
    sequence depends only on which owners in the row are equal, its owner
    pattern, so each distinct pattern is canonicalized once per call and
    its form read through each row. The representative and rank are
    constants, already minimal, and the kind set is one of two shared sets.
    The descriptors equal those ``ns_extremity`` derives; other assignments
    go through it.
    """
    assignment = family.assignment
    if not isinstance(assignment, PeriodicSeq):
        return [ns_extremity(family, level, constant(e), label=e.describe()) for e in extremities]
    column = {k: j for j, k in enumerate(dict.fromkeys((*assignment.pre, *assignment.cycle)))}
    graphs = [family.prototypes[k] for k in column]
    pre, cycle = tuple(map(column.get, assignment.pre)), tuple(map(column.get, assignment.cycle))
    tips, nodes = IndexSet.naturals(), IndexSet.empty()
    forms: dict[tuple, PeriodicSeq] = {}  # owner pattern -> canonical form, in columns
    out = []
    for e in extremities:
        label = e.describe()
        if not isinstance(e, Extremity):
            raise NotAnExtremity(f"{e!r} is not an extremity")
        row = tuple(g.owner_of(e, level) for g in graphs)
        pattern = tuple(map(row.index, row))  # each owner's first column
        form = forms.get(pattern)
        if form is None:
            form = forms[pattern] = PeriodicSeq.make(
                map(pattern.__getitem__, pre), map(pattern.__getitem__, cycle)
            )
        owner_rep = PeriodicSeq(
            tuple(map(row.__getitem__, form.pre)), tuple(map(row.__getitem__, form.cycle))
        )
        kind_tip_set = tips if e.kind == "tip" else nodes
        rep, rank_rep = PeriodicSeq((), (e,)), PeriodicSeq((), (e.rank,))
        out.append(NsExtremity(family, level, rep, owner_rep, kind_tip_set, rank_rep, label))
    return out


def constant_extremity(family: GraphFamily, level, e: Extremity) -> NsExtremity:
    """The constant sequence e, e, ... as a nonstandard extremity: the
    one-extremity case of ``constant_extremities``."""
    return constant_extremities(family, level, [e])[0]


def omega_exceptional_query(family: GraphFamily, n_max: int = 100_000) -> NsExtremity:
    """e_n = the exceptional node embraced by the omega-node W_{n+1}.

    Its rank sequence n+1 is certifiably unbounded, so the class has a
    nonstandard (hypernatural) rank even though every e_n is standard.
    """
    _require_graded(family)
    rep = generated(
        lambda n: Extremity("node", f"x{n + 1}_0", n + 1),
        n_max,
        key=("graded-omega-exceptional", family.name),
        label="node:x{n+1}_0",
    )
    owner_rep = _graded_owner(family, n_max)
    rank_rep = generated(
        lambda n: n + 1,
        n_max,
        traits=(MONOTONE, UNBOUNDED, INJECTIVE_BEYOND),
        key=("affine", 1, 1),
        label="n+1",
    )
    return NsExtremity(
        family, OMEGA, rep, owner_rep, IndexSet.empty(), rank_rep, "node:x{n+1}_0"
    )


def omega_tip_query(family: GraphFamily, n_max: int = 100_000) -> NsExtremity:
    """e_n = the omega-arrow tip T_{n+1}, owned by the same W_{n+1}."""
    _require_graded(family)
    rep = generated(
        lambda n: Extremity("tip", f"T_{n + 1}", OMEGA_ARROW),
        n_max,
        key=("graded-omega-tip", family.name),
        label="tip:T_{n+1}",
    )
    owner_rep = _graded_owner(family, n_max)
    rank_rep = generated(lambda n: OMEGA_ARROW, n_max, label="omega-arrow")
    return NsExtremity(
        family, OMEGA, rep, owner_rep, IndexSet.naturals(), rank_rep, "tip:T_{n+1}"
    )


def _require_graded(family: GraphFamily) -> None:
    if not family.graded_omega():
        raise RankTooHigh(
            f"family {family.name} has no generated omega layer to index into"
        )


def _graded_owner(family: GraphFamily, n_max: int) -> GeneratedSeq:
    """W_{n+1}, the omega-node that owns both graded omega queries at n."""
    key = ("graded-omega-owner", family.name)
    return generated(lambda n: f"W_{n + 1}", n_max, key=key, label="W_{n+1}")


# -- classification ------------------------------------------------------------------


class ExtremityClass(NamedTuple):
    kind: str  # "tip" or "node"
    rank: object  # int, omega-arrow, or a Hypernatural
    standard_rank: bool
    detail: str

    def describe(self) -> str:
        return self.detail


def classify(ext: NsExtremity, oracle: FilterOracle, check_upto: int = 64) -> ExtremityClass:
    """Tip or exceptional-node class, with standard or hypernatural rank.

    The tip/node split is one oracle decision. A periodic exceptional
    class gets the rank its sequence takes at the oracle's selected index,
    recorded as one decision on the set where it takes it; an unbounded
    generated rank sequence must carry a certificate and then names a
    nonstandard hypernatural rank.
    """
    verdict = oracle.decide(ext.kind_tip_set, context=f"tip-kind of {ext.label}")
    if verdict is Membership.IN:
        rank = tip_rank(ext.level)
        return ExtremityClass("tip", rank, True, f"tip of rank {rank}")
    if isinstance(ext.rep, PeriodicSeq):
        rank = _select_periodic_rank(ext, oracle)
        return ExtremityClass(
            "node", rank, True, f"exceptional node of standard rank {rank}"
        )
    ranks = Hypernatural(ext.rank_rep, oracle, check_upto=check_upto)
    if ranks.is_standard():
        value = ranks.value()
        return ExtremityClass(
            "node", value, True, f"exceptional node of standard rank {value}"
        )
    return ExtremityClass(
        "node",
        ranks,
        False,
        "exceptional node of nonstandard rank (exceeds every natural)",
    )


def _select_periodic_rank(ext: NsExtremity, oracle: FilterOracle) -> int:
    keys: list[object] = []
    for e in (*ext.rep.pre, *ext.rep.cycle):
        if e.kind == "tip":
            keys.append("tip")
        elif isinstance(e.rank, int):
            keys.append(e.rank)
        else:
            raise Undecidable(
                f"{ext.label}: exceptional element {e.ident} has nonfinite rank"
            )
    head = len(ext.rep.pre)
    rank = _select_value(keys[:head], keys[head:], oracle, f"rank of {ext.label}", {})
    if rank == "tip":
        raise InvariantBreach(
            f"{ext.label}: the oracle placed an exceptional class on tip positions"
        )
    return rank


def _select_value(pre, cycle, oracle: FilterOracle, context: str, patterns: dict):
    """The value the periodic sequence x = (pre, cycle) takes at the
    oracle's selected index, recorded as one decision on {n : x_n = value}:
    by Łoś, the large part of the partition of N by the values of x.
    ``patterns`` maps each pattern already built to its set."""
    value = on_residue(pre, cycle, oracle.selected_residue(len(cycle)))
    bits = tuple(x == value for x in pre), tuple(x == value for x in cycle)
    part = patterns.get(bits)
    if part is None:
        part = patterns[bits] = IndexSet.eventually_periodic(*bits)
    oracle.decide(part, context=context)
    return value


# -- shorting and node building --------------------------------------------------------


def _require_same_level(a: NsExtremity, b: NsExtremity) -> None:
    if a.level != b.level:
        raise RankTooHigh(f"cannot short across levels {a.level} and {b.level}")


def ns_shorted(a: NsExtremity, b: NsExtremity, oracle: FilterOracle) -> bool:
    """Whether one nonstandard node contains both extremities."""
    _require_same_level(a, b)
    agree = agreement_set(a.owner_rep, b.owner_rep)
    verdict = oracle.decide(
        agree, context=f"shorting {a.label} with {b.label}"
    )
    return verdict is Membership.IN


class NsNode:
    __slots__ = ("ident", "level", "members", "classes")

    def __init__(
        self,
        ident: str,
        level,
        members: tuple[NsExtremity, ...],
        classes: tuple[ExtremityClass, ...],
    ):
        self.ident = ident
        self.level = level
        self.members = members
        self.classes = classes

    def tip_count(self) -> int:
        return sum(1 for c in self.classes if c.kind == "tip")

    def describe(self) -> str:
        inner = "; ".join(
            f"{m.label} ({c.describe()})" for m, c in zip(self.members, self.classes)
        )
        return f"{self.ident} [level {self.level}] {{ {inner} }}"


class NsLayer:
    __slots__ = ("level", "nodes", "notes")

    def __init__(self, level, nodes: list[NsNode], notes: list[str]):
        self.level = level
        self.nodes = nodes
        self.notes = notes


def build_ns_nodes(
    family: GraphFamily,
    level,
    extremities: list[NsExtremity],
    oracle: FilterOracle,
    audit_upto: int = 64,
) -> NsLayer:
    """Partition the extremities into nonstandard nodes.

    The node containing *e is the class of the node sequence that owns e_n.
    When every owner is periodic with hashable values, each extremity's
    owner is read once at the oracle's selected index (audited as ``owner
    of LABEL``), and extremities whose selected owners are equal share a
    node: by Łoś two periodic owners agree on a large set exactly when
    they agree at the selected index. Any other universe, one
    holding a generated or sampled owner or an unhashable owner value, is
    decided pair by pair through ``ns_shorted``, in pair order, merged, and
    checked for transitivity, since a generated owner's decisions rest on
    pins over a window. Both paths classify every extremity first and
    refuse a universe that spans two levels before any shorting decision.
    """
    exts = list(extremities)
    classes = [classify(e, oracle) for e in exts]
    for e in exts[1:]:
        _require_same_level(exts[0], e)
    if _periodic_hashable_owners(exts):
        groups = _group_by_selected_owner(exts, oracle)
    else:
        groups = _short_pairwise(exts, oracle)
    ordered = sorted(groups, key=lambda idx: min(exts[i].label for i in idx))
    notes: list[str] = []
    nodes: list[NsNode] = []
    for k, idx in enumerate(ordered):
        idx_sorted = sorted(idx, key=lambda i: exts[i].label)
        members = tuple(exts[i] for i in idx_sorted)
        mcls = tuple(classes[i] for i in idx_sorted)
        node = NsNode(f"*{level}.{k}", level, members, mcls)
        if node.tip_count() == 0:
            raise InvariantBreach(
                f"node {node.ident} contains no tip class; the supplied universe "
                "is not the extremity set of a graph sequence"
            )
        nodes.append(node)
    _audit_exceptionals(nodes, oracle, notes)
    _audit_pointwise(nodes, audit_upto, notes)
    return NsLayer(level, nodes, notes)


def _periodic_hashable_owners(exts: list[NsExtremity]) -> bool:
    """Whether every owner is periodic with values that can be hashed."""
    for e in exts:
        owner = e.owner_rep
        if not isinstance(owner, PeriodicSeq):
            return False
        try:
            hash((*owner.pre, *owner.cycle))
        except TypeError:
            return False
    return True


def _group_by_selected_owner(exts: list[NsExtremity], oracle: FilterOracle) -> list[list[int]]:
    """Positions of the extremities grouped by the owner value the oracle
    selects for each. Owners that select the same pattern of positions
    share its set: each distinct set is built once per call."""
    groups: dict[object, list[int]] = {}
    patterns: dict = {}
    for i, e in enumerate(exts):
        owner = e.owner_rep
        value = _select_value(owner.pre, owner.cycle, oracle, f"owner of {e.label}", patterns)
        groups.setdefault(value, []).append(i)
    return list(groups.values())


def _short_pairwise(exts: list[NsExtremity], oracle: FilterOracle) -> list[list[int]]:
    """Positions of the extremities grouped by one ``ns_shorted`` decision
    per pair, in pair order; a pair declared apart that ends up in one group
    breaks transitivity."""
    parent = list(range(len(exts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    apart: list[tuple[int, int]] = []
    for i, j in combinations(range(len(exts)), 2):
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
    groups: dict[int, list[int]] = {}
    for i in range(len(exts)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _audit_exceptionals(nodes: list[NsNode], oracle: FilterOracle, notes: list[str]) -> None:
    """The node axioms on exceptional classes. By Łoś two periodic members
    are one class when their values at the selected index are equal; each
    is read once, when a pair first needs it, as ``identity of LABEL``. A
    pair with a generated member is decided on its agreement set."""
    selected: dict[NsExtremity, object] = {}
    patterns: dict = {}

    def same(a: NsExtremity, b: NsExtremity) -> bool:
        if not (isinstance(a.rep, PeriodicSeq) and isinstance(b.rep, PeriodicSeq)):
            return _same_element(a, b, oracle, notes)
        for m in (a, b):
            if m not in selected:
                selected[m] = _select_value(*m.rep, oracle, f"identity of {m.label}", patterns)
        return selected[a] == selected[b]

    tagged: list[tuple[str, NsExtremity]] = []
    for node in nodes:
        inside = [m for m, c in zip(node.members, node.classes) if c.kind == "node"]
        for a, b in combinations(inside, 2):
            if not same(a, b):
                raise InvariantBreach(
                    f"node {node.ident} embraces two distinct exceptional classes "
                    f"({a.label}, {b.label}); a node embraces at most one"
                )
        if inside:
            tagged.append((node.ident, inside[0]))
    for (ida, a), (idb, b) in combinations(tagged, 2):
        if same(a, b):
            raise InvariantBreach(
                f"nodes {ida} and {idb} embrace the same exceptional class "
                f"({a.label}); exceptional elements are never shared"
            )


def _same_element(a: NsExtremity, b: NsExtremity, oracle: FilterOracle, notes: list[str]):
    try:
        verdict = oracle.decide(
            agreement_set(a.rep, b.rep),
            context=f"identity of {a.label} and {b.label}",
        )
    except Undecidable:
        notes.append(
            f"identity audit of {a.label} and {b.label} is undecidable; "
            "treating them as distinct"
        )
        return False
    return verdict is Membership.IN


def _audit_pointwise(nodes: list[NsNode], upto: int, notes: list[str]) -> None:
    for node in nodes:
        if len(node.members) < 2:
            continue
        for a, b in combinations(node.members, 2):
            oa, ob = a.owner_rep, b.owner_rep
            window = int(min(upto, horizon(oa), horizon(ob)))
            if window <= 0:
                continue
            read = window
            if isinstance(oa, PeriodicSeq) and isinstance(ob, PeriodicSeq):
                # The agreement pattern repeats past the joint head, so owners
                # that agree below ``window`` agree below head + period too.
                head, period = joint_window([oa, ob])
                read = min(window, head + period)
            if not any(map(eq, values_window(oa, read - 1), values_window(ob, read - 1))):
                notes.append(
                    f"{a.label} and {b.label} share no owner in the first "
                    f"{window} indices; their identification rests on the "
                    "selected tail"
                )


# -- whole-graph assembly ---------------------------------------------------------------


class NsGraph:
    __slots__ = ("name", "family", "zero_classes", "branch_classes", "layers", "notes")

    def __init__(
        self,
        name: str,
        family: GraphFamily,
        zero_classes: tuple[str, ...],
        branch_classes: tuple[str, ...],
        layers: dict,  # level -> NsLayer
        notes: list[str],
    ):
        self.name = name
        self.family = family
        self.zero_classes = zero_classes
        self.branch_classes = branch_classes
        self.layers = layers
        self.notes = notes

    def layer(self, level) -> NsLayer:
        layer = self.layers.get(level)
        if layer is None:
            raise RankTooHigh(f"no level {level} in nonstandard graph {self.name}")
        return layer


def build_ns_graph(
    family: GraphFamily,
    oracle: FilterOracle,
    mu_max: int = 4,
    queries: dict | None = None,
    audit_upto: int = 64,
) -> NsGraph:
    """Assemble nonstandard node layers from shared extremities plus queries.

    The 0-node and branch classes are the identifiers common to every
    prototype (constant sequences of distinct identifiers never merge, so
    no decisions are needed there). Identifiers that are not shared name a
    partial universe and are reported in the notes rather than classified.
    ``queries`` maps a level, keyed by rank (``OMEGA`` for the omega
    layer), to extra extremities classified at that level.
    """
    queries = dict(queries or {})
    notes: list[str] = []
    zero = family.shared_zero_nodes()
    extra0 = sorted(family.all_zero_nodes() - set(zero))
    if extra0:
        notes.append(
            "0-nodes absent from some prototype are omitted: " + ", ".join(extra0)
        )
    branches = family.shared_branches()
    extra_b = sorted(family.all_branches() - set(branches))
    if extra_b:
        notes.append(
            "branches absent from some prototype are omitted: " + ", ".join(extra_b)
        )
    levels: list = []
    if isinstance(family.rank, int):
        levels = list(range(1, min(family.rank, mu_max) + 1))
    else:
        levels = list(range(1, mu_max + 1))
        if family.rank == OMEGA:
            levels.append(OMEGA)
    layers: dict = {}
    for level in levels:
        pool: list[NsExtremity] = []
        if level == OMEGA and family.graded_omega():
            notes.append(
                "omega layer is generated; only query extremities are classified there"
            )
        else:
            pool.extend(
                constant_extremities(family, level, family.shared_extremities(level))
            )
        pool.extend(queries.get(level, ()))
        if not pool:
            layers[level] = NsLayer(level, [], ["no extremities at this level"])
            continue
        layers[level] = build_ns_nodes(
            family, level, pool, oracle, audit_upto=audit_upto
        )
    return NsGraph(
        f"*{family.name}",
        family,
        tuple(zero),
        tuple(branches),
        layers,
        notes,
    )
