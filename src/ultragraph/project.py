"""Project files: one text format for oracles, graphs, families, networks.

The format is line oriented: a file is a sequence of named blocks, each
block a brace-delimited list of statements, one per line (';' also ends a
statement, which lets the same statement grammar ride inside a command
line flag). '#' starts a comment. Grammar:

  oracle NAME {
    residue mod=M : R          # the tower selects residue R at modulus M
    pin (in|out) SET           # force a verdict for SET (and supersets/complements)
  }

  graph NAME rank=RANK [scheme=tower width=K] [omega=graded] {
    nodes0 ID ...
    branch ID FROM TO
    tips R = ID ...            # the declared rank-R tip universe
    node ID rank=R tips={ID, ...} [exceptional=ID]
    omega-tips ID ...          # the omega layer of a rank=omega graph
    omega-node ID tips={ID, ...} [exceptional=ID]   # without omega=graded
  }

  family NAME {
    prototypes NAME ...
    assignment SEQ             # prototype indices; eventually periodic stays
  }                            #   exactly decidable, gen= forms are opaque

  network NAME on FAMILY {
    r BRANCH = SEQ             # resistance sequence (required per branch)
    e BRANCH = SEQ             # source sequence (defaults to 0)
  }

  query NAME {
    family NAME
    level RANK
    extremity EXT
  }

  SET  := finite={N, ...} | cofinite={N, ...} | mod=M : R
        | [pre=[BITS]] cycle=[BITS]
  SEQ  := [pre=[V, ...]] cycle=[V, ...] | gen=GEN nmax=N
  GEN  := identity | const(V) | affine(A, B) | mod(P)
  EXT  := [pre=[REF, ...]] cycle=[REF, ...]
        | gen=(omega-exceptional | omega-tip) [nmax=N]
  REF  := (tip|node):ID
  RANK := N | omega | omega-arrow

Text becomes tokens in one pass of one pattern over the whole text. Lines
end at the line breaks of ``str.splitlines`` ('\\r\\n' is one), and a comment
runs from '#' to the end of its line. Characters that ``str.isspace``
accepts separate tokens and are otherwise skipped; any other character
that starts no name, number or punctuation is an error, reported before
any parse error. A line ends its statement when it holds a token other
than ';', so blank lines, comment lines and lines of ';' alone end none.
Tokens are plain strings and carry no position: the line and column of
an error are found by scanning the text again, up to the failing token.

Parsing produces a :class:`Project` of plain spec values plus fully built
graphs; resolution into oracles, families, networks and query extremities
happens on demand. ``serialize`` renders a canonical form (sorted blocks,
sorted statement bodies), and parsing that form yields an equal project.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    DuplicateId,
    ProjectSyntaxError,
    UnresolvedReference,
)
from .graphs import (
    OMEGA,
    OMEGA_ARROW,
    Extremity,
    StandardGraph,
    StandardNode,
    TowerScheme,
    parse_rank,
    tip_rank,
)
from .indexsets import IndexSet
from .oracle import FilterOracle, Membership
from .sequences import PeriodicSeq, _fmt, named_generator, periodic, pointwise, values_window
from .ultrapower import (
    GraphFamily,
    NsExtremity,
    ns_extremity,
    omega_exceptional_query,
    omega_tip_query,
)
from .sequences import constant as constant_seq

if TYPE_CHECKING:
    from .network import NsNetwork

_DEFAULT_GEN_HORIZON = 100_000


# -- tokens ---------------------------------------------------------------------------

# The line breaks of ``str.splitlines``, each of them also ``str.isspace``.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK = rf"(?:\r\n|[{_BREAKS}])"
_COMMENT = rf"#[^{_BREAKS}]*"

# One pattern for the whole text. Group 1 is a token: a name, a number, a
# punctuation character (';' among them) or, last, any other character that
# is neither ``str.isspace`` (``\s``) nor '#', which no token may start. The
# end of a line, after any comment, matches outside the group, so ``findall``
# gives it as '', and it takes with it every following line that holds only
# spaces and a comment. Spaces match nothing and are skipped.
_TOKEN_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_\-]*"
    r"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
    r"|[{}\[\]=:,();]"
    r"|[^\s#])"
    rf"|(?:{_COMMENT})?{_BREAK}(?:[^\S{_BREAKS}]*(?:{_COMMENT})?{_BREAK})*"
)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ONE_CHAR_TOKENS = _NAME_START | frozenset("{}[]=:,();")


def _unexpected(tok: str) -> bool:
    """Whether a token is a character that starts no name, number or
    punctuation (a number's digits are those of ``str.isdecimal``)."""
    return len(tok) == 1 and tok not in _ONE_CHAR_TOKENS and not tok.isdecimal()


def _tokenize(text: str) -> list[str]:
    """The tokens of the text as strings: each name, number and punctuation
    character as written, and '' for the end of a line that holds a token
    other than ';'. A statement ends at ';' or ''.

    Raises ``ProjectSyntaxError`` at the first character that starts no
    token. Positions are not kept: ``_position`` finds them again."""
    tokens = _TOKEN_RE.findall(text + "\n")
    if ";" in text or any(map(_unexpected, set(tokens))):
        # A line that holds only ';' ends in no '', and an unexpected
        # character is reported where it stands: the scan knows lines.
        return [tok for tok, _line, _col in _scan(text)]
    # Blank and comment lines went into the line end before them, so only a
    # leading '' ends a line without a token.
    if tokens and not tokens[0]:
        del tokens[0]
    return tokens


def _scan(text: str):
    """Each token of ``_tokenize(text)`` with its line and column (the
    column of a line's '' is that of its comment or line break)."""
    line, start, tokens_on_line = 1, 0, False
    for m in _TOKEN_RE.finditer(text + "\n"):
        tok = m.group(1)
        if tok is None:  # the end of a line, and of the blank lines after it
            if tokens_on_line:
                yield "", line, m.start() - start + 1
            line += len(m.group().splitlines())
            start, tokens_on_line = m.end(), False
            continue
        col = m.start() - start + 1
        if _unexpected(tok):
            raise ProjectSyntaxError(f"unexpected character {tok!r}", line, col)
        yield tok, line, col
        tokens_on_line = tokens_on_line or tok != ";"


def _position(text: str, k: int) -> tuple[int, int]:
    """(line, column) of token k of the text; of its last token for a k past
    the end, and (1, 1) when it has none."""
    line, col = 1, 1
    for i, (_tok, line, col) in enumerate(_scan(text)):
        if i == k:
            break
    return line, col


class _Parser:
    """Reads the tokens by index; ``None`` stands past the last one."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = [*_tokenize(text), None]
        self.k = 0

    def _here(self) -> tuple[int, int]:
        return _position(self.text, self.k)

    def fail(self, message: str):
        line, col = self._here()
        raise ProjectSyntaxError(message, line, col)

    def at_end(self) -> bool:
        return self.tokens[self.k] is None

    def peek(self) -> str | None:
        return self.tokens[self.k]

    def skip_nl(self) -> None:
        tokens, k = self.tokens, self.k
        while tokens[k] == "" or tokens[k] == ";":
            k += 1
        self.k = k

    def end_statement(self) -> None:
        tok = self.tokens[self.k]
        if tok is None or tok == "}":
            return
        if tok == "" or tok == ";":
            self.skip_nl()
            return
        self.fail(f"unexpected {tok!r} at end of statement")

    def at_name(self, word: str) -> bool:
        return self.tokens[self.k] == word

    def at_punct(self, ch: str) -> bool:
        return self.tokens[self.k] == ch

    def take_name(self, word: str | None = None) -> str:
        tok = self.tokens[self.k]
        if word is None:
            if tok is None or tok[:1] not in _NAME_START:
                self.fail("expected a name")
        elif tok != word:
            self.fail(f"expected {word}")
        self.k += 1
        return tok

    def take_names(self) -> list[str]:
        """The names from here to the first token that is not a name."""
        tokens, start = self.tokens, self.k
        k = start
        while tokens[k] is not None and tokens[k][:1] in _NAME_START:
            k += 1
        self.k = k
        return tokens[start:k]

    def take_punct(self, ch: str) -> None:
        if self.tokens[self.k] != ch:
            self.fail(f"expected {ch!r}")
        self.k += 1

    def take_number(self):
        tok = self.tokens[self.k]
        if tok is None or not (tok[:1] == "-" or tok[:1].isdecimal()):
            self.fail("expected a number")
        self.k += 1
        try:
            return float(tok) if "." in tok or "e" in tok or "E" in tok else int(tok)
        except ValueError:  # past the interpreter's limit on digits per conversion
            raise ProjectSyntaxError(
                f"integer literal of {len(tok)} characters is too long",
                *_position(self.text, self.k - 1),
            ) from None

    def take_int(self) -> int:
        k = self.k
        value = self.take_number()
        if not isinstance(value, int):  # reported at the number, which is already taken
            raise ProjectSyntaxError("expected an integer", *_position(self.text, k))
        return value


# -- spec values ------------------------------------------------------------------------


def _render_pre_cycle(pre: tuple, cycle: tuple, fmt) -> str:
    """The ``[pre=[...]] cycle=[...]`` form, each item rendered by ``fmt``."""
    cyc = "cycle=[%s]" % ", ".join(map(fmt, cycle))
    if pre:
        return "pre=[%s] %s" % (", ".join(map(fmt, pre)), cyc)
    return cyc


def _fmt_literal(value) -> str:
    """``_fmt`` of a parsed number, except that an infinite float (read from
    a literal past the float range, such as 1e400) is written as a literal
    that reads back as it."""
    if isinstance(value, float) and math.isinf(value):
        return "-1e999" if value < 0 else "1e999"
    return _fmt(value)


class SetSpec(NamedTuple):
    kind: str  # "finite" | "cofinite" | "mod" | "bits"
    members: tuple = ()
    modulus: int = 0
    residue: int = 0
    pre: tuple = ()
    cycle: tuple = ()

    def to_indexset(self) -> IndexSet:
        if self.kind == "finite":
            return IndexSet.finite(self.members)
        if self.kind == "cofinite":
            return IndexSet.cofinite(self.members)
        if self.kind == "mod":
            return IndexSet.residue_class(self.modulus, self.residue)
        return IndexSet.eventually_periodic(
            [bool(b) for b in self.pre], [bool(b) for b in self.cycle]
        )

    def render(self) -> str:
        if self.kind in ("finite", "cofinite"):
            inner = ", ".join(str(m) for m in self.members)
            return f"{self.kind}={{{inner}}}"
        if self.kind == "mod":
            return f"mod={self.modulus} : {self.residue}"
        return _render_pre_cycle(self.pre, self.cycle, str)


class OracleSpec(NamedTuple):
    name: str
    residues: tuple = ()  # of (modulus, residue)
    pins: tuple = ()  # of (verdict "in"/"out", SetSpec)

    def to_oracle(self, audit: list[str] | None = None) -> FilterOracle:
        pins = [
            (spec.to_indexset(), Membership(verdict)) for verdict, spec in self.pins
        ]
        return FilterOracle(self.residues, pins, audit=audit)


class SeqSpec(NamedTuple):
    kind: str  # "ep" | "gen"
    pre: tuple = ()
    cycle: tuple = ()
    gen: tuple = ()  # (name, arg, ...)
    nmax: int = 0

    def to_seq(self):
        if self.kind == "ep":
            return periodic(self.pre, self.cycle)
        return named_generator(self.gen[0], tuple(self.gen[1:]), self.nmax)

    def render(self) -> str:
        if self.kind == "ep":
            return _render_pre_cycle(self.pre, self.cycle, _fmt_literal)
        name, *args = self.gen
        head = name if not args else "%s(%s)" % (name, ", ".join(map(_fmt_literal, args)))
        return f"gen={head} nmax={self.nmax}"


class ExtSpec(NamedTuple):
    kind: str  # "ep" | "gen"
    pre: tuple = ()  # of ("tip"/"node", ident)
    cycle: tuple = ()
    gen: str = ""  # a str where SeqSpec's is a tuple, so the two never compare equal
    nmax: int | None = None  # None when the text names no horizon

    def render(self) -> str:
        if self.kind == "ep":
            return _render_pre_cycle(self.pre, self.cycle, ":".join)
        out = f"gen={self.gen}"
        if self.nmax is not None:
            out += f" nmax={self.nmax}"
        return out


class FamilySpec(NamedTuple):
    name: str
    prototypes: tuple
    assignment: SeqSpec


class NetworkSpec(NamedTuple):
    name: str
    family: str
    entries: tuple  # of (("r"|"e", branch), SeqSpec), sorted


class QuerySpec(NamedTuple):
    name: str
    family: str
    level: object
    extremity: ExtSpec


class Project:
    __slots__ = ("oracles", "graphs", "families", "networks", "queries")

    def __init__(self):
        self.oracles: dict = {}
        self.graphs: dict = {}
        self.families: dict = {}
        self.networks: dict = {}
        self.queries: dict = {}

    def __eq__(self, other):
        if not isinstance(other, Project):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    # -- resolution -----------------------------------------------------------

    def default_oracle_name(self) -> str | None:
        if "main" in self.oracles:
            return "main"
        return min(self.oracles) if self.oracles else None

    def oracle(
        self,
        name: str | None = None,
        extra: str | None = None,
        audit: list[str] | None = None,
    ) -> FilterOracle:
        if name is None:
            name = self.default_oracle_name()
        if name is None:
            spec = OracleSpec("default")
        elif name in self.oracles:
            spec = self.oracles[name]
        else:
            raise UnresolvedReference(f"no oracle named {name!r}")
        if extra:
            spec = amend_oracle_spec(spec, extra)
        return spec.to_oracle(audit)

    def family(self, name: str) -> GraphFamily:
        if name not in self.families:
            raise UnresolvedReference(f"no family named {name!r}")
        spec = self.families[name]
        protos = []
        for gname in spec.prototypes:
            if gname not in self.graphs:
                raise UnresolvedReference(
                    f"family {name!r} references unknown graph {gname!r}"
                )
            protos.append(self.graphs[gname])
        assignment = spec.assignment.to_seq()
        try:
            return GraphFamily(name, tuple(protos), assignment)
        except ValueError as exc:
            raise UnresolvedReference(f"family {name!r}: {exc}") from None

    def network(self, name: str) -> NsNetwork:
        if name not in self.networks:
            raise UnresolvedReference(f"no network named {name!r}")
        spec = self.networks[name]
        family = self.family(spec.family)
        entries = dict(spec.entries)
        branch_ids = set(family.prototypes[0].branches)
        for (kind, bid), _seq in spec.entries:
            if bid not in branch_ids:
                raise UnresolvedReference(
                    f"network {name!r} assigns {kind} to unknown branch {bid!r}"
                )
        data = {}
        for bid in sorted(branch_ids):
            r_spec = entries.get(("r", bid))
            if r_spec is None:
                raise UnresolvedReference(
                    f"network {name!r} gives no resistance for branch {bid!r}"
                )
            e_spec = entries.get(("e", bid))
            e_seq = e_spec.to_seq() if e_spec is not None else constant_seq(0.0)
            data[bid] = (r_spec.to_seq(), e_seq)
        from .network import NsNetwork

        return NsNetwork(name, family, data)

    def query(self, name: str) -> NsExtremity:
        if name not in self.queries:
            raise UnresolvedReference(f"no query named {name!r}")
        spec = self.queries[name]
        family = self.family(spec.family)
        ext = spec.extremity
        if ext.kind == "gen":
            n_max = _DEFAULT_GEN_HORIZON if ext.nmax is None else ext.nmax
            if ext.gen == "omega-exceptional":
                return omega_exceptional_query(family, n_max)
            if ext.gen == "omega-tip":
                return omega_tip_query(family, n_max)
            raise UnresolvedReference(
                f"query {name!r}: unknown extremity generator {ext.gen!r}"
            )
        refs = periodic(ext.pre, ext.cycle)
        rep = pointwise(
            [refs, family.assignment],
            lambda ref, k: _resolve_ref(ref, family.prototypes[k], spec.level, name),
        )
        if not isinstance(rep, PeriodicSeq):  # probed as the family probes its assignment
            values_window(rep, min(64, rep.n_max))
        return ns_extremity(family, spec.level, rep, label=name)


def _resolve_ref(ref, graph: StandardGraph, level, qname: str) -> Extremity:
    kind, ident = ref
    if kind == "tip":
        return Extremity("tip", ident, tip_rank(level))
    rank = graph.node_rank(ident)
    if rank is None:
        raise UnresolvedReference(
            f"query {qname!r}: {ident!r} is not a node of graph {graph.name}"
        )
    return Extremity("node", ident, rank)


# -- block parsing -----------------------------------------------------------------------


def parse_project(text: str) -> Project:
    p = _Parser(text)
    project = Project()
    p.skip_nl()
    while not p.at_end():
        keyword = p.take_name()
        if keyword == "oracle":
            _parse_oracle_block(p, project)
        elif keyword == "graph":
            _parse_graph_block(p, project)
        elif keyword == "family":
            _parse_family_block(p, project)
        elif keyword == "network":
            _parse_network_block(p, project)
        elif keyword == "query":
            _parse_query_block(p, project)
        else:
            p.fail(f"unknown block kind {keyword!r}")
        p.skip_nl()
    return project


def _register(project: Project, table: dict, name: str, value, p: _Parser) -> None:
    if name in table:
        line, col = p._here()
        raise DuplicateId(f"{name!r} is declared twice", line, col)
    table[name] = value


def _open_block(p: _Parser) -> str:
    name = p.take_name()
    p.take_punct("{")
    p.skip_nl()
    return name


def _parse_oracle_block(p: _Parser, project: Project) -> None:
    name = _open_block(p)
    residues: list = []
    pins: list = []
    while not p.at_punct("}"):
        _parse_oracle_stmt(p, residues, pins)
        p.end_statement()
    p.take_punct("}")
    _register(
        project, project.oracles, name, OracleSpec(name, tuple(residues), tuple(pins)), p
    )


def _parse_oracle_stmt(p: _Parser, residues: list, pins: list) -> None:
    keyword = p.take_name()
    if keyword == "residue":
        p.take_name("mod")
        p.take_punct("=")
        modulus = p.take_int()
        p.take_punct(":")
        residue = p.take_int()
        residues.append((modulus, residue))
    elif keyword == "pin":
        verdict = p.take_name()
        if verdict not in ("in", "out"):
            p.fail("pin verdict must be 'in' or 'out'")
        pins.append((verdict, _parse_set(p)))
    else:
        p.fail(f"unknown oracle statement {keyword!r}")


def amend_oracle_spec(base: OracleSpec, statements: str) -> OracleSpec:
    """Apply ';'-separated oracle statements on top of an existing spec."""
    p = _Parser(statements)
    residues = list(base.residues)
    pins = list(base.pins)
    p.skip_nl()
    while not p.at_end():
        _parse_oracle_stmt(p, residues, pins)
        p.skip_nl()
    return OracleSpec(base.name, tuple(residues), tuple(pins))


def _parse_set(p: _Parser) -> SetSpec:
    if p.at_name("finite") or p.at_name("cofinite"):
        kind = p.take_name()
        p.take_punct("=")
        members = _parse_list(p, _Parser.take_int, "{}")
        return SetSpec(kind, members=tuple(sorted(set(members))))
    if p.at_name("mod"):
        p.take_name("mod")
        p.take_punct("=")
        modulus = p.take_int()
        p.take_punct(":")
        residue = p.take_int()
        return SetSpec("mod", modulus=modulus, residue=residue)
    if p.at_name("pre") or p.at_name("cycle"):
        pre, cycle = _parse_bracketed_pair(p, _take_bit)
        return SetSpec("bits", pre=pre, cycle=cycle)
    p.fail("expected an index-set (finite=, cofinite=, mod=, or pre=/cycle=)")


def _take_bit(p: _Parser) -> int:
    value = p.take_int()
    if value not in (0, 1):
        p.fail("bits must be 0 or 1")
    return value


def _parse_bracketed_pair(p: _Parser, take_item) -> tuple[tuple, tuple]:
    pre: list = []
    if p.at_name("pre"):
        p.take_name("pre")
        p.take_punct("=")
        pre = _parse_list(p, take_item)
    p.take_name("cycle")
    p.take_punct("=")
    cycle = _parse_list(p, take_item)
    if not cycle:
        p.fail("cycle must be nonempty")
    return tuple(pre), tuple(cycle)


def _parse_list(p: _Parser, take_item, brackets: str = "[]") -> list:
    """The items ``take_item`` reads between the two brackets, each one
    optionally followed by a comma."""
    opening, closing = brackets
    p.take_punct(opening)
    items: list = []
    tokens = p.tokens
    while tokens[p.k] != closing:
        items.append(take_item(p))
        if tokens[p.k] == ",":
            p.k += 1
    p.take_punct(closing)
    return items


def _parse_seq(p: _Parser) -> SeqSpec:
    if p.at_name("gen"):
        p.take_name("gen")
        p.take_punct("=")
        name = p.take_name()
        args = _parse_list(p, _Parser.take_number, "()") if p.at_punct("(") else []
        p.take_name("nmax")
        p.take_punct("=")
        nmax = p.take_int()
        return SeqSpec("gen", gen=(name, *args), nmax=nmax)
    pre, cycle = _parse_bracketed_pair(p, lambda q: q.take_number())
    return SeqSpec("ep", pre=pre, cycle=cycle)


def _take_ref(p: _Parser) -> tuple[str, str]:
    kind = p.take_name()
    if kind not in ("tip", "node"):
        p.fail("extremity references start with tip: or node:")
    p.take_punct(":")
    return (kind, p.take_name())


def _parse_ext(p: _Parser) -> ExtSpec:
    if p.at_name("gen"):
        p.take_name("gen")
        p.take_punct("=")
        name = p.take_name()
        if name not in ("omega-exceptional", "omega-tip"):
            p.fail(f"unknown extremity generator {name!r}")
        nmax = None
        if p.at_name("nmax"):
            p.take_name("nmax")
            p.take_punct("=")
            nmax = p.take_int()
        return ExtSpec("gen", gen=name, nmax=nmax)
    pre, cycle = _parse_bracketed_pair(p, _take_ref)
    return ExtSpec("ep", pre=pre, cycle=cycle)


def _parse_graph_block(p: _Parser, project: Project) -> None:
    name = p.take_name()
    p.take_name("rank")
    p.take_punct("=")
    rank = _take_rank(p)
    scheme = None
    graded = False
    while not p.at_punct("{"):
        attr = p.take_name()
        if attr == "scheme":
            p.take_punct("=")
            p.take_name("tower")
            p.take_name("width")
            p.take_punct("=")
            scheme = TowerScheme(p.take_int())
        elif attr == "omega":
            p.take_punct("=")
            p.take_name("graded")
            graded = True
        else:
            p.fail(f"unknown graph attribute {attr!r}")
    p.take_punct("{")
    p.skip_nl()
    nodes0: list[str] = []
    branches: dict[str, tuple[str, str]] = {}
    tips: dict[int, set] = {}
    nodes: list[StandardNode] = []
    omega_tips: list[str] | None = None
    omega_nodes: list[StandardNode] = []
    while not p.at_punct("}"):
        keyword = p.take_name()
        if keyword == "nodes0":
            nodes0 += p.take_names()
        elif keyword == "branch":
            bid = p.take_name()
            u = p.take_name()
            v = p.take_name()
            if bid in branches:
                line, col = p._here()
                raise DuplicateId(f"branch {bid!r} is declared twice", line, col)
            branches[bid] = (u, v)
        elif keyword == "tips":
            rank_at = p.take_int()
            p.take_punct("=")
            pool = tips.setdefault(rank_at, set())
            pool.update(p.take_names())
        elif keyword == "node":
            nodes.append(_parse_node_stmt(p, None))
        elif keyword == "omega-tips":
            omega_tips = omega_tips or []
            omega_tips += p.take_names()
        elif keyword == "omega-node":
            omega_nodes.append(_parse_node_stmt(p, OMEGA))
        else:
            p.fail(f"unknown graph statement {keyword!r}")
        p.end_statement()
    p.take_punct("}")
    try:
        graph = StandardGraph(
            name,
            rank,
            nodes0,
            branches,
            tips={r: ids for r, ids in tips.items() if ids},
            nodes=nodes,
            scheme=scheme,
            omega_tips=omega_tips,
            omega_nodes=omega_nodes,
            graded_omega=graded,
        )
    except ValueError as exc:
        line, col = p._here()
        raise ProjectSyntaxError(str(exc), line, col) from None
    _register(project, project.graphs, name, graph, p)


def _take_rank(p: _Parser):
    tok = p.peek()
    if tok in ("omega", "omega-arrow"):
        p.k += 1
        return parse_rank(tok)
    return p.take_int()


def _parse_node_stmt(p: _Parser, forced_rank) -> StandardNode:
    ident = p.take_name()
    if forced_rank is None:
        p.take_name("rank")
        p.take_punct("=")
        rank = p.take_int()
    else:
        rank = forced_rank
    p.take_name("tips")
    p.take_punct("=")
    owned = _parse_list(p, _Parser.take_name, "{}")
    exceptional = None
    if p.at_name("exceptional"):
        p.take_name("exceptional")
        p.take_punct("=")
        exceptional = p.take_name()
    return StandardNode.make(ident, rank, owned, exceptional)


def _parse_family_block(p: _Parser, project: Project) -> None:
    name = _open_block(p)
    prototypes: list[str] = []
    assignment = SeqSpec("ep", cycle=(0,))
    while not p.at_punct("}"):
        keyword = p.take_name()
        if keyword == "prototypes":
            prototypes += p.take_names()
        elif keyword == "assignment":
            assignment = _parse_seq(p)
        else:
            p.fail(f"unknown family statement {keyword!r}")
        p.end_statement()
    p.take_punct("}")
    if not prototypes:
        p.fail(f"family {name!r} lists no prototypes")
    _register(
        project,
        project.families,
        name,
        FamilySpec(name, tuple(prototypes), assignment),
        p,
    )


def _parse_network_block(p: _Parser, project: Project) -> None:
    name = p.take_name()
    p.take_name("on")
    fam = p.take_name()
    p.take_punct("{")
    p.skip_nl()
    entries: dict = {}
    while not p.at_punct("}"):
        keyword = p.take_name()
        if keyword not in ("r", "e"):
            p.fail(f"unknown network statement {keyword!r}")
        bid = p.take_name()
        p.take_punct("=")
        seq = _parse_seq(p)
        if (keyword, bid) in entries:
            line, col = p._here()
            raise DuplicateId(
                f"network {name!r} sets {keyword} for {bid!r} twice", line, col
            )
        entries[(keyword, bid)] = seq
        p.end_statement()
    p.take_punct("}")
    _register(
        project,
        project.networks,
        name,
        NetworkSpec(name, fam, tuple(sorted(entries.items()))),
        p,
    )


def _parse_query_block(p: _Parser, project: Project) -> None:
    name = _open_block(p)
    fam = None
    level = None
    ext = None
    while not p.at_punct("}"):
        keyword = p.take_name()
        if keyword == "family":
            fam = p.take_name()
        elif keyword == "level":
            level = _take_rank(p)
        elif keyword == "extremity":
            ext = _parse_ext(p)
        else:
            p.fail(f"unknown query statement {keyword!r}")
        p.end_statement()
    p.take_punct("}")
    if fam is None or level is None or ext is None:
        p.fail(f"query {name!r} needs family, level and extremity")
    _register(project, project.queries, name, QuerySpec(name, fam, level, ext), p)


# -- serialization -----------------------------------------------------------------------


def serialize(project: Project) -> str:
    lines: list[str] = []
    for name in sorted(project.oracles):
        spec = project.oracles[name]
        lines.append(f"oracle {name} {{")
        for modulus, residue in spec.residues:
            lines.append(f"  residue mod={modulus} : {residue}")
        for verdict, sspec in spec.pins:
            lines.append(f"  pin {verdict} {sspec.render()}")
        lines.append("}")
        lines.append("")
    for name in sorted(project.graphs):
        lines.extend(_render_graph(project.graphs[name]))
        lines.append("")
    for name in sorted(project.families):
        spec = project.families[name]
        lines.append(f"family {name} {{")
        lines.append("  prototypes " + " ".join(spec.prototypes))
        lines.append(f"  assignment {spec.assignment.render()}")
        lines.append("}")
        lines.append("")
    for name in sorted(project.networks):
        spec = project.networks[name]
        lines.append(f"network {name} on {spec.family} {{")
        for (kind, bid), seq in spec.entries:
            lines.append(f"  {kind} {bid} = {seq.render()}")
        lines.append("}")
        lines.append("")
    for name in sorted(project.queries):
        spec = project.queries[name]
        lines.append(f"query {name} {{")
        lines.append(f"  family {spec.family}")
        lines.append(f"  level {spec.level}")
        lines.append(f"  extremity {spec.extremity.render()}")
        lines.append("}")
        lines.append("")
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def _render_graph(graph: StandardGraph) -> list[str]:
    header = f"graph {graph.name} rank={graph.rank}"
    if graph.scheme is not None:
        header += f" scheme=tower width={graph.scheme.width}"
    if graph.graded_omega:
        header += " omega=graded"
    lines = [header + " {"]
    if graph.nodes0:
        lines.append("  nodes0 " + " ".join(sorted(graph.nodes0)))
    for bid in sorted(graph.branches):
        u, v = graph.branches[bid]
        lines.append(f"  branch {bid} {u} {v}")
    for rank in sorted(graph._tip_layers):
        ids = " ".join(sorted(graph._tip_layers[rank]))
        if ids:
            lines.append(f"  omega-tips {ids}" if rank == OMEGA_ARROW else f"  tips {rank} = {ids}")
    for rank in sorted(graph._node_layers):
        layer = graph._node_layers[rank]
        lines.extend("  " + _render_node(layer[ident], rank) for ident in sorted(layer))
    lines.append("}")
    return lines


def _render_node(node: StandardNode, layer) -> str:
    if layer == OMEGA:
        parts = ["omega-node", node.ident]
    else:
        parts = ["node", node.ident, f"rank={node.rank}"]
    parts.append("tips={%s}" % ", ".join(sorted(node.tips)))
    if node.exceptional is not None:
        parts.append(f"exceptional={node.exceptional}")
    return " ".join(parts)
