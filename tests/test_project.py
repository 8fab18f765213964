"""Project-file parsing, resolution and canonical serialization."""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragraph import FilterOracle, Membership, IndexSet, OMEGA
from ultragraph.errors import (
    DuplicateId,
    ProjectError,
    ProjectSyntaxError,
    Undecidable,
    UnresolvedReference,
)
from ultragraph.project import (
    OracleSpec,
    _TOKEN_RE,
    _position,
    _tokenize,
    amend_oracle_spec,
    parse_project,
    serialize,
)
from ultragraph.sequences import PeriodicSeq, value_at

MINIMAL = """
# comment lines and blank lines are ignored
oracle main {
  residue mod=2 : 1
}

graph g rank=1 {
  nodes0 a b
  branch b1 a b
  tips 0 = p0 q0
  node x1 rank=1 tips={p0, q0}
}

family fam {
  prototypes g
  assignment cycle=[0]
}

network net on fam {
  r b1 = cycle=[2.0]
  e b1 = gen=const(1) nmax=64
}

query q {
  family fam
  level 1
  extremity cycle=[tip:p0]
}
"""


def test_minimal_project_parses_and_resolves():
    proj = parse_project(MINIMAL)
    assert set(proj.graphs) == {"g"}
    fam = proj.family("fam")
    assert fam.prototypes[0].name == "g"
    net = proj.network("net")
    r, e = net.data["b1"]
    assert value_at(r, 5) == 2.0
    assert value_at(e, 5) == 1
    ext = proj.query("q")
    assert ext.label == "q"
    orc = proj.oracle()
    assert orc.decide(IndexSet.residue_class(2, 1), context="t") is Membership.IN


def test_syntax_errors_carry_the_line_number():
    bad = "oracle main {\n  residue mod=2\n}\n"
    with pytest.raises(ProjectSyntaxError) as err:
        parse_project(bad)
    assert "line 2" in str(err.value)


def test_an_unexpected_character_is_reported_at_its_line_and_column():
    bad = "oracle main {\n  residue mod=2 : 1 $ 3\n}\n"
    with pytest.raises(ProjectSyntaxError) as err:
        parse_project(bad)
    assert (err.value.line, err.value.col) == (2, 21)
    assert str(err.value) == "line 2, col 21: unexpected character '$'"



@pytest.mark.parametrize(
    "statements, col",
    [("pin in mod=2.5 : 1", 12), ("pin in mod=2 : 1e0", 16), ("residue mod=7.0 : 1", 13)],
)
def test_a_noninteger_is_reported_at_its_own_token(statements, col):
    base = parse_project(MINIMAL).oracles["main"]
    with pytest.raises(ProjectSyntaxError) as err:
        amend_oracle_spec(base, statements)
    assert (err.value.line, err.value.col) == (1, col)
    assert str(err.value) == f"line 1, col {col}: expected an integer"


# The character loop ``_tokenize`` replaced, kept as its reference.
_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<num>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_\-]*)"
    r"|(?P<punct>[{}\[\]=:,();])"
)


def reference_tokenize(text):
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        produced = False
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _REFERENCE_TOKEN_RE.match(line, pos)
            if m is None:
                raise ProjectSyntaxError(
                    f"unexpected character {line[pos]!r}", lineno, pos + 1
                )
            kind = m.lastgroup
            text_ = m.group()
            if kind == "punct" and text_ == ";":
                tokens.append(("nl", ";", lineno, pos + 1))
            else:
                tokens.append((kind, text_, lineno, pos + 1))
                produced = True
            pos = m.end()
        if produced:
            tokens.append(("nl", "\n", lineno, len(line) + 1))
    return tokens


def tokens_or_error(tokenize, text):
    try:
        return [tuple(t) for t in tokenize(text)]
    except ProjectSyntaxError as exc:
        return str(exc), exc.line, exc.col


def token_kind(tok):
    if tok in ("", ";"):
        return "nl"
    if tok[0].isalpha() or tok[0] == "_":
        return "name"
    return "punct" if tok in "{}[]=:,()" else "num"


def scanned_tokens(text):
    """``_tokenize``'s strings as the reference's tokens, each at the
    position ``_position`` finds for it."""
    return [
        (token_kind(tok), tok or "\n", *_position(text, k))
        for k, tok in enumerate(_tokenize(text))
    ]


project_text = st.lists(
    st.one_of(
        st.sampled_from(["oracle", "x_1", "tip-a", "_", "E5", "-3", "2.5", "1e-3", "7E+2", "4.", "-"]),
        st.sampled_from(list("{}[]=:,();#") + [" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x85"]),
        st.sampled_from(["\u00a0", "\u3000", "\u2028", "\x1c", "$", "@", "!", ".", "é", "٣", "\x00"]),
        st.text(max_size=3),
    ),
    max_size=30,
).map("".join)


def assert_scans_as_the_character_loop(text):
    expected = tokens_or_error(reference_tokenize, text)
    assert tokens_or_error(scanned_tokens, text) == expected
    if isinstance(expected, list):
        # Past the end, positions are the last token's.
        assert _position(text, len(expected)) == (expected[-1][2:] if expected else (1, 1))


@given(project_text)
def test_the_scanner_tokenizes_as_the_character_loop(text):
    assert_scans_as_the_character_loop(text)


@pytest.mark.parametrize(
    "text",
    ["a # c\n\n  \n# d\n", "a\n;\n\n", "a ;\n ; ;\n# x;y", "\n\n  \t\n", "a\r", "a\r\n\r\n", "x = 1", "# only"],
)
def test_the_scanner_ends_where_the_character_loop_ends(text):
    assert_scans_as_the_character_loop(text)


def test_the_scanner_skips_exactly_what_isspace_skips():
    # A line break ends a line (''), '#' starts a comment that needs one, and
    # any other character is a token of its own unless ``str.isspace`` holds.
    for ch in map(chr, range(sys.maxunicode + 1)):
        if len(f"a{ch}b".splitlines()) == 2:
            expected = [""]
        elif ch.isspace() or ch == "#":
            expected = []
        else:
            expected = [ch]
        assert _TOKEN_RE.findall(ch) == expected, repr(ch)


def test_unknown_block_kind_is_a_syntax_error():
    with pytest.raises(ProjectSyntaxError, match="unknown block kind"):
        parse_project("conspiracy x { }")


def test_duplicate_names_are_rejected():
    doubled = MINIMAL + "\ngraph g rank=1 {\n  nodes0 c\n}\n"
    with pytest.raises(DuplicateId):
        parse_project(doubled)


def test_serialize_round_trips():
    proj = parse_project(MINIMAL)
    text = serialize(proj)
    again = parse_project(text)
    assert serialize(again) == text
    # resolution agrees too, not just the text
    assert again.network("net").data["b1"][0] == proj.network("net").data["b1"][0]


ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted(ROOT.glob("projects/*.ug")) + [
    path for path in sorted(ROOT.glob("tests/data/*.ug")) if path.name != "fault_syntax.ug"
]


@pytest.mark.parametrize("path", SHIPPED, ids=[p.name for p in SHIPPED])
def test_serialize_is_a_fixed_point_on_every_shipped_project(path):
    original = parse_project(path.read_text())
    text = serialize(original)
    again = parse_project(text)
    assert serialize(again) == text
    assert again.graphs == original.graphs
    assert again == original


# -- parse fuzz -----------------------------------------------------------------------

FUZZ_SOURCES = sorted(ROOT.glob("projects/*.ug")) + sorted(ROOT.glob("tests/data/*.ug"))
# Each source cut into words, runs of spaces and single other characters.
FUZZ_PIECES = [
    tuple(re.findall(r"[A-Za-z0-9_.\-]+|\s+|.", path.read_text())) for path in FUZZ_SOURCES
]
SOUP = (
    "oracle graph family network query on residue pin in out finite cofinite mod pre "
    "cycle gen nmax identity const affine rank scheme tower width omega omega-arrow "
    "graded nodes0 branch tips node omega-tips omega-node exceptional prototypes "
    "assignment r e level extremity tip x b1 omega-tip omega-exceptional"
).split() + [
    *"{}[]=:,();#$-.",
    "0", "1", "2", "-3", "2.5", "1e-3", "7E+2", "\u0663", "1e400", "-1e400",
    "123456789012345678901234567890", "-123456789012345678901234567890",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\x0c", "\u2028", "# note\n",
]
soup_token = st.sampled_from(SOUP)


@st.composite
def mutated_sources(draw):
    """A shipped project with one to three pieces replaced, deleted,
    duplicated, or preceded by a soup token."""
    pieces = list(draw(st.sampled_from(FUZZ_PIECES)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(pieces) - 1))
        how = draw(st.sampled_from(["replace", "delete", "duplicate", "insert"]))
        if how == "replace":
            pieces[i] = draw(soup_token)
        elif how == "delete":
            del pieces[i]
        elif how == "duplicate":
            pieces.insert(i, pieces[i])
        else:
            pieces.insert(i, draw(soup_token))
    return "".join(pieces)


fuzz_texts = st.one_of(mutated_sources(), st.lists(soup_token, max_size=40).map("".join))


def assert_located(exc: ProjectError) -> None:
    assert exc.line >= 1 and exc.col >= 1, exc


@settings(max_examples=300, deadline=None)
@given(fuzz_texts)
def test_any_text_parses_to_a_fixed_point_or_a_located_error(text):
    try:
        project = parse_project(text)
    except ProjectError as exc:
        assert_located(exc)
    else:
        canon = serialize(project)
        again = parse_project(canon)
        assert serialize(again) == canon
        assert again == project
    try:
        amend_oracle_spec(OracleSpec("main"), text)
    except ProjectError as exc:
        assert_located(exc)


@pytest.mark.parametrize("value", ["1e400", "-1e400"])
def test_a_number_past_the_float_range_serializes_to_a_fixed_point(value):
    proj = parse_project(MINIMAL.replace("cycle=[2.0]", f"cycle=[{value}]"))
    text = serialize(proj)
    again = parse_project(text)
    assert serialize(again) == text and again == proj


def test_serialized_form_is_canonically_sorted():
    reordered = MINIMAL.replace(
        "  r b1 = cycle=[2.0]\n  e b1 = gen=const(1) nmax=64",
        "  e b1 = gen=const(1) nmax=64\n  r b1 = cycle=[2.0]",
    )
    assert serialize(parse_project(reordered)) == serialize(parse_project(MINIMAL))


# -- references ----------------------------------------------------------------------


def test_family_with_unknown_prototype():
    proj = parse_project("family f {\n prototypes ghost\n assignment cycle=[0]\n}")
    with pytest.raises(UnresolvedReference, match="ghost"):
        proj.family("f")


def test_network_requires_a_resistance_per_branch():
    text = MINIMAL.replace("  r b1 = cycle=[2.0]\n", "")
    proj = parse_project(text)
    with pytest.raises(UnresolvedReference, match="no resistance"):
        proj.network("net")


def test_network_rejects_unknown_branches():
    text = MINIMAL.replace("r b1 =", "r zz =")
    proj = parse_project(text)
    with pytest.raises(UnresolvedReference, match="zz"):
        proj.network("net")


def test_query_rejects_idents_that_are_not_nodes():
    text = MINIMAL.replace("cycle=[tip:p0]", "cycle=[node:nope]")
    proj = parse_project(text)
    with pytest.raises(UnresolvedReference, match="nope"):
        proj.query("q")


def test_missing_oracle_name_is_reported():
    proj = parse_project(MINIMAL)
    with pytest.raises(UnresolvedReference, match="aux"):
        proj.oracle("aux")


def test_emf_defaults_to_zero():
    text = MINIMAL.replace("  e b1 = gen=const(1) nmax=64\n", "")
    net = parse_project(text).network("net")
    _, e = net.data["b1"]
    assert e == PeriodicSeq.make((), (0.0,))


# -- oracle blocks -------------------------------------------------------------------


def test_default_oracle_prefers_main_and_falls_back_alphabetically():
    proj = parse_project("oracle zeta { }\noracle alpha { }")
    assert proj.default_oracle_name() == "alpha"
    proj = parse_project("oracle zeta { }\noracle main { }")
    assert proj.default_oracle_name() == "main"
    assert parse_project("").default_oracle_name() is None
    # no oracle block at all still yields a working default oracle
    assert parse_project("").oracle().decide(
        IndexSet.finite([3]), context="t"
    ) is Membership.OUT


def test_pin_statements_take_effect():
    proj = parse_project("oracle main {\n  pin out pre=[] cycle=[1, 0]\n}")
    orc = proj.oracle()
    assert orc.decide(IndexSet.residue_class(2, 0), context="t") is Membership.OUT
    assert orc.decide(IndexSet.residue_class(2, 1), context="t") is Membership.IN


def test_amend_oracle_spec_layers_extra_statements():
    proj = parse_project(MINIMAL)
    base = proj.oracle()
    assert base.decide(IndexSet.residue_class(4, 1), context="t") is Membership.IN
    extra = proj.oracle(extra="residue mod=4 : 3")
    assert extra.decide(IndexSet.residue_class(4, 3), context="t") is Membership.IN
    # the flag grammar reuses the statement grammar, ';' separated
    spec = amend_oracle_spec(proj.oracles["main"], "pin in finite={1}; residue mod=4 : 3")
    with pytest.raises(Exception):
        spec.to_oracle()  # finite sets are never large: inconsistent pin


def test_set_forms_resolve_to_the_right_membership():
    proj = parse_project(
        "oracle main {\n"
        "  pin in cofinite={0, 1}\n"
        "  pin out finite={5}\n"
        "  pin in mod=3 : 2\n"
        "  pin out pre=[1] cycle=[0]\n"
        "}"
    )
    orc = proj.oracle()
    assert orc.decide(IndexSet.residue_class(3, 2), context="t") is Membership.IN


# -- sequence and extremity forms ------------------------------------------------------


def test_generator_forms_produce_the_advertised_values():
    text = (
        MINIMAL.replace("cycle=[2.0]", "gen=affine(2, 3) nmax=32")
        .replace("gen=const(1) nmax=64", "gen=mod(2) nmax=32")
    )
    net = parse_project(text).network("net")
    r, e = net.data["b1"]
    assert [value_at(r, n) for n in range(3)] == [3, 5, 7]
    assert [value_at(e, n) for n in range(4)] == [0, 1, 0, 1]


def test_pre_and_cycle_sequences_unroll():
    text = MINIMAL.replace("cycle=[2.0]", "pre=[9.0] cycle=[2.0, 4.0]")
    net = parse_project(text).network("net")
    r, _ = net.data["b1"]
    assert [value_at(r, n) for n in range(4)] == [9.0, 2.0, 4.0, 2.0]


def test_omega_query_forms():
    text = """
graph t rank=omega scheme=tower width=2 omega=graded {
  nodes0 a b
  branch b1 a b
}
family tf {
  prototypes t
  assignment cycle=[0]
}
query arrow {
  family tf
  level omega
  extremity gen=omega-tip nmax=256
}
query rising {
  family tf
  level omega
  extremity gen=omega-exceptional nmax=256
}
"""
    proj = parse_project(text)
    arrow = proj.query("arrow")
    rising = proj.query("rising")
    assert arrow.level is OMEGA and rising.level is OMEGA
    assert value_at(rising.rep, 3).ident == "x4_0"


def test_integer_literals_stay_integers():
    proj = parse_project(MINIMAL)
    spec = proj.families["fam"].assignment
    seq = spec.to_seq()
    assert value_at(seq, 0) == 0 and isinstance(value_at(seq, 0), int)
