"""Every mutated shipped project ends in a documented exit code.

Each example takes one project from ``projects/``, swaps up to three of its
name or number tokens for small values and names, and runs all five
commands through ``cli.main`` in-process. An undocumented exception
escapes ``cli.main`` and fails the test with its traceback. Small values
keep every window small, so the run is bounded; derandomized, it replays
the same examples on every run.
"""

import contextlib
import io
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ultragraph import cli

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("validate", "build", "classify", "solve", "report")
DOCUMENTED = {0, 2, 3, 4, 5}

_WORD = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z0-9_\-]*")
REPLACEMENTS = (
    "0", "1", "2", "3", "-1", "0.0", "-2.5", "1e-300",
    "a", "b", "p0", "t0", "x1", "x1_0", "T0", "W0", "g",
    "omega", "omega-arrow", "graded", "tip", "node", "cycle", "pre", "gen", "mod", "in",
)


def _without_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines()) + "\n"


PROJECTS = {
    path.name: _without_comments(path.read_text())
    for path in sorted(ROOT.glob("projects/*.ug"))
}
SPANS = {name: [m.span() for m in _WORD.finditer(text)] for name, text in PROJECTS.items()}


@st.composite
def mutated_projects(draw) -> str:
    name = draw(st.sampled_from(sorted(PROJECTS)))
    text, spans = PROJECTS[name], SPANS[name]
    swaps = draw(
        st.dictionaries(
            st.integers(0, len(spans) - 1), st.sampled_from(REPLACEMENTS), min_size=1, max_size=3
        )
    )
    for k in sorted(swaps, reverse=True):
        start, stop = spans[k]
        text = text[:start] + swaps[k] + text[stop:]
    return text


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_projects())
def test_every_command_on_a_mutated_project_ends_in_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.ug"
        path.write_text(text)
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, str(path)])
            assert code in DOCUMENTED, (command, code, text)
            if code not in (0, 3):  # 3 may be a list of violations on stdout
                assert err.getvalue().startswith("error:"), (command, text)


@pytest.mark.parametrize("rank", [10**8, 10**399], ids=["1e8", "400-digit"])
@pytest.mark.parametrize("graphs, code", [("A", 2), ("AB", 3)], ids=["one-graph", "both-graphs"])
def test_validate_on_a_large_natural_rank_ends_quickly(rank, graphs, code):
    # One prototype alone at that rank splits the family's rank (exit 2);
    # both at it leave their top layers empty (exit 3, violations).
    text = PROJECTS["alternating.ug"]
    for name in graphs:
        text = text.replace(f"graph {name} rank=3", f"graph {name} rank={rank}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ranked.ug"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            found = cli.main(["validate", str(path)])
        assert time.perf_counter() - start < 0.5
    assert found == code and "Traceback" not in err.getvalue()
    if code == 3:
        assert f"[layer-empty-top] rank-{rank} graph has no rank-{rank} nodes" in out.getvalue()
    else:
        assert err.getvalue().startswith("error:")


@pytest.mark.parametrize("name", sorted(PROJECTS))
def test_every_command_under_a_generated_assignment_ends_in_a_documented_exit_code(name):
    # A generated assignment leaves a query's kind, rank and owner sampled,
    # so the commands that decide them exit 4 unless a pin decides.
    text, found = re.subn(
        r"(?m)^(\s*assignment ).*$", r"\1gen=mod(1) nmax=50", PROJECTS[name]
    )
    assert found == 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, str(path)])
            assert code in DOCUMENTED, (command, code)
            if code not in (0, 3):
                assert err.getvalue().startswith("error:"), (command, err.getvalue())
