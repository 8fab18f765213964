"""Command line interface, exercised as a subprocess against golden outputs.

Regenerate a golden file after an intentional output change with, e.g.

    python3 -m ultragraph report projects/loop.ug > tests/golden/report_loop.txt
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FAULTS = Path(__file__).resolve().parent / "data"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ultragraph", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


GOLDEN_CASES = [
    ("validate_loop", ["validate", "projects/loop.ug"]),
    ("report_loop", ["report", "projects/loop.ug"]),
    ("classify_alternating", ["classify", "projects/alternating.ug"]),
    (
        "classify_alternating_pinned",
        ["classify", "projects/alternating.ug", "--oracle", "pin in mod=2 : 1"],
    ),
    ("solve_divider", ["solve", "projects/divider.ug"]),
    ("build_tower", ["build", "projects/tower.ug"]),
    ("report_omega", ["report", "projects/omega.ug"]),
]


@pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_output_matches_golden(name, args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--horizon", "0"),
        ("--horizon", "-5"),
        ("--tol", "-1"),
        ("--tol", "nan"),
        ("--tol", "inf"),
        ("--mu-max", "-3"),
    ],
)
def test_out_of_range_flag_values_are_rejected_with_exit_2(flag, value):
    proc = run_cli("solve", "projects/divider.ug", flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"error: argument {flag}: " in proc.stderr


def test_runs_are_byte_identical():
    first = run_cli("report", "projects/loop.ug")
    second = run_cli("report", "projects/loop.ug")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_pinning_the_odds_flips_the_reported_rank():
    plain = run_cli("classify", "projects/alternating.ug")
    pinned = run_cli(
        "classify", "projects/alternating.ug", "--oracle", "pin in mod=2 : 1"
    )
    assert "standard rank 1" in plain.stdout
    assert "standard rank 2" in pinned.stdout


def test_json_sidecar_mirrors_the_lines(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("solve", "projects/loop.ug", "--json", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "solve"
    assert payload["exit"] == 0
    assert payload["lines"] == proc.stdout.rstrip("\n").split("\n")


def test_missing_file_is_a_parse_failure():
    proc = run_cli("validate", "no/such/project.ug")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


def test_missing_file_replaces_a_stale_json_sidecar(tmp_path):
    out = tmp_path / "report.json"
    out.write_text('{"stale": true}\n')
    proc = run_cli("build", "no/such/project.ug", "--json", str(out))
    assert proc.returncode == 2
    assert json.loads(out.read_text()) == {
        "command": "build",
        "exit": 2,
        "lines": ["error: cannot read project: No such file or directory"],
    }
    assert proc.stderr == "error: cannot read project: No such file or directory\n"


@pytest.mark.parametrize(
    "flags,line",
    [
        (["--horizon", "0"], "ultragraph build: error: argument --horizon: must be at least 1, got '0'"),
        (["--bogus"], "ultragraph: error: unrecognized arguments: --bogus"),
    ],
    ids=["out-of-range", "unknown-flag"],
)
def test_rejected_command_line_replaces_a_stale_json_sidecar(tmp_path, flags, line):
    out = tmp_path / "side.json"
    out.write_text('{"stale": true}\n')
    proc = run_cli("build", "projects/tower.ug", *flags, "--json", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ") and proc.stderr.endswith(f"\n{line}\n")
    assert json.loads(out.read_text()) == {"command": "build", "exit": 2, "lines": [line]}


@pytest.mark.parametrize(
    "fault,code",
    [
        ("fault_syntax.ug", 2),
        ("fault_graph.ug", 3),
        ("fault_undecidable.ug", 4),
        ("fault_solver.ug", 5),
        ("fault_assignment.ug", 3),
    ],
)
def test_fault_projects_map_to_exit_codes(fault, code):
    # fault_assignment.ug's family checks its assignment up to n = 64 when
    # it is built; the fault lies past that, where solving reads it
    commands = {2: "validate", 3: "validate", 4: "build", 5: "solve"}
    command = "solve" if fault == "fault_assignment.ug" else commands[code]
    proc = run_cli(command, str(FAULTS / fault))
    assert proc.returncode == code, (proc.stdout, proc.stderr)
    if code != 3:
        assert proc.stderr.startswith("error:")


def test_a_fault_in_a_generated_assignment_names_its_value_and_index():
    proc = run_cli("solve", str(FAULTS / "fault_assignment.ug"))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: assignment value 66 at n=66 is not a prototype index\n"


def test_a_query_under_a_generated_assignment_is_sampled():
    path = str(FAULTS / "generated_assignment.ug")
    assert run_cli("validate", path).returncode == 0
    proc = run_cli("classify", path)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == (
        "error: tip-kind of tip: sampled(horizon=50) is sampled and matches no pin; "
        "membership beyond the horizon is unknown\n"
    )


@pytest.mark.parametrize("command", ["validate", "build", "classify", "report"])
def test_a_bad_query_reference_under_a_generated_assignment_exits_2(tmp_path, command):
    text = (ROOT / "projects" / "alternating.ug").read_text()
    project = tmp_path / "alternating.ug"
    project.write_text(text.replace("assignment cycle=[0, 1]", "assignment gen=mod(1) nmax=50"))
    proc = run_cli(command, str(project))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: query 'whichrank': 'w2' is not a node of graph A\n"


@pytest.mark.parametrize("command", ["validate", "solve", "report"])
def test_a_branch_endpoint_that_is_not_a_0_node_exits_3(command):
    proc = run_cli(command, str(FAULTS / "fault_endpoint.ug"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: graph g: branch b2 endpoint c is not a 0-node\n"


OMEGA_LAYER = """
graph T rank=omega scheme=tower width=2{graded} {{
  nodes0 a b
  branch b1 a b
{layer}}}
"""


def test_a_graded_omega_layer_that_also_lists_one_exits_2(tmp_path):
    project = tmp_path / "both.ug"
    project.write_text(
        OMEGA_LAYER.format(graded=" omega=graded", layer="  omega-tips T0\n")
    )
    proc = run_cli("validate", str(project))
    assert proc.returncode == 2
    assert "graded omega layer cannot also list" in proc.stderr


def test_a_rank_omega_graph_without_omega_nodes_exits_3(tmp_path):
    project = tmp_path / "empty.ug"
    project.write_text(OMEGA_LAYER.format(graded="", layer=""))
    proc = run_cli("validate", str(project))
    assert proc.returncode == 3
    assert "  [layer-empty-top] rank-omega graph has no omega-nodes" in proc.stdout.split("\n")
    project.write_text(OMEGA_LAYER.format(graded="", layer="").replace("rank=omega", "rank=omega-arrow"))
    assert run_cli("validate", str(project)).returncode == 0


def test_ignored_query_levels_are_noted_in_rank_order(tmp_path):
    project = tmp_path / "deep.ug"
    queries = "".join(
        f"query q{level} {{\n  family f\n  level {level}\n  extremity cycle=[tip:t{level - 1}_0]\n}}\n"
        for level in (10, 5)
    )
    project.write_text(
        OMEGA_LAYER.format(graded="", layer="").replace("rank=omega ", "rank=omega-arrow ")
        + "family f {\n  prototypes T\n  assignment cycle=[0]\n}\n"
        + queries
    )
    proc = run_cli("build", str(project), "--mu-max", "3")
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.split("\n") if "ignored" in line] == [
        f"note: queries at level {level} ignored (beyond --mu-max or the family rank)"
        for level in (5, 10)
    ]


def test_stored_layers_that_a_scheme_graph_ignores_exit_3(tmp_path):
    project = tmp_path / "stored.ug"
    project.write_text(
        OMEGA_LAYER.format(graded="", layer="  tips 0 = zz\n  node q rank=1 tips={zz}\n")
    )
    proc = run_cli("validate", str(project))
    assert proc.returncode == 3
    lines = proc.stdout.split("\n")
    assert "  [rank-range] node layer at invalid rank 1" in lines
    assert "  [rank-range] tip layer at invalid rank 0" in lines
    listed = "  omega-tips T0\n  omega-node W0 tips={T0}\n"
    project.write_text(OMEGA_LAYER.format(graded="", layer=listed).replace("rank=omega", "rank=omega-arrow"))
    proc = run_cli("validate", str(project))
    assert proc.returncode == 3
    lines = proc.stdout.split("\n")
    assert "  [rank-range] node layer at invalid rank omega" in lines
    assert "  [rank-range] tip layer at invalid rank omega-arrow" in lines


@pytest.mark.parametrize("horizon,code", [(" nmax=0", 3), (" nmax=-5", 3), ("", 0)])
def test_an_extremity_generator_horizon_below_1_exits_3(tmp_path, horizon, code):
    # A missing nmax means the default horizon; an explicit 0 does not.
    text = (ROOT / "projects" / "tower.ug").read_text()
    project = tmp_path / "horizon.ug"
    project.write_text(text.replace("gen=omega-exceptional nmax=4096", "gen=omega-exceptional" + horizon))
    proc = run_cli("classify", str(project))
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stdout == ""
        assert proc.stderr == "error: n_max must be at least 1\n"
    else:
        assert "rank: ⟨gen=n+1 nmax=100000⟩ :: hypernatural, nonstandard" in proc.stdout


def test_build_reads_each_periodic_exceptional_member_once(tmp_path):
    text = (ROOT / "projects" / "loop.ug").read_text()
    project = tmp_path / "loop4.ug"
    project.write_text(
        text
        + "".join(
            f"\nquery {name} {{\n  family loopfam\n  level 2\n  extremity cycle=[node:x1]\n}}\n"
            for name in ("e2", "e3", "e4")
        )
    )
    proc = run_cli("build", str(project))
    assert proc.returncode == 0, proc.stderr
    identity = [line for line in proc.stdout.split("\n") if line.startswith("  identity of ")]
    assert identity == [
        f"  identity of {name}: cofinite={{}} -> in"
        for name in ("e2", "e3", "e4", "embraced", "node:x1")
    ]


def test_validation_problems_are_data_not_just_an_exit_code():
    proc = run_cli("validate", str(FAULTS / "fault_graph.ug"))
    assert proc.returncode == 3
    assert "exceptional-shared" in proc.stdout
    assert "node-empty" in proc.stdout


def test_undecidable_names_the_question():
    proc = run_cli("build", str(FAULTS / "fault_undecidable.ug"))
    assert proc.returncode == 4
    assert "shorting" in proc.stderr and "pin" not in proc.stderr.split(":")[0]


def test_solver_failures_carry_the_index():
    proc = run_cli("solve", str(FAULTS / "fault_solver.ug"))
    assert proc.returncode == 5
    assert "at index n=2" in proc.stderr


GENERATED_ASSIGNMENT = """
graph loop rank=0 {
  nodes0 a b
  branch b1 a b
  branch b2 b a
}

family loopfam {
  prototypes loop
  assignment gen=mod(1) nmax=100
}

network series on loopfam {
  r b1 = cycle=[1.0]
  e b1 = cycle=[3.0]
  r b2 = pre=[4.0] cycle=[2.0, 5.0]
}
"""


@pytest.mark.parametrize("command", ["solve", "report"])
def test_a_generated_assignment_over_periodic_data_is_solved(tmp_path, command):
    project = tmp_path / "assigned.ug"
    project.write_text(GENERATED_ASSIGNMENT)
    proc = run_cli(command, str(project))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "route: generated" in proc.stdout
    assert "branch b1: i = ⟨gen=i(b1) nmax=100⟩" in proc.stdout
    assert "laws: all hold" in proc.stdout


def test_solve_respects_the_tolerance_flag():
    strict = run_cli("solve", "projects/divider.ug", "--tol", "1e-30")
    assert strict.returncode == 0
    assert "VIOLATED" in strict.stdout
    assert "laws:" in strict.stdout and "all hold" not in strict.stdout


def test_json_to_an_unwritable_path_exits_2_and_keeps_stdout(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "out.json"
    proc = run_cli("build", "projects/tower.ug", "--json", str(target))
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write --json file: No such file or directory\n"
    assert proc.stdout == (GOLDEN / "build_tower.txt").read_text()
    assert not target.exists()


def test_json_to_an_unwritable_path_after_a_failure_exits_2(tmp_path):
    # the solver failure alone exits 5; the file that cannot be written wins
    proc = run_cli("solve", str(FAULTS / "fault_solver.ug"), "--json", str(tmp_path))
    assert proc.returncode == 2
    first, second = proc.stderr.splitlines()
    assert first.startswith("error: ") and "--json" not in first
    assert second == "error: cannot write --json file: Is a directory"
    assert proc.stdout == ""


def modules_loaded_by(commands, pattern="*.ug") -> set:
    """The modules that running ``commands`` on the shipped projects that
    match ``pattern`` loads in a fresh interpreter, beyond those loaded
    before the script's imports."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io\n"
        "from pathlib import Path\n"
        "from ultragraph import cli\n"
        f"for path in sorted(Path('projects').glob({pattern!r})):\n"
        f"    for command in {tuple(commands)!r}:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            cli.main([command, str(path)])\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout))


def test_build_and_classify_do_not_import_numpy():
    # Only solving needs numpy, and only networks need the network module;
    # the exact commands must not pay for them, nor for dataclasses or json.
    loaded = modules_loaded_by(("build", "classify"))
    assert "ultragraph.ultrapower" in loaded
    assert not loaded & {"numpy", "ultragraph.network", "dataclasses", "json"}
    assert {"numpy", "ultragraph.network"} <= modules_loaded_by(("solve",))


def test_a_project_without_networks_never_loads_the_network_module():
    proc = run_cli("solve", "projects/tower.ug")
    assert proc.returncode == 0
    assert proc.stdout == "== solve ==\n(no networks)\n"
    loaded = modules_loaded_by(("validate", "solve", "report"), "tower.ug")
    assert "ultragraph.project" in loaded
    assert "ultragraph.network" not in loaded


class Recorder:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@pytest.mark.parametrize(
    "lines",
    [
        [],
        [""],
        ["", ""],
        ["one"],
        [f"  line {k}" for k in range(30_000)],
        ["x" * 200_000, "", "short", "y" * 70_000],
        ["== build =="] + ["z" * 40_000] * 40 + [f"a{k}" for k in range(5_000)],
    ],
    ids=["none", "blank", "two-blank", "one", "many-short", "long", "short-then-long"],
)
def test_output_is_written_as_one_join_would_be_in_bounded_pieces(lines):
    from ultragraph import cli

    out = Recorder()
    cli._write_lines(lines, out)
    assert "".join(out.writes) == "\n".join(lines) + "\n"
    longest = max((len(line) + 1 for line in lines), default=1)
    # a piece holds about _CHUNK characters, or a single longer line
    assert max(map(len, out.writes)) <= 2 * max(cli._CHUNK, longest)


def test_main_writes_through_the_chunked_writer(monkeypatch, capsys):
    from ultragraph import cli

    written = []
    write_lines = cli._write_lines

    def recording(lines, out):
        written.append(len(lines))
        write_lines(lines, out)

    monkeypatch.setattr(cli, "_write_lines", recording)
    assert cli.main(["build", str(ROOT / "projects" / "tower.ug")]) == 0
    golden = (GOLDEN / "build_tower.txt").read_text()
    assert capsys.readouterr().out == golden
    assert written == [golden.count("\n")]


HUGE = "9" * 400  # an integer too large for a float


@pytest.mark.parametrize(
    "old,new,index",
    [
        ("r b1 = cycle=[1.0]", f"r b1 = cycle=[{HUGE}]", 0),
        ("r b2 = gen=affine(1, 1) nmax=512", f"r b2 = gen=affine({HUGE}, 1) nmax=10", 1),
    ],
    ids=["cycle", "affine"],
)
@pytest.mark.parametrize("command", ["solve", "report"])
def test_a_branch_value_too_large_for_a_float_is_a_solver_failure(tmp_path, old, new, index, command):
    project = tmp_path / "huge.ug"
    project.write_text((ROOT / "projects" / "divider.ug").read_text().replace(old, new))
    proc = run_cli(command, str(project))
    assert proc.returncode == 5, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"at index n={index}" in proc.stderr and HUGE not in proc.stderr


LONG = "9" * 5000  # more digits than one integer conversion reads


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() >= len(LONG),
    reason="the interpreter converts integers of any length",
)
@pytest.mark.parametrize(
    "args,where",
    [
        (("--oracle", f"pin in mod=2 : {LONG}"), "line 1, col 16"),
        (("--oracle", f"pin in mod={LONG} : 1"), "line 1, col 12"),
        ((), "line 20, col 17"),
    ],
    ids=["oracle-residue", "oracle-modulus", "project"],
)
def test_an_integer_literal_past_the_conversion_limit_is_a_syntax_error(tmp_path, args, where):
    project = tmp_path / "long.ug"
    text = (ROOT / "projects" / "divider.ug").read_text()
    project.write_text(text if args else text.replace("r b1 = cycle=[1.0]", f"r b1 = cycle=[{LONG}]"))
    proc = run_cli("validate", str(project), *args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: {where}: integer literal of {len(LONG)} characters is too long\n"


def test_the_kept_parser_answers_every_call_as_a_fresh_one(monkeypatch, capsys, tmp_path):
    from ultragraph import cli

    sidecar = tmp_path / "out.json"
    calls = [
        ["solve", "projects/divider.ug", "--tol", "1e-3"],
        ["solve", "projects/divider.ug", "--tol", "-1", "--json", str(sidecar)],
        ["build", "projects/tower.ug", "--mu-max", "1", "--json", str(sidecar)],
        ["classify", "projects/alternating.ug", "--oracle", "pin in mod=2 : 1"],
        ["frobnicate", "projects/loop.ug", "--json", str(sidecar)],
        ["build", "projects/tower.ug"],
        ["report", "projects/loop.ug", "--horizon", "0", "--json", str(sidecar)],
        ["validate", "projects/loop.ug", "--horizon", "abc"],
        ["classify"],
        [],
        ["solve", "--help"],
        ["validate", "projects/loop.ug", "--json", str(sidecar)],
    ]

    def run(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = f"exit {exc.code}"
        out, err = capsys.readouterr()
        written = sidecar.read_text() if sidecar.exists() else None
        sidecar.unlink(missing_ok=True)
        return code, out, err, written

    monkeypatch.chdir(ROOT)
    built = []
    build = cli.build_arg_parser
    monkeypatch.setattr(cli, "build_arg_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    kept = [run(argv) for argv in calls]
    assert built == [1]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    cli._parser.cache_clear()
    assert kept == fresh
    assert [outcome[0] for outcome in kept] == [0, 2, 0, 0, 2, 0, 2, 2, 2, 2, "exit 0", 0]
    assert json.loads(kept[4][3])["lines"] == [kept[4][2].splitlines()[-1]]
