"""Command line interface over project files.

Commands:

* ``validate`` — graph axioms and cross-references; exit 3 on violations.
* ``build``    — nonstandard node layers for every family (plus queries).
* ``classify`` — tip/node kind and rank for every query extremity.
* ``solve``    — operating points and law checks for every network.
* ``report``   — all of the above in one document.

All output is byte-deterministic for a given project file and flags: names
are sorted, floats rendered via repr, and no timestamps or file paths
appear. The audit trail follows: the lines the oracle recorded, one per
decision, with each distinct line listed once in the order first
recorded. Exit codes: 0 success, 2 unreadable project, flag value
out of range or unwritable ``--json`` file, 3 structural or validation
failure, 4 undecidable question, 5 solver failure. ``--json`` gets the
command, exit code and lines on every exit, so no file from an earlier run
is left behind: a command line argparse rejects writes argparse's error
line, and an unreadable project its ``error:`` line.

A command imports only what it runs: :mod:`ultragraph.network` only to
resolve a network (``validate``, ``solve`` and ``report`` on a project
with networks), numpy only to solve one, and ``json`` only to write
``--json``.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from pathlib import Path

from .errors import (
    BeyondHorizon,
    DivisionByZeroClass,
    NoCertificate,
    ProjectError,
    SolverFailure,
    TraitViolated,
    UltragraphError,
    Undecidable,
)
from . import sequences as sq
from .graphs import validate
from .hyperreal import Hypernatural, Hyperreal, MagnitudeClass
from .oracle import FilterOracle
from .project import Project, parse_project
from .ultrapower import build_ns_graph, classify

_EXIT_OK = 0
_EXIT_PARSE = 2
_EXIT_VALIDATION = 3
_EXIT_UNDECIDABLE = 4
_EXIT_SOLVER = 5

_CHUNK = 1 << 16  # characters of output written at once

_COMMANDS = {
    "validate": "check graph axioms and references",
    "build": "assemble nonstandard node layers per family",
    "classify": "classify query extremities",
    "solve": "compute operating points and verify circuit laws",
    "report": "full report: validate, build, classify, solve",
}


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ProjectError):
        return _EXIT_PARSE
    if isinstance(exc, (Undecidable, BeyondHorizon, NoCertificate)):
        return _EXIT_UNDECIDABLE
    if isinstance(exc, (SolverFailure, DivisionByZeroClass)):
        return _EXIT_SOLVER
    if isinstance(exc, (UltragraphError, ValueError)):
        return _EXIT_VALIDATION
    raise exc


class _Rejected(Exception):
    """argparse refused the command line: the refusing parser and its message."""


class _ArgumentParser(argparse.ArgumentParser):
    """A parser whose refusal raises ``_Rejected`` instead of exiting, so
    that ``main`` can still write ``--json``."""

    def error(self, message):
        raise _Rejected(self, message)


def _checked(convert, ok, bound: str):
    """An argparse type that also rejects a converted value that is not ``ok``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{bound}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse names it when ``convert`` refuses the text
    return parse


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ultragraph",
        description="sequences of transfinite graphs, their nonstandard limits, "
        "and hyperreal operating points",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("file", help="project file")
        cmd.add_argument(
            "--oracle",
            default=None,
            metavar="STMTS",
            help="extra ';'-separated oracle statements, e.g. 'pin in mod=2 : 1'",
        )
        cmd.add_argument(
            "--horizon",
            type=_checked(int, lambda n: n >= 1, "must be at least 1"),
            default=64,
            metavar="N",
            help="window for spot checks and audits, at least 1 (default 64)",
        )
        cmd.add_argument(
            "--tol",
            type=_checked(float, lambda t: 0 <= t < math.inf, "must be finite and nonnegative"),
            default=1e-9,
            metavar="T",
            help="relative tolerance for law residuals, finite and >= 0 (default 1e-9)",
        )
        cmd.add_argument(
            "--mu-max",
            type=_checked(int, lambda m: m >= 0, "must be at least 0"),
            default=4,
            metavar="MU",
            help="highest finite level to build, at least 0 (default 4)",
        )
        cmd.add_argument(
            "--json",
            default=None,
            metavar="PATH",
            help="also write the report lines as JSON",
        )
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built by the first one: a parse,
    even one it refuses, leaves it as it was."""
    return build_arg_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
    except _Rejected as exc:
        parser, message = exc.args
        parser.print_usage(sys.stderr)
        line = f"{parser.prog}: error: {message}"
        print(line, file=sys.stderr)
        path = _json_path(argv)
        if path:
            command = argv[0] if argv[0] in _COMMANDS else None
            _write_json(path, command, [line], _EXIT_PARSE)
        return _EXIT_PARSE
    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        message = f"error: cannot read project: {exc.strerror}"
        print(message, file=sys.stderr)
        if args.json:
            return _write_json(args.json, args.command, [message], _EXIT_PARSE)
        return _EXIT_PARSE
    audit: list[str] = []
    try:
        project = parse_project(text)
        oracle = project.oracle(extra=args.oracle, audit=audit)
        lines, code = _run(args.command, project, oracle, args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        code = _exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        if args.json:
            code = _write_json(args.json, args.command, [f"error: {exc}"], code)
        return code
    lines.extend(_audit_lines(audit))
    _write_lines(lines, sys.stdout)
    if args.json:
        code = _write_json(args.json, args.command, lines, code)
    return code


def _json_path(argv: list[str]) -> str | None:
    """The ``--json`` value of a rejected command line, read by a parser that
    knows no other flag; None when it has none."""
    probe = _ArgumentParser(add_help=False)
    probe.add_argument("--json")
    try:
        return probe.parse_known_args(argv)[0].json
    except _Rejected:
        return None


def _write_lines(lines: list[str], out) -> None:
    """Write what ``print("\\n".join(lines))`` writes, one run of lines at a
    time, so the whole text is never held at once. Each run aims at about
    ``_CHUNK`` characters by the characters per line of the run before it,
    and has at most twice its lines."""
    start, step = 0, 1
    while True:
        text = "\n".join(lines[start : start + step])
        out.write(text)
        out.write("\n")
        start += step
        if start >= len(lines):
            return
        step = max(1, min(2 * step, step * _CHUNK // (len(text) + 1)))


def _write_json(path: str, command: str, lines: list[str], code: int) -> int:
    """Write the lines and exit code as JSON; the exit code, which becomes 2
    when the file cannot be written."""
    import json

    payload = {"command": command, "exit": code, "lines": lines}
    try:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write --json file: {exc.strerror}", file=sys.stderr)
        return _EXIT_PARSE
    return code


def _audit_lines(audit: list[str]) -> list[str]:
    """Each distinct audit line once, in the order first recorded."""
    if not audit:
        return []
    return ["", "== audit ==", *map("  ".__add__, dict.fromkeys(audit))]


def _run(command: str, project: Project, oracle: FilterOracle, args) -> tuple[list[str], int]:
    lines: list[str] = []
    code = _EXIT_OK
    if command in ("validate", "report"):
        section, ok = _validate_section(project)
        lines.extend(section)
        if not ok:
            code = _EXIT_VALIDATION
            if command == "validate":
                return lines, code
    if command == "validate":
        return lines, code
    if command in ("build", "report"):
        lines.extend(_build_section(project, oracle, args))
    if command in ("classify", "report"):
        lines.extend(_classify_section(project, oracle, args))
    if command in ("solve", "report"):
        lines.extend(_solve_section(project, oracle, args))
    return lines, code


# -- sections ----------------------------------------------------------------------------


def _validate_section(project: Project) -> tuple[list[str], bool]:
    lines = ["== validate =="]
    all_ok = True
    for name in sorted(project.graphs):
        report = validate(project.graphs[name])
        if report.passed:
            lines.append(f"graph {name}: ok")
        else:
            all_ok = False
            lines.append(f"graph {name}: {len(report.violations)} violation(s)")
            lines.extend(f"  {v.render()}" for v in report.violations)
        lines.extend(f"  note: {note}" for note in report.notes)
    for name in sorted(project.families):
        family = project.family(name)
        lines.append(
            f"family {name}: ok (rank {family.rank}, "
            f"{len(family.prototypes)} prototype(s))"
        )
    for name in sorted(project.networks):
        network = project.network(name)
        lines.append(f"network {name}: ok ({len(network.data)} branch(es))")
    for name in sorted(project.queries):
        spec = project.queries[name]
        project.query(name)
        lines.append(f"query {name}: ok (level {spec.level})")
    return lines, all_ok


def _queries_for(project: Project, family_name: str) -> dict:
    grouped: dict = {}
    for qname in sorted(project.queries):
        spec = project.queries[qname]
        if spec.family == family_name:
            grouped.setdefault(spec.level, []).append(project.query(qname))
    return grouped


def _build_section(project: Project, oracle: FilterOracle, args) -> list[str]:
    lines: list[str] = []
    for name in sorted(project.families):
        family = project.family(name)
        queries = _queries_for(project, name)
        ns_graph = build_ns_graph(
            family,
            oracle,
            mu_max=args.mu_max,
            queries=queries,
            audit_upto=args.horizon,
        )
        lines.append(f"== build {name} ==")
        lines.append(f"oracle: {oracle.describe()}")
        lines.append(f"{family.describe()}")
        lines.append("0-node classes: " + (", ".join(ns_graph.zero_classes) or "(none)"))
        lines.append("branch classes: " + (", ".join(ns_graph.branch_classes) or "(none)"))
        for level, layer in ns_graph.layers.items():
            lines.append(f"level {level}: {len(layer.nodes)} node(s)")
            for node in layer.nodes:
                lines.append(f"  {node.describe()}")
            lines.extend(f"  note: {note}" for note in layer.notes)
        lines.extend(f"note: {note}" for note in ns_graph.notes)
        for level in sorted(queries):
            if level not in ns_graph.layers:
                lines.append(
                    f"note: queries at level {level} ignored (beyond --mu-max "
                    "or the family rank)"
                )
    return lines


def _classify_section(project: Project, oracle: FilterOracle, args) -> list[str]:
    lines = ["== classify =="]
    if not project.queries:
        lines.append("(no queries)")
        return lines
    lines.append(f"oracle: {oracle.describe()}")
    for name in sorted(project.queries):
        ext = project.query(name)
        result = classify(ext, oracle, check_upto=args.horizon)
        lines.append(f"query {name}: {result.describe()}")
        if isinstance(result.rank, Hypernatural):
            lines.append(f"  rank: {result.rank.describe()}")
    return lines


def _advisory_class(value: Hyperreal) -> Hyperreal:
    """Attach a zero-limit or growth certificate when samples support one.

    Only clear-cut patterns are promoted: decay toward zero, or at least a
    doubling of magnitude across the sample window (the bare record-setting
    rule of the unbounded trait would also pass convergent sequences, which
    is fine for user-declared traits but too eager for automatic labels).
    """
    if value.classify() is not MagnitudeClass.UNKNOWN:
        return value
    try:
        return value.certify(limit=0.0, monotone=True)
    except (TraitViolated, UltragraphError):
        pass
    window = min(64, int(sq.horizon(value.rep)))
    vals = [abs(v) for v in sq.values_window(value.rep, window)]
    early = max(vals[: window // 2 + 1]) if vals else 0.0
    if vals and max(vals) >= 2.0 * max(early, 1e-300):
        try:
            return value.certify(unbounded=True, monotone=True)
        except (TraitViolated, UltragraphError):
            pass
    return value


def _solve_section(project: Project, oracle: FilterOracle, args) -> list[str]:
    if not project.networks:
        return ["== solve ==", "(no networks)"]
    from .network import operating_point, verify_laws

    lines: list[str] = []
    for name in sorted(project.networks):
        network = project.network(name)
        op = operating_point(network, oracle)
        lines.append(f"== solve {name} ==")
        lines.append(f"oracle: {oracle.describe()}")
        lines.append(f"route: {op.route}")
        for bid in sorted(op.currents):
            i = _advisory_class(op.currents[bid])
            v = _advisory_class(op.voltages[bid])
            lines.append(f"branch {bid}: i = {i.describe()}")
            lines.append(f"branch {bid}: v = {v.describe()}")
        for node in sorted(op.potentials):
            phi = _advisory_class(op.potentials[node])
            lines.append(f"node {node}: phi = {phi.describe()}")
        report = verify_laws(op, tol=args.tol, check_upto=args.horizon)
        lines.append(f"laws: {'all hold' if report.ok else 'VIOLATIONS FOUND'} (tol {report.tol:g})")
        lines.extend(f"  {text}" for text in report.render_lines())
        lines.extend(f"note: {note}" for note in op.notes)
    return lines


if __name__ == "__main__":
    raise SystemExit(main())
