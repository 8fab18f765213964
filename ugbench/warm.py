"""Serve timed in-process ``ultragraph.cli.main`` calls from one interpreter.

    python3 ugbench/warm.py STDOUT_FILE CMD PROJECT

Imports the CLI and makes one call at once, the warm-up, then one more for
each line read from stdin, until stdin closes. After each call it writes
the CLI's stdout to STDOUT_FILE, for the caller to check, and prints one
JSON line with the call's seconds and exit code. ``run.py`` keeps one such
worker per project for a run and asks it for one call per round, between
its cold processes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_cli():
    """Import ``ultragraph.cli`` from this checkout's ``src/`` only."""
    sys.path.insert(0, str(SRC))
    import ultragraph.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"ultragraph imported from {cli.__file__}, not from {SRC}")
    return cli


def timed_call(cli, argv: list[str]) -> tuple[float, str, int]:
    """(seconds, stdout, exit code) of one in-process ``cli.main`` call."""
    buf = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return seconds, buf.getvalue(), code


def main() -> int:
    out_path, argv = Path(sys.argv[1]), sys.argv[2:]
    cli = import_cli()

    def call() -> None:
        seconds, stdout, code = timed_call(cli, argv)
        out_path.write_text(stdout)
        print(json.dumps({"seconds": seconds, "exit": code}), flush=True)

    call()
    for _ in sys.stdin:
        call()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
