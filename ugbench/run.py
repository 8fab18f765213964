"""Benchmark the ultragraph CLI on one seeded workload.

    python3 ugbench/run.py --workload exact --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``, nothing is installed. A workload runs its kinds of generated
project (``WORKLOADS``) in turn; the projects live in ``.ugbench_run/``
while the run lasts, and a traced run writes its spans to
``.ugbench_out/``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. Each project gets one
``warm.py`` worker for the run, which makes a warm-up call at its start.
Every round then starts, one after the other, fresh interpreters that
import ``ultragraph.cli`` (``setup_s``), and per project one cold ``python
-m ultragraph CMD PROJECT`` process (``cold_s``, ``peak_rss_mb``) and one
timed in-process ``cli.main`` call in the project's worker (``warm_s``).
A sample sums one pass over the projects. Rounds repeat while the next
one fits in ``--seconds``; each metric is the median over its samples.

``--trace 1`` reports the per-layer metrics: in this process, rounds
alternate an untraced and a traced pass of ``cli.main`` calls, and each
layer metric is the median over the traced passes. The wrappers' own cost,
timed before each traced pass (``spans.Tracer.calibrate``), is taken out
of the layer times. Import costs come from fresh interpreters that time
``import numpy`` and then ``import ultragraph.cli``.

Every CLI output is checked against answers computed apart from the
program (``check.py``); each checked answer is one attempted operation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
import warm

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".ugbench_run"
OUT = ROOT / ".ugbench_out"
MIN_ROUNDS = 3
SETUP_PROBES = 3  # import probes per round

# Each workload runs its kinds of generated project in turn; one pass over
# them is one cold or warm sample. The kinds are described in gen.py.
WORKLOADS = {
    "exact": ("wide-build", "pinned-classify"),
    "solve": ("periodic-solve", "generated-solve"),
}

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import ultragraph.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

# Layer -> the span names whose outermost calls make up its time.
LAYERS = {
    "project.parse": ["project.parse_project"],
    "project.resolve": [
        "project.Project.oracle", "project.Project.family",
        "project.Project.network", "project.Project.query",
    ],
    "oracle.construct": ["oracle.FilterOracle.__init__", "oracle.FilterOracle.pin"],
    "oracle.decide": ["oracle.FilterOracle.decide"],
    "oracle.partition": ["oracle.FilterOracle.select_from_partition"],
    "indexsets.periodic": ["indexsets.IndexSet.eventually_periodic"],
    "indexsets.residue_class": ["indexsets.IndexSet.residue_class"],
    "sequences.agreement": ["sequences.agreement_set"],
    "sequences.pointwise": ["sequences.pointwise"],
    "sequences.trait_check": ["sequences.trait_check"],
    "hyperreal.classify": ["hyperreal.Hyperreal.classify"],
    "hyperreal.arith": ["hyperreal.Hyperreal._arith"],
    "hyperreal.eq": ["hyperreal.Hyperreal.eq", "hyperreal.hr_eq"],
    "hyperreal.describe": ["hyperreal.Hyperreal.describe"],
    "graphs.owner_of": ["graphs.StandardGraph.owner_of"],
    "graphs.extremity_list": ["graphs.StandardGraph.extremity_list"],
    "ultrapower.shorted": ["ultrapower.ns_shorted"],
    "ultrapower.build_nodes": ["ultrapower.build_ns_nodes"],
    "ultrapower.ns_extremity": ["ultrapower.ns_extremity"],
    "ultrapower.classify": ["ultrapower.classify"],
    "network.solve_standard": ["network.solve_standard"],
    "network.operating_point": ["network.operating_point"],
    "network.verify_laws": ["network.verify_laws"],
}
# Count metric -> the span name whose calls it counts.
CALLS = {
    "oracle.decide_calls": "oracle.FilterOracle.decide",
    "oracle.partition_calls": "oracle.FilterOracle.select_from_partition",
    "indexsets.periodic_built": "indexsets.IndexSet.eventually_periodic",
    "sequences.agreement_calls": "sequences.agreement_set",
    "sequences.trait_check_calls": "sequences.trait_check",
    "hyperreal.classify_calls": "hyperreal.Hyperreal.classify",
    "graphs.owner_of_calls": "graphs.StandardGraph.owner_of",
    "ultrapower.shorted_calls": "ultrapower.ns_shorted",
    "ultrapower.classify_calls": "ultrapower.classify",
    "network.solve_standard_calls": "network.solve_standard",
}


class Tally:
    """Operations attempted and failed over every checked CLI output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self._checked: dict[tuple[str, str], list[check.Outcome]] = {}  # identical outputs check alike

    def add(self, case: gen.Case, stdout: str, exit_code: int) -> None:
        outcomes = self._checked.get((case.kind, stdout))
        if outcomes is None:
            outcomes = check.CHECKS[case.kind](case.data, stdout)
            self._checked[(case.kind, stdout)] = outcomes
        self.attempted += len(outcomes)
        for outcome in outcomes:
            if not outcome.ok:
                self.failed += 1
                if not outcome.known_fault:
                    self.unexpected.append(outcome.note)
        if exit_code != 0:
            self.unexpected.append(f"{case.kind}: exit code {exit_code}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(argv: list[str], stdout_path: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child process."""
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=_child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class WarmWorker:
    """A ``warm.py`` process that makes one timed ``cli.main`` call on request."""

    def __init__(self, case: gen.Case, project: Path, workdir: Path, tally: Tally):
        self.case, self.tally = case, tally
        self.out = workdir / f"warm-{case.kind}.out"
        self.proc = subprocess.Popen(
            [sys.executable, warm.__file__, str(self.out), case.command, str(project)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
        )
        self._result()  # the warm-up call, made as the worker starts

    def _result(self) -> float:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.case.kind}: warm worker ended, exit code {self.proc.wait()}")
        result = json.loads(line)
        self.tally.add(self.case, self.out.read_text(), result["exit"])
        return result["seconds"]

    def call(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return self._result()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure(parts: list[tuple[gen.Case, Path]], workdir: Path, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics; a cold or warm sample is one pass over every part.

    Each part keeps one warm worker for the whole run. A round makes
    ``SETUP_PROBES`` import probes, then per part one cold process and one
    warm call. Rounds repeat while the next one, as long as the last,
    still ends within ``seconds``.
    """
    setup, cold, rss, warm_s = [], [], [], []
    workers = []
    try:
        for case, project in parts:
            workers.append(WarmWorker(case, project, workdir, tally))
        start = time.perf_counter()
        deadline = start + seconds
        while len(cold) < MIN_ROUNDS or 2 * time.perf_counter() - start <= deadline:
            start = time.perf_counter()
            for _ in range(SETUP_PROBES):
                wall, _, code = _run_child([sys.executable, "-c", "import ultragraph.cli"], workdir / "setup.out")
                if code != 0:
                    tally.unexpected.append(f"import exit code {code}")
                setup.append(wall)
            cold_pass = peak_pass = warm_pass = 0.0
            for (case, project), worker in zip(parts, workers):
                out = workdir / "cold.out"
                wall, peak, code = _run_child([sys.executable, "-m", "ultragraph", case.command, str(project)], out)
                tally.add(case, out.read_text(), code)
                cold_pass += wall
                peak_pass = max(peak_pass, peak)
                warm_pass += worker.call()
            cold.append(cold_pass)
            rss.append(peak_pass)
            warm_s.append(warm_pass)
    finally:
        for worker in workers:
            worker.close()
    med = statistics.median
    print(f"rounds: {len(cold)}")
    for name, samples in (("setup_s", setup), ("cold_s", cold), ("warm_s", warm_s)):
        q1, q2, q3 = statistics.quantiles(samples, n=4)
        print(f"{name} samples: {len(samples)}, min {min(samples):.4g}, quartiles {q1:.4g} {q2:.4g} {q3:.4g}")
    return {
        "setup_s": _metric(med(setup), "s"),
        "cold_s": _metric(med(cold), "s"),
        "warm_s": _metric(med(warm_s), "s"),
        "peak_rss_mb": _metric(med(rss), "MB"),
    }


def trace(parts: list[tuple[gen.Case, Path]], workdir: Path, seconds: float, stem: str, tally: Tally) -> dict:
    """Per-layer metrics; each traced sample is one traced pass over every part."""
    import spans

    cli = warm.import_cli()
    groups = {name: layer for layer, names in LAYERS.items() for name in names}
    tracer = spans.Tracer(groups)
    for case, project in parts:  # warm-up: fills caches, untimed
        tally.add(case, *warm.timed_call(cli, [case.command, str(project)])[1:])
    untraced, rows, imports = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while len(rows) < MIN_ROUNDS or 2 * time.perf_counter() - start <= deadline:
        start = time.perf_counter()
        probe = workdir / "imports.out"
        _, _, code = _run_child([sys.executable, "-c", IMPORT_PROBE], probe)
        if code != 0:
            tally.unexpected.append(f"import probe exit code {code}")
        else:
            imports.append([float(x) for x in probe.read_text().split()])
        plain = traced = 0.0
        stdout_bytes = 0
        for case, project in parts:
            argv = [case.command, str(project)]
            elapsed, stdout, code = warm.timed_call(cli, argv)
            tally.add(case, stdout, code)
            plain += elapsed
        tracer.calibrate()  # also starts a new run of spans
        tracer.install()
        try:
            for case, project in parts:
                elapsed, stdout, code = warm.timed_call(cli, [case.command, str(project)])
                tally.add(case, stdout, code)
                traced += elapsed
                stdout_bytes += len(stdout.encode())
        finally:
            tracer.uninstall()
        untraced.append(plain)
        rows.append(_layer_row(tracer, traced, stdout_bytes))
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{stem}-layers.json", OUT / f"{stem}-spans.csv.gz")
    print(f"traced passes: {len(rows)}; spans of the last one in {OUT.name}/{stem}-spans.csv.gz")
    med = statistics.median
    metrics = {
        "setup.numpy_import_s": _metric(med(x[0] for x in imports) if imports else 0.0, "s"),
        "setup.package_import_s": _metric(med(x[1] for x in imports) if imports else 0.0, "s"),
    }
    print(f"wrapper cost, last pass: {tracer.cost[0] * 1e6:.3g} us per span, {tracer.cost[2] * 1e6:.3g} us per count")
    for name, unit in rows[0]:
        values = [row[(name, unit)] for row in rows]
        metrics[name] = _metric(statistics.median_low(values) if unit == "count" else med(values), unit)
    metrics["trace.overhead_s"] = _metric(metrics["trace.warm_s"]["value"] - med(untraced), "s")
    return metrics


def _layer_row(tracer, warm_s: float, stdout_bytes: int) -> dict:
    """(metric, unit) -> value for one traced pass."""
    row = {(f"{layer}_s", "s"): tracer.group_total[layer] for layer in LAYERS}
    row.update({(metric, "count"): tracer.calls_of(name) for metric, name in CALLS.items()})
    row[("oracle.audit_entries", "count")] = tracer.counts["audit_entries"]
    row[("sequences.trait_samples", "count")] = tracer.counts["trait_samples"]
    shorted = tracer.calls_of("ultrapower.ns_shorted")
    row[("ultrapower.shorted_hit_ratio", "ratio")] = tracer.counts["shorted_in"] / shorted if shorted else 0.0
    row[("cli.self_s", "s")] = tracer.self_seconds("cli.main")
    row[("cli.stdout_bytes", "bytes")] = stdout_bytes
    row[("trace.warm_s", "s")] = warm_s
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ultragraph" / "cli.py").is_file():
        print(f"error: no ultragraph sources under {SRC}", file=sys.stderr)
        return 2
    # The first import of a fresh checkout compiles the package; keep that
    # out of the timed set-up probes.
    subprocess.run([sys.executable, "-c", "import ultragraph.cli"], env=_child_env(), cwd=ROOT, check=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    parts = []
    for kind in WORKLOADS[args.workload]:
        case = gen.make(kind, args.seed)
        project = workdir / f"{kind}.ug"
        project.write_text(case.text)
        parts.append((case, project))
        print(f"{kind}: ultragraph {case.command}; input " + json.dumps(case.makeup, sort_keys=True))
    tally = Tally()
    try:
        if args.trace:
            metrics = trace(parts, workdir, args.seconds, f"{args.workload}-seed{args.seed}", tally)
        else:
            metrics = measure(parts, workdir, args.seconds, tally)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for note in tally.unexpected[:10]:
        print(f"check failed: {note}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
