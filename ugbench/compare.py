"""Compare two sets of benchmark results, metric by metric.

Each set is a file holding the last stdout line of several runs of one
workload (one JSON object per line), for example:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      python3 ugbench/run.py --workload exact --seed $seed --seconds 60 --trace 0 | tail -n 1
    done > before.jsonl
    python3 ugbench/compare.py before.jsonl after.jsonl

For every metric it prints each set's median and spread (distance between
the first and third quartile, as a share of the median) and the change of
the median. An end-to-end metric whose median got worse by more than its
bound in ``BENCHMARK.json`` is marked REGRESSION; a change smaller than
the spread of the first set is marked unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[dict[str, list[float]], set[tuple[int, int]]]:
    values: dict[str, list[float]] = {}
    shares = set()
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        result = json.loads(line)
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, shares


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (a, shares_a), (b, shares_b) = load(argv[0]), load(argv[1])
    print(f"{'metric':32s} {'median A':>12s} {'spread A':>9s} {'median B':>12s} {'spread B':>9s} {'change':>8s}")
    worse_than_bound = False
    for name in a:
        if name not in b:
            continue
        ma, mb = statistics.median(a[name]), statistics.median(b[name])
        change = (mb - ma) / ma if ma else 0.0
        lower = meta.get(name, {}).get("better", "lower") == "lower"
        worse = change if lower else -change
        verdict = ""
        bound = meta.get(name, {}).get("bound")
        if bound is not None and worse > bound:
            verdict = "REGRESSION"
            worse_than_bound = True
        elif abs(change) <= spread(a[name]):
            verdict = "unresolved"
        print(f"{name:32s} {ma:12.6g} {spread(a[name]):9.3f} {mb:12.6g} {spread(b[name]):9.3f} {change:+8.3f} {verdict}")
    for label, shares in (("A", shares_a), ("B", shares_b)):
        rates = sorted({f / t for f, t in shares})
        print(f"failed share {label}: {', '.join(f'{r:.6f}' for r in rates)}")
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
