"""Expected answers computed apart from the program, and output checks.

Nothing here imports ``ultragraph``. The oracle's selected integer comes
from a first-hit search over the tower's residue class; "almost all n"
questions on periodic data are answered at one late index in the selected
class (Łoś's theorem for eventually periodic data); networks are solved by
plain Gaussian elimination in the program's gauge (the smallest node id of
the connected grid sits at potential zero).

Each check returns one ``Outcome`` per operation: a printed answer that
was compared with its expected value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm

REL_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    ok: bool
    known_fault: bool = False  # printed "infinitesimal, st=0.0" where the limit is nonzero
    note: str = ""


# -- the oracle --------------------------------------------------------------------


def _min_period(cycle) -> int:
    """Period of a bit pattern as an index set (1 for finite/cofinite)."""
    if len(set(cycle)) == 1:
        return 1
    p = len(cycle)
    return next(d for d in range(1, p + 1) if p % d == 0 and list(cycle) == list(cycle[:d]) * (p // d))


def _pin_member(spec, n: int) -> bool:
    """Membership of n in a pinned set, n at or beyond its preperiod."""
    if spec[0] == "mod":
        _, modulus, residue = spec
        return n % modulus == residue % modulus
    _, pre, cycle = spec
    return bool(pre[n]) if n < len(pre) else bool(cycle[(n - len(pre)) % len(cycle)])


def _pin_period_and_head(spec) -> tuple[int, int]:
    if spec[0] == "mod":
        return spec[1], 0
    return _min_period(spec[2]), len(spec[1])


def selected_integer(tower, pins) -> tuple[int, int]:
    """(selected integer, modulus printed in the oracle line).

    The integer is the first one in the tower's residue class whose class
    modulo every pin period lies inside (or outside) the pinned set beyond
    its preperiod, as the pin's verdict demands.
    """
    base_mod, base_res = 1, 0
    for modulus, residue in tower:
        merged = lcm(base_mod, modulus)
        r = next(
            (x for x in range(base_res, merged, base_mod) if x % modulus == residue % modulus),
            None,
        )
        if r is None:
            raise ValueError("incompatible tower")
        base_mod, base_res = merged, r
    shapes = [_pin_period_and_head(spec) for _, spec in pins]
    modulus = lcm(base_mod, *(p for p, _ in shapes)) if shapes else base_mod
    head = max((h for _, h in shapes), default=0)

    def admissible(x: int) -> bool:
        for (verdict, spec), (period, _) in zip(pins, shapes):
            late = x + period * (head // period + 1)
            if _pin_member(spec, late) != (verdict == "in"):
                return False
        return True

    for x in range(base_res, modulus, base_mod):
        if admissible(x):
            return x, modulus
    for x in range(modulus):
        if admissible(x):
            return x, modulus
    raise ValueError("pins leave no admissible integer")


def late_index(selected: int, periods, head: int) -> int:
    """An index beyond every preperiod, congruent to ``selected`` mod every period."""
    step = lcm(*periods) if periods else 1
    return selected + step * (head // step + 1)


def unroll(pre, cycle, n: int):
    return pre[n] if n < len(pre) else cycle[(n - len(pre)) % len(cycle)]


def _oracle_line(stdout: str, selected: int, modulus: int) -> Outcome:
    want = f"oracle: tower={selected} (mod {modulus})"
    lines = [ln for ln in stdout.splitlines() if ln.startswith("oracle: ")]
    ok = bool(lines) and all(ln == want or ln.startswith(want + ";") for ln in lines)
    return Outcome(ok, note="" if ok else f"expected {want!r}, got {lines[:1]!r}")


# -- wide-build ----------------------------------------------------------------------

_MEMBER_RE = re.compile(r"^(\S+) \((.*)\)$")


def check_build(data: dict, stdout: str) -> list[Outcome]:
    selected, modulus = selected_integer(data["tower"], data["pins"])
    pre, cycle = data["assignment"]
    queries = data["queries"]
    periods = [modulus, len(cycle)] + [len(q["cycle"]) for q in queries]
    head = max([len(pre)] + [len(q["pre"]) for q in queries])
    n = late_index(selected, periods, head)
    owner = data["owners"][unroll(pre, cycle, n)]
    expected_owner = {f"tip:{t}": owner[t] for t in data["tips"]}
    for q in queries:
        expected_owner[q["name"]] = owner[unroll(q["pre"], q["cycle"], n)]
    groups: dict[str, set] = {}
    for label, node in expected_owner.items():
        groups.setdefault(node, set()).add(label)

    printed: dict[str, tuple[frozenset, str]] = {}
    lines = stdout.splitlines()
    for k, line in enumerate(lines):
        if line.startswith("level 1: "):
            count = int(line.split()[2])
            for node_line in lines[k + 1 : k + 1 + count]:
                inner = node_line.partition("{ ")[2].rpartition(" }")[0]
                members = [m.groups() for m in map(_MEMBER_RE.match, inner.split("; ")) if m]
                labels = frozenset(label for label, _ in members)
                for label, cls in members:
                    printed[label] = (labels, cls)
    outcomes = [_oracle_line(stdout, selected, modulus)]
    for label, node in sorted(expected_owner.items()):
        got = printed.get(label)
        ok = got is not None and got[0] == groups[node] and got[1] == "tip of rank 0"
        outcomes.append(Outcome(ok, note="" if ok else f"{label}: node {got} != {sorted(groups[node])}"))
    return outcomes


# -- pinned-classify -------------------------------------------------------------------


def check_classify(data: dict, stdout: str) -> list[Outcome]:
    selected, modulus = selected_integer(data["tower"], data["pins"])
    pre, cycle = data["assignment"]
    queries = data["queries"]
    periods = [modulus, len(cycle)] + [len(q["cycle"]) for q in queries]
    head = max([len(pre)] + [len(q["pre"]) for q in queries] + [len(s[1]) for _, s in data["pins"] if s[0] == "bits"])
    n = late_index(selected, periods, head)
    proto = unroll(pre, cycle, n)
    printed = {}
    for line in stdout.splitlines():
        if line.startswith("query "):
            name, _, text = line[len("query "):].partition(": ")
            printed[name] = text
    outcomes = [_oracle_line(stdout, selected, modulus)]
    for q in queries:
        kind, ident = unroll(q["pre"], q["cycle"], n)
        if kind == "tip":
            want = "tip of rank 2"
        else:
            want = f"exceptional node of standard rank {data['ranks'][proto][int(ident[1:])]}"
        got = printed.get(q["name"])
        outcomes.append(Outcome(got == want, note="" if got == want else f"{q['name']}: {got!r} != {want!r}"))
    return outcomes


# -- networks --------------------------------------------------------------------------


def solve_network(nodes, branches, r: dict, e: dict) -> dict:
    """Potentials, currents and voltages of a connected resistive network.

    Nodal analysis with the smallest node id at potential zero, by Gaussian
    elimination with partial pivoting. Branch b from u to v carries
    i = (phi_u - phi_v + e_b) / r_b; its voltage is phi_u - phi_v.
    """
    order = sorted(nodes)
    index = {w: k - 1 for k, w in enumerate(order)}  # order[0] is the reference
    m = len(order) - 1
    a = [[0.0] * (m + 1) for _ in range(m)]
    for b, (u, v) in branches.items():
        g = 1.0 / r[b]
        src = e.get(b, 0.0) * g
        iu, iv = index[u], index[v]
        if iu >= 0:
            a[iu][iu] += g
            a[iu][m] -= src
            if iv >= 0:
                a[iu][iv] -= g
        if iv >= 0:
            a[iv][iv] += g
            a[iv][m] += src
            if iu >= 0:
                a[iv][iu] -= g
    for col in range(m):
        pivot = max(range(col, m), key=lambda row: abs(a[row][col]))
        a[col], a[pivot] = a[pivot], a[col]
        for row in range(col + 1, m):
            f = a[row][col] / a[col][col]
            if f:
                for c in range(col, m + 1):
                    a[row][c] -= f * a[col][c]
    x = [0.0] * m
    for row in range(m - 1, -1, -1):
        acc = a[row][m] - sum(a[row][c] * x[c] for c in range(row + 1, m))
        x[row] = acc / a[row][row]
    phi = {w: (0.0 if index[w] < 0 else x[index[w]]) for w in order}
    values = {}
    for b, (u, v) in branches.items():
        drop = phi[u] - phi[v]
        values[("i", b)] = (drop + e.get(b, 0.0)) / r[b]
        values[("v", b)] = drop
    for w in order:
        values[("phi", w)] = phi[w]
    return values


_QTY_RE = re.compile(
    r"^(?:branch (\S+): ([iv])|node (\S+): phi) = ⟨.*⟩ :: (\w+)(?:, st=(\S+))?$"
)


def _sections(stdout: str) -> dict[str, list[str]]:
    """Lines of each '== solve NAME ==' section."""
    out: dict[str, list[str]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== solve ") and line.endswith(" =="):
            current = out.setdefault(line[len("== solve "):-3], [])
        elif line.startswith("== "):
            current = None
        elif current is not None:
            current.append(line)
    return out


def _quantities(lines: list[str]) -> dict:
    found = {}
    for line in lines:
        m = _QTY_RE.match(line)
        if m:
            bid, kind, node, cls, st = m.groups()
            key = (kind, bid) if bid else ("phi", node)
            found[key] = (cls, None if st is None else float(st))
    return found


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def _laws(lines: list[str]) -> Outcome:
    ok = any(line.startswith("laws: all hold") for line in lines)
    return Outcome(ok, note="" if ok else "laws line does not read 'all hold'")


def check_periodic_solve(data: dict, stdout: str) -> list[Outcome]:
    selected, _ = selected_integer(data["tower"], data["pins"])
    seqs = data["data"]
    periods = [len(c) for _, c in seqs.values()]
    head = max(len(p) for p, _ in seqs.values())
    n = late_index(selected, periods, head)
    r = {b: unroll(*seqs[(b, "r")], n) for b in data["branches"]}
    e = {b: unroll(*seqs[(b, "e")], n) for b in data["branches"] if (b, "e") in seqs}
    want = solve_network(data["nodes"], data["branches"], r, e)
    section = _sections(stdout).get("mesh", [])
    got = _quantities(section)
    outcomes = [Outcome("route: periodic" in section, note="route is not periodic")]
    for key, value in sorted(want.items()):
        cls, st = got.get(key, (None, None))
        ok = st is not None and _close(st, value) and (cls == "infinitesimal") == (st == 0.0)
        outcomes.append(Outcome(ok, note="" if ok else f"{key}: {cls} st={st} != {value!r}"))
    outcomes.append(_laws(section))
    return outcomes


# -- generated-solve ---------------------------------------------------------------------


def limit_values(branches, nodes, r, e, growing) -> dict:
    """The n -> infinity limit: the growing branch opened, its current zero."""
    gb = growing[0]
    kept = {b: ends for b, ends in branches.items() if b != gb}
    values = solve_network(nodes, kept, r, e)
    u, v = branches[gb]
    values[("i", gb)] = 0.0
    values[("v", gb)] = values[("phi", u)] - values[("phi", v)]
    return values


def _zero_tol(values: dict) -> float:
    return REL_TOL * max([1.0] + [abs(x) for x in values.values()])


def check_generated_solve(data: dict, stdout: str) -> list[Outcome]:
    sections = _sections(stdout)
    outcomes = []
    for name, (r, e, growing) in sorted(data["networks"].items()):
        section = sections.get(name, [])
        limit = limit_values(data["branches"], data["nodes"], r, e, growing)
        tol = _zero_tol(limit)
        got = _quantities(section)
        outcomes.append(Outcome("route: generated" in section, note=f"{name}: route is not generated"))
        for key, lv in sorted(limit.items()):
            cls, st = got.get(key, (None, None))
            if cls == "unknown":
                ok = st is None
            elif cls in ("infinitesimal", "finite") and st is not None:
                ok = (cls == "infinitesimal") == (abs(lv) <= tol) and abs(st - lv) <= tol + REL_TOL * abs(lv)
            else:
                ok = False
            outcomes.append(
                Outcome(
                    ok,
                    known_fault=not ok and cls == "infinitesimal" and st == 0.0 and abs(lv) > tol,
                    note="" if ok else f"{name} {key}: printed {cls} st={st}, limit {lv!r}",
                )
            )
        outcomes.append(_laws(section))
    return outcomes


CHECKS = {
    "wide-build": check_build,
    "pinned-classify": check_classify,
    "periodic-solve": check_periodic_solve,
    "generated-solve": check_generated_solve,
}
