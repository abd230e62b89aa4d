"""The four workloads: their request lists and their output checks.

A request is the argv of one `permdom` invocation.  `Workload.requests(seed)`
builds the list one pass sends; the same seed always gives the same list.
`Workload.check(argv, payload, outputs)` returns None when the parsed stdout
of a request is correct and a one-line reason otherwise; `outputs` maps
every argv of the pass to its parsed stdout, for checks that compare two
requests (mirror images).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Callable

import reference as ref

DEFAULT_SEED = 1  # digests.json holds the stdout digests of this seed's lists
SWEEP_N = 8
VERIFY_MAX_N = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: Callable[[int], list[tuple[str, ...]]]
    check: Callable[[tuple[str, ...], dict, dict], str | None]
    perms_per_pass: int = 0  # permutations one pass enumerates, if known


@lru_cache(maxsize=4)
def _series(degree: int) -> ref.Series:
    return ref.Series(degree)


def _ints(mapping: dict) -> dict[int, int]:
    return {int(k): int(v) for k, v in mapping.items()}


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


# --- sweep -----------------------------------------------------------------

def sweep_requests(seed: int) -> list[tuple[str, ...]]:
    """One exhaustive tally; S_8 is the input whatever the seed."""
    return [("oracle", "tally", "--n", str(SWEEP_N), "--jobs", "1")]


def check_sweep(argv, payload, outputs) -> str | None:
    n = int(_flag(argv, "--n"))
    if payload.get("n") != n:
        return f"n = {payload.get('n')}, expected {n}"
    total = factorial(n)
    g, c, d, f1, st = (_ints(payload[key]) for key in ("g", "c", "d", "f1", "st"))
    if sum(g.values()) != total:
        return f"sum of g = {sum(g.values())}, expected {n}! = {total}"
    if sum(c.values()) + sum(d.values()) != total:
        return "sum of c + sum of d != n!"
    for k in set(g) | set(c) | set(d):
        if g.get(k, 0) != c.get(k, 0) + d.get(k, 0):
            return f"g[{k}] != c[{k}] + d[{k}]"
    if sum(f1.values()) != total or sum(st.values()) != total:
        return "sum of f1 or sum of st != n!"
    if f1 != st:
        return "f1 histogram differs from st histogram"
    series = _series(n)
    for t in range(n + 1):
        if f1.get(t, 0) != series.f1(n, t):
            return f"f1[{t}] = {f1.get(t, 0)}, series gives {series.f1(n, t)}"
    if g.get(1, 0) != series.g1[n]:
        return f"g[1] = {g.get(1, 0)}, series gives g1({n}) = {series.g1[n]}"
    return None


# --- solve -----------------------------------------------------------------

SOLVE_RANDOM_N = range(8, 33)
SOLVE_RANDOM_PER_N = 6
SOLVE_EXTREMAL_N = (14, 16, 18, 20)
LOW_GAMMA = 4  # brute-force lower-bound and count checks up to this gamma


def comb_image(n: int, variant: str) -> tuple[int, ...]:
    """The sigma or tau comb of even order n >= 6, in one-line notation."""
    if variant == "sigma":
        special = {1: 3, n: n - 2} if n % 4 == 0 else {1: 3, n - 2: n}
        shift = {1: -3, 2: -1, 3: 1, 0: 3}
    else:
        special = {3: 1, n - 2: n} if n % 4 == 0 else {3: 1, n: n - 2}
        shift = {1: 1, 2: 3, 3: -3, 0: -1}
    return tuple(special.get(i, i + shift[i % 4]) for i in range(1, n + 1))


def _perm_text(image) -> str:
    return ",".join(map(str, image))


def solve_requests(seed: int) -> list[tuple[str, ...]]:
    """Seeded random `analyze` requests at every n in 8..32, plus a fixed
    set of extremal requests on combs at n = 14..20, shuffled together."""
    rng = random.Random(f"solve:{seed}")
    out = []
    for n in SOLVE_RANDOM_N:
        for _ in range(SOLVE_RANDOM_PER_N):
            image = list(range(1, n + 1))
            rng.shuffle(image)
            out.append(("analyze", _perm_text(image)))
    for n in SOLVE_EXTREMAL_N:
        out.append(("analyze", _perm_text(comb_image(n, "sigma"))))
        out.append(("analyze", _perm_text(comb_image(n, "tau"))))
        variant = "sigma" if n % 4 == 0 else "tau"
        out.append(("construct", "extend", "--perm",
                    _perm_text(comb_image(n, variant))))
        out.append(("construct", "gamma", "--n", str(n), "--k", str(n // 2 - 1)))
    rng.shuffle(out)
    return out


def _is_comb_input(image) -> bool:
    n = len(image)
    return n % 2 == 0 and n >= 6 and tuple(image) in (
        comb_image(n, "sigma"), comb_image(n, "tau"))


def _check_analyze(image, payload) -> str | None:
    n = len(image)
    if payload.get("perm") != _perm_text(image) or payload.get("n") != n:
        return "perm or n does not echo the input"
    edges = ref.inversion_edges(image)
    if payload["edges"] != edges:
        return "edges differ from the inversion set"
    degrees = [0] * n
    for i, j in edges:
        degrees[i - 1] += 1
        degrees[j - 1] += 1
    if payload["degrees"] != degrees:
        return "degrees differ from the edge list"
    rows = ref.closed_rows(n, edges)
    gamma, witness = payload["gamma"], payload["witness"]
    if len(set(witness)) != gamma or not all(1 <= v <= n for v in witness):
        return f"witness {witness} does not have gamma = {gamma} vertices"
    if not ref.dominates(rows, witness):
        return f"witness {witness} does not dominate"
    if gamma > payload["heuristic_size"]:
        return f"gamma {gamma} exceeds heuristic_size {payload['heuristic_size']}"
    if gamma <= LOW_GAMMA:
        if gamma > 1 and ref.dominating_sets_of_size(rows, gamma - 1):
            return f"a dominating set of size {gamma - 1} exists"
        if payload["all_minimum_sets_count"] != ref.dominating_sets_of_size(rows, gamma):
            return "all_minimum_sets_count differs from brute force"
    if _is_comb_input(image) and gamma != n // 2:
        return f"comb of order {n} has gamma {gamma}, expected {n // 2}"
    if payload["connected"] != ref.is_connected(n, edges):
        return "connected flag differs from breadth-first search"
    full = (1 << n) - 1
    if payload["singleton_dominators"] != sum(r == full for r in rows):
        return "singleton_dominators differs from the closed rows"
    if payload["strong_fixed_points_of_reverse"] != ref.strong_fixed_point_count(image[::-1]):
        return "strong_fixed_points_of_reverse differs"
    if payload["quick_rule_fired"] not in (None, "quick_rule_1n", "quick_rule_ends"):
        return f"unknown quick rule {payload['quick_rule_fired']!r}"
    if payload["quick_rule_fired"] and gamma > 2:
        return "a quick rule fired but gamma > 2"
    return None


def _parse_image(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _is_permutation(image, n: int) -> bool:
    return sorted(image) == list(range(1, n + 1))


def check_solve(argv, payload, outputs) -> str | None:
    if argv[0] == "analyze":
        return _check_analyze(_parse_image(argv[1]), payload)
    if argv[1] == "gamma":
        n, k = int(_flag(argv, "--n")), int(_flag(argv, "--k"))
        image = _parse_image(payload["perm"])
        if not _is_permutation(image, n):
            return f"perm is not a permutation of order {n}"
        if payload["requested_gamma"] != k or payload["gamma"] != k:
            return f"gamma {payload['gamma']}, requested {k}"
        if not (payload["connected"] and ref.is_connected(n, ref.inversion_edges(image))):
            return "constructed graph is not connected"
        return None
    before = _parse_image(_flag(argv, "--perm"))
    audit_in, audit_out = payload["input"], payload["result"]
    after = _parse_image(audit_out["perm"])
    n = len(before)
    if audit_in["perm"] != _perm_text(before):
        return "input audit does not echo the input"
    if not _is_permutation(after, n + 1) or tuple(v for v in after if v != n + 1) != before:
        return "result is not the input with n+1 inserted"
    if audit_out["gamma"] != audit_in["gamma"]:
        return f"gamma changed from {audit_in['gamma']} to {audit_out['gamma']}"
    if _is_comb_input(before) and audit_in["gamma"] != n // 2:
        return f"comb of order {n} has gamma {audit_in['gamma']}"
    if not (audit_in["connected"] and audit_out["connected"]
            and ref.is_connected(n + 1, ref.inversion_edges(after))):
        return "connectivity not preserved"
    return None


# --- count -----------------------------------------------------------------

# Value gaps between consecutive members of the efficient-domination sets.
# The seed orders the gaps and places the set; the number of terms the
# formula sums, the product of (gap + 1), does not depend on either.
EFFICIENT_GAPS = ((5, 6, 7, 8, 9), (10, 12, 14), (15, 20))


def count_requests(seed: int) -> list[tuple[str, ...]]:
    """Seeded counting requests.  The seed moves each size a few units in a
    way that leaves the total work about the same: the two f1 orders move
    in opposite directions (f1 costs about n^3.3), and the pair {u, v}
    shifts as a whole, which keeps v - u and nearly keeps u (n - v)."""
    rng = random.Random(f"count:{seed}")
    d = rng.randint(-1, 1)
    out = [
        ("count", "f1", "--n", str(200 + d)),
        ("count", "f1", "--n", str(150 - 2 * d)),
    ]
    d = rng.randint(-2, 2)
    out += [("count", "g1", "--max-n", str(m + d)) for m in (240, 250, 260)]
    n, d = 80, rng.randint(-2, 2)
    u, v = 20 + d, 60 + d
    out.append(("count", "pair", "--n", str(n), "--u", str(u), "--v", str(v)))
    out.append(("count", "pair", "--n", str(n), "--u", str(n + 1 - v),
                "--v", str(n + 1 - u)))
    for gaps in EFFICIENT_GAPS:
        n = 60 + rng.randint(-2, 2)
        gaps = list(gaps)
        rng.shuffle(gaps)
        members = [rng.randint(1, n - sum(gaps) - len(gaps))]
        for gap in gaps:
            members.append(members[-1] + gap + 1)
        mirror = sorted(n + 1 - a for a in members)
        for a in (members, mirror):
            out.append(("count", "efficient", "--n", str(n), "--set",
                        ",".join(map(str, a))))
    out.append(("seq", "st", "--max-n", "30"))
    out.append(("seq", "lift", "--r", "12"))
    rng.shuffle(out)
    return out


def _mirror_argv(argv) -> tuple[str, ...]:
    n = int(_flag(argv, "--n"))
    if argv[1] == "pair":
        u, v = int(_flag(argv, "--u")), int(_flag(argv, "--v"))
        return ("count", "pair", "--n", str(n), "--u", str(n + 1 - v),
                "--v", str(n + 1 - u))
    members = sorted(n + 1 - int(a) for a in _flag(argv, "--set").split(","))
    return ("count", "efficient", "--n", str(n), "--set", ",".join(map(str, members)))


def _check_f1(n: int, values: dict[int, int]) -> str | None:
    if sorted(values) != list(range(n + 1)):
        return f"f1 rows are not t = 0..{n}"
    if sum(values.values()) != factorial(n):
        return f"sum over t of f1({n}, t) != {n}!"
    series = _series(n)
    for t in (0, 1, 2):
        if values[t] != series.f1(n, t):
            return f"f1({n}, {t}) differs from the power series"
    # St(k+r, k) is 1, 0 and k+1 for offsets r = 0, 1, 2.
    if values[n] != 1 or values[n - 1] != 0 or values[n - 2] != n - 1:
        return "f1 near t = n differs from the offset closed forms"
    return None


def _check_st(max_n: int, table: dict[str, str]) -> str | None:
    series = _series(max_n)
    for n in range(max_n + 1):
        row = [int(table[f"{n},{k}"]) for k in range(n + 1)]
        if sum(row) != factorial(n):
            return f"St row {n} does not sum to {n}!"
        for k in range(min(n, 2) + 1):
            if row[k] != series.f1(n, k):
                return f"St({n},{k}) differs from the power series"
        if row[n] != 1:
            return f"St({n},{n}) != 1"
    if len(table) != (max_n + 1) * (max_n + 2) // 2:
        return "St table has extra entries"
    return None


def _check_lift(r: int, payload) -> str | None:
    coefficients = [Fraction(c) for c in payload["coefficients"]]
    series = _series(r + 3)
    if int(payload["k0_value"]) != series.f1(r, 0):
        return f"k0_value differs from St({r}, 0)"
    for k in (1, 2, 3):
        value = sum(c * k ** i for i, c in enumerate(coefficients))
        if value != series.f1(k + r, k):
            return f"lifted polynomial at k = {k} differs from St({k + r}, {k})"
    if r > 5 and payload["matches_closed_form"] is not None:
        return "matches_closed_form set for an offset with no closed form"
    return None


def check_count(argv, payload, outputs) -> str | None:
    kind = argv[:2]
    if kind == ("count", "f1"):
        return _check_f1(int(_flag(argv, "--n")), _ints(payload["f1"]))
    if kind == ("count", "g1"):
        max_n = int(_flag(argv, "--max-n"))
        series = _series(max_n)
        values = _ints(payload["g1"])
        if values != {n: series.g1[n] for n in range(max_n + 1)}:
            return "g1 differs from the power series"
        return None
    if kind == ("seq", "st"):
        return _check_st(int(_flag(argv, "--max-n")), payload["st"])
    if kind == ("seq", "lift"):
        return _check_lift(int(_flag(argv, "--r")), payload)
    if kind == ("count", "pair"):
        counts = payload["pair"]
        nonadj, adj, total = (int(counts[key])
                              for key in ("nonadjacent", "adjacent", "total"))
        if total != nonadj + adj or min(nonadj, adj) < 0 or total == 0:
            return f"pair total {total} != nonadjacent {nonadj} + adjacent {adj}"
    else:  # efficient
        ((key, value),) = payload["efficient"].items()
        if key != _flag(argv, "--set") or int(value) <= 0:
            return f"efficient row {key}: {value}"
        counts = [value]
    mirror = outputs.get(_mirror_argv(argv))
    if mirror is None:
        return "mirror-image request missing from the pass"
    mirrored = mirror["pair"] if argv[1] == "pair" else list(mirror["efficient"].values())
    if mirrored != counts:
        return "mirror-image request gives a different count"
    return None


# --- verify ----------------------------------------------------------------

def verify_requests(seed: int) -> list[tuple[str, ...]]:
    """The formula-versus-oracle suite; the same for every seed."""
    return [("verify", "--max-n", str(VERIFY_MAX_N), "--jobs", "1")]


def check_verify(argv, payload, outputs) -> str | None:
    checks = payload.get("checks") or []
    if not checks:
        return "no checks reported"
    for c in checks:
        if c.get("status") != "pass" or c.get("first_mismatch") is not None:
            return f"check {c.get('name')} reported {c.get('status')}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            "oracle tally --n 8 over all 40320 permutations: perm, graph, "
            "domination and the oracle loop on small graphs, no counting",
            sweep_requests, check_sweep, perms_per_pass=factorial(SWEEP_N)),
        Workload(
            "solve",
            "150 seeded random analyze requests (n 8-32) and 16 comb requests "
            "(n 14-20): CLI plus heuristic, and the exponential exact search",
            solve_requests, check_solve),
        Workload(
            "count",
            "seeded count f1/g1/pair/efficient and seq st/lift: counting and "
            "sequences with big integers, no graph at all",
            count_requests, check_count),
        Workload(
            "verify",
            "verify --max-n 7: eight more S_n loops plus small-n formulas, so "
            "a sweep rewrite cannot speed up tally while slowing the rest",
            verify_requests, check_verify),
    )
}
