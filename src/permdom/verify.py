"""Formula-versus-oracle cross checks.

Each check compares a counting formula, identity, or construction against
the exhaustive oracle (or the exact solver) over the range it fixes itself;
the checks over S_n stop at the caller's max_n so quick runs stay quick.
`run_all` is the one list of checks: the `verify` CLI subcommand and the
acceptance tests both read it.
"""
from __future__ import annotations

import random
from itertools import combinations

from . import constructions, counting, oracle, sequences
from ._record import Record
from .domination import (
    count_singleton_dominators,
    domination_number_exact,
    singleton_dominators_by_position,
)
from .errors import PermdomError
from .graph import (
    PermutationGraph,
    build_graph,
    component_mask,
    components,
    degree_bound_check,
    is_connected,
    mask_of,
)
from .perm import Permutation, reverse, strong_fixed_points

# Largest max_n `run_all` takes: the order of its largest S_n census.
MAX_N = oracle.CENSUS_CAP


class CheckResult(Record):
    __slots__ = ("name", "range_note", "passed", "first_mismatch", "detail")
    _defaults = {"first_mismatch": None, "detail": None}


class VerificationRun(Record):
    __slots__ = ("checks",)

    @property
    def exit_code(self) -> int:
        return 0 if all(c.passed for c in self.checks) else 3


class TallyCache(dict):
    """Oracle censuses by order, each swept once and shared across checks.
    A census that raised, as its own check of the heuristic's sets does, is
    kept as its AssertionError."""

    def __init__(self, jobs: int = 1):
        super().__init__()
        self.jobs = jobs

    def censuses(self, first: int, last: int, bad: list[str]):
        """(n, census) for n = first..last, up to the first census that
        raised: its message goes on `bad`, so the check is a FAIL line."""
        for n in range(first, last + 1):
            if n not in self:
                try:
                    self[n] = oracle.census(n, jobs=self.jobs)
                except AssertionError as exc:
                    self[n] = exc
            if isinstance(self[n], AssertionError):
                bad.append(str(self[n]))
                return
            yield n, self[n]

    def tally(self, n: int) -> oracle.TallyReport:
        """The tally of a census that `censuses` has yielded."""
        return oracle.TallyReport.from_counts(n, self[n].tally)


def _result(name, range_note, mismatches, detail=None) -> CheckResult:
    return CheckResult(
        name=name,
        range_note=range_note,
        passed=not mismatches,
        first_mismatch=mismatches[0] if mismatches else None,
        detail=detail,
    )


def check_recursions_vs_oracle(cache: TallyCache, max_n: int) -> CheckResult:
    """g1(n) and f1(n, t) against the exhaustive tallies."""
    bad = []
    f1_rows = counting.f1_triangle(max_n)
    g1 = counting.g1_column(max_n)
    for n, _ in cache.censuses(1, max_n, bad):
        report = cache.tally(n)
        got = sum(v for k, v in report.g.items() if k == 1)
        if g1[n] != got:
            bad.append(f"g1({n}): formula {g1[n]} oracle {got}")
        for t in range(n + 1):
            if f1_rows[n][t] != report.f1.get(t, 0):
                bad.append(
                    f"f1({n},{t}): formula {f1_rows[n][t]}"
                    f" oracle {report.f1.get(t, 0)}"
                )
    return _result("recursions_vs_oracle", f"n <= {max_n}", bad)


def check_strong_fixed_point_identity(cache: TallyCache, max_n: int) -> CheckResult:
    """st(n, k) = f1(n, k) = oracle strong-fixed-point tally."""
    bad = []
    for n, _ in cache.censuses(1, max_n, bad):
        report = cache.tally(n)
        for k in range(n + 1):
            want = report.st.get(k, 0)
            if sequences.st(n, k) != want or report.f1.get(k, 0) != want:
                bad.append(f"St({n},{k})")
    return _result("strong_fixed_point_identity", f"n <= {max_n}", bad)


def check_closed_forms() -> CheckResult:
    """Offset closed forms against the f1 recursion, for k <= 40."""
    max_k = 40
    bad = []
    f1_rows = counting.f1_triangle(max_k + 5)
    for r in (2, 3, 4, 5):
        for k in range(max_k + 1):
            if sequences.st_closed_form(r, k) != f1_rows[k + r][k]:
                bad.append(f"St(k+{r},k) at k={k}")
    return _result("closed_forms_vs_recursion", f"r in 2..5, k <= {max_k}", bad)


def check_polynomial_lifting() -> CheckResult:
    """Lifted polynomials: exact expected coefficients for offsets 3..5,
    recursion agreement at k = 1..40 for offsets up to 7."""
    from fractions import Fraction

    max_k = 40
    bad = []
    families = sequences.lift_families(7)
    f1_rows = counting.f1_triangle(max_k + 7)
    expected = {
        3: (3, 3),
        4: (14, Fraction(29, 2), Fraction(1, 2)),
        5: (77, 80, 3),
    }
    for r, coeffs in expected.items():
        got = families[r].polynomial.coefficients
        if tuple(got) != tuple(Fraction(c) for c in coeffs):
            bad.append(f"offset {r} coefficients {got}")
    for r in range(2, 8):
        fam = families[r]
        if fam.polynomial(0) != fam.k0_value:
            bad.append(f"offset {r} anchor")
        for k in range(1, max_k + 1):
            if fam.polynomial(k) != f1_rows[k + r][k]:
                bad.append(f"offset {r} at k={k}")
                break
    return _result("polynomial_lifting", f"r <= 7, k <= {max_k}", bad)


def check_pair_counts(cache: TallyCache, max_n: int) -> CheckResult:
    """Pair-domination formulas against the census's split by adjacency,
    for max_n <= oracle.DETAIL_MAX_N."""
    bad = []
    for n, census in cache.censuses(2, max_n, bad):
        pairs = census.pairs
        for u, v in combinations(range(1, n + 1), 2):
            if counting.pair_count_nonadjacent(n, u, v) != pairs[u, v, 0]:
                bad.append(f"nonadjacent ({n},{u},{v})")
            if counting.pair_count_adjacent(n, u, v) != pairs[u, v, 1]:
                bad.append(f"adjacent ({n},{u},{v})")
    return _result("pair_counts_vs_oracle", f"n <= {max_n}, all u < v", bad)


def check_efficient_counts(cache: TallyCache, max_n: int) -> CheckResult:
    """Efficient-domination formula against the census for sets A with
    2 <= |A| <= 5, for max_n <= oracle.DETAIL_MAX_N."""
    max_size = 5
    bad = []
    for n, census in cache.censuses(2, max_n, bad):
        efficient = census.efficient
        for size in range(2, min(max_size, n) + 1):
            for a in combinations(range(1, n + 1), size):
                if counting.efficient_dom_count(n, a) != efficient[mask_of(a)]:
                    bad.append(f"efficient ({n},{a})")
    return _result(
        "efficient_counts_vs_oracle", f"n <= {max_n}, 2 <= |A| <= {max_size}", bad
    )


def check_singleton_formula(cache: TallyCache, max_n: int) -> CheckResult:
    """(n-k)!(k-1)! against the per-k oracle tally."""
    bad = []
    for n, census in cache.censuses(1, max_n, bad):
        singletons = census.singletons
        for k in range(1, n + 1):
            if counting.singleton_dom_count(n, k) != singletons[k]:
                bad.append(f"singleton ({n},{k})")
    return _result("singleton_formula_vs_oracle", f"n <= {max_n}", bad)


def check_disconnected_formula(cache: TallyCache, max_n: int) -> CheckResult:
    """d(n, k) from connected counts, plus g = c + d pointwise."""
    bad = []
    for n, _ in cache.censuses(1, max_n, bad):
        report = cache.tally(n)
        ctab = oracle.c_table(n - 1, cache.tally)
        for k in sorted(set(report.g) | set(report.d)):
            want = report.d.get(k, 0)
            got = counting.disconnected_count(n, k, ctab)
            if got != want:
                bad.append(f"d({n},{k}): formula {got} oracle {want}")
            if report.g.get(k, 0) != report.c.get(k, 0) + report.d.get(k, 0):
                bad.append(f"g=c+d at ({n},{k})")
    return _result("disconnected_formula_vs_oracle", f"n <= {max_n}", bad)


def check_combs(cache: TallyCache, max_n: int) -> CheckResult:
    """Comb uniqueness at n = 6, and 8 when max_n >= 8: the tally counts
    exactly two connected graphs with gamma = n/2, and the two combs are
    distinct; the loop below checks that each is connected with gamma =
    n/2.  The tally is the cached census's when it was built and did not
    raise, else a fresh one.  Comb validity constructively at those n and
    at 10 and 12."""
    enumerate_n = (6, 8) if max_n >= 8 else (6,)
    bad = []
    for n in enumerate_n:
        report = cache.tally(n) if isinstance(cache.get(n), oracle.Census) else oracle.full_tally(n)
        count = report.c.get(n // 2, 0)
        if count != 2 or constructions.comb_sigma(n) == constructions.comb_tau(n):
            bad.append(f"uniqueness at n={n}: found {count}")
    for n in enumerate_n + (10, 12):
        for build in (constructions.comb_sigma, constructions.comb_tau):
            p = build(n)
            g = build_graph(p)
            if not is_connected(g):
                bad.append(f"{build.__name__}({n}) disconnected")
            if constructions.is_comb(g) is None:
                bad.append(f"{build.__name__}({n}) not a comb")
            if domination_number_exact(g).gamma != n // 2:
                bad.append(f"{build.__name__}({n}) gamma != {n // 2}")
    return _result(
        "comb_extremal_family", f"enumerated n in {enumerate_n}, built up to 12", bad
    )


def random_connected_permutation(rng: random.Random, n: int) -> Permutation:
    """Uniform over permutations of [n] with a connected graph."""
    while True:
        image = list(range(1, n + 1))
        rng.shuffle(image)
        p = Permutation(tuple(image))
        if is_connected(build_graph(p)):
            return p


def check_extension() -> CheckResult:
    """Gamma-preserving insertion on 500 seeded random connected inputs."""
    samples = 500
    rng = random.Random(20260824)
    bad = []
    for _ in range(samples):
        n = rng.randint(3, 9)
        p = random_connected_permutation(rng, n)
        try:  # the extension checks its own result
            constructions.extend_preserving_gamma(p)
        except AssertionError as exc:
            bad.append(str(exc))
    return _result("extension_preserves_gamma", f"{samples} seeded samples", bad)


def check_connected_with_gamma() -> CheckResult:
    """Existence construction over the whole feasible (n, k) grid, n <= 12."""
    max_n = 12
    bad = []
    for n in range(2, max_n + 1):
        for k in range(1, n // 2 + 1):
            try:
                p = constructions.connected_with_gamma(n, k)
            except AssertionError as exc:
                bad.append(f"({n},{k}) {exc}")
                continue
            g = build_graph(p)
            if p.n != n or not is_connected(g):
                bad.append(f"({n},{k}) wrong order or disconnected")
            elif domination_number_exact(g).gamma != k:
                bad.append(f"({n},{k}) wrong gamma")
    return _result("connected_with_gamma", f"n <= {max_n}, k <= n/2", bad)


def check_heuristic(cache: TallyCache, max_n: int) -> CheckResult:
    """Heuristic output always dominates; optimality rate reported with a
    soft gate of 0.90 (tie-breaking in the clique procedure is free)."""
    soft_rate = 0.90
    bad = []
    rates = []
    for n, census in cache.censuses(1, max_n, bad):
        q = census.heuristic  # the census checks domination
        rates.append(f"n={n}: {q.optimal}/{q.total - q.excluded}")
        if q.rate < soft_rate:
            bad.append(f"rate {q.rate:.3f} below soft gate at n={n}")
    return _result(
        "heuristic_quality", f"n <= {max_n}", bad, detail="; ".join(rates)
    )


def _components_match(g: PermutationGraph, first: int) -> bool:
    """Whether `components(g)` gives g's components: shifted back up and
    concatenated, its blocks rebuild the source permutation, and their value
    ranges are, in order, the components that breadth-first search finds
    from each lowest vertex not yet reached.  `first` is the component of
    vertex 1.  A block that is not a permutation fails the match."""
    try:
        blocks = components(g)
    except PermdomError:
        return False
    found = [first]
    rest = g.full_mask() & ~first
    while rest:
        found.append(component_mask(g, (rest & -rest).bit_length()))
        rest &= ~found[-1]
    rebuilt = [v + offset for offset, tau in blocks for v in tau.image]
    return (tuple(rebuilt) == g.source.image
            and [((1 << tau.n) - 1) << offset for offset, tau in blocks] == found)


class _FirstMismatch(Exception):
    """Ends the invariant suite's walk at the first permutation that fails."""


def check_invariant_suite(max_n: int) -> CheckResult:
    """Degree/parity bound, prefix-connectivity equivalence, the components
    against breadth-first search, singleton-position characterization, the
    strong-fixed-point reverse bijection, and the sweep engine's
    incremental facts against the graph built from scratch, exhaustively.
    It stops at the first permutation that fails."""
    bad = []

    def visit(image, rows, connected, strong, singles, _):
        p = Permutation(image)
        g = build_graph(p)
        if not degree_bound_check(g):
            bad.append(f"degree bound [{p}]")
        # The component of vertex 1 by breadth-first search.
        first = component_mask(g, 1)
        if not (connected == is_connected(g) == (first == g.full_mask())):
            bad.append(f"connectivity [{p}]")
        if tuple(rows) != g.closed_rows() or strong != len(strong_fixed_points(p)):
            bad.append(f"sweep facts [{p}]")
        if not _components_match(g, first):
            bad.append(f"components [{p}]")
        direct = count_singleton_dominators(g)
        if not (singles == direct == len(singleton_dominators_by_position(p))):
            bad.append(f"singleton characterization [{p}]")
        if direct != len(strong_fixed_points(reverse(p))):
            bad.append(f"reverse bijection [{p}]")
        if bad:
            raise _FirstMismatch

    try:
        for n in range(1, max_n + 1):
            oracle.sweep(n, visit)
    except _FirstMismatch:
        pass
    return _result("invariant_suite", f"n <= {max_n}", bad)


def run_all(max_n: int = MAX_N, jobs: int = 1) -> VerificationRun:
    """Every formula-versus-oracle comparison, in a fixed order, over S_n
    for n <= max_n <= MAX_N."""
    cache = TallyCache(jobs=jobs)
    detail_n = min(max_n, oracle.DETAIL_MAX_N)
    checks = [
        check_recursions_vs_oracle(cache, max_n),
        check_strong_fixed_point_identity(cache, max_n),
        check_closed_forms(),
        check_polynomial_lifting(),
        check_pair_counts(cache, detail_n),
        check_efficient_counts(cache, detail_n),
        check_singleton_formula(cache, max_n),
        check_disconnected_formula(cache, max_n),
        check_combs(cache, max_n),
        check_extension(),
        check_connected_with_gamma(),
        check_heuristic(cache, max_n),
        check_invariant_suite(detail_n),
    ]
    return VerificationRun(checks)
