"""Acceptance gate: every counting formula and construction cross-checked
at desk scale.

Each test prints a single pass/fail line so a plain `pytest -s
tests/test_acceptance.py` reads as a checklist.  The checks and their
ranges live in permdom.verify; this module is a view of one
`verify.run_all` at the largest order it takes, run once for the module
because n = 8 enumeration is the expensive part.
"""
import pytest

from permdom import oracle, verify


@pytest.fixture(scope="module")
def run():
    return verify.run_all(max_n=verify.MAX_N)


def report(number: int, name: str, run: verify.VerificationRun) -> None:
    check = run.checks[number - 1]
    assert check.name == name
    status = "PASS" if check.passed else "FAIL"
    line = f"criterion {number:2d} {check.name} ({check.range_note}): {status}"
    if check.detail:
        line += f" [{check.detail}]"
    print(line)
    assert check.passed, check.first_mismatch


def test_run_all_has_thirteen_criteria(run):
    assert len(run.checks) == 13


def test_01_recursions_vs_oracle(run):
    report(1, "recursions_vs_oracle", run)


def test_02_strong_fixed_point_identities(run):
    report(2, "strong_fixed_point_identity", run)


def test_03_closed_forms(run):
    report(3, "closed_forms_vs_recursion", run)


def test_04_polynomial_lifting(run):
    report(4, "polynomial_lifting", run)


def test_05_pair_counts(run):
    report(5, "pair_counts_vs_oracle", run)


def test_06_efficient_counts(run):
    report(6, "efficient_counts_vs_oracle", run)


def test_07_singleton_formula(run):
    report(7, "singleton_formula_vs_oracle", run)


def test_08_disconnected_formula(run):
    report(8, "disconnected_formula_vs_oracle", run)


def test_09_comb_extremal_family(run):
    report(9, "comb_extremal_family", run)


def test_comb_uniqueness_reads_the_cached_census_tallies(monkeypatch):
    # The census tallies S_6 and S_8 before the comb check runs; only an
    # order the run does not reach is tallied afresh.
    real, tallied = oracle.full_tally, []

    def full_tally(n, jobs=1):
        tallied.append(n)
        return real(n, jobs)

    monkeypatch.setattr(oracle, "full_tally", full_tally)
    assert verify.run_all(max_n=8).exit_code == 0
    assert tallied == []
    assert verify.run_all(max_n=4).exit_code == 0
    assert tallied == [6]


def test_10_extension_preserves_gamma(run):
    report(10, "extension_preserves_gamma", run)


def test_11_connected_with_gamma_grid(run):
    report(11, "connected_with_gamma", run)


def test_12_heuristic_quality(run):
    report(12, "heuristic_quality", run)


def test_13_structural_invariants(run):
    report(13, "invariant_suite", run)


def test_structural_invariants_stop_at_the_first_failure(monkeypatch):
    # One helper made wrong on two permutations of [5]: the suite fails,
    # names the lexicographically first of them and walks no further.
    wrong = {(2, 1, 5, 3, 4), (4, 1, 2, 5, 3)}
    real = verify.degree_bound_check
    seen = []

    def wrong_on_two(g):
        seen.append(g.source.image)
        return real(g) and g.source.image not in wrong

    monkeypatch.setattr(verify, "degree_bound_check", wrong_on_two)
    check = verify.check_invariant_suite(5)
    assert check.passed is False
    assert check.first_mismatch == "degree bound [2,1,5,3,4]"
    assert seen[-1] == (2, 1, 5, 3, 4)
