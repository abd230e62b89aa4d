"""Acceptance gate: every counting formula and construction cross-checked
at desk scale.

Each test prints a single pass/fail line so a plain `pytest -s
tests/test_acceptance.py` reads as a checklist.  The checks themselves live
in permdom.verify; one cache of oracle censuses is shared across the
module because n = 8 enumeration is the expensive part.
"""
import pytest

from permdom import verify


@pytest.fixture(scope="module")
def cache():
    return verify.TallyCache(jobs=1)


def report(number: int, check: verify.CheckResult) -> None:
    status = "PASS" if check.passed else "FAIL"
    line = f"criterion {number:2d} {check.name} ({check.range_note}): {status}"
    if check.detail:
        line += f" [{check.detail}]"
    print(line)
    assert check.passed, check.first_mismatch


def test_01_recursions_vs_oracle(cache):
    report(1, verify.check_recursions_vs_oracle(cache, 8))


def test_02_strong_fixed_point_identities(cache):
    report(2, verify.check_strong_fixed_point_identity(cache, 8))


def test_03_closed_forms(cache):
    report(3, verify.check_closed_forms(max_k=40))


def test_04_polynomial_lifting(cache):
    report(4, verify.check_polynomial_lifting(max_k=40))


def test_05_pair_counts(cache):
    report(5, verify.check_pair_counts(cache, 7))


def test_06_efficient_counts(cache):
    report(6, verify.check_efficient_counts(cache, 7, max_size=5))


def test_07_singleton_formula(cache):
    report(7, verify.check_singleton_formula(cache, 8))


def test_08_disconnected_formula(cache):
    report(8, verify.check_disconnected_formula(cache, 8))


def test_09_comb_extremal_family(cache):
    report(9, verify.check_combs(enumerate_n=(6, 8), construct_n=(10, 12)))


def test_10_extension_preserves_gamma(cache):
    report(10, verify.check_extension(samples=500))


def test_11_connected_with_gamma_grid(cache):
    report(11, verify.check_connected_with_gamma(max_n=12))


def test_12_heuristic_quality(cache):
    report(12, verify.check_heuristic(cache, 8, soft_rate=0.90))


def test_13_structural_invariants(cache):
    report(13, verify.check_invariant_suite(7))
