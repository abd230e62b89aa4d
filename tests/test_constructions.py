import random
from itertools import permutations as perms

import pytest

from permdom import constructions
from permdom.constructions import (
    comb_sigma,
    comb_tau,
    connected_with_gamma,
    extend_preserving_gamma,
    is_comb,
)
from permdom.domination import domination_number_exact
from permdom.errors import (
    DisconnectedInput,
    InfeasibleGamma,
    OddOrder,
    OrderTooLarge,
    OrderTooSmall,
)
from permdom.graph import build_graph, is_connected
from permdom.perm import Permutation, parse_permutation


def test_comb_sigma_transcription():
    assert comb_sigma(6).image == (3, 1, 4, 6, 2, 5)
    assert comb_sigma(8).image == (3, 1, 4, 7, 2, 5, 8, 6)


def test_comb_tau_transcription():
    assert comb_tau(6).image == (2, 5, 1, 3, 6, 4)
    assert comb_tau(8).image == (2, 5, 1, 3, 6, 8, 4, 7)


def test_comb_order_validation():
    with pytest.raises(OrderTooSmall):
        comb_sigma(4)
    with pytest.raises(OddOrder):
        comb_tau(7)


@pytest.mark.parametrize("build", [comb_sigma, comb_tau])
def test_combs_reject_orders_above_the_cap_before_building(build, monkeypatch):
    assert build_graph(build(64)).n == 64
    monkeypatch.setattr(constructions, "_piecewise",
                        lambda *args: pytest.fail("built the permutation"))
    with pytest.raises(OrderTooLarge, match="^n = 2000000 exceeds the 64-vertex cap$"):
        build(2_000_000)
    with pytest.raises(OddOrder):
        build(2_000_001)


@pytest.mark.parametrize("n", [6, 8, 10, 12])
@pytest.mark.parametrize("build", [comb_sigma, comb_tau])
def test_combs_are_connected_combs_with_half_n_gamma(n, build):
    p = build(n)
    g = build_graph(p)
    assert is_connected(g)
    witness = is_comb(g)
    assert witness is not None
    assert len(witness.spine) == len(witness.teeth) == n // 2
    assert sorted(witness.matching) == sorted(witness.spine)
    assert domination_number_exact(g).gamma == n // 2


def test_comb_leaf_residues():
    # Leaves of sigma are the values = 0,1 (mod 4); of tau, = 2,3 (mod 4).
    for n in (6, 8, 12):
        w = is_comb(build_graph(comb_sigma(n)))
        assert all(v % 4 in (0, 1) for v in w.teeth)
        w = is_comb(build_graph(comb_tau(n)))
        assert all(v % 4 in (2, 3) for v in w.teeth)


def test_is_comb_negative_and_degenerate_cases():
    assert is_comb(build_graph(Permutation((4, 3, 2, 1)))) is None
    assert is_comb(build_graph(parse_permutation("2,1"))) is not None
    assert is_comb(build_graph(parse_permutation("1,2"))) is None
    with pytest.raises(OddOrder):
        is_comb(build_graph(parse_permutation("2,3,1")))


@pytest.mark.parametrize("n", [6])
def test_comb_uniqueness_by_enumeration(n):
    found = []
    for image in perms(range(1, n + 1)):
        g = build_graph(Permutation(image))
        if is_connected(g) and domination_number_exact(g).gamma == n // 2:
            found.append(image)
    assert sorted(found) == sorted([comb_sigma(n).image, comb_tau(n).image])


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_is_comb_accepts_exactly_the_comb_permutations(n):
    # The comb uniqueness `verify` checks, read off is_comb over all of S_n.
    if n == 2:
        expected = [(2, 1)]
    elif n == 4:
        expected = [(2, 4, 1, 3), (3, 1, 4, 2)]
    else:
        expected = sorted([comb_sigma(n).image, comb_tau(n).image])
    found = [image for image in perms(range(1, n + 1))
             if is_comb(build_graph(Permutation(image))) is not None]
    assert found == expected


def test_extend_examples():
    assert extend_preserving_gamma(parse_permutation("2,1")).image == (2, 3, 1)
    assert extend_preserving_gamma(parse_permutation("3,1,4,2")).image == (
        3, 1, 4, 5, 2)
    with pytest.raises(DisconnectedInput):
        extend_preserving_gamma(parse_permutation("1,3,2"))


def test_extend_preserves_gamma_on_random_connected_inputs():
    rng = random.Random(7)
    done = 0
    while done < 120:
        n = rng.randint(3, 8)
        image = list(range(1, n + 1))
        rng.shuffle(image)
        p = Permutation(tuple(image))
        g = build_graph(p)
        if not is_connected(g):
            continue
        before = domination_number_exact(g).gamma
        q = extend_preserving_gamma(p)
        gq = build_graph(q)
        assert q.n == n + 1
        assert is_connected(gq)
        assert domination_number_exact(gq).gamma == before
        done += 1


def test_connected_with_gamma_examples():
    assert connected_with_gamma(5, 2).image == (3, 1, 4, 5, 2)
    assert connected_with_gamma(6, 3).image == (3, 1, 4, 6, 2, 5)
    assert connected_with_gamma(1, 1).image == (1,)  # gamma <= n/2 needs n >= 2
    for n, k in ((5, 3), (4, 0), (1, 0), (1, 2), (0, 1), (0, 0)):
        with pytest.raises(InfeasibleGamma):
            connected_with_gamma(n, k)


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_a_chain_with_no_step_solves_nothing(k, monkeypatch):
    monkeypatch.setattr(constructions, "domination_number_exact",
                        lambda g: pytest.fail("ran the exact search"))
    assert connected_with_gamma(2 * k, k).n == 2 * k


@pytest.mark.parametrize("k", [1, 3])
def test_connected_with_gamma_rejects_orders_above_the_cap_up_front(k):
    with pytest.raises(OrderTooLarge, match="n = 200 "):
        connected_with_gamma(200, k)


@pytest.mark.parametrize("n", range(1, 13))
def test_connected_with_gamma_full_grid(n):
    for k in range(1, max(1, n // 2) + 1):
        p = connected_with_gamma(n, k)
        g = build_graph(p)
        assert p.n == n
        assert is_connected(g)
        assert domination_number_exact(g).gamma == k
