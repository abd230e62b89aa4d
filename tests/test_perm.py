from itertools import permutations as perms

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permdom.errors import EmptyInput, NotABijection, ParseError
from permdom.perm import (
    Permutation,
    parse_permutation,
    reverse,
    strong_fixed_points,
)



def inverse(p: Permutation) -> Permutation:
    """The permutation q with q(p(i)) = i for all i."""
    return Permutation(p._positions)


perm_images = st.permutations(list(range(1, 8))).map(lambda v: tuple(v))


def test_parse_one_line_notation():
    p = parse_permutation("3,1,2,5,4")
    assert p(1) == 3
    assert p(5) == 4
    assert p.n == 5


def test_parse_brackets_and_whitespace():
    assert parse_permutation("[1]").image == (1,)
    assert parse_permutation(" [ 2, 1 ] ").image == (2, 1)


def test_parse_rejects_non_bijection():
    with pytest.raises(NotABijection):
        parse_permutation("2,2,1")
    with pytest.raises(NotABijection):
        parse_permutation("1,3")


@pytest.mark.parametrize("image", [
    (1, 1), (2, 1, 2), (3, 3, 1), (0, 1), (1, 0, 2), (1, 3), (3, 1, 2, 5),
    (-1, 1), (2, -1, 1), (1, 2, -3), (2,),
])
def test_duplicates_and_values_outside_one_to_n_are_not_bijections(image):
    with pytest.raises(NotABijection, match=r"not a bijection on \[\d+\]"):
        Permutation(image)


@pytest.mark.parametrize("n", range(7))
def test_position_inverts_the_image_on_all_of_s_n(n):
    for image in perms(range(1, n + 1)):
        p = Permutation(image)
        assert [p.position(v) for v in range(1, n + 1)] == [
            image.index(v) + 1 for v in range(1, n + 1)]


def test_repr_equality_and_hash_see_the_image_alone():
    p = parse_permutation("3,1,2")
    q = Permutation((3, 1, 2))
    assert repr(p) == "Permutation([3,1,2])" and str(p) == "3,1,2"
    assert p == q and hash(p) == hash(q) == hash(((3, 1, 2),))
    assert p != Permutation((1, 3, 2)) and len({p, q, Permutation((1, 2, 3))}) == 2
    assert p == Permutation(p.image)
    assert Permutation((2, 3, 1)).position(1) == 3


def test_parse_rejects_garbage_and_empty():
    with pytest.raises(ParseError):
        parse_permutation("1,x,2")
    with pytest.raises(EmptyInput):
        parse_permutation("")
    with pytest.raises(EmptyInput):
        parse_permutation("[]")


def test_empty_permutation_allowed_internally():
    assert Permutation(()).n == 0


def test_inverse_examples():
    assert inverse(parse_permutation("3,1,2,5,4")).image == (2, 3, 1, 5, 4)
    assert inverse(parse_permutation("1,2,3")).image == (1, 2, 3)
    assert inverse(parse_permutation("2,3,1")).image == (3, 1, 2)


def test_reverse_examples():
    assert reverse(parse_permutation("3,1,2,5,4")).image == (4, 5, 2, 1, 3)
    assert reverse(parse_permutation("[1]")).image == (1,)


@given(perm_images)
def test_inverse_is_an_involution_and_composes_to_identity(image):
    p = Permutation(image)
    q = inverse(p)
    assert inverse(q) == p
    assert all(q(p(i)) == i for i in range(1, p.n + 1))


@given(perm_images)
def test_reverse_is_an_involution(image):
    p = Permutation(image)
    assert reverse(reverse(p)) == p
    assert sorted(reverse(p).image) == sorted(image)


def test_strong_fixed_point_examples():
    assert strong_fixed_points(parse_permutation("1,2,3")) == {1, 2, 3}
    assert strong_fixed_points(parse_permutation("2,1")) == frozenset()
    assert strong_fixed_points(parse_permutation("1,3,2")) == {1}


def brute_strong_fixed_points(p):
    # Definition verbatim: all smaller values before k, all larger after.
    out = set()
    for k in range(1, p.n + 1):
        if all(p.position(j) < p.position(k) for j in range(1, k)) and all(
            p.position(i) > p.position(k) for i in range(k + 1, p.n + 1)
        ):
            out.add(k)
    return out


def prefix_strong_fixed_points(p):
    # Equivalent form: the prefix before k's position is exactly {1..k-1}.
    return {
        k
        for k in range(1, p.n + 1)
        if set(p.image[: p.position(k) - 1]) == set(range(1, k))
    }


@pytest.mark.parametrize("n", range(1, 8))
def test_strong_fixed_point_formulations_agree(n):
    for image in perms(range(1, n + 1)):
        p = Permutation(image)
        sfp = strong_fixed_points(p)
        assert sfp == brute_strong_fixed_points(p)
        assert sfp == prefix_strong_fixed_points(p)
