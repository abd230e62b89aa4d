"""Exact counting formulas for permutation graphs by domination behavior.

Everything here is plain integer arithmetic (Python ints are arbitrary
precision); factorials pass 64 bits shortly after n = 20, so no fixed-width
type would do.

Domination number 1.  Let A = sum n! x^n and F_t = sum_n f(n,1,t) x^n.  The
recursions f(n,1,0) = n! - g(n,1), g(n,1) = sum_k (n-k)! f(k-1,1,0) and
f(n,1,t) = sum_k f(n-k,1,t-1) f(k-1,1,0) say F0 = A - x A F0 and
F_t = x F_{t-1} F0, so

    F0 = A / (1 + x A),    F_t = x^t F0^(t+1),    sum_n g(n,1) x^n = x A F0:

f(n,1,t) = [x^(n-t)] F0^(t+1) and g(n,1) = n! - F0[n] for n >= 1.  (This is
the sequence construction over indecomposable blocks, Flajolet & Sedgewick,
Analytic Combinatorics I.2, OEIS A003319; a strong fixed point is a block of
size 1.)  n n! = (n+1)! - n! gives x^2 A' = (1 - x) A - 1, and
A = F0 / (1 - x F0) turns that into the Riccati equation

    x^2 F0' = -1 + (1 + x) F0 - x (1 + x) F0^2.

Its coefficient of x^(q+1) is, for q >= 1 (F0[0] = 1, F0[1] = 0),

    F0[q+1] = (q - 1) F0[q] + S[q] + S[q-1],    S = F0^2,

and S[q] = 2 sum_{k < q/2} F0[k] F0[q-k] (+ F0[q/2]^2 for even q) pairs the
symmetric terms: floor(q/2) + 1 big products, half those of the convolution
F0[n] = n! - sum_{k=1}^{n} (n-k)! F0[k-1].  Multiplying the equation by
m F0^(m-1) and reading the same coefficient gives, for c_m = F0^m (c_0 = 1)
and m >= 1,

    c_{m+1}[q] = c_m[q+1] - c_{m-1}[q+1] + (m - q) c_m[q] / m - c_{m+1}[q-1],

where m divides (m - q) c_m[q] because every other term is an integer.
`_powers` runs it, so the whole f(n,1,t) triangle up to order N costs about
N^2/4 big-by-big products and O(N^2) big-by-small integer steps.

Pair domination.  Let a = u-1, b = v-u-1, c = n-v, the vertices below u,
between u and v, and above v.  In the nonadjacent sum over x1+x2 = a,
y1+y2 = b, z1+z2 = c, the sum over y1 is the upper Chu-Vandermonde identity
sum_y C(y+p, p) C(b-y+q, q) = C(b+p+q+1, b); the term left depends on
x1, z1 only through C(x1+z1, x1) and m = x1+z1, so

    nonadjacent = a! b! c! sum_{m=0}^{a+c} W(m) C(n-1-m, b),

with W(m) = sum C(m, x1) over x1 <= a, m-x1 <= c: the words of length m
with at most a ones and at most c zeros, W(0) = 1 and
W(m+1) = 2 W(m) - C(m, a) - C(m, c).  In the adjacent sum over
x1+x2+x3 = b, y1+y2 = a, z1+z2 = c, Vandermonde over (x2, y2) and the
hockey stick leave sum_{x1,z1} C(b,x1) C(c,z1) (x1+z2)! (z1+L+1)! / (z1+1)
with L = a+b-x1.  Writing C(c,z1)/(z1+1) = C(c+1,z1+1)/(c+1) and grouping
by d = x1-z1, the sum over x1 is Vandermonde again less its z1 = -1 term;
what is left is one hockey stick and one upper Vandermonde:

    adjacent = n! / (u (c+1)) - n! a! c! / (a+c+2)!.

Efficient domination.  For members a_1 < ... < a_k the printed sum runs over
splits of every gap g_j = a_{j+1} - a_j - 1 into x_{j,1} + x_{j,2}, weighted
C(g_j, x_{j,1}) times the factorials (x_{j,2} + x_{j+2,1})! for
j = -1..k-1, where the fixed ends 0 = x_{-1,2}, a_1 - 1 = x_{0,2},
n - a_k = x_{k,1} and 0 = x_{k+1,1} fill in.  Each factorial joins split j to split j+2 only, so
the splits of odd j and of even j form two independent chains, and each is
summed by a transfer over the x_2 of its last split: O(sum_j g_j g_{j+2})
products instead of prod_j (g_j + 1) terms.

Disconnected graphs.  The components of a permutation graph are the blocks
of the permutation, in order, and gamma adds over them.  With
C = sum c(n,k) x^n y^k over connected graphs, the sequence construction gives
sum g(n,k) x^n y^k = 1 / (1 - C), so splitting off the first block,

    d(n, k) = sum_{m=1}^{n-1} sum_{j>=1} c(m, j) g(n-m, k-j),    g = c + d,

built up over the orders below n: O(n^2 k^2) steps at most, fewer where the
table or g has zeros.  Only entries c(m, j) with 1 <= m < n and j >= 1 enter.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from operator import add, mul

from .errors import IndexOutOfRange, MissingTableEntry, NotSorted

# Largest order the CLI accepts for a count.  The slowest request it admits,
# `count f1 --n 1000`, takes about 3 s on a 2-core Xeon under CPython 3.11;
# n! passes Python's 4,300-digit int-to-str limit only near n = 1,550.
MAX_ORDER = 1000

# Largest n and k the CLI accepts for `count d`.  The slowest request it
# admits, n = k = 95 with a --c-table whose every c(m, j), m < 95 and
# 1 <= j <= 95, is nonzero and near m! (no real count exceeds it, and the
# CLI's table loader rejects a larger one), takes about 5 s on the same
# machine.
MAX_D_ORDER = 95


def singleton_dom_count(n: int, k: int) -> int:
    """Permutation graphs on n vertices with {k} as a dominating set:
    (n-k)! (k-1)!."""
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    return factorial(n - k) * factorial(k - 1)


def _factorials(n: int) -> list[int]:
    """[0!, 1!, ..., n!], built per call."""
    out = [1] * (n + 1)
    for i in range(1, n + 1):
        out[i] = out[i - 1] * i
    return out


def f0_column(max_n: int) -> list[int]:
    """[f(0,1,0), ..., f(max_n,1,0)]: the coefficients of F0, by the
    Riccati recurrence of the module docstring."""
    f0 = [1, 0][:max_n + 1]
    below = 1  # S[q-1], S = F0^2
    for q in range(1, max_n):
        half = (q + 1) // 2  # the pairs k < q/2 of S[q]
        square = 2 * sum(map(mul, f0[:half], f0[q:q - half:-1]))
        if q % 2 == 0:
            square += f0[half] ** 2
        f0.append((q - 1) * f0[q] + square + below)
        below = square
    return f0


def _powers(order: int):
    """Yield c_1, c_2, ..., c_{order+1} with c_m = F0^m, each cut after
    x^(order - m + 1): exactly the coefficients f1(n, m - 1) for n <= order.
    """
    cur = f0_column(order)
    prev = [1] + [0] * order  # c_0 = 1
    yield cur
    for m in range(1, order + 1):
        nxt = [0] * (order - m + 1)
        below = 0  # c_{m+1}[q-1]
        for q in range(order - m + 1):
            below = cur[q + 1] - prev[q + 1] + (m - q) * cur[q] // m - below
            nxt[q] = below
        prev, cur = cur, nxt
        yield cur


def f1_triangle(max_n: int) -> list[list[int]]:
    """rows[n][t] = f(n, 1, t) for 0 <= t <= n <= max_n."""
    rows = [[0] * (n + 1) for n in range(max_n + 1)]
    for t, power in enumerate(_powers(max_n)):
        for q, value in enumerate(power):
            rows[q + t][t] = value
    return rows


def g1_column(max_n: int) -> list[int]:
    """[g(0, 1), ..., g(max_n, 1)]: g(n, 1) = n! - F0[n] for n >= 1."""
    fact = _factorials(max_n)
    f0 = f0_column(max_n)
    return [0] + [fact[n] - f0[n] for n in range(1, max_n + 1)]


@lru_cache(maxsize=1)
def _f1_row(n: int) -> tuple[int, ...]:
    """(f(n,1,0), ..., f(n,1,n)): the last coefficient kept of each power.
    Kept for one n, so that f1(n, t) over every t is one kernel pass."""
    return tuple(power[-1] for power in _powers(n))


@lru_cache(maxsize=None)
def g1(n: int) -> int:
    """Permutation graphs on n vertices with domination number 1.

    g(0,1) = 0 and g(n,1) = sum_{k=1}^{n} (n-k)! f(k-1,1,0).  A memo of
    answers read from `g1_column`.
    """
    if n < 0:
        raise IndexOutOfRange(f"negative n: {n}")
    return g1_column(n)[n]


@lru_cache(maxsize=None)
def f1(n: int, t: int) -> int:
    """Permutation graphs on n vertices with exactly t singleton dominators.

    f(n,1,0) = n! - g(n,1) and, for t >= 1,
    f(n,1,t) = sum_{k=1}^{n-t+1} f(n-k,1,t-1) f(k-1,1,0).  A memo of
    answers read from the kernel's row for n.
    """
    if n < 0:
        raise IndexOutOfRange(f"negative n: {n}")
    if t < 0 or t > n:
        return 0
    return _f1_row(n)[t]


def _check_pair(n: int, u: int, v: int) -> None:
    if not 1 <= u < v <= n:
        raise IndexOutOfRange(f"need 1 <= u < v <= n, got u={u}, v={v}, n={n}")


def pair_count_nonadjacent(n: int, u: int, v: int) -> int:
    """Permutation graphs on n vertices dominated by {u, v} with u, v
    nonadjacent."""
    _check_pair(n, u, v)
    a, b, c = u - 1, v - u - 1, n - v
    total = 0
    words = 1  # W(m): words of length m with at most a ones and c zeros
    for m in range(a + c + 1):
        total += words * comb(n - 1 - m, b)
        words = 2 * words - comb(m, a) - comb(m, c)
    return factorial(a) * factorial(b) * factorial(c) * total


def pair_count_adjacent(n: int, u: int, v: int) -> int:
    """Permutation graphs on n vertices dominated by {u, v} with u, v
    adjacent."""
    _check_pair(n, u, v)
    a, c = u - 1, n - v
    whole = factorial(n)
    return (whole // (u * (c + 1))
            - whole * factorial(a) * factorial(c) // factorial(a + c + 2))


def efficient_dom_count(n: int, a) -> int:
    """Permutation graphs on n vertices efficiently dominated by the
    strictly increasing vertex list a.

    For |a| >= 2 the block of values between a_j and a_{j+1} (its gap) splits
    into private neighbors of a_j placed right of it and private neighbors
    of a_{j+1} placed left of it; the count is summed over those splits by
    the two chains of the module docstring.  A singleton is efficient
    exactly when it dominates, so |a| = 1 falls back to the singleton count.
    """
    a = list(a)
    if not a or not 1 <= a[0] <= n or a[-1] > n:
        raise IndexOutOfRange(f"members must lie in [1, {n}]: {a}")
    if any(x >= y for x, y in zip(a, a[1:])):
        raise NotSorted(f"not strictly increasing: {a}")
    k = len(a)
    if k == 1:
        return singleton_dom_count(n, a[0])

    fact = _factorials(n)
    gaps = [a[i + 1] - a[i] - 1 for i in range(k - 1)]
    total = 1
    # gaps[0::2] are the odd j of the module docstring, entered from
    # x_{-1,2} = 0; gaps[1::2] the even j, entered from x_{0,2} = a_1 - 1.
    for first, x2_in in ((0, 0), (1, a[0] - 1)):
        # weight[x2]: the chain summed so far, by the x2 of its last split.
        weight = {x2_in: 1}
        for g in gaps[first::2]:
            weight = {
                g - x1: comb(g, x1) * sum(w * fact[x2 + x1] for x2, w in weight.items())
                for x1 in range(g + 1)
            }
        x1_out = n - a[-1] if (k - 1 - first) % 2 == 0 else 0  # x_{k,1} or x_{k+1,1}
        total *= sum(w * fact[x2 + x1_out] for x2, w in weight.items())
    return total


def disconnected_count(n: int, k: int,
                       c_table: dict[tuple[int, int], int]) -> int:
    """Disconnected permutation graphs on n vertices with domination number
    k, from the connected counts c_table[(m, j)] = c(m, j) for m < n, by
    the first-block recurrence of the module docstring."""
    orders = {m for m, _ in c_table}
    for m in range(1, n):
        if m not in orders:
            raise MissingTableEntry(f"no c(n, k) entries for n = {m}")
    if n < 2 or k < 2:
        return 0  # two or more blocks, each adding at least 1 to gamma
    blocks: list[list[tuple[int, int]]] = [[]]  # blocks[m]: nonzero (j, c(m, j))
    g: list[list[int]] = [[]]  # g[m][i], i <= k; trailing zeros cut (gamma <= m)
    for s in range(1, n + 1):
        d = [0] * (k + 1)  # d(s, i) for i <= k
        for m in range(1, s):
            rest = g[s - m]
            for j, v in blocks[m]:
                for i, x in enumerate(rest[1:k + 1 - j], j + 1):
                    d[i] += v * x
        c = [0] + [c_table.get((s, j), 0) for j in range(1, k + 1)]
        blocks.append([(j, v) for j, v in enumerate(c) if v])
        row = list(map(add, c, d))
        while row and not row[-1]:
            row.pop()
        g.append(row)
    return d[k]
