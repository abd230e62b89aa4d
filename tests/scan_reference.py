"""Strong fixed points counted from their definition, with no generating
function: the reference for the counting kernel's rows St(n, k) = f1(n, k)
past the orders an exhaustive sweep reaches.

The scan builds a permutation of [n] one position at a time and keeps one
number, gap: how many unplaced values lie below the largest placed one.
Placing the unplaced value of rank j (0-based, among the r unplaced values)
leaves gap - 1 when j < gap, as the value is below the largest, and j
otherwise, as it is the new largest and the j unplaced values below it
make the new gap.  The position is a strong fixed point exactly when
gap = 0 and j = 0: the prefix before it is {1..i-1} and it holds i.
"""


def st_row(n: int) -> list[int]:
    """[St(n, 0), ..., St(n, n)]: the permutations of [n] by their number of
    strong fixed points, summed over every scan.

    ways[g] holds the placed prefixes with gap g, those with k strong fixed
    points in bits k*width and up: no count exceeds n! < 2^width, so adding
    two such ints adds their counts slot by slot, and a strong fixed point
    (k -> k + 1) is a shift by width.  The j >= gap moves into gap j come
    from every gap g <= j, summed as a prefix; so a placement costs O(r)
    additions.

    >>> st_row(3)
    [3, 2, 0, 1]
    """
    width = n * n.bit_length() + 1
    ways = [1]  # nothing placed: gap 0, no strong fixed point
    for r in range(n, 0, -1):  # r values unplaced before this placement
        after = [0] * r  # gap <= r - 1 after it
        for g in range(1, len(ways)):
            after[g - 1] = g * ways[g]  # any of the g values below the largest
        below = ways[0]
        after[0] += below << width  # j = gap = 0: a strong fixed point
        for j in range(1, r):
            if j < len(ways):
                below += ways[j]
            after[j] += below
        ways = after
    slot = (1 << width) - 1
    return [ways[0] >> (k * width) & slot for k in range(n + 1)]
