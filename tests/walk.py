"""`oracle.sweep`'s leaves as a list, for the tests that read them.

The sweep calls a visitor with its own `image` and `rows` lists and
overwrites them as it moves on; `leaves` copies both into tuples, so every
leaf it returns keeps its own.
"""
from permdom import oracle


def leaves(n: int, lead=()) -> list[tuple]:
    """Every (image, rows, connected, strong, singles, dom) that
    `oracle.sweep(n, visit, lead)` visits, in its order."""
    out = []

    def visit(image, rows, *facts):
        out.append((tuple(image), tuple(rows), *facts))

    oracle.sweep(n, visit, lead)
    return out
