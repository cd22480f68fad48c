import random

import pytest

from skewchar import LaurentPoly, Partition


def partitions_in_box(width, height):
    """Every partition fitting in a width x height box."""
    out = [Partition()]

    def rec(row, mx, acc):
        if row == height:
            return
        for p in range(min(mx, width), 0, -1):
            out.append(Partition(acc + [p]))
            rec(row + 1, p, acc + [p])

    rec(0, width, [])
    return out


def random_poly(rng, n_vars, terms=3, span=2, coeff=4):
    out = {}
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(-span, span) for _ in range(n_vars))
        c = rng.randint(-coeff, coeff)
        if c:
            out[e] = c
    return LaurentPoly(n_vars, out)


@pytest.fixture
def rng():
    return random.Random(20240831)
