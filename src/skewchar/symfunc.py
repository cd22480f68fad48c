"""Symmetric polynomials on the doubled alphabet x1, x1^-1, ..., xn, xn^-1,
Weyl-ratio evaluation oracles for the non-skew characters, and the
lower-unitriangular inverse pair of e/h matrices used to dualize the
determinant formulas.
"""

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

from .core import LaurentPoly, Partition, PolyMatrix, _from_y, partitions_upto


class CharacterFamily(Enum):
    GL = "schur"
    SP = "sp"
    SO_ODD = "so"
    O_EVEN = "o"


class DegeneratePointError(ValueError):
    """The Weyl denominator determinant vanished; retry with another point."""


# e/h tables kept at once.  A benchmark warm-up builds at most 84 of them
# (n <= 3, r <= 12, both alphabets), so they fit.  Every table is read off
# in closed form, with no recursion.
EH_CACHE_SIZE = 2048


@lru_cache(maxsize=EH_CACHE_SIZE)
def _e_table(n, doubled):
    """e_0..e_N as a tuple, N = number of letters.

    Over x1..xn, e_r = m_(1^r)(x) is the sum of the 0/1 exponent vectors
    with r ones.  Over the doubled alphabet E(t) = prod_i (1 + y_i t + t^2)
    with y_i = x_i + x_i^-1, so e_r is the sum over j of r's parity of
    C(n - j, (r - j) / 2) m_(1^j)(y): j factors give y_i t and (r - j) / 2
    of the others give t^2."""
    if not doubled:
        return (LaurentPoly.one(n),) + tuple(
            _plain(n, combinations(range(n), r)) for r in range(1, n + 1)
        )
    table = []
    for r in range(2 * n + 1):
        y = {}
        for j in range(r & 1, min(r, n) + 1, 2):
            c = comb(n - j, (r - j) // 2)
            if c:
                y[(1,) * j + (0,) * (n - j)] = c
        table.append(_from_y(n, y))
    return tuple(table)


@lru_cache(maxsize=EH_CACHE_SIZE)
def _h_table(n, r, doubled):
    """h_r of the alphabet, r >= 0.

    Over x1..xn, h_r = sum over |lam| = r of m_lam(x) is the sum of the
    exponent vectors of sum r, the weak compositions of r into n parts.
    Over the doubled alphabet it is read off
    H(t) = 1 / E(-t) = prod_i sum_k U_k t^k, where
    U_k = sum_j (-1)^j C(k - j, j) y_i^(k-2j): the coefficient of
    m_lam(y) is (-1)^s C(s + |lam| + n - 1, s), s = (r - |lam|) / 2, the
    coefficient of t^s in (1 - t)^-(|lam| + n), over the partitions lam of
    at most n parts whose size is at most r and of r's parity."""
    if r == 0:
        return LaurentPoly.one(n)
    if not n:
        return LaurentPoly.zero(n)
    if not doubled:
        return _plain(n, combinations_with_replacement(range(n), r))
    y = {}
    for lam in partitions_upto(r, n):
        size = lam.size()
        if (r - size) & 1:
            continue
        s = (r - size) >> 1
        c = comb(s + size + n - 1, s)
        if c:
            y[lam.parts + (0,) * (n - len(lam))] = -c if s & 1 else c
    return _from_y(n, y)


def _plain(n, choices):
    """The sum, each coefficient 1, of the monomials x_i1 * x_i2 * ... over
    choices, tuples of variable indices 0..n-1; an exponent counts how often
    its variable is chosen."""
    return LaurentPoly(n, {tuple(map(c.count, range(n))): 1 for c in choices})


def elementary_pm(r, n):
    """e_r of the doubled alphabet; 0 outside 0 <= r <= 2n."""
    if r < 0 or r > 2 * n:
        return LaurentPoly.zero(n)
    return _e_table(n, True)[r]


def complete_pm(r, n):
    """h_r of the doubled alphabet; 0 for r < 0, h_0 = 1."""
    if r < 0:
        return LaurentPoly.zero(n)
    return _h_table(n, r, True)


def elementary_plain(r, n):
    """e_r of x1..xn (used by the general-linear formulas)."""
    if r < 0 or r > n:
        return LaurentPoly.zero(n)
    return _e_table(n, False)[r]


def complete_plain(r, n):
    """h_r of x1..xn; 0 for r < 0, h_0 = 1."""
    if r < 0:
        return LaurentPoly.zero(n)
    return _h_table(n, r, False)


def _rational_det(rows):
    """Exact determinant of a square matrix of Fractions by elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


def weyl_eval(family, lam, point):
    """Exact value of the non-skew character at a point of nonzero rationals.

    For SO_ODD the character has half-integer exponents, so the caller's
    point is read as y with x = y^2: all exponents double and the ratio is
    evaluated in y.  Compare against character polynomials via p(y^2).
    """
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    point = [Fraction(x) for x in point]
    n = len(point)
    if any(x == 0 for x in point):
        raise ValueError("zero coordinate")
    if lam.length() > n:
        raise ValueError("l(lambda) <= n fails: %d > %d" % (lam.length(), n))

    if family is CharacterFamily.GL:
        num = [[x ** (lam.part(j) + n - j) for j in range(1, n + 1)] for x in point]
        den = [[x ** (n - j) for j in range(1, n + 1)] for x in point]
        factor = Fraction(1)
    elif family is CharacterFamily.SP:
        num = [
            [
                x ** (lam.part(j) + n - j + 1) - x ** -(lam.part(j) + n - j + 1)
                for j in range(1, n + 1)
            ]
            for x in point
        ]
        den = [
            [x ** (n - j + 1) - x ** -(n - j + 1) for j in range(1, n + 1)]
            for x in point
        ]
        factor = Fraction(1)
    elif family is CharacterFamily.O_EVEN:
        num = [
            [
                x ** (lam.part(j) + n - j) + x ** -(lam.part(j) + n - j)
                for j in range(1, n + 1)
            ]
            for x in point
        ]
        den = [[x ** (n - j) + x ** -(n - j) for j in range(1, n + 1)] for x in point]
        # the j = n column of den is x^0 + x^0 = 2, a factor num shares only
        # when lam_n = 0; at n = 0 there is no such column
        factor = Fraction(2 if n and lam.part(n) != 0 else 1)
    elif family is CharacterFamily.SO_ODD:
        # exponents lam_j + n - j + 1/2 become odd integers after x = y^2
        num = [
            [
                y ** (2 * (lam.part(j) + n - j) + 1) - y ** -(2 * (lam.part(j) + n - j) + 1)
                for j in range(1, n + 1)
            ]
            for y in point
        ]
        den = [
            [y ** (2 * (n - j) + 1) - y ** -(2 * (n - j) + 1) for j in range(1, n + 1)]
            for y in point
        ]
        factor = Fraction(1)
    else:
        raise ValueError("unknown family %r" % (family,))

    d = _rational_det(den)
    if d == 0:
        raise DegeneratePointError("denominator determinant vanishes at %r" % (point,))
    return factor * _rational_det(num) / d


# The paper's dual and ordinary Jacobi-Trudi determinants are complementary
# minors of one lower-unitriangular pair E, E^-1 = H (Jacobi's theorem,
# Macdonald I.2), fixed per family by (k, t):
#   E(a, b) = e_{a-b} + [b < m + ceil(k/2)] t e_{a+b-2m-k}
#   H(r, c) = (-1)^{r-c} (h_{r-c} - [r > m + floor(k/2)] (-1)^k t h_{2m-r-c+k})
# The general linear family has t = 0 and reads the plain alphabet.
TWIST = {
    CharacterFamily.GL: (0, 0),
    CharacterFamily.SP: (2, -1),
    CharacterFamily.SO_ODD: (1, 1),
    CharacterFamily.O_EVEN: (0, 1),
}


def e_entry(a, b, m, k, t, n, e=elementary_pm):
    """E(a, b): e_{a-b} plus the twist t e_{a+b-2m-k} in the columns
    b < m + ceil(k/2); e is the alphabet's e_r."""
    entry = e(a - b, n)
    if t and b < m + -(-k // 2):
        entry = entry + e(a + b - 2 * m - k, n).scaled(t)
    return entry


def h_entry(r, c, m, k, t, n, h=complete_pm):
    """H(r, c) without its sign (-1)^{r-c}: h_{r-c} minus the twist
    (-1)^k t h_{2m-r-c+k} in the rows r > m + floor(k/2); h is the
    alphabet's h_r."""
    entry = h(r - c, n)
    if t and r > m + k // 2:
        entry = entry + h(2 * m - r - c + k, n).scaled(t if k & 1 else -t)
    return entry


def build_E_matrix(N, m, k, t, n):
    """N x N lower-unitriangular matrix E(i, j), i, j = 1..N, over the doubled
    alphabet."""
    rows = [[e_entry(i, j, m, k, t, n) for j in range(1, N + 1)] for i in range(1, N + 1)]
    return PolyMatrix(rows, n)


def build_H_matrix(N, m, k, t, n):
    """N x N lower-unitriangular inverse H(i, j) of build_E_matrix."""
    rows = []
    for i in range(1, N + 1):
        row = []
        for j in range(1, N + 1):
            entry = h_entry(i, j, m, k, t, n)
            row.append(-entry if (i - j) & 1 else entry)
        rows.append(row)
    return PolyMatrix(rows, n)
