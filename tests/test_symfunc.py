import itertools
from fractions import Fraction

import pytest

from skewchar import (
    CharacterFamily,
    DegeneratePointError,
    LaurentPoly,
    Partition,
    SkewShape,
    build_E_matrix,
    build_H_matrix,
    character_by_tableaux,
    complete_pm,
    elementary_pm,
    weyl_eval,
)
from skewchar import symfunc
from skewchar.symfunc import complete_plain, elementary_plain

F = CharacterFamily


def x(i, e=1, n=1):
    exps = [0] * n
    exps[i - 1] = e
    return LaurentPoly.monomial(exps)


def test_elementary_examples():
    assert elementary_pm(1, 1) == x(1) + x(1, -1)
    assert elementary_pm(2, 1) == LaurentPoly.one(1)
    want = LaurentPoly(2, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1, (0, 0): 2})
    assert elementary_pm(2, 2) == want
    assert elementary_pm(-1, 2).is_zero()
    assert elementary_pm(5, 2).is_zero()
    assert elementary_pm(0, 3) == LaurentPoly.one(3)


def test_complete_examples():
    assert complete_pm(1, 1) == x(1) + x(1, -1)
    assert complete_pm(2, 1) == LaurentPoly(1, {(2,): 1, (0,): 1, (-2,): 1})
    assert complete_pm(0, 4) == LaurentPoly.one(4)
    assert complete_pm(-3, 2).is_zero()
    # h_r(x, 1/x) = x^r + x^(r-2) + ... + x^-r and h_r(x) = x^r, each
    # built cold in one step at a large r
    symfunc._h_table.cache_clear()
    assert complete_pm(1200, 1) == LaurentPoly(1, {(1200 - 2 * k,): 1 for k in range(1201)})
    assert complete_plain(1200, 1) == LaurentPoly.monomial((1200,))


def plain_by_brute_force(r, n, most):
    """The sum of x^a over the exponent vectors a of n entries, each at most
    most, that sum to r."""
    return LaurentPoly(
        n,
        {a: 1 for a in itertools.product(range(r + 1), repeat=n) if sum(a) == r and max(a, default=0) <= most},
    )


def test_plain_tables_match_brute_force():
    for n in range(5):
        for r in range(-2, 11):
            assert elementary_plain(r, n) == plain_by_brute_force(r, n, 1), ("e", n, r)
            assert complete_plain(r, n) == plain_by_brute_force(r, n, r), ("h", n, r)


def test_doubled_alphabet_duality():
    for n in (1, 2, 3):
        for r in range(0, 2 * n + 1):
            assert elementary_pm(r, n) == elementary_pm(2 * n - r, n)


def test_generators_bar_invariant():
    for n in (1, 2):
        for r in range(0, 2 * n + 2):
            assert elementary_pm(r, n).bar() == elementary_pm(r, n)
            assert complete_pm(r, n).bar() == complete_pm(r, n)


def test_convolution_identity():
    for e, h in ((elementary_pm, complete_pm), (elementary_plain, complete_plain)):
        for n in (0, 1, 2, 3):
            for r in range(0, 9):
                acc = LaurentPoly.zero(n)
                for k in range(0, r + 1):
                    term = e(r - k, n) * h(k, n)
                    acc = acc + (term if k % 2 == 0 else -term)
                want = LaurentPoly.one(n) if r == 0 else LaurentPoly.zero(n)
                assert acc == want, (e.__name__, n, r)


def test_weyl_examples():
    assert weyl_eval(F.GL, Partition((1,)), [3]) == 3
    assert weyl_eval(F.SP, Partition((1,)), [2]) == Fraction(5, 2)
    assert weyl_eval(F.O_EVEN, Partition((1,)), [2]) == Fraction(5, 2)
    # so_(1)(x) = x + 1 + 1/x under x = y^2 at y = 2
    assert weyl_eval(F.SO_ODD, Partition((1,)), [2]) == 4 + 1 + Fraction(1, 4)
    for fam in F:  # no variables: the empty character is 1
        assert weyl_eval(fam, Partition(), []) == 1


def test_weyl_degenerate_point():
    with pytest.raises(DegeneratePointError):
        weyl_eval(F.SP, Partition((1,)), [1])  # x - 1/x vanishes at 1
    with pytest.raises(ValueError):
        weyl_eval(F.GL, Partition((1,)), [0])


def test_weyl_matches_gl_tableaux(rng):
    for lam in (Partition((2, 1)), Partition((3,)), Partition((2, 2))):
        for n in (2, 3):
            if lam.length() > n:
                continue
            ch = character_by_tableaux(F.GL, SkewShape(lam), n)
            done = 0
            while done < 20:
                pt = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
                try:
                    w = weyl_eval(F.GL, lam, pt)
                except DegeneratePointError:
                    continue
                assert ch.eval_at(pt) == w
                done += 1


def _is_identity(mat):
    one = LaurentPoly.one(mat.n_vars)
    zero = LaurentPoly.zero(mat.n_vars)
    return all(
        mat.rows[i][j] == (one if i == j else zero)
        for i in range(mat.dim)
        for j in range(mat.dim)
    )


def _matmul(a, b):
    zero = LaurentPoly.zero(a.n_vars)
    from skewchar import PolyMatrix

    rows = []
    for i in range(a.dim):
        row = []
        for j in range(b.dim):
            acc = zero
            for k in range(a.dim):
                acc = acc + a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        rows.append(row)
    return PolyMatrix(rows, a.n_vars)


def test_e_matrix_examples():
    for m, k, t in [(0, 0, 1), (2, 1, -1), (1, 2, 2)]:
        assert _is_identity(build_E_matrix(1, m, k, t, 2))
        assert _is_identity(build_H_matrix(1, m, k, t, 2))
    # bracket [j < m + ceil(k/2)] evaluated literally: false for N=2,m=0,k=2
    E = build_E_matrix(2, 0, 2, -1, 1)
    assert E.rows[1][0] == elementary_pm(1, 1)
    # t=0 gives the plain Toeplitz pair, mutually inverse
    E0 = build_E_matrix(4, 1, 1, 0, 2)
    H0 = build_H_matrix(4, 1, 1, 0, 2)
    assert _is_identity(_matmul(E0, H0))


def test_e_h_lower_unitriangular():
    for N, m, k, t, n in [(4, 1, 2, -1, 2), (5, 2, 1, 1, 1), (3, 0, 0, 2, 2)]:
        for mat in (build_E_matrix(N, m, k, t, n), build_H_matrix(N, m, k, t, n)):
            for i in range(1, N + 1):
                assert mat.rows[i - 1][i - 1] == LaurentPoly.one(n)
                for j in range(i + 1, N + 1):
                    assert mat.rows[i - 1][j - 1].is_zero()


def test_e_h_inverse_pair_sweep():
    for N in (2, 4, 6):
        for m in (0, 2, 3):
            for k in (0, 1, 2):
                for t in (-1, 0, 1, 2):
                    for n in (1, 2):
                        E = build_E_matrix(N, m, k, t, n)
                        H = build_H_matrix(N, m, k, t, n)
                        assert _is_identity(_matmul(E, H)), (N, m, k, t, n)
