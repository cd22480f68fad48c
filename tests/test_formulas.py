from functools import partial

import pytest

from skewchar import (
    CharacterFamily,
    LaurentPoly,
    Method,
    Partition,
    SkewShape,
    character,
    character_by_tableaux,
    complete_pm,
    core,
    dual_jacobi_trudi,
    elementary_pm,
    giambelli,
    jacobi_trudi,
)
from skewchar.core import PolyMatrix, partitions_upto
from skewchar.formulas import (
    BLOCK_CACHE_SIZE,
    _dual_jt_cached,
    dual_jt_rows,
    giambelli_rows,
    hook_block,
    jt_rows,
)
from skewchar.symfunc import _rational_det, family_pair

F, M = CharacterFamily, Method


def x(i, e=1, n=1):
    exps = [0] * n
    exps[i - 1] = e
    return LaurentPoly.monomial(exps)


def test_dual_jt_examples():
    assert dual_jacobi_trudi(F.SP, (1,), (), 1, 0, 1) == x(1) + x(1, -1)
    assert dual_jacobi_trudi(F.SP, (2, 2), (2, 2), 2, 2) == LaurentPoly.one(2)
    # even orthogonal prefactor case m = l(mu) = 0
    assert dual_jacobi_trudi(F.O_EVEN, (1,), (), 1, 0, 1) == x(1) + x(1, -1)


def test_jt_examples():
    assert jacobi_trudi(F.SP, (1,), (), 1, 0, 1) == x(1) + x(1, -1)
    assert jacobi_trudi(F.SO_ODD, (2, 1), (2, 1), 2, 2) == LaurentPoly.one(2)
    got = jacobi_trudi(F.O_EVEN, (1, 1), (), 2, 0, 2)
    assert got == dual_jacobi_trudi(F.O_EVEN, (1, 1), (), 2, 0)


def test_giambelli_examples():
    # hook with empty mu reduces to a single dual determinant
    hook = Partition((3, 1, 1))
    assert giambelli(F.SP, hook, Partition(), 3, 0) == dual_jacobi_trudi(
        F.SP, hook, Partition(), 3, 0
    )
    got = giambelli(F.SP, (3, 2, 2, 1, 1), (1,), 3, 2)
    want = character_by_tableaux(
        F.SP, SkewShape(Partition((3, 2, 2, 1, 1)), Partition((1,))), 3, 2
    )
    assert got == want
    # Lascoux-Pragacz on the plain alphabet
    gotg = giambelli(F.GL, (4, 4, 4, 2, 1), (3, 1), 6, 0)
    wantg = character_by_tableaux(
        F.GL, SkewShape(Partition((4, 4, 4, 2, 1)), Partition((3, 1))), 6
    )
    assert gotg == wantg


def test_block_cache_is_bounded():
    # keyed by (family, a, b, n, m): (0|0) is the one-cell hook
    _dual_jt_cached.cache_clear()
    try:
        for m in range(BLOCK_CACHE_SIZE + 50):
            _dual_jt_cached(F.SP, 0, 0, 1, m)
        info = _dual_jt_cached.cache_info()
        assert info.maxsize == BLOCK_CACHE_SIZE
        assert info.currsize == BLOCK_CACHE_SIZE
        assert _dual_jt_cached(F.SP, 0, 0, 1, 0) == x(1) + x(1, -1)
    finally:
        _dual_jt_cached.cache_clear()


def count_muls(monkeypatch, route, *args):
    """route(*args) and the number of LaurentPoly multiplies it made, from
    an empty Giambelli block cache."""
    calls = []
    mul = core.LaurentPoly.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(core.LaurentPoly, "__mul__", counting_mul)
    _dual_jt_cached.cache_clear()
    try:
        got = route(*args)
    finally:
        _dual_jt_cached.cache_clear()
        monkeypatch.undo()
    return got, len(calls)


def test_wide_hook_block_sums_the_short_range(monkeypatch):
    # (7,1) is the single hook (6|1): two products H(s, -6) E(2, s), s = 1, 2,
    # and the 1 x 1 determinant's one; dual-JT of size 7 made 302 multiplies
    # and JT of size 2 made 5
    got, muls = count_muls(monkeypatch, giambelli, F.SP, (7, 1), (), 3, 0)
    assert muls == 3, muls
    assert got == jacobi_trudi(F.SP, (7, 1), (), 3, 0)


def test_jt_and_giambelli_expand_from_the_bottom_row(monkeypatch):
    # from the top row down, JT made 30 multiplies here and Giambelli,
    # with hooks by JT only when b + 1 < a, made 53; with the hook sums
    # Giambelli makes 14, where a zero E entry in a hook sum adds no product
    case = (F.SP, (4, 4, 2, 1), (), 3, 1)
    by_jt, muls = count_muls(monkeypatch, jacobi_trudi, *case)
    assert muls < 30, muls
    by_giambelli, muls = count_muls(monkeypatch, giambelli, *case)
    assert muls == 14, muls
    want = character_by_tableaux(F.SP, SkewShape(Partition((4, 4, 2, 1)), Partition()), 3, 1)
    assert by_jt == by_giambelli == want


def test_hook_routes_agree_across_the_rule():
    # the hook block (a|b) = (a+1, 1^b), summed over s = 1..b+1 when b < a
    # and over s = -a..0 otherwise, equals both of the paper's determinants
    # for it and the tableau oracle, on both sides of that rule
    _dual_jt_cached.cache_clear()
    try:
        for fam in (F.SP, F.SO_ODD, F.O_EVEN):
            for n in (1, 2):
                for m in range(3):
                    for b in range(min(4, n + m)):
                        for a in range(7):
                            hook = Partition((a + 1,) + (1,) * b)
                            by_jt = jacobi_trudi(fam, hook, (), n, m, b + 1)
                            by_dual = dual_jacobi_trudi(fam, hook, (), n, m, a + 1)
                            assert by_jt == by_dual, (fam, n, m, a, b)
                            want = character_by_tableaux(fam, SkewShape(hook, Partition()), n, m)
                            assert by_jt == want, (fam, n, m, a, b)
                            assert _dual_jt_cached(fam, a, b, n, m) == want, (fam, n, m, a, b)
    finally:
        _dual_jt_cached.cache_clear()


def test_hook_block_identity():
    # the two steps behind the closed hook block, with H unsigned: in JT
    # of size b+1 for (a+1, 1^b), the minor of the rows below the first
    # without column s is E(b+1, s) (Jacobi's complementary-minor theorem),
    # and row b+1 of E times column -a of E^-1 = H, sum over s = -a..b+1 of
    # (-1)^s H(s, -a) E(b+1, s), is 0
    for fam in F:
        for n in range(3):
            for m in (0,) if fam is F.GL else range(3):
                pair = family_pair(fam, n, m)
                for b in range(4):
                    for a in (b + 1, b + 2):
                        case = (fam, n, m, a, b)
                        rows = jt_rows(pair, Partition((a + 1,) + (1,) * b), Partition(), b + 1)
                        for s in range(1, b + 2):
                            minor = [row[: s - 1] + row[s:] for row in rows[1:]]
                            got = PolyMatrix(minor, n).determinant()
                            assert got == pair.E(b + 1, s), case + (s,)
                        total = pair.zero
                        for s in range(-a, b + 2):
                            f = pair.H(s, -a) * pair.E(b + 1, s)
                            total = total - f if s & 1 else total + f
                        assert total.is_zero(), case


class GenericPair:
    """An entry pair off a random integer lower-unitriangular G on the
    indices lo..hi: H(r, c) is G(r, c), and E is the inverse of
    (-1)^(r-c) G by forward substitution, an integer matrix too.  An entry
    above the diagonal is 0; one below it outside the window raises
    KeyError."""

    zero = 0

    def __init__(self, rng, lo, hi):
        self.G, self.inv = {}, {}
        for r in range(lo, hi + 1):
            for c in range(lo, r):
                self.G[r, c] = rng.randint(-5, 5)
            self.G[r, r] = 1
        for c in range(lo, hi + 1):
            self.inv[c, c] = 1
            for r in range(c + 1, hi + 1):
                self.inv[r, c] = -sum(
                    (-1) ** (r - l) * self.G[r, l] * self.inv[l, c] for l in range(c, r)
                )

    def E(self, a, b):
        return self.inv[a, b] if a >= b else 0

    def H(self, r, c):
        return self.G[r, c] if r >= c else 0


def random_skew(rng, width, height):
    """A random lambda of at most height parts with lambda_1 <= width, and
    a random mu inside it: each mu_i drawn in 0..lambda_i, then sorted."""
    first = rng.randint(1, width)
    lam = [first] + sorted((rng.randint(1, first) for _ in range(rng.randrange(height))), reverse=True)
    mu = sorted((rng.randint(0, p) for p in lam), reverse=True) if rng.randrange(4) else []
    return Partition(lam), Partition([p for p in mu if p])


def test_routes_agree_on_a_generic_pair(rng):
    # JT = dual-JT = Giambelli is a minor identity of any lower-unitriangular
    # pair (Jacobi's theorem), so the builders' index rules are checked on
    # random integers, at sizes no polynomial check reaches
    pair = GenericPair(rng, -30, 9)
    hook = partial(hook_block, pair)
    for _ in range(500):
        lam, mu = random_skew(rng, 30, 8)
        by_jt = _rational_det(jt_rows(pair, lam, mu, lam.length()))
        by_dual = _rational_det(dual_jt_rows(pair, lam, mu, lam.first()))
        by_giambelli = _rational_det(giambelli_rows(pair, lam, mu, hook)) * (-1) ** mu.durfee()
        assert by_jt == by_dual == by_giambelli, (lam, mu)


def test_every_cache_is_bounded():
    import importlib
    import pkgutil

    import skewchar

    cached = {}
    for info in pkgutil.iter_modules(skewchar.__path__):
        module = importlib.import_module("skewchar." + info.name)
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                cached["%s.%s" % (info.name, name)] = value.cache_parameters()["maxsize"]
    assert {"symfunc._e_table", "symfunc._h_table", "formulas._dual_jt_cached",
            "core._candidates", "core._orbit", "core._sn_orbit", "core._x_dominant",
            "paths._steps_from"} <= set(cached)
    unbounded = [name for name, maxsize in cached.items() if maxsize is None]
    assert not unbounded, unbounded


def test_lambda_equals_mu_is_one_by_every_method():
    lam = Partition((2, 1))
    for fam in (F.GL, F.SP, F.SO_ODD, F.O_EVEN):
        for meth in (M.TABLEAUX, M.DUAL_JT, M.JT, M.GIAMBELLI, M.LGV_PATHS):
            m = 0 if fam is F.GL else 2
            assert character(fam, lam, lam, 2, m, meth) == LaurentPoly.one(2), (fam, meth)


def test_dispatcher_agreement_spot():
    for fam in (F.GL, F.SP, F.SO_ODD, F.O_EVEN):
        m = 0 if fam is F.GL else 1
        base = character(fam, (2, 1), (1,), 2, m, M.TABLEAUX)
        for meth in (M.DUAL_JT, M.JT, M.GIAMBELLI, M.LGV_PATHS):
            assert character(fam, (2, 1), (1,), 2, m, meth) == base, (fam, meth)


def test_preconditions_messages():
    with pytest.raises(ValueError, match=r"l\(lambda\) <= n\+m fails: 5 > 4"):
        dual_jacobi_trudi(F.SP, (1, 1, 1, 1, 1), (), 2, 2)
    with pytest.raises(ValueError, match=r"l\(mu\) <= m fails"):
        jacobi_trudi(F.SO_ODD, (2, 2), (1, 1), 2, 1)
    with pytest.raises(ValueError, match="not contained"):
        giambelli(F.SP, (1,), (2,), 2, 1)
    with pytest.raises(ValueError, match=r"lambda_1 <= N fails"):
        dual_jacobi_trudi(F.SP, (3,), (), 2, 1, N=2)
    with pytest.raises(ValueError, match=r"l\(lambda\) <= N fails"):
        jacobi_trudi(F.SP, (2, 2), (), 2, 1, N=1)


def test_n_independence():
    for fam in (F.SP, F.SO_ODD, F.O_EVEN):
        lam, mu = Partition((3, 2, 1)), Partition((1,))
        base = dual_jacobi_trudi(fam, lam, mu, 2, 1)
        basej = jacobi_trudi(fam, lam, mu, 2, 1)
        for extra in (1, 2):
            assert dual_jacobi_trudi(fam, lam, mu, 2, 1, lam.first() + extra) == base
            assert jacobi_trudi(fam, lam, mu, 2, 1, lam.length() + extra) == basej


def test_empty_shape_every_n():
    for N in (0, 1, 2):
        for fam in (F.SP, F.SO_ODD, F.O_EVEN):
            assert dual_jacobi_trudi(fam, (), (), 1, 0, N) == LaurentPoly.one(1)


def test_even_orthogonal_first_column_at_m_equal_l_mu():
    # at m = l(mu) the E bound leaves dual-JT's first column without its
    # twist, the column that equals twice its plain entry under the twist
    for lam in partitions_upto(5):
        for mu in partitions_upto(lam.size()):
            if not lam.contains(mu) or mu.length() > 2:
                continue
            for n in (1, 2):
                m = mu.length()
                if lam.length() > n + m:
                    continue
                oracle = character_by_tableaux(F.O_EVEN, SkewShape(lam, mu), n, m)
                assert dual_jacobi_trudi(F.O_EVEN, lam, mu, n, m) == oracle, (lam, mu, n)
                assert jacobi_trudi(F.O_EVEN, lam, mu, n, m) == oracle, (lam, mu, n)


def test_row_and_column_blocks_closed_forms():
    # Giambelli's single-row blocks (a)/(g) are 1 x 1 JT determinants and its
    # single-column blocks (1^{b+1})/(1^{d+1}) 1 x 1 dual-JT determinants
    for fam, sign, off in ((F.SP, -1, 0), (F.SO_ODD, 1, 1), (F.O_EVEN, 1, 2)):
        for n in (0, 1, 2):
            for m in (1, 2):
                for a in range(5):
                    for g in range(a + 1):
                        lam = Partition((a,) if a else ())
                        mu = Partition((g,) if g else ())
                        got = jacobi_trudi(fam, lam, mu, n, m)
                        assert got == complete_pm(a - g, n), (fam, n, m, a, g)
                        assert got == character_by_tableaux(fam, SkewShape(lam, mu), n, m)
                for d in range(m):
                    for b in range(d, n + m):
                        lam, mu = Partition((1,) * (b + 1)), Partition((1,) * (d + 1))
                        got = dual_jacobi_trudi(fam, lam, mu, n, m)
                        if fam is F.O_EVEN and d == m - 1:
                            want = elementary_pm(b - d, n)
                        else:
                            twist = elementary_pm(b + d - 2 * m + off, n)
                            want = elementary_pm(b - d, n) + twist.scaled(sign)
                        assert got == want, (fam, n, m, b, d)
                        assert got == character_by_tableaux(fam, SkewShape(lam, mu), n, m)


def test_four_way_small_sweep():
    for fam in (F.SP, F.SO_ODD, F.O_EVEN):
        for lam in partitions_upto(4):
            for mu in partitions_upto(lam.size()):
                if not lam.contains(mu) or mu.length() > 2:
                    continue
                for n in (1, 2):
                    for m in range(mu.length(), 3):
                        if lam.length() > n + m:
                            continue
                        oracle = character(fam, lam, mu, n, m, M.TABLEAUX)
                        for meth in (M.DUAL_JT, M.JT, M.GIAMBELLI):
                            assert character(fam, lam, mu, n, m, meth) == oracle
