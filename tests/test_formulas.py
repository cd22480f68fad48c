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
from skewchar.core import partitions_upto
from skewchar.formulas import BLOCK_CACHE_SIZE, _dual_jt_cached

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


def test_wide_hook_block_takes_jt(monkeypatch):
    # (7,1) is the single hook (6|1): JT of size 2, not dual-JT of size 7,
    # which made 302 multiplies
    got, muls = count_muls(monkeypatch, giambelli, F.SP, (7, 1), (), 3, 0)
    assert muls <= 10, muls
    assert got == jacobi_trudi(F.SP, (7, 1), (), 3, 0)


def test_jt_and_giambelli_expand_from_the_bottom_row(monkeypatch):
    # from the top row down, JT made 30 multiplies here and Giambelli,
    # with hooks by JT only when b + 1 < a, made 53
    case = (F.SP, (4, 4, 2, 1), (), 3, 1)
    by_jt, muls = count_muls(monkeypatch, jacobi_trudi, *case)
    assert muls < 30, muls
    by_giambelli, muls = count_muls(monkeypatch, giambelli, *case)
    assert muls < 53, muls
    want = character_by_tableaux(F.SP, SkewShape(Partition((4, 4, 2, 1)), Partition()), 3, 1)
    assert by_jt == by_giambelli == want


def test_hook_routes_agree_across_the_rule():
    # both of the paper's determinants for the hook (a|b) = (a+1, 1^b), on
    # both sides of the rule b < a that picks between them, so the
    # route Giambelli skips for a hook stays checked
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
