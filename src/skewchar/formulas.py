"""The determinantal character formulas and a dispatcher that computes any
skew character by tableau enumeration, dual or ordinary Jacobi-Trudi
determinants, the Giambelli block determinant, or the brute-force signed
lattice-path sum.
"""

from enum import Enum
from functools import lru_cache

from .core import LaurentPoly, Partition, PolyMatrix, SkewShape
from . import paths as pth
from . import tableaux as tb
from .symfunc import (
    CharacterFamily,
    complete_plain,
    complete_pm,
    elementary_plain,
    elementary_pm,
)


class Method(Enum):
    TABLEAUX = "tableaux"
    DUAL_JT = "dual-jt"
    JT = "jt"
    GIAMBELLI = "giambelli"
    LGV_PATHS = "lgv"


def _as_partition(p):
    return p if isinstance(p, Partition) else Partition(p)


def dual_jacobi_trudi(family, lam, mu=Partition(), n=1, m=0, N=None):
    """N x N determinant in elementary symmetric polynomials of the doubled
    alphabet (plain alphabet for the general linear family); for the even
    orthogonal family the determinant is divided by 2 exactly when m = l(mu).
    """
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    if N is None:
        N = lam.first()
    if N < lam.first():
        raise ValueError("lambda_1 <= N fails: %d > %d" % (lam.first(), N))
    lc, mc = lam.conjugate(), mu.conjugate()
    if family is CharacterFamily.GL:
        rows = [
            [
                elementary_plain(lc.part(i) - mc.part(j) - i + j, n)
                for j in range(1, N + 1)
            ]
            for i in range(1, N + 1)
        ]
        return PolyMatrix(rows, n).determinant()
    sign, off = {
        CharacterFamily.SP: (-1, 0),
        CharacterFamily.SO_ODD: (1, 1),
        CharacterFamily.O_EVEN: (1, 2),
    }[family]
    rows = []
    for i in range(1, N + 1):
        row = []
        for j in range(1, N + 1):
            entry = elementary_pm(lc.part(i) - mc.part(j) - i + j, n)
            extra = elementary_pm(lc.part(i) + mc.part(j) - i - j - 2 * m + off, n)
            row.append(entry + extra.scaled(sign))
        rows.append(row)
    det = PolyMatrix(rows, n).determinant()
    # the halving argument doubles the first column, which needs N >= 1;
    # the empty determinant is already the character of the empty shape
    if family is CharacterFamily.O_EVEN and m == mu.length() and N >= 1:
        det = det.div_exact_int(2)
    return det


def jacobi_trudi(family, lam, mu=Partition(), n=1, m=0, N=None):
    """N x N determinant in complete homogeneous symmetric polynomials of the
    doubled alphabet (plain alphabet for the general linear family)."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    if N is None:
        N = lam.length()
    if N < lam.length():
        raise ValueError("l(lambda) <= N fails: %d > %d" % (lam.length(), N))
    if family is CharacterFamily.GL:
        rows = [
            [
                complete_plain(lam.part(i) - mu.part(j) - i + j, n)
                for j in range(1, N + 1)
            ]
            for i in range(1, N + 1)
        ]
        return PolyMatrix(rows, n).determinant()
    sign, off, thresh = {
        CharacterFamily.SP: (1, 2, 1),
        CharacterFamily.SO_ODD: (1, 1, 0),
        CharacterFamily.O_EVEN: (-1, 0, 0),
    }[family]
    rows = []
    for i in range(1, N + 1):
        row = []
        for j in range(1, N + 1):
            entry = complete_pm(lam.part(i) - mu.part(j) - i + j, n)
            if j > m + thresh:
                extra = complete_pm(lam.part(i) - i - j + 2 * m + off, n)
                entry = entry + extra.scaled(sign)
            row.append(entry)
        rows.append(row)
    return PolyMatrix(rows, n).determinant()


# Giambelli block entries kept at once; acceptance criterion 1 (the 4x4 box,
# n <= 3, m <= 2) uses at most 693 distinct entries, so the whole sweep fits
BLOCK_CACHE_SIZE = 1024


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _dual_jt_cached(family, lam_parts, mu_parts, n, m, N):
    return dual_jacobi_trudi(family, Partition(lam_parts), Partition(mu_parts), n, m, N)


def _hook_partition(arm, leg):
    return Partition((arm + 1,) + (1,) * leg)


def _block_entry(family, lam, mu, n, m, by_tableaux=False):
    """A Giambelli block entry: the character of the given (possibly skew)
    shape, 0 when the inner shape is not contained in the outer one."""
    if not lam.contains(mu):
        return LaurentPoly.zero(n)
    if by_tableaux:
        return tb.character_by_tableaux(family, SkewShape(lam, mu), n, m)
    return _dual_jt_cached(family, lam.parts, mu.parts, n, m, lam.first())


def giambelli(family, lam, mu=Partition(), n=1, m=0, block_method=Method.DUAL_JT):
    """(p+q) x (p+q) block determinant times (-1)^q over hook, single-row and
    single-column characters, taken from the Frobenius coordinates.

    Block entries default to the dual determinant route for speed;
    block_method=Method.TABLEAUX recomputes them by enumeration instead.
    """
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    if block_method not in (Method.DUAL_JT, Method.TABLEAUX):
        raise ValueError("block entries come from dual-jt or tableaux")
    by_tab = block_method is Method.TABLEAUX
    fl = lam.to_frobenius()
    fm = mu.to_frobenius()
    p, q = len(fl.arms), len(fm.arms)
    zero = LaurentPoly.zero(n)
    size = p + q
    if size == 0:
        return LaurentPoly.one(n)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i < p and j < p:
                entry = _block_entry(
                    family,
                    _hook_partition(fl.arms[i], fl.legs[j]),
                    Partition(),
                    n,
                    m,
                    by_tab,
                )
            elif i < p:
                g = fm.arms[j - p]
                if family is CharacterFamily.GL:
                    entry = complete_plain(fl.arms[i] - g, n)
                else:
                    entry = _block_entry(
                        family,
                        Partition((fl.arms[i],)) if fl.arms[i] else Partition(),
                        Partition((g,)) if g else Partition(),
                        n,
                        m,
                        by_tab,
                    )
            elif j < p:
                d = fm.legs[i - p]
                if family is CharacterFamily.GL:
                    entry = elementary_plain(fl.legs[j] - d, n)
                else:
                    entry = _block_entry(
                        family,
                        Partition((1,) * (fl.legs[j] + 1)),
                        Partition((1,) * (d + 1)),
                        n,
                        m,
                        by_tab,
                    )
            else:
                entry = zero
            row.append(entry)
        rows.append(row)
    det = PolyMatrix(rows, n).determinant()
    return det.scaled(-1 if q % 2 else 1)


def lgv_character(family, lam, mu=Partition(), n=1, m=0, N=None):
    """Brute-force signed lattice-path sum over the columnwise configuration."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    shape = SkewShape(lam, mu)
    model, starts, ends = pth.model_and_endpoints(family, shape, n, m, N)
    return pth.lgv_signed_sum(model, starts, ends)


def character(family, lam, mu=Partition(), n=1, m=0, method=Method.DUAL_JT, N=None):
    """Compute a skew character by the requested route."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    if method is Method.TABLEAUX:
        return tb.character_by_tableaux(family, SkewShape(lam, mu), n, m)
    if method is Method.DUAL_JT:
        return dual_jacobi_trudi(family, lam, mu, n, m, N)
    if method is Method.JT:
        return jacobi_trudi(family, lam, mu, n, m, N)
    if method is Method.GIAMBELLI:
        return giambelli(family, lam, mu, n, m)
    if method is Method.LGV_PATHS:
        return lgv_character(family, lam, mu, n, m, N)
    raise ValueError("unknown method %r" % (method,))
