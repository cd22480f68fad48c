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


# Each determinant entry is e_r (dual-JT) or h_r (JT) of the doubled
# alphabet plus one family twist term; the general linear family has no twist
# and uses the plain alphabet.  Dual-JT twist: sign * e_{l'_i + m'_j - i - j
# - 2m + off}.  JT twist: sign * h_{l_i - i - j + 2m + off}, in the columns
# j > m + threshold only.
_DUAL_JT_TWIST = {
    CharacterFamily.SP: (-1, 0),
    CharacterFamily.SO_ODD: (1, 1),
    CharacterFamily.O_EVEN: (1, 2),
}
_JT_TWIST = {
    CharacterFamily.SP: (1, 2, 1),
    CharacterFamily.SO_ODD: (1, 1, 0),
    CharacterFamily.O_EVEN: (-1, 0, 0),
}


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
    e = elementary_plain if family is CharacterFamily.GL else elementary_pm
    twist = _DUAL_JT_TWIST.get(family)
    rows = []
    for i in range(1, N + 1):
        row = []
        for j in range(1, N + 1):
            entry = e(lc.part(i) - mc.part(j) - i + j, n)
            if twist:
                sign, off = twist
                extra = e(lc.part(i) + mc.part(j) - i - j - 2 * m + off, n)
                entry = entry + extra.scaled(sign)
            row.append(entry)
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
    h = complete_plain if family is CharacterFamily.GL else complete_pm
    twist = _JT_TWIST.get(family)
    rows = []
    for i in range(1, N + 1):
        row = []
        for j in range(1, N + 1):
            entry = h(lam.part(i) - mu.part(j) - i + j, n)
            if twist and j > m + twist[2]:
                sign, off, _ = twist
                extra = h(lam.part(i) - i - j + 2 * m + off, n)
                entry = entry + extra.scaled(sign)
            row.append(entry)
        rows.append(row)
    return PolyMatrix(rows, n).determinant()


# Giambelli hook blocks kept at once; acceptance criterion 1 (the 4x4 box,
# n <= 3, m <= 2) uses at most 693 distinct entries, so the whole sweep fits
BLOCK_CACHE_SIZE = 1024


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _dual_jt_cached(family, lam_parts, mu_parts, n, m, N):
    return dual_jacobi_trudi(family, Partition(lam_parts), Partition(mu_parts), n, m, N)


def _skew_block(route, family, outer, inner, n, m):
    """A single-row or single-column Giambelli block by the given 1 x 1
    determinant route (zero parts dropped); 0 when inner does not fit."""
    lam, mu = Partition(filter(None, outer)), Partition(filter(None, inner))
    if not lam.contains(mu):
        return LaurentPoly.zero(n)
    return route(family, lam, mu, n, m)


def giambelli(family, lam, mu=Partition(), n=1, m=0):
    """(p+q) x (p+q) block determinant times (-1)^q, from the Frobenius
    coordinates (a|b) of lambda and (g|d) of mu.  Its blocks are the hook
    characters (a_i|b_j) by dual-JT, the single rows (a_i)/(g_j) by JT
    (h_{a-g}), the single columns (1^{b_j+1})/(1^{d_i+1}) by dual-JT
    (e_{b-d} plus the family twist) and a q x q zero block.
    """
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    fl, fm = lam.to_frobenius(), mu.to_frobenius()
    rows = [
        [_dual_jt_cached(family, (a + 1,) + (1,) * b, (), n, m, a + 1) for b in fl.legs]
        + [_skew_block(jacobi_trudi, family, (a,), (g,), n, m) for g in fm.arms]
        for a in fl.arms
    ]
    rows += [
        [
            _skew_block(dual_jacobi_trudi, family, (1,) * (b + 1), (1,) * (d + 1), n, m)
            for b in fl.legs
        ]
        + [LaurentPoly.zero(n)] * len(fm.arms)
        for d in fm.legs
    ]
    det = PolyMatrix(rows, n).determinant()
    return det.scaled(-1 if len(fm.arms) % 2 else 1)


def lgv_character(family, lam, mu=Partition(), n=1, m=0, N=None):
    """Brute-force signed lattice-path sum over the columnwise configuration."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    shape = SkewShape(lam, mu)
    model, starts, ends = pth.model_and_endpoints(family, shape, n, m, N)
    return pth.lgv_signed_sum(model, starts, ends)


def character(family, lam, mu=Partition(), n=1, m=0, method=Method.DUAL_JT, N=None):
    """Compute a skew character by the requested route.  N sizes the dual-JT
    and JT matrices and the LGV configuration; the other routes take none."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    if N is not None and method in (Method.TABLEAUX, Method.GIAMBELLI):
        raise ValueError("method %s takes no N" % method.value)
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
