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
    TWIST,
    CharacterFamily,
    complete_plain,
    complete_pm,
    e_entry,
    elementary_plain,
    elementary_pm,
    h_entry,
)


class Method(Enum):
    TABLEAUX = "tableaux"
    DUAL_JT = "dual-jt"
    JT = "jt"
    GIAMBELLI = "giambelli"
    LGV_PATHS = "lgv"


def _as_partition(p):
    return p if isinstance(p, Partition) else Partition(p)


# Both routes are minors of symfunc's pair E, E^-1 = H, with the family's
# (k, t) from symfunc.TWIST; JT's matrix is the complementary minor of
# dual-JT's (Jacobi's theorem).  For o at m = l(mu) the E bound leaves
# dual-JT's first column untwisted, so neither route divides.


def dual_jacobi_trudi(family, lam, mu=Partition(), n=1, m=0, N=None):
    """N x N determinant of the entries E(lambda'_i - i + 1, mu'_j - j + 1)
    in elementary symmetric polynomials of the doubled alphabet (plain
    alphabet for the general linear family)."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    N = tb.matrix_size(N, lam.first(), "lambda_1")
    lc, mc = lam.conjugate(), mu.conjugate()
    e = elementary_plain if family is CharacterFamily.GL else elementary_pm
    k, t = TWIST[family]
    rows = [
        [e_entry(lc.part(i) - i + 1, mc.part(j) - j + 1, m, k, t, n, e) for j in range(1, N + 1)]
        for i in range(1, N + 1)
    ]
    return PolyMatrix(rows, n).determinant()


def jacobi_trudi(family, lam, mu=Partition(), n=1, m=0, N=None):
    """N x N determinant of the unsigned entries H(j - mu_j, i - lambda_i) in
    complete homogeneous symmetric polynomials of the doubled alphabet (plain
    alphabet for the general linear family)."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    N = tb.matrix_size(N, lam.length(), "l(lambda)")
    h = complete_plain if family is CharacterFamily.GL else complete_pm
    k, t = TWIST[family]
    rows = [
        [h_entry(j - mu.part(j), i - lam.part(i), m, k, t, n, h) for j in range(1, N + 1)]
        for i in range(1, N + 1)
    ]
    return _det_bottom_up(rows, n)


def _det_bottom_up(rows, n):
    """The determinant of rows, expanded from its last row up.

    Rows and columns both reversed (J A J with J the reversal) have the same
    determinant.  In the JT matrix and in Giambelli's block matrix the last
    rows hold the lowest-degree entries and most of the zeros, so the
    expansion over nonzero minors builds its many small minors from those
    and meets the large top-row entries only in its last levels.  Dual-JT
    keeps the top-down order for now: the benchmark's counter self-check
    pins its multiply counts.
    """
    return PolyMatrix([row[::-1] for row in reversed(rows)], n).determinant()


# Giambelli hook blocks kept at once, one per (family, a, b, n, m);
# acceptance criterion 1 (the 4x4 box, n <= 3, m <= 2) uses 312 distinct
# hooks, so the whole sweep fits
BLOCK_CACHE_SIZE = 1024


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _dual_jt_cached(family, a, b, n, m):
    """The Giambelli hook block (a|b), the character of (a+1, 1^b), from
    the entry rule, H and E unsigned as h_entry and e_entry give them.

    JT of size b+1 for the hook, expanded along its first row H(s, -a), is
    the sum over s = 1..b+1 of f(s) = (-1)^(s+1) H(s, -a) E(b+1, s): the
    minor of its other rows without column s is E(b+1, s) (Jacobi's
    complementary-minor theorem).  As E H = I, it is also minus the sum
    over s = -a..0.  The shorter range is summed; no determinant is taken.

    The name predates the closed form and stays: perfbench clears this
    cache by name before every op and reads its cache_info, so under a
    new name the blocks would stay warm from one op to the next.
    """
    gl = family is CharacterFamily.GL
    e, h = (elementary_plain, complete_plain) if gl else (elementary_pm, complete_pm)
    k, t = TWIST[family]
    block = LaurentPoly.zero(n)
    for s in range(1, b + 2) if b < a else range(-a, 1):
        f = h_entry(s, -a, m, k, t, n, h) * e_entry(b + 1, s, m, k, t, n, e)
        block = block + f if s & 1 else block - f
    return block if b < a else -block


def giambelli(family, lam, mu=Partition(), n=1, m=0):
    """(p+q) x (p+q) block determinant times (-1)^q, from the Frobenius
    coordinates (a|b) of lambda and (g|d) of mu, every block read off the
    entry rule: the hook characters (a_i|b_j), sums of products of H and E
    entries (_dual_jt_cached); the single rows (a_i)/(g_j), JT's 1 x 1
    entry H(1 - g, 1 - a); the single columns (1^{b_j+1})/(1^{d_i+1}),
    dual-JT's 1 x 1 entry E(b + 1, d + 1); and a q x q zero block.  Both
    entries are 0 where the inner shape does not fit.
    """
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    fl, fm = lam.to_frobenius(), mu.to_frobenius()
    gl = family is CharacterFamily.GL
    e, h = (elementary_plain, complete_plain) if gl else (elementary_pm, complete_pm)
    k, t = TWIST[family]
    rows = [
        [_dual_jt_cached(family, a, b, n, m) for b in fl.legs]
        + [h_entry(1 - g, 1 - a, m, k, t, n, h) for g in fm.arms]
        for a in fl.arms
    ]
    rows += [
        [e_entry(b + 1, d + 1, m, k, t, n, e) for b in fl.legs]
        + [LaurentPoly.zero(n)] * len(fm.arms)
        for d in fm.legs
    ]
    det = _det_bottom_up(rows, n)
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
