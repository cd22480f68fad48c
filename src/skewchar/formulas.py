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
    Laplace memo builds its many small minors from those and meets the large
    top-row entries only in its last levels.  Dual-JT keeps the top-down
    order for now: the benchmark's counter self-check pins its multiply
    counts.
    """
    return PolyMatrix([row[::-1] for row in reversed(rows)], n).determinant()


# Giambelli hook blocks kept at once, one per (family, a, b, n, m) by
# either route (JT when b < a, dual-JT otherwise, see _dual_jt_cached);
# acceptance criterion 1 (the 4x4 box, n <= 3, m <= 2) uses 312 distinct
# hooks, so the whole sweep fits
BLOCK_CACHE_SIZE = 1024


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _dual_jt_cached(family, a, b, n, m):
    """The Giambelli hook block (a|b), the character of (a+1, 1^b), by the
    smaller of the paper's two determinants for it: JT of size b+1 when
    b < a, dual-JT of size a+1 otherwise.  Timed over the 546 hooks of sp,
    so and o with n <= 3, m <= 2, a <= 6, b <= 3 (best of 3 runs each, one
    core of a 2-CPU x86 host), the sum is 1.36 s always by dual-JT, 0.130 s
    always by JT, 0.112 s by this rule, 0.134 s by the older rule
    b + 1 < a and 0.111 s by the best route for each hook.  JT, expanded
    from its sparse bottom rows (_det_bottom_up), wins every hook with
    b < a; dual-JT, expanded from its top row, wins every other one.

    The name is older than the JT route and stays: perfbench clears this
    cache by name before every op and reads its cache_info, so under a new
    name the blocks would stay warm from one op to the next.
    """
    hook = Partition((a + 1,) + (1,) * b)
    if b < a:
        return jacobi_trudi(family, hook, Partition(), n, m, b + 1)
    return dual_jacobi_trudi(family, hook, Partition(), n, m, a + 1)


def giambelli(family, lam, mu=Partition(), n=1, m=0):
    """(p+q) x (p+q) block determinant times (-1)^q, from the Frobenius
    coordinates (a|b) of lambda and (g|d) of mu.  Its blocks are the hook
    characters (a_i|b_j), each by JT of size b_j+1 when b_j < a_i and
    by dual-JT of size a_i+1 otherwise (_dual_jt_cached), the single rows
    (a_i)/(g_j), JT's 1 x 1 entry H(1 - g, 1 - a), the single columns
    (1^{b_j+1})/(1^{d_i+1}), dual-JT's 1 x 1 entry E(b + 1, d + 1), and a
    q x q zero block.  Both entries are 0 where the inner shape does not
    fit.
    """
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    fl, fm = lam.to_frobenius(), mu.to_frobenius()
    gl = family is CharacterFamily.GL
    e = elementary_plain if gl else elementary_pm
    h = complete_plain if gl else complete_pm
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
