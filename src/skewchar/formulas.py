"""The determinantal character formulas and a dispatcher that computes any
skew character by tableau enumeration, dual or ordinary Jacobi-Trudi
determinants, the Giambelli block determinant, or the direct signed
lattice-path sum.
"""

from enum import Enum
from functools import lru_cache

from .core import Partition, PolyMatrix, SkewShape
from . import paths as pth
from . import tableaux as tb
from .symfunc import family_pair


class Method(Enum):
    TABLEAUX = "tableaux"
    DUAL_JT = "dual-jt"
    JT = "jt"
    GIAMBELLI = "giambelli"
    LGV_PATHS = "lgv"


def _as_partition(p):
    return p if isinstance(p, Partition) else Partition(p)


# Each determinant route is an index rule over an entry pair (symfunc's E
# and unsigned H) that returns its rows; the routes agree by Jacobi's
# complementary-minor theorem for any lower-unitriangular pair.  For o at
# m = l(mu) the E bound leaves dual-JT's first column untwisted.


def dual_jt_rows(pair, lam, mu, N):
    """Dual-JT's N x N matrix: entry (i, j) is E(lambda'_i - i + 1, mu'_j - j + 1)."""
    lc, mc = lam.conjugate(), mu.conjugate()
    return [
        [pair.E(lc.part(i) - i + 1, mc.part(j) - j + 1) for j in range(1, N + 1)]
        for i in range(1, N + 1)
    ]


def jt_rows(pair, lam, mu, N):
    """JT's N x N matrix: entry (i, j) is the unsigned H(j - mu_j, i - lambda_i)."""
    return [
        [pair.H(j - mu.part(j), i - lam.part(i)) for j in range(1, N + 1)]
        for i in range(1, N + 1)
    ]


def hook_block(pair, a, b):
    """The Giambelli hook block (a|b), the character of (a+1, 1^b).

    JT of size b+1 for the hook, expanded along its first row H(s, -a), is
    the sum over s = 1..b+1 of f(s) = (-1)^(s+1) H(s, -a) E(b+1, s): the
    minor of its other rows without column s is E(b+1, s) (Jacobi's
    complementary-minor theorem).  As E H = I, it is also minus the sum
    over s = -a..0.  The shorter range is summed, and a zero E entry adds
    no product; no determinant is taken.
    """
    block = pair.zero
    for s in range(1, b + 2) if b < a else range(-a, 1):
        e = pair.E(b + 1, s)
        if e == pair.zero:
            continue
        f = pair.H(s, -a) * e
        block = block + f if s & 1 else block - f
    return block if b < a else -block


def giambelli_rows(pair, lam, mu, block):
    """Giambelli's (p+q) x (p+q) matrix from the Frobenius coordinates
    (a|b) of lambda and (g|d) of mu; its determinant times (-1)^q,
    q = mu.durfee(), is the character.  Its blocks: the hooks (a_i|b_j),
    block(a, b); the single rows (a_i)/(g_j), JT's 1 x 1 entry H(-g, -a)
    (H(1 - g, 1 - a) reads the same on the domain, but is no minor of a
    generic pair); the single columns (1^{b_j+1})/(1^{d_i+1}), dual-JT's
    E(b + 1, d + 1); and a q x q zero block.
    """
    fl, fm = lam.to_frobenius(), mu.to_frobenius()
    rows = [
        [block(a, b) for b in fl.legs] + [pair.H(-g, -a) for g in fm.arms]
        for a in fl.arms
    ]
    rows += [
        [pair.E(b + 1, d + 1) for b in fl.legs] + [pair.zero] * len(fm.arms)
        for d in fm.legs
    ]
    return rows


def dual_jacobi_trudi(family, lam, mu=Partition(), n=1, m=0, N=None):
    """N x N determinant of dual_jt_rows over the family's pair."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    N = tb.matrix_size(N, lam.first(), "lambda_1")
    return PolyMatrix(dual_jt_rows(family_pair(family, n, m), lam, mu, N), n).determinant()


def jacobi_trudi(family, lam, mu=Partition(), n=1, m=0, N=None):
    """N x N determinant of jt_rows over the family's pair."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    N = tb.matrix_size(N, lam.length(), "l(lambda)")
    return _det_bottom_up(jt_rows(family_pair(family, n, m), lam, mu, N), n)


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
    """hook_block (a|b) over the family's pair.  The name predates the
    closed form and stays: perfbench clears this cache by name before every
    op, so under a new name the blocks would stay warm between ops."""
    return hook_block(family_pair(family, n, m), a, b)


def giambelli(family, lam, mu=Partition(), n=1, m=0):
    """Giambelli's determinant, its hook blocks cached (_dual_jt_cached)."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    tb.check_preconditions(family, lam, mu, n, m)
    rows = giambelli_rows(
        family_pair(family, n, m), lam, mu, lambda a, b: _dual_jt_cached(family, a, b, n, m)
    )
    return _det_bottom_up(rows, n).scaled(-1 if mu.durfee() % 2 else 1)


def lgv_character(family, lam, mu=Partition(), n=1, m=0, N=None):
    """Signed sum over the columnwise configuration's non-intersecting
    lattice-path families, with no determinant."""
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
