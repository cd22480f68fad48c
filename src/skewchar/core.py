"""Partitions, skew shapes, Frobenius coordinates, exact Laurent polynomials
and exact determinants of polynomial matrices.  A Laurent polynomial known
to be B_n-invariant is stored and multiplied as a symmetric polynomial in
y_i = x_i + x_i^-1 (see LaurentPoly).

Every value is immutable as seen from outside and every operation is a pure
function.  A LaurentPoly fills a few private slots lazily (its full terms,
envelope and packed keys), each a function of its coefficients alone, so
two threads that fill one at once store equal values and either write may
win: everything here is safe to share between threads.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product, repeat
from math import comb, factorial
from operator import add, ge, mul, sub


class Partition:
    """A weakly decreasing sequence of positive integers (possibly empty)."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError("partition parts must be positive: %r" % (parts,))
            if i > 0 and parts[i - 1] < p:
                raise ValueError("partition parts must weakly decrease: %r" % (parts,))
        self.parts = parts

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def length(self):
        return len(self.parts)

    def size(self):
        return sum(self.parts)

    def part(self, i):
        """The i-th part (1-based), 0 for i beyond the length."""
        if i < 1:
            raise IndexError("parts are 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def first(self):
        return self.parts[0] if self.parts else 0

    def conjugate(self):
        """Column lengths of the Young diagram."""
        if not self.parts:
            return Partition()
        return Partition(
            sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)
        )

    def contains(self, other):
        """True if other fits inside self row by row."""
        return all(self.part(i) >= other.part(i) for i in range(1, len(other) + 1))

    def durfee(self):
        """Side length of the largest square fitting in the diagram."""
        d = 0
        for i, p in enumerate(self.parts, start=1):
            if p >= i:
                d = i
        return d

    def to_frobenius(self):
        """Arm/leg lengths measured from the diagonal cells."""
        d = self.durfee()
        conj = self.conjugate()
        arms = tuple(self.part(i) - i for i in range(1, d + 1))
        legs = tuple(conj.part(i) - i for i in range(1, d + 1))
        return FrobeniusCoordinates(arms, legs)


def partitions_upto(size, max_len=None):
    """Every partition of at most `size` cells, each exactly once, the empty
    one first; only those with at most `max_len` parts when it is given."""
    out = [Partition()]

    def rec(rest, mx, acc):
        if max_len is not None and len(acc) >= max_len:
            return
        for p in range(min(rest, mx), 0, -1):
            out.append(Partition(acc + [p]))
            rec(rest - p, p, acc + [p])

    rec(size, size, [])
    return out


class FrobeniusCoordinates:
    """Strictly decreasing arm and leg lengths of equal count."""

    __slots__ = ("arms", "legs")

    def __init__(self, arms, legs):
        arms = tuple(int(a) for a in arms)
        legs = tuple(int(b) for b in legs)
        if len(arms) != len(legs):
            raise ValueError("arms and legs must have equal length")
        for seq, name in ((arms, "arms"), (legs, "legs")):
            if any(x < 0 for x in seq):
                raise ValueError("%s must be nonnegative: %r" % (name, seq))
            if any(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError("%s must strictly decrease: %r" % (name, seq))
        self.arms = arms
        self.legs = legs

    def __eq__(self, other):
        return (
            isinstance(other, FrobeniusCoordinates)
            and self.arms == other.arms
            and self.legs == other.legs
        )

    def __hash__(self):
        return hash((self.arms, self.legs))

    def __repr__(self):
        return "FrobeniusCoordinates(%r, %r)" % (self.arms, self.legs)

    def to_partition(self):
        """Inverse of Partition.to_frobenius."""
        p = len(self.arms)
        rows = [self.arms[i] + i + 1 for i in range(p)]
        # column lengths below the Durfee square determine the remaining rows
        for i in range(p):
            depth = self.legs[i] + i + 1  # cells in column i+1
            for r in range(p, depth):
                if r == len(rows):
                    rows.append(0)
                rows[r] += 1
        return Partition(rows)


class SkewShape:
    """The cells of outer not in inner."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=Partition()):
        if not isinstance(outer, Partition):
            outer = Partition(outer)
        if not isinstance(inner, Partition):
            inner = Partition(inner)
        if not outer.contains(inner):
            raise ValueError("inner %r not contained in outer %r" % (inner.parts, outer.parts))
        self.outer = outer
        self.inner = inner

    def __eq__(self, other):
        return (
            isinstance(other, SkewShape)
            and self.outer == other.outer
            and self.inner == other.inner
        )

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return "SkewShape(%r, %r)" % (self.outer.parts, self.inner.parts)

    def size(self):
        return self.outer.size() - self.inner.size()

    def cells(self):
        """All (row, col) pairs, 1-based, row-major order."""
        out = []
        for r in range(1, len(self.outer) + 1):
            for c in range(self.inner.part(r) + 1, self.outer.part(r) + 1):
                out.append((r, c))
        return out

    def contains_cell(self, r, c):
        return 1 <= r <= len(self.outer) and self.inner.part(r) < c <= self.outer.part(r)


class LaurentPoly:
    """Multivariate Laurent polynomial with exact integer coefficients.

    terms maps exponent tuples (length n_vars, entries may be negative) to
    nonzero ints.  Instances are treated as immutable.

    The internal flag _invariant is a promise that the polynomial is
    invariant under the hyperoctahedral group B_n (permutations of the
    variables and x_i -> x_i^-1).  No public constructor takes it: it is
    set through _from_y only where it is proven, by the constants and by
    the e/h tables of the doubled alphabet (symfunc).  Sums, negations,
    scalings and products of promised values keep it.

    A B_n-invariant Laurent polynomial is a symmetric polynomial in
    y_i = x_i + x_i^-1, and a promised value is stored only so: as its
    coefficients c_lam in the monomial symmetric functions m_lam(y), one
    per partition lam of at most n_vars parts, each key lam padded with
    zeros to n_vars entries.  m_0(y) is the constant 1, so sums,
    negations, scalings and constants read alike in either basis.  Those
    operations work on the y coefficients alone, and a product of two
    promised values is computed in y (see __mul__): no x-term is built.
    terms is then a read-only view, written out from the y coefficients
    once, on first read (_x_terms): by output, by equality with an
    unpromised value, by hashing and by a product with an unpromised
    value.  Equality, hashing and every output ignore the promise.
    """

    __slots__ = ("n_vars", "_terms", "_y", "_envelope", "_packed")

    def __init__(self, n_vars, terms=None):
        self.n_vars = n_vars
        self._terms = dict(terms) if terms else {}
        self._y = None  # coefficients in m_lam(y) of a promised value
        self._envelope = None  # of a promised operand, see _envelope
        self._packed = None  # (digit width, packed y-monomials), see _packed

    @property
    def terms(self):
        terms = self._terms
        if terms is None:
            terms = self._terms = _x_terms(self._y)
        return terms

    @property
    def _invariant(self):
        return self._y is not None

    def _stored(self):
        """The stored coefficients: the y ones of a promised value, every
        term of any other."""
        return self._terms if self._y is None else self._y

    def _like(self, coeffs):
        """A value of self's kind that takes over coeffs, a fresh dict keyed
        like _stored."""
        if self._y is None:
            return _owning(self.n_vars, coeffs)
        return _from_y(self.n_vars, coeffs)

    @classmethod
    def zero(cls, n_vars):
        return _from_y(n_vars, {})

    @classmethod
    def one(cls, n_vars):
        return _from_y(n_vars, {(0,) * n_vars: 1})

    @classmethod
    def constant(cls, n_vars, c):
        return _from_y(n_vars, {(0,) * n_vars: int(c)} if c else {})

    @classmethod
    def monomial(cls, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        return cls(len(exps), {exps: int(coeff)} if coeff else None)

    def is_zero(self):
        return not self._stored()

    def _check(self, other):
        if self.n_vars != other.n_vars:
            raise ValueError(
                "variable count mismatch: %d vs %d" % (self.n_vars, other.n_vars)
            )

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly) or self.n_vars != other.n_vars:
            return False
        if self._y is not None and other._y is not None:
            return self._y == other._y
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __add__(self, other):
        """Two promised values add their y coefficients, any other pair
        their terms."""
        self._check(other)
        if self._y is not None and other._y is not None:
            return _from_y(self.n_vars, _sum(self._y, other._y))
        return _owning(self.n_vars, _sum(self.terms, other.terms))

    def __neg__(self):
        return self._like({e: -c for e, c in self._stored().items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product.  A nonzero constant operand scales the other one; two
        promised operands are multiplied in y (_invariant_mul); any other
        pair by the term-pair loop on their terms (_term_pair_mul).  The
        result keeps the promise if both operands had it."""
        if isinstance(other, int):
            return self.scaled(other)
        self._check(other)
        n = self.n_vars
        invariant = self._y is not None and other._y is not None
        for const, rest in ((self, other), (other, self)):
            c = _constant(const)
            if c is not None:
                if invariant:
                    return _from_y(n, {e: k * c for e, k in rest._y.items()})
                return _owning(n, {e: k * c for e, k in rest.terms.items()})
        if not invariant:
            return _owning(n, _term_pair_mul(n, self.terms, other.terms))
        if not (self._y and other._y):
            return _from_y(n, {})
        return _invariant_mul(n, self, other)

    __rmul__ = __mul__

    def scaled(self, c):
        c = int(c)
        if c == 0:
            return LaurentPoly.zero(self.n_vars)
        return self._like({e: k * c for e, k in self._stored().items()})

    def eval_at(self, point):
        """Exact rational value at a point of nonzero rationals."""
        point = [Fraction(x) for x in point]
        if len(point) != self.n_vars:
            raise ValueError("point length %d != n_vars %d" % (len(point), self.n_vars))
        if any(x == 0 for x in point):
            raise ValueError("zero coordinate: negative exponents undefined")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = Fraction(c)
            for x, k in zip(point, e):
                v *= x ** k
            total += v
        return total

    def bar(self):
        """Substitute x_i -> x_i^-1 (negate every exponent vector)."""
        return LaurentPoly(
            self.n_vars, {tuple(-x for x in e): c for e, c in self.terms.items()}
        )

    def sorted_terms(self):
        """Terms ordered for the canonical text form (see _text_order)."""
        terms = self.terms
        return [(e, terms[e]) for e in _text_order(terms)]

    def to_text(self):
        """The canonical text form: the terms in _text_order, each as an
        unsigned coefficient (left out when it is 1 and the term is not
        constant) and its monomial, the factors x<i> or x<i>^<k> of its
        nonzero exponents joined by "*"; the terms joined by " + " and
        " - ", a leading "-" only when the first coefficient is negative,
        and "0" for the zero polynomial."""
        terms = self.terms
        if not terms:
            return "0"
        order = _text_order(terms)
        coeffs = list(map(terms.__getitem__, order))
        # the terms of a value are distinct but their coefficients and
        # factors repeat, so each head (" + 3", " - 1") and each factor
        # ("*x2^-3", "" for a zero exponent) is formatted once, in a dict,
        # and the terms are built column by column from lookups
        heads = {c: (" + %d" if c > 0 else " - %d") % abs(c) for c in set(coeffs)}
        columns = []
        for j, ks in enumerate(zip(*order), 1):
            factors = {k: "*x%d^%d" % (j, k) for k in set(ks)}
            factors[0], factors[1] = "", "*x%d" % j
            columns.append(map(factors.__getitem__, ks))
        monomials = map("".join, zip(*columns)) if columns else repeat("")
        # " 1*" only occurs as a coefficient 1 before a monomial, which is
        # left out; every term opens with " + " or " - ", and the first
        # term's sign loses its spaces and a "+" is dropped
        text = "".join(map(add, map(heads.__getitem__, coeffs), monomials)).replace(" 1*", " ")
        return text[3:] if text[1] == "+" else "-" + text[3:]

    __str__ = to_text

    def __repr__(self):
        return "LaurentPoly(%s)" % self.to_text()

    def to_json_terms(self):
        """Terms sorted lexicographically by exponent vector, coeffs as strings."""
        terms = self.terms
        return [{"exp": list(e), "coeff": str(terms[e])} for e in sorted(terms)]

    @classmethod
    def from_json_terms(cls, n_vars, terms):
        out = {}
        for t in terms:
            e = tuple(int(x) for x in t["exp"])
            if len(e) != n_vars:
                raise ValueError("exponent length %d != n_vars %d" % (len(e), n_vars))
            c = int(t["coeff"])
            if c:
                out[e] = out.get(e, 0) + c
        return cls(n_vars, {e: c for e, c in out.items() if c})


def _text_order(terms):
    """The exponent vectors of terms in the order of the text form:
    descending total degree, ties broken by ascending lex on exponents, so
    `x1 + x1^-1` and `-2*x1^-1*x2 + 3`.  The second sort is stable, so it
    keeps the lex order within each degree."""
    return sorted(sorted(terms), key=sum, reverse=True)


def _owning(n_vars, terms):
    """An unpromised LaurentPoly that takes over terms, a fresh dict,
    without copying it."""
    poly = object.__new__(LaurentPoly)
    poly.n_vars = n_vars
    poly._terms = terms
    poly._y = poly._envelope = poly._packed = None
    return poly


def _from_y(n_vars, y):
    """A promised LaurentPoly that takes over y, a fresh dict from
    partitions (n_vars entries, zero padded) to nonzero coefficients in
    m_lam(y); its terms are written out on first read."""
    poly = object.__new__(LaurentPoly)
    poly.n_vars = n_vars
    poly._terms = None
    poly._y = y
    poly._envelope = poly._packed = None
    return poly


def _is_partition(e):
    """True if e is weakly decreasing and nonnegative: a zero-padded
    partition, and as an x-weight the dominant weight of its B_n orbit."""
    return not e or (e[-1] >= 0 and all(map(ge, e, e[1:])))


def _sum(x, y):
    """The sum of two coefficient dicts as a fresh dict without zeros: a
    copy of the longer one with the other added into it."""
    if len(x) < len(y):
        x, y = y, x
    out = dict(x)
    for e, c in y.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def _weights(n, w):
    """2^(i*w) for the digits i < n of a packed key of width w.

    An exponent vector e packs to the sum of e_i * 2^(i*w), digits signed.
    Packing is linear: the key of a sum of vectors is the sum of their keys.
    Two vectors with digits in [-2^(w-1), 2^(w-1)) have equal keys only if
    they are equal.  Every exponent accumulator packs so, at a width from
    _key_width, and decodes with _unpack."""
    return tuple(1 << s for s in range(0, n * w, w))


def _key_width(bound):
    """The least digit width w of packed keys whose digits all lie within
    bound of 0: bound < 2^(w-1)."""
    return bound.bit_length() + 1


def _unpack(keys, n, w):
    """{exponent tuple: c} from {packed key at digit width w: c}, zero
    coefficients dropped: adding 2^(w-1) to every digit puts it in
    [0, 2^w), where a mask reads it off."""
    half, mask, shifts = 1 << (w - 1), (1 << w) - 1, range(0, n * w, w)
    bias = half * sum(_weights(n, w))
    return {tuple((((k + bias) >> s) & mask) - half for s in shifts): c for k, c in keys.items() if c}


def _term_pair_mul(n, a, b):
    """The product of two term dicts, one int add per packed key pair.
    A product exponent is at most twice the largest |exponent| of either
    operand, which sets the width."""
    if len(a) > len(b):
        a, b = b, a
    big = max((abs(x) for t in (a, b) for e in t for x in e), default=0)
    w = _key_width(2 * big)
    weights = _weights(n, w)
    pa = [(sum(map(mul, e, weights)), c) for e, c in a.items()]
    pb = [(sum(map(mul, e, weights)), c) for e, c in b.items()]
    return _unpack(_pair_products(pa, pb), n, w)


def _pair_products(pa, pb):
    """{ka + kb: the sum of ca * cb} over the pairs of packed terms
    (ka, ca) of pa and (kb, cb) of pb, one int add per pair."""
    acc = {}
    get = acc.get
    for ka, ca in pa:
        for kb, cb in pb:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _constant(poly):
    """c if poly is the constant c != 0, read off its stored coefficients
    (one term, at the zero weight), else None."""
    stored = poly._stored()
    if len(stored) == 1:
        (e, c), = stored.items()
        if not any(e):
            return c
    return None


def _envelope(poly):
    """The envelope (F, parities) of a nonzero promised polynomial,
    computed once: F[k-1] is the largest lam_1 + ... + lam_k over its y
    keys lam, and parities holds every |lam| mod 2.

    It is also the envelope of the x-terms, the largest sum of the k
    largest |exponents| of a term and the parities of the exponent sums.
    Every x-term of m_lam(y) has the parity of |lam|, and its sorted
    |exponents| lie below lam entry by entry, so no x-term exceeds these
    bounds; they are reached, since a key with no other key of its parity
    above it entry by entry is an x-term, with its own coefficient."""
    env = poly._envelope
    if env is None:
        cols = zip(*poly._y)
        run = next(cols)
        bound = [max(run)]
        for col in cols:
            run = list(map(add, run, col))
            bound.append(max(run))
        env = poly._envelope = tuple(bound), frozenset(map((1).__and__, run))
    return env


# S_n orbits, B_n orbits, candidate lists and x-expansions of m_lam(y)
# (_x_dominant) kept at once, of each kind.  The 4x4-box sweep of
# acceptance criterion 1 (dual-JT, JT and Giambelli, no terms written out)
# fills 326 candidate lists and 70 S_n orbits; sp (6,6,6,6)/(2) by JT with
# n=4 and m=1, its terms written out, 17 lists, 196 S_n orbits, 109 B_n
# orbits and 106 expansions; o (12,12,12) by JT with n=3, the largest fill
# measured, 413 S_n orbits
KERNEL_CACHE_SIZE = 1024

# packed S_n orbits kept at once, one per (lam, digit width).  Nearly all
# are at KEY_WIDTH_FLOOR: the verify-box and wide-row plans of perfbench
# (seeds 1 and 4) fill at most 70 and 61 entries, the criterion-1 sweep 70,
# sp (6,6,6,6)/(2) by JT with n=4 and m=1 189 and o (12,12,12) by JT 375.
# A value keeps the packing of one width only (_packed), so it holds no
# cache that grows.
PACKED_ORBIT_CACHE_SIZE = 1024

# the least digit width of packed keys.  Every product whose envelope has
# F_1 < 2^(KEY_WIDTH_FLOOR - 2) packs at this width, so an operand is packed
# once however many products it enters: every product of the verify-box and
# wide-row plans, of criterion 1 and of the three ROADMAP shapes sp (12,),
# o (12,12,12) and sp (6,6,6,6)/(2) does.
KEY_WIDTH_FLOOR = 8

# the product kernel runs while its candidates number at most KERNEL_RATIO
# times the y-monomials of the larger operand, and lists them to count
# them where their bound is at most CANDIDATE_PROBE (see _invariant_mul)
KERNEL_RATIO = 2
CANDIDATE_PROBE = 1 << 14


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _candidates(bound, parities):
    """The partitions lam_1 >= ... >= lam_n >= 0 whose k-th partial sum is
    at most bound[k-1] and whose |lam| mod 2 is in parities, as
    (w, lams, keys): keys packs lams at the digit width
    w = max(KEY_WIDTH_FLOOR, _key_width(2 * bound[0]))."""
    n = len(bound)
    w = max(KEY_WIDTH_FLOOR, _key_width(2 * bound[0]))
    lams = []

    def rec(prefix, total, cap):
        k = len(prefix)
        if k == n:
            if total & 1 in parities:
                lams.append(prefix)
            return
        for x in range(min(cap, bound[k] - total), -1, -1):
            rec(prefix + (x,), total + x, x)

    rec((), 0, bound[0])
    weights = _weights(n, w)
    return w, tuple(lams), tuple(sum(map(mul, lam, weights)) for lam in lams)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _sn_orbit(lam):
    """The S_n orbit of a partition: its distinct permutations."""
    return tuple(dict.fromkeys(permutations(lam)))


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _orbit(nu):
    """The B_n orbit of a dominant x-weight: its distinct signed
    permutations, each distinct permutation with every choice of signs
    of its nonzero entries."""
    return tuple(s for p in _sn_orbit(nu) for s in product(*(((x, -x) if x else (0,)) for x in p)))


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _x_dominant(lam):
    """m_lam(y) at the dominant x-weights nu, as ((nu, coefficient), ...).

    y_i^k = sum_j C(k, j) x_i^(k-2j), whose coefficients are symmetric
    under x_i -> x_i^-1, so the coefficient of x^nu is the sum over the
    distinct permutations p of lam of the products of C(p_i, (p_i - nu_i)/2)
    over i, each nu_i at most p_i and of p_i's parity.  nu is built one
    entry at a time, each at most the one before; along an entry the
    binomial C(k, j), j = (k - v)/2, steps to C(k, j + 1) as v drops by 2."""
    n = len(lam)
    out = {}

    def rec(p, nu, cap, coeff):
        i = len(nu)
        if i == n:
            out[nu] = out.get(nu, 0) + coeff
            return
        k = p[i]
        j = (k - min(k, cap) + 1) >> 1
        c = comb(k, j)
        for v in range(k - 2 * j, -1, -2):
            rec(p, nu + (v,), v, coeff * c)
            c = c * (k - j) // (j + 1)
            j += 1

    for p in _sn_orbit(lam):
        rec(p, (), max(lam, default=0), 1)
    return tuple(out.items())


def _x_terms(y):
    """The terms of the sum of c_lam m_lam(y): its coefficients at the
    dominant x-weights, summed over lam (_x_dominant), then each B_n orbit
    written out."""
    dom = {}
    get = dom.get
    for lam, c in y.items():
        for nu, k in _x_dominant(lam):
            dom[nu] = get(nu, 0) + c * k
    terms = {}
    for nu, c in dom.items():
        if c:
            terms.update(zip(_orbit(nu), repeat(c)))
    return terms


@lru_cache(maxsize=PACKED_ORBIT_CACHE_SIZE)
def _packed_orbit(lam, w):
    """The S_n orbit of lam as packed keys of digit width w."""
    weights = _weights(len(lam), w)
    return tuple(sum(map(mul, e, weights)) for e in _sn_orbit(lam))


def _packed(poly, w):
    """The y-monomials of a promised poly as {key at digit width w:
    coefficient}, built from the packed S_n orbits of its keys and kept
    for the latest w only."""
    packed = poly._packed
    if packed is None or packed[0] != w:
        keys = {}
        for lam, c in poly._y.items():
            keys.update(zip(_packed_orbit(lam, w), repeat(c)))
        packed = poly._packed = w, keys
    return packed[1]


def _product_envelope(small, large):
    """Bounds on the product's envelope, the candidates' bound and parities:
    the sum of the k largest entries is a norm on y-exponent vectors, so
    at a y-monomial of the product it is at most the same sum for small
    plus that for large."""
    bs, ps = _envelope(small)
    bl, pl = _envelope(large)
    return tuple(map(add, bs, bl)), frozenset((p + q) & 1 for p in ps for q in pl)


def _invariant_mul(n, a, b):
    """Product of two nonzero promised values in y: at the candidate
    partitions only (_y_mul), or by the term-pair loop over their
    y-monomials (_y_term_pair_mul) where that costs less.

    Both operands are packed at the candidates' digit width first, and
    small is the one with fewer y-monomials.  The kernel looks each
    candidate up once per y-monomial of small, the loop takes each pair
    of y-monomials; a lookup costs about what a pair does, and the loop
    also decodes every key it makes, so the kernel is taken while the
    candidates number at most KERNEL_RATIO times the y-monomials of large.
    Their count is first bounded without listing them: at most
    C(F_1 + n, n), the weakly decreasing tuples below the bound F_1 on
    lam_1, and at most C(F_n + n(n+1)/2, n) / n!, since lam + (n-1, ..., 0)
    is strictly decreasing with sum at most F_n + n(n-1)/2.  That bound is
    loose, so where it is over the budget but at most CANDIDATE_PROBE the
    candidates are listed (and cached) and counted.  Sparse operands with
    large exponents, whose bound is far over, take the loop at once.
    """
    bound, parities = _product_envelope(a, b)
    w = max(KEY_WIDTH_FLOOR, _key_width(2 * bound[0]))
    small, large = _packed(a, w), _packed(b, w)
    if len(small) > len(large):
        a, small, large = b, large, small
    budget = KERNEL_RATIO * len(large)
    most = min(comb(bound[0] + n, n), comb(bound[-1] + n * (n + 1) // 2, n) // factorial(n))
    if most > budget and (most > CANDIDATE_PROBE or len(_candidates(bound, parities)[1]) > budget):
        return _from_y(n, _y_term_pair_mul(n, small, large, w))
    return _from_y(n, _y_mul(a, large, _candidates(bound, parities)))


def _y_mul(small, large, candidates):
    """The y coefficients of the product of a promised small and the packed
    y-monomials large of a promised value at the candidate partitions lam
    (see _candidates): c_lam = the sum over the y-monomials alpha of small
    of small[alpha] * large[lam - alpha].

    The keys are packed at the candidates' width w, so a candidate's key
    minus one of small is the key of the difference.  Every digit of such a
    difference and of a key of large is at most 2 * bound[0] < 2^(w-1) in
    absolute value, so no lookup aliases a different monomial.  small has
    few y-monomials, so the loop runs over them, the S_n orbit of each of
    its keys at a time (they share a coefficient), and looks every
    candidate up at once for each.
    """
    w, lams, keys = candidates
    get = large.get
    acc = [0] * len(keys)
    for lam, c in small._y.items():
        col = None
        for alpha in _packed_orbit(lam, w):
            hits = map(get, map(sub, keys, repeat(alpha)), repeat(0))
            col = hits if col is None else list(map(add, col, hits))
        acc = list(map(add, acc, col if c == 1 else map(c.__mul__, col)))
    return {lam: c for lam, c in zip(lams, acc) if c}


def _y_term_pair_mul(n, small, large, w):
    """The y coefficients of the product of two promised values from their
    packed y-monomials small and large at digit width w, by the term-pair
    loop, with only the partitions kept: the product is symmetric, so its
    coefficient at the monomial y^lam is its coefficient c_lam."""
    terms = _unpack(_pair_products(small.items(), large.items()), n, w)
    return {e: c for e, c in terms.items() if _is_partition(e)}


class PolyMatrix:
    """Square matrix of LaurentPoly sharing one variable count."""

    __slots__ = ("dim", "n_vars", "rows")

    def __init__(self, rows, n_vars=None):
        rows = [list(r) for r in rows]
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix must be square")
        if dim:
            n_vars = rows[0][0].n_vars
            for r in rows:
                for p in r:
                    if p.n_vars != n_vars:
                        raise ValueError("entries must share n_vars")
        elif n_vars is None:
            raise ValueError("empty matrix needs an explicit n_vars")
        self.dim = dim
        self.n_vars = n_vars
        self.rows = rows

    def determinant(self):
        """Exact determinant by Laplace expansion over the nonzero minors.

        The minor of a column mask is the determinant of the block made of
        the first popcount(mask) rows and the columns in mask.  Each
        nonzero entry (k, j) of row k extends each nonzero minor of the
        first k rows whose mask misses column j, with the sign (-1)^(k+p)
        where p counts the mask's columns left of j; minors that sum to
        zero are dropped.  Only the nonzero minors of two sizes are held at
        once, so a banded matrix keeps a few per level where a dense one
        keeps up to C(dim, k).  The top row is expanded first and enters
        every minor; the bottom row enters only the last level.  Callers
        put the rows they want expanded first (the sparse, low-degree ones)
        at the top.
        """
        prev = {0: LaurentPoly.one(self.n_vars)}
        for k, row in enumerate(self.rows):  # expand along row k
            # the entries by sign, +1 and -1; row 0 meets only sign +1
            signed = (row, [-entry for entry in row] if k else row)
            level = {}
            for j, entry in enumerate(row):
                if entry.is_zero():
                    continue
                bit = 1 << j
                for mask, sub in prev.items():
                    if not mask & bit:
                        term = signed[(k + (mask & (bit - 1)).bit_count()) & 1][j] * sub
                        key = mask | bit
                        level[key] = level[key] + term if key in level else term
            prev = {mask: minor for mask, minor in level.items() if not minor.is_zero()}
        return prev.get((1 << self.dim) - 1, LaurentPoly.zero(self.n_vars))
