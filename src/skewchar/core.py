"""Partitions, skew shapes, Frobenius coordinates, exact Laurent polynomials
and exact determinants of polynomial matrices.

Every value is immutable as seen from outside and every operation is a pure
function.  A LaurentPoly fills a few private slots lazily (its full terms,
envelope and packed keys), each a function of its coefficients alone, so
two threads that fill one at once store equal values and either write may
win: everything here is safe to share between threads.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product, repeat
from math import comb, factorial
from operator import add, ge, mul


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
    set through _owning only where it is proven, by the constants and by
    the e/h tables of the doubled alphabet (symfunc).  Sums, negations,
    scalings and products of promised values keep it.

    A promised value stores its coefficients at the dominant weights nu
    (nu_1 >= ... >= nu_n >= 0), one per orbit, and those operations work on
    them alone: a product of two promised values computes only dominant
    coefficients where that pays (see __mul__), and no orbit is written out.
    terms is then a read-only view, expanded from the orbits once, on first
    read: by output, by equality with an unpromised value, by hashing and
    by the term-pair loop.  Equality, hashing and every output ignore the
    promise.
    """

    __slots__ = ("n_vars", "_terms", "_dom", "_envelope", "_packed")

    def __init__(self, n_vars, terms=None):
        self.n_vars = n_vars
        self._terms = dict(terms) if terms else {}
        self._dom = None  # coefficients at dominant weights of a promised value
        self._envelope = None  # of a promised operand, see _envelope
        self._packed = None  # (digit width, packed terms), see _packed

    @property
    def terms(self):
        terms = self._terms
        if terms is None:
            terms = {}
            for nu, c in self._dom.items():
                terms.update(zip(_orbit(nu), repeat(c)))
            self._terms = terms
        return terms

    @property
    def _invariant(self):
        return self._dom is not None

    def _stored(self):
        """The stored coefficients: the dominant ones of a promised value,
        every term of any other."""
        return self._terms if self._dom is None else self._dom

    def _like(self, coeffs):
        """A value of self's kind that takes over coeffs, a fresh dict keyed
        like _stored."""
        if self._dom is None:
            return _owning(self.n_vars, coeffs, False)
        return _dominant(self.n_vars, coeffs)

    @classmethod
    def zero(cls, n_vars):
        return _owning(n_vars, {}, True)

    @classmethod
    def one(cls, n_vars):
        return _owning(n_vars, {(0,) * n_vars: 1}, True)

    @classmethod
    def constant(cls, n_vars, c):
        return _owning(n_vars, {(0,) * n_vars: int(c)} if c else {}, True)

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
        if self._dom is not None and other._dom is not None:
            return self._dom == other._dom
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __add__(self, other):
        """Two promised values add their dominant coefficients, any other
        pair their terms."""
        self._check(other)
        if self._dom is not None and other._dom is not None:
            return _dominant(self.n_vars, _sum(self._dom, other._dom))
        return _owning(self.n_vars, _sum(self.terms, other.terms), False)

    def __neg__(self):
        return self._like({e: -c for e, c in self._stored().items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product.  A nonzero constant operand scales the other one; two
        nonzero promised operands are multiplied on dominant weights only
        where that pays (_invariant_mul); any other pair by the term-pair
        loop (_term_pair_mul).  The result keeps the promise if both
        operands had it."""
        if isinstance(other, int):
            return self.scaled(other)
        self._check(other)
        n = self.n_vars
        invariant = self._dom is not None and other._dom is not None
        for const, rest in ((self, other), (other, self)):
            c = _constant(const)
            if c is not None:
                if invariant:
                    return _dominant(n, {e: k * c for e, k in rest._dom.items()})
                return _owning(n, {e: k * c for e, k in rest.terms.items()}, False)
        if invariant and n and self._dom and other._dom:
            small, large = (other, self) if _size(self) > _size(other) else (self, other)
            product = _invariant_mul(n, small, large)
            if product is not None:
                return product
        return _owning(n, _term_pair_mul(n, self.terms, other.terms), invariant)

    __rmul__ = __mul__

    def scaled(self, c):
        c = int(c)
        if c == 0:
            return LaurentPoly.zero(self.n_vars)
        return self._like({e: k * c for e, k in self._stored().items()})

    def mul_monomial(self, exps, coeff=1):
        if coeff == 0:
            return LaurentPoly.zero(self.n_vars)
        exps = tuple(exps)
        return LaurentPoly(
            self.n_vars,
            {
                tuple(x + y for x, y in zip(e, exps)): c * coeff
                for e, c in self.terms.items()
            },
        )

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


def _owning(n_vars, terms, invariant):
    """A LaurentPoly that takes over terms, a fresh dict, without copying
    it; a promised one also stores its coefficients at dominant weights."""
    poly = object.__new__(LaurentPoly)
    poly.n_vars = n_vars
    poly._terms = terms
    poly._dom = {e: c for e, c in terms.items() if _is_dominant(e)} if invariant else None
    poly._envelope = poly._packed = None
    return poly


def _dominant(n_vars, dom):
    """A promised LaurentPoly that takes over dom, a fresh dict from
    dominant weights to nonzero coefficients; its terms are expanded on
    first read."""
    poly = object.__new__(LaurentPoly)
    poly.n_vars = n_vars
    poly._terms = None
    poly._dom = dom
    poly._envelope = poly._packed = None
    return poly


def _is_dominant(e):
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
    acc = {}
    get = acc.get
    for ka, ca in pa:
        for kb, cb in pb:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return _unpack(acc, n, w)


def _constant(poly):
    """c if poly is the constant c != 0, read off its stored coefficients
    (one term, at the zero weight), else None."""
    stored = poly._stored()
    if len(stored) == 1:
        (e, c), = stored.items()
        if not any(e):
            return c
    return None


def _size(poly):
    """The number of terms, counted from the orbits until they are written."""
    terms = poly._terms
    if terms is not None:
        return len(terms)
    return sum(map(len, map(_orbit, poly._dom)))


def _envelope(poly):
    """The envelope (F, parities) of a nonzero promised polynomial,
    computed once: F[k-1] is the largest sum of the k largest |exponents|
    of a term, and parities holds the parity of every term's exponent sum.
    Both are read from the dominant weights alone: a term's |exponents|
    and the parity of its exponent sum are those of the dominant weight nu
    of its orbit, whose k largest |exponents| are nu_1, ..., nu_k, so F[k-1]
    is the largest nu_1 + ... + nu_k over the stored nu."""
    env = poly._envelope
    if env is None:
        cols = zip(*poly._dom)
        run = next(cols)
        bound = [max(run)]
        for col in cols:
            run = list(map(add, run, col))
            bound.append(max(run))
        env = poly._envelope = tuple(bound), frozenset(map((1).__and__, run))
    return env


# dominant-candidate lists and orbits kept at once; the 4x4-box sweep of
# acceptance criterion 1 (dual-JT, JT and Giambelli) uses 395 lists and 109
# orbits, and sp (6,6,6,6)/(2) by JT with n=4 and m=1 uses 337 and 809
KERNEL_CACHE_SIZE = 1024

# packed orbits kept at once, one per (nu, digit width).  Nearly all are at
# KEY_WIDTH_FLOOR: the verify-box and wide-row plans of perfbench (seeds 1
# and 4) fill at most 109 and 64 entries, the criterion-1 sweep 109 and
# sp (6,6,6,6)/(2) by JT with n=4 and m=1 791.  A value keeps the packing
# of one width only (_packed), so it holds no cache that grows.
PACKED_ORBIT_CACHE_SIZE = 1024

# the least digit width of packed keys.  Every product whose envelope has
# F_1 < 2^(KEY_WIDTH_FLOOR - 2) packs at this width, so an operand is packed
# once however many products it enters: every product of the verify-box and
# wide-row plans, of criterion 1 and of the three ROADMAP shapes sp (12,),
# o (12,12,12) and sp (6,6,6,6)/(2) does.
KEY_WIDTH_FLOOR = 8


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _candidates(bound, parities):
    """The dominant weights nu_1 >= ... >= nu_n >= 0 whose k-th partial sum
    is at most bound[k-1] and whose |nu| mod 2 is in parities, as
    (w, nus, keys): keys packs nus at the digit width
    w = max(KEY_WIDTH_FLOOR, _key_width(2 * bound[0]))."""
    n = len(bound)
    w = max(KEY_WIDTH_FLOOR, _key_width(2 * bound[0]))
    nus = []

    def rec(prefix, total, cap):
        k = len(prefix)
        if k == n:
            if total & 1 in parities:
                nus.append(prefix)
            return
        for x in range(min(cap, bound[k] - total), -1, -1):
            rec(prefix + (x,), total + x, x)

    rec((), 0, bound[0])
    weights = _weights(n, w)
    return w, tuple(nus), tuple(sum(map(mul, nu, weights)) for nu in nus)


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _orbit(nu):
    """The B_n orbit of a dominant weight: its distinct signed permutations."""
    signed = product(*(((x, -x) if x else (0,)) for x in nu))
    return tuple({p for s in signed for p in permutations(s)})


@lru_cache(maxsize=PACKED_ORBIT_CACHE_SIZE)
def _packed_orbit(nu, w):
    """The orbit of nu as packed keys of digit width w."""
    weights = _weights(len(nu), w)
    return tuple(sum(map(mul, e, weights)) for e in _orbit(nu))


def _packed(poly, w):
    """The terms of a promised poly as {key at digit width w: coefficient},
    built from the packed orbits of its dominant weights and kept for the
    latest w only."""
    packed = poly._packed
    if packed is None or packed[0] != w:
        keys = {}
        for nu, c in poly._dom.items():
            keys.update(zip(_packed_orbit(nu, w), repeat(c)))
        packed = poly._packed = w, keys
    return packed[1]


def _product_envelope(small, large):
    """Bounds on the product's envelope, the candidates' bound and parities:
    the sum of the k largest |exponents| is a norm, so at a product term it
    is at most the same sum for small plus that for large."""
    bs, ps = _envelope(small)
    bl, pl = _envelope(large)
    return tuple(map(add, bs, bl)), frozenset((p + q) & 1 for p in ps for q in pl)


def _invariant_mul(n, small, large):
    """Product of two nonzero B_n-invariant polynomials, small the one with
    fewer terms, on dominant weights only (_dominant_mul), or None where
    the term-pair loop costs less.

    A candidate costs one pass over small in C, about half what a term of
    large costs in the term-pair loop.  The candidates number at most
    C(F_1 + n, n), the weakly decreasing tuples below the bound F_1 on
    nu_1, and at most C(F_n + n(n+1)/2, n) / n!, since nu + (n-1, ..., 0)
    is strictly decreasing with sum at most F_n + n(n-1)/2.  Where that
    count exceeds twice the terms of large (sparse operands with large
    exponents) the product is left to the term-pair loop.
    """
    bound, parities = _product_envelope(small, large)
    most = min(comb(bound[0] + n, n), comb(bound[-1] + n * (n + 1) // 2, n) // factorial(n))
    if most > 2 * _size(large):
        return None
    return _dominant_mul(n, small, large, _candidates(bound, parities))


def _dominant_mul(n, small, large, candidates):
    """The product of B_n-invariant small and large from its coefficients
    at the candidate dominant weights nu (see _candidates), c_nu = sum over
    alpha in small of small[alpha] * large[nu - alpha].

    Both operands are packed at the candidates' width w (_packed), so a
    candidate's key minus one of small is the key of the difference.  Every
    digit of such a difference and of a key of large is at most
    2 * bound[0] < 2^(w-1) in absolute value, so no lookup aliases a
    different weight.
    """
    w, nus, keys = candidates
    get = _packed(large, w).get
    packed = _packed(small, w)
    coeffs = packed.values()
    dom = {}
    for nu, key in zip(nus, keys):
        c = sum(map(mul, coeffs, map(get, map(key.__sub__, packed), repeat(0))))
        if c:
            dom[nu] = c
    return _dominant(n, dom)


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
        """Exact determinant by Laplace expansion memoized over column subsets.

        The minor of a mask is the determinant of the block made of the
        first popcount(mask) rows and the columns in mask.  The minors of
        size k+1 expand along row k into those of size k, which are then
        dropped: O(2^dim) minors are computed, and at most
        C(dim, k) + C(dim, k+1) are held at once.  The top row is expanded
        first and enters every minor; the bottom row enters only the last
        level.  Callers put the rows they want expanded first (the sparse,
        low-degree ones) at the top.
        """
        n = self.dim
        zero = LaurentPoly.zero(self.n_vars)
        prev = {0: LaurentPoly.one(self.n_vars)}
        for k, row in enumerate(self.rows):  # expand along row k
            # the entries by sign, +1 and -1; row 0 meets only sign +1
            signed = (row, [-entry for entry in row] if k else row)
            level = {}
            for mask in sorted(sum(1 << j for j in cols) for cols in combinations(range(n), k + 1)):
                acc = zero
                odd = k & 1
                m = mask
                while m:
                    j = (m & -m).bit_length() - 1
                    entry = signed[odd][j]
                    if not entry.is_zero():
                        sub = prev[mask ^ (1 << j)]
                        if not sub.is_zero():
                            acc = acc + entry * sub
                    odd ^= 1
                    m &= m - 1
                level[mask] = acc
            prev = level
        return prev[(1 << n) - 1]
