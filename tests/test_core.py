import itertools
import json
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from skewchar import (
    CharacterFamily,
    FrobeniusCoordinates,
    LaurentPoly,
    Partition,
    PolyMatrix,
    SkewShape,
    character,
)
from skewchar import core
from skewchar.core import partitions_upto
from skewchar.formulas import _det_bottom_up, dual_jt_rows, jacobi_trudi
from skewchar.symfunc import family_pair
from conftest import random_poly


def test_conjugate_examples():
    assert Partition((4, 4, 4, 2, 1)).conjugate() == Partition((5, 4, 3, 3))
    assert Partition().conjugate() == Partition()
    assert Partition((3,)).conjugate() == Partition((1, 1, 1))


def test_frobenius_examples():
    f = Partition((6, 5, 4, 4, 1)).to_frobenius()
    assert f.arms == (5, 3, 1, 0)
    assert f.legs == (4, 2, 1, 0)
    assert f.to_partition() == Partition((6, 5, 4, 4, 1))
    g = Partition((3, 2)).to_frobenius()
    assert g.arms == (2, 0) and g.legs == (1, 0)
    assert Partition().to_frobenius().arms == ()
    assert FrobeniusCoordinates((0,), (0,)).to_partition() == Partition((1,))
    assert FrobeniusCoordinates((2, 0), (1, 0)).to_partition() == Partition((3, 2))


def test_frobenius_rejects_non_decreasing():
    with pytest.raises(ValueError):
        FrobeniusCoordinates((1, 1), (2, 0))
    with pytest.raises(ValueError):
        FrobeniusCoordinates((2, 0), (0, 0))
    with pytest.raises(ValueError):
        FrobeniusCoordinates((2,), (0, 1))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_involutions_exhaustive_size_12():
    for p in partitions_upto(12):
        assert p.conjugate().conjugate() == p
        assert p.to_frobenius().to_partition() == p


def test_partitions_upto_each_once():
    parts = partitions_upto(6)
    assert len(set(parts)) == len(parts)
    by_size = [sum(1 for p in parts if p.size() == s) for s in range(7)]
    assert by_size == [1, 1, 2, 3, 5, 7, 11]
    assert len(parts) == 30
    short = partitions_upto(6, max_len=2)
    assert len(set(short)) == len(short)
    assert set(short) == {p for p in parts if p.length() <= 2}
    assert partitions_upto(0) == [Partition()]


def test_skew_shape():
    sh = SkewShape(Partition((3, 2)), Partition((1,)))
    assert sh.size() == 4
    assert sh.cells() == [(1, 2), (1, 3), (2, 1), (2, 2)]
    assert sh.contains_cell(2, 1) and not sh.contains_cell(1, 1)
    with pytest.raises(ValueError):
        SkewShape(Partition((1,)), Partition((2,)))


def x(i, e=1, n=1):
    exps = [0] * n
    exps[i - 1] = e
    return LaurentPoly.monomial(exps)


def test_poly_examples():
    assert (x(1) + x(1, -1)) * (x(1) - x(1, -1)) == x(1, 2) - x(1, -2)
    p = LaurentPoly(1, {(3,): 2, (-1,): 5})
    assert p * LaurentPoly.one(1) == p
    sq = (x(1) + x(1, -1)) * (x(1) + x(1, -1))
    assert sq == LaurentPoly(1, {(2,): 1, (0,): 1 + 1, (-2,): 1})


def tuple_loop_mul(a, b):
    """Reference product: one exponent tuple built per term pair, zero
    coefficients dropped as they arise.  The packed-exponent kernel of
    LaurentPoly.__mul__ must match it exactly."""
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = terms.get(e, 0) + ca * cb
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
    return LaurentPoly(a.n_vars, terms)


def _operand(rng, n_vars, span):
    """Up to 12 terms with exponents in [-span, span], the extremes included,
    so that products reach +-2*span."""
    picks = (-span, span, -span + 1, span - 1, 0)
    out = {}
    for _ in range(rng.randint(1, 12)):
        e = tuple(
            rng.choice(picks) if rng.random() < 0.5 else rng.randint(-span, span)
            for _ in range(n_vars)
        )
        out[e] = rng.choice((-3, -1, 1, 2, 10**30))
    return LaurentPoly(n_vars, out)


@pytest.mark.parametrize("n_vars", [0, 1, 3, 5])
def test_mul_matches_tuple_loop(rng, n_vars):
    # the term-pair digit width changes where max |exponent| crosses 31/32,
    # 63/64 and 127/128; mixed spans give operands on both sides of a boundary
    spans = (1, 31, 32, 63, 64, 127, 128, 1200)
    for sa in spans:
        for sb in spans:
            for _ in range(3):
                a, b = _operand(rng, n_vars, sa), _operand(rng, n_vars, sb)
                assert a * b == tuple_loop_mul(a, b)
                assert b * a == tuple_loop_mul(a, b)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_packed_keys_round_trip(rng, n):
    # a bound of 2^k - 1 packs at width k + 1 and 2^k at width k + 2; the
    # targets put both extremes in every digit, so a narrower width misreads
    for k in (0, 1, 5, 6, 40):
        for bound in (2**k - 1, 2**k):
            w = core._key_width(bound)
            weights = core._weights(n, w)
            targets = {(bound,) * n, (-bound,) * n}
            targets |= {tuple(rng.choice((-bound, bound)) for _ in range(n)) for _ in range(8)}
            targets |= {tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(8)}
            keys, want = {}, {}
            for i, t in enumerate(sorted(targets)):
                # the key of t as the sum of the keys of two vectors adding to t
                a = tuple(rng.randint(-2 * bound, 2 * bound) for _ in range(n))
                b = tuple(x - y for x, y in zip(t, a))
                key = sum(map(mul, a, weights)) + sum(map(mul, b, weights))
                keys[key] = c = (i % 3 - 1) * 5**i  # every third coefficient 0
                if c:
                    want[t] = c
            assert core._unpack(keys, n, w) == want, (bound, w)


def test_mul_edge_cases(rng):
    zero = LaurentPoly.zero(3)
    p = _operand(rng, 3, 64)
    for u, v in ((zero, p), (p, zero), (zero, zero)):
        assert u * v == zero == tuple_loop_mul(u, v)
    assert LaurentPoly.zero(0) * LaurentPoly.one(0) == LaurentPoly.zero(0)
    # every middle coefficient cancels to zero and must not be kept:
    # (1 + x + ... + x^k)(1 - x) = 1 - x^(k+1), (x^a - y^b)(x^a + y^b) = x^2a - y^2b
    for k in (1, 5, 200):
        geo = LaurentPoly(1, {(i,): 1 for i in range(-k, k + 1)})
        got = geo * (LaurentPoly.one(1) - x(1))
        assert got == tuple_loop_mul(geo, LaurentPoly.one(1) - x(1))
        assert got == x(1, -k) - x(1, k + 1)
    for e in (63, 64, 127, 128, 1200):
        u, v = x(1, e, 2), x(2, -e, 2)
        assert (u - v) * (u + v) == x(1, 2 * e, 2) - x(2, -2 * e, 2)
    # poly * int and int * poly scale
    for c in (0, 1, -1, 7, -(10**25)):
        want = tuple_loop_mul(p, LaurentPoly.constant(3, c))
        assert p * c == want
        assert c * p == want
        assert p.scaled(c) == want


def test_poly_ring_laws(rng):
    for _ in range(40):
        a = random_poly(rng, 2)
        b = random_poly(rng, 2)
        c = random_poly(rng, 2)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        pt = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(2)]
        assert (a * b).eval_at(pt) == a.eval_at(pt) * b.eval_at(pt)
        assert (a + b).eval_at(pt) == a.eval_at(pt) + b.eval_at(pt)


def test_eval_examples():
    assert (x(1) + x(1, -1)).eval_at([2]) == Fraction(5, 2)
    assert LaurentPoly.one(3).eval_at([5, -1, Fraction(1, 3)]) == 1
    p = LaurentPoly(2, {(1, 1): 1, (-1, 1): -1})
    assert p.eval_at([2, 3]) == Fraction(9, 2)
    with pytest.raises(ValueError):
        p.eval_at([0, 1])


def test_bar_involution():
    p = LaurentPoly(2, {(2, -1): 3, (0, 0): 7})
    assert p.bar() == LaurentPoly(2, {(-2, 1): 3, (0, 0): 7})
    assert p.bar().bar() == p
    c = LaurentPoly.constant(2, 9)
    assert c.bar() == c


def test_text_form():
    assert LaurentPoly.zero(2).to_text() == "0"
    assert (x(1) + x(1, -1)).to_text() == "x1 + x1^-1"
    assert LaurentPoly(2, {(-1, 1): -2, (0, 0): 3}).to_text() == "-2*x1^-1*x2 + 3"
    assert LaurentPoly(2, {(1, 0): -1}).to_text() == "-x1"


def reference_text(poly):
    """The text form spelt out plainly, the spec LaurentPoly.to_text must
    match: the terms by descending total degree, ties in ascending lex,
    each signed coefficient followed by its factors x<i> or x<i>^<k>."""
    if not poly.terms:
        return "0"
    parts = []
    for i, (e, c) in enumerate(sorted(poly.terms.items(), key=lambda t: (-sum(t[0]), t[0]))):
        mono = "*".join(
            "x%d" % (j + 1) if k == 1 else "x%d^%d" % (j + 1, k)
            for j, k in enumerate(e)
            if k
        )
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else "%d*%s" % (mag, mono)
        else:
            body = str(mag)
        if i == 0:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts)


# +-1 are left out before a monomial; 11, -21 and 101 end in the digit 1 but are kept
COEFFS = st.one_of(st.sampled_from((1, -1, 11, -21, 101)), st.integers(-10**20, 10**20).filter(bool))


@st.composite
def public_polys(draw):
    """n in 0..3, exponents in -6..6, any number of terms (zero included),
    a constant term in about half of them."""
    n = draw(st.integers(0, 3))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(-6, 6)] * n), COEFFS, max_size=30))
    if draw(st.booleans()):
        terms[(0,) * n] = draw(COEFFS)
    return LaurentPoly(n, terms)


# promised values: the routes' results, expanded from their dominant weights
CHARACTERS = [
    (fam, lam, mu, n, m)
    for fam in ("sp", "so", "o")
    for lam, mu, m in (((), (), 0), ((2, 1), (), 0), ((3, 2), (1,), 1), ((5,), (2,), 1))
    for n in (1, 2, 3)
    if len(lam) <= n + m
]


def promised_values():
    return st.sampled_from(CHARACTERS).map(
        lambda case: character(CharacterFamily(case[0]), Partition(case[1]), Partition(case[2]), *case[3:])
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(public_polys(), promised_values()))
@example(LaurentPoly.zero(0))
@example(LaurentPoly.zero(3))
@example(LaurentPoly.constant(0, -1))
@example(LaurentPoly(2, {(1, -1): 1, (-1, 1): -1, (0, 0): 1, (1, 0): -1, (0, 1): 2}))
@example(LaurentPoly(2, {(1, 0): 11, (0, 1): -21, (0, 0): 1, (-1, 0): 101, (0, -1): -1}))
def test_text_form_matches_the_reference(poly):
    assert poly.to_text() == reference_text(poly)
    order = poly.sorted_terms()
    assert dict(order) == poly.terms and len(order) == len(poly.terms)
    keys = [(-sum(e), e) for e, _ in order]
    assert keys == sorted(keys)


def test_json_roundtrip(rng):
    for _ in range(20):
        p = random_poly(rng, 3)
        blob = json.dumps(p.to_json_terms())
        assert LaurentPoly.from_json_terms(3, json.loads(blob)) == p
    # terms are sorted lexicographically by exponent vector
    p = LaurentPoly(2, {(1, -1): 1, (-1, 1): 1, (0, 0): 5})
    exps = [tuple(t["exp"]) for t in p.to_json_terms()]
    assert exps == sorted(exps)


def leibniz(rows, n_vars):
    dim = len(rows)
    total = LaurentPoly.zero(n_vars)
    for perm in itertools.permutations(range(dim)):
        sgn = 1
        for i in range(dim):
            for j in range(i + 1, dim):
                if perm[i] > perm[j]:
                    sgn = -sgn
        prod = LaurentPoly.one(n_vars)
        for i in range(dim):
            prod = prod * rows[i][perm[i]]
        total = total + prod.scaled(sgn)
    return total


def test_determinant_examples():
    assert PolyMatrix([], 1).determinant() == LaurentPoly.one(1)
    one = LaurentPoly.one(1)
    m = PolyMatrix([[x(1), one], [one, x(1, -1)]])
    assert m.determinant() == LaurentPoly.zero(1)
    for dim in (1, 2, 3, 5):
        ident = PolyMatrix(
            [[one if i == j else LaurentPoly.zero(1) for j in range(dim)] for i in range(dim)]
        )
        assert ident.determinant() == one
    # singular inputs: no minor survives some level
    a, b, c = x(1), x(1, -1) + one, x(1, 2)
    zero = LaurentPoly.zero(1)
    for rows in (
        [[a, b, c], [zero, zero, zero], [c, a, b]],  # a zero middle row
        [[a, zero, c], [b, zero, a], [c, zero, b]],  # a zero column
        [[a, b, c], [a, b, c], [b, c, a]],  # two equal rows
    ):
        assert PolyMatrix(rows).determinant() == zero == leibniz(rows, 1)


def test_banded_determinant_keeps_only_nonzero_minors():
    # the dual-JT matrix of sp (18,) with n = 3 is 18 x 18 with at most 7
    # nonzero entries a row; expanded bottom-up it keeps 171 nonzero
    # minors over all levels, where listing every column subset built 2^18
    n = 3
    rows = dual_jt_rows(family_pair(CharacterFamily.SP, n, 0), Partition((18,)), Partition(), 18)
    want = jacobi_trudi(CharacterFamily.SP, (18,), n=n)
    tracemalloc.start()
    try:
        got = _det_bottom_up(rows, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 4 << 20, peak


def test_two_level_determinant_banded_vs_leibniz(rng):
    # mostly-zero banded entries, as in the dual-JT matrices (e_r = 0 for
    # r > 2n): many minors of each level vanish
    for dim in (5, 6):
        for _ in range(3):
            rows = [
                [
                    random_poly(rng, 2, terms=3)
                    if -1 <= j - i <= 2 and rng.random() < 0.85
                    else LaurentPoly.zero(2)
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
            assert PolyMatrix(rows).determinant() == leibniz(rows, 2)


def test_determinant_vs_leibniz(rng):
    for dim in (2, 3, 4):
        for _ in range(4):
            rows = [[random_poly(rng, 2, terms=2) for _ in range(dim)] for _ in range(dim)]
            m = PolyMatrix(rows)
            assert m.determinant() == leibniz(rows, 2)
            swapped = PolyMatrix([rows[1], rows[0]] + rows[2:])
            assert swapped.determinant() == -m.determinant()


def test_determinant_of_reversed_rows_and_columns(rng):
    # J A J, with J the reversal, has the determinant of A: the JT and
    # Giambelli routes expand their matrices in that order
    for dim in range(1, 6):
        for _ in range(6):
            rows = [
                [
                    random_poly(rng, 2, terms=2) if rng.random() < 0.7 else LaurentPoly.zero(2)
                    for _ in range(dim)
                ]
                for _ in range(dim)
            ]
            flipped = PolyMatrix([row[::-1] for row in reversed(rows)])
            assert flipped.determinant() == PolyMatrix(rows).determinant(), rows
