"""The invariant product kernel of LaurentPoly.__mul__ and the invariance
promise it relies on.

B_n acts on exponent vectors by permuting the coordinates and changing
their signs.  Every value that carries the promise must be invariant, so it
is a symmetric polynomial in y_i = x_i + x_i^-1, and it is stored as its
coefficients in the monomial symmetric functions m_lam(y).  Every product
of two such values must equal a tuple-loop reference in y and, where the
x-terms are few enough to write out, the term-pair kernel and the
tuple-loop reference of test_core.
"""

import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from skewchar import (
    CharacterFamily,
    LaurentPoly,
    complete_pm,
    core,
    dual_jacobi_trudi,
    elementary_pm,
    giambelli,
    jacobi_trudi,
)
from skewchar.core import partitions_upto
from skewchar.formulas import _dual_jt_cached
from skewchar.symfunc import complete_plain, elementary_plain
from test_core import tuple_loop_mul

F = CharacterFamily

SPANS = (1, 63, 64, 127, 128, 1200)
COEFFS = (-2, -1, 1, 2, 10**30)

# the x-terms a check writes out at most, counted from the y keys before
# any read of .terms (x_size); the tuple loops stay fast below it
X_LIMIT = 20000


def signed_permutations(e):
    """The B_n orbit of e, built without the kernel's helpers."""
    return {
        tuple(s * e[p] for s, p in zip(signs, perm))
        for perm in itertools.permutations(range(len(e)))
        for signs in itertools.product((1, -1), repeat=len(e))
    }


def distinct_permutations(e):
    """The S_n orbit of e, built without the kernel's helpers."""
    return set(itertools.permutations(e))


def is_partition(e):
    return all(e[i] >= e[i + 1] for i in range(len(e) - 1)) and (not e or e[-1] >= 0)


def generator_images(e):
    """e under the generators of B_n: each adjacent transposition and the
    sign change of the first coordinate."""
    out = [e[:i] + (e[i + 1], e[i]) + e[i + 2:] for i in range(len(e) - 1)]
    if e:
        out.append((-e[0],) + e[1:])
    return out


def is_invariant(poly):
    return all(poly.terms.get(g) == c for e, c in poly.terms.items() for g in generator_images(e))


def symmetrised(n, seeds):
    """The promised sum over seeds (e, c), e a vector of nonnegative
    y-exponents, of c m_lam(y), lam the entries of e sorted down; seeds of
    one lam add up, and may cancel."""
    y = {}
    for e, c in seeds:
        lam = tuple(sorted(e, reverse=True))
        y[lam] = y.get(lam, 0) + c
    return core._from_y(n, {lam: c for lam, c in y.items() if c})


def y_monomials(poly):
    """The y-monomials of a promised poly, each S_n orbit written out."""
    return {p: c for lam, c in poly._y.items() for p in distinct_permutations(lam)}


def y_product(a, b):
    """Reference y coefficients of a * b: one exponent tuple per pair of
    y-monomials, only the partitions kept."""
    out = {}
    for ea, ca in y_monomials(a).items():
        for eb, cb in y_monomials(b).items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if is_partition(e):
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def x_size(poly):
    """A bound on the x-terms of a promised poly from its y keys alone:
    each permutation p of a key lam gives prod_i (p_i + 1) x-terms."""
    return sum(len(distinct_permutations(lam)) * math.prod(x + 1 for x in lam) for lam in poly._y)


def x_small(a, b):
    """True if the tuple loops over a, b and their products stay fast: the
    product of their x_size, a zero operand counted as one term, since its
    partner's terms are still written out."""
    return max(x_size(a), 1) * max(x_size(b), 1) <= X_LIMIT


@lru_cache(maxsize=None)
def y_monomial_in_x(lam):
    """m_lam(y) in x by brute force: the sum over the distinct permutations
    p of lam of prod_i (x_i + x_i^-1)^(p_i), as a term dict."""
    terms = {}
    for p in distinct_permutations(lam):
        for js in itertools.product(*(range(k + 1) for k in p)):
            e = tuple(k - 2 * j for k, j in zip(p, js))
            c = math.prod(math.comb(k, j) for k, j in zip(p, js))
            terms[e] = terms.get(e, 0) + c
    return terms


def y_from_terms(terms):
    """The y coefficients of a B_n-invariant term dict, by peeling: the
    lex-largest dominant weight nu left carries the coefficient c of
    m_nu(y) (every other x-weight of m_lam(y) lies below lam entry by
    entry), so c m_nu(y) is taken off, until nothing is left."""
    dom = {e: c for e, c in terms.items() if is_partition(e)}
    y = {}
    while dom:
        nu = max(dom)
        c = y[nu] = dom[nu]
        for e, k in y_monomial_in_x(nu).items():
            if is_partition(e):
                left = dom.get(e, 0) - c * k
                if left:
                    dom[e] = left
                else:
                    dom.pop(e, None)
    return y


def untagged(poly):
    return LaurentPoly(poly.n_vars, poly.terms)


def y_only(poly):
    """A promised copy of poly with its terms, envelope and packing not yet
    computed: its y coefficients alone."""
    return core._from_y(poly.n_vars, dict(poly._y))


# spans at which the kernel's candidates, at most C(2 * span + n, n), stay
# few enough to test it directly; its digit width changes where 4 * span
# crosses a power of two (3/4, 7/8, 15/16, 31/32, 63/64, 127/128)
KERNEL_SPANS = {
    1: SPANS,
    2: (1, 2, 3, 15, 16, 31, 32),
    3: (1, 2, 3, 7, 8),
    4: (1, 2, 3, 4),
}


@st.composite
def invariant_pairs(draw, spans=dict.fromkeys(range(5), SPANS)):
    """Two promised operands from y seeds, n a key of spans, y-exponents
    within a span of spans[n] each, the extremes favoured, coefficients
    that cancel within and across S_n orbits."""
    n = draw(st.sampled_from(sorted(spans)))

    def operand():
        span = draw(st.sampled_from(spans[n]))
        exponent = st.one_of(st.sampled_from((span, 0, 1)), st.integers(0, span))
        seeds = draw(
            st.lists(
                st.tuples(st.tuples(*[exponent] * n), st.sampled_from(COEFFS)),
                min_size=1,
                max_size=3 if n < 4 else 1,
            )
        )
        return symmetrised(n, seeds)

    return n, operand(), operand()


def check_keys(poly):
    """Every stored key is a partition of n_vars entries with a nonzero
    coefficient."""
    assert all(len(lam) == poly.n_vars and is_partition(lam) and c for lam, c in poly._y.items())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invariant_pairs())
def test_invariant_product_matches_references(pair):
    n, a, b = pair
    assert a._invariant and b._invariant
    small_x = x_small(a, b)
    got = a * b
    assert got._y == y_product(a, b)
    check_keys(got)
    assert b * a == got
    if small_x:  # the tuple loop in x stays fast
        assert got == untagged(a) * untagged(b) == tuple_loop_mul(a, b)
        assert got._invariant and is_invariant(got)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invariant_pairs(spans=KERNEL_SPANS))
def test_dominant_kernel_matches_references(pair):
    # the kernel itself, at the candidate partitions (the S_n-dominant
    # y-exponents), also where __mul__ would take the term-pair loop
    n, a, b = pair
    assume(a._y and b._y)
    small_x = x_small(a, b)
    candidates = core._candidates(*core._product_envelope(a, b))
    w = candidates[0]
    small, large = sorted((a, b), key=lambda p: len(core._packed(p, w)))
    got = core._from_y(n, core._y_mul(small, core._packed(large, w), candidates))
    assert got._y == y_product(a, b)
    check_keys(got)
    if small_x:
        assert got == tuple_loop_mul(a, b)
        assert is_invariant(got)


def tuple_sum(a, b, sign=1):
    """Reference a + sign * b, one term at a time on coefficient dicts."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invariant_pairs(), st.sampled_from((-3, -1, 2, 10**30)))
def test_dominant_storage_matches_the_tuple_form(pair, k):
    n, a, b = pair
    small_x = x_small(a, b)
    da, db = y_only(a), y_only(b)
    got = {
        "sum": da + db,
        "difference": da - db,
        "negation": -da,
        "scaling": da.scaled(k),
    }
    want_y = {
        "sum": tuple_sum(a._y, b._y),
        "difference": tuple_sum(a._y, b._y, -1),
        "negation": {e: -c for e, c in a._y.items()},
        "scaling": {e: k * c for e, c in a._y.items()},
        "product": y_product(a, b),
    }
    # none of these writes an x-term out, of an operand or of the result
    assert da._terms is None and db._terms is None
    assert all(p._terms is None for p in got.values())
    got["product"] = da * db
    assert da._terms is None and db._terms is None and got["product"]._terms is None
    for name, value in got.items():
        assert value._invariant, name
        assert value._y == want_y[name], name
        check_keys(value)
        assert value.is_zero() == (not want_y[name]), name
    if not small_x:
        return
    want = {
        "sum": LaurentPoly(n, tuple_sum(a.terms, b.terms)),
        "difference": LaurentPoly(n, tuple_sum(a.terms, b.terms, -1)),
        "negation": LaurentPoly(n, {e: -c for e, c in a.terms.items()}),
        "scaling": LaurentPoly(n, {e: k * c for e, c in a.terms.items()}),
        "product": tuple_loop_mul(a, b),
    }
    for name, ref in want.items():
        value = got[name]
        assert value.is_zero() == (not ref.terms), name
        # the stored y coefficients are those read back off the x-terms,
        # where peeling them (one brute-force m_nu(y) per weight) is quick
        if len(ref.terms) <= X_LIMIT // 10:
            assert value._y == y_from_terms(ref.terms), name
        assert value.terms == ref.terms, name
        assert value == ref, name


def envelope_of_terms(terms):
    """The envelope read off every term: the largest sum of the k largest
    |exponents| for k = 1..n, and the parities of the exponent sums."""
    n = len(next(iter(terms)))
    bound = tuple(
        max(sum(sorted(map(abs, e), reverse=True)[:k]) for e in terms) for k in range(1, n + 1)
    )
    return bound, frozenset(sum(e) & 1 for e in terms)


@settings(max_examples=150, deadline=None)
@given(invariant_pairs())
def test_envelope_from_dominant_weights_equals_the_one_over_terms(pair):
    # the envelope read off the y keys (the partitions) equals the one
    # over the x-terms
    n, a, b = pair
    for poly in (a, b):
        assume(n and not poly.is_zero())
        if x_size(poly) <= X_LIMIT:
            assert core._envelope(y_only(poly)) == envelope_of_terms(poly.terms)


@settings(max_examples=150, deadline=None)
@given(invariant_pairs())
def test_zero_equality_and_hash_agree_with_untagged_copies(pair):
    n, a, b = pair
    small_x = x_small(a, b)
    da, db = y_only(a), y_only(b)
    cases = [(da, db), (db, da), (da, y_only(a)), (da - db, -(db - da)),
             (da - da, db - db), (da + db, db + da), (da, -da)]
    for x, y in cases:
        # both promised, terms not yet written: read off the y coefficients
        same, zero = x == y, x.is_zero()
        assert same == (x._y == y._y) and zero == (not x._y)
        if not small_x:
            continue
        ux, uy = untagged(x), untagged(y)
        assert same == (ux == uy) == (x == uy) == (ux == y)
        assert zero == ux.is_zero() == (not ux.terms)
        assert x == ux and hash(x) == hash(ux)
        if same:
            assert hash(x) == hash(y)


@settings(max_examples=100, deadline=None)
@given(invariant_pairs(spans=dict.fromkeys(range(4), (1, 2, 64))), st.data())
def test_public_operands_take_the_term_pair_loop(pair, data):
    # a value built through the public API carries no promise, even where
    # it is close to invariant, so its products never reach the kernel
    n, a, _ = pair
    assume(x_size(a) <= X_LIMIT // 4)  # the x tuple loops below stay fast
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    terms = data.draw(st.dictionaries(exps, st.sampled_from(COEFFS), max_size=6))
    publics = [LaurentPoly(n, terms)]
    if x_size(a) ** 2 <= X_LIMIT:
        publics += [untagged(a), untagged(a).bar()]
    for poly in publics:
        assert not poly._invariant
        got = poly * a
        assert got == a * poly == tuple_loop_mul(poly, a)
        assert not got._invariant


def test_public_constructors_make_no_promise():
    with pytest.raises(TypeError):
        LaurentPoly(1, {(1,): 1}, invariant=True)
    x1 = LaurentPoly(1, {(1,): 1})
    for poly in (
        x1,
        LaurentPoly.monomial((1,)),
        LaurentPoly.from_json_terms(1, x1.to_json_terms()),
    ):
        assert not poly._invariant
        assert poly * LaurentPoly.one(1) == x1
        assert poly * complete_pm(2, 1) == tuple_loop_mul(x1, complete_pm(2, 1))


@pytest.mark.parametrize("n", [0, 1, 3])
def test_constant_operand_scales_the_other(n, monkeypatch):
    # a nonzero constant, promised or not, scales the other operand without
    # reaching either product kernel; the result keeps the promise exactly
    # when both operands carry it
    zero_weight = (0,) * n
    constants = [LaurentPoly.constant(n, 3), -LaurentPoly.one(n), LaurentPoly(n, {zero_weight: 3})]
    others = [elementary_pm(2, n), y_only(complete_pm(2, n)), untagged(elementary_pm(2, n)),
              LaurentPoly(n, {tuple(range(1, n + 1)): 5, zero_weight: -2})]
    want = {(id(c), id(p)): tuple_loop_mul(c, p) for c in constants for p in others + constants}

    def unreachable(*args):
        raise AssertionError("a constant operand reached a product kernel")

    monkeypatch.setattr(core, "_term_pair_mul", unreachable)
    monkeypatch.setattr(core, "_invariant_mul", unreachable)
    assert [c._invariant for c in constants] == [True, True, False]
    for c in constants:
        for p in others + constants:
            for got in (c * p, p * c):
                assert got == want[id(c), id(p)]
                assert got._invariant == (c._invariant and p._invariant)
                if got._invariant:
                    assert is_invariant(got)


def test_kernel_edge_cases():
    one, zero = LaurentPoly.one(3), LaurentPoly.zero(3)
    e2 = elementary_pm(2, 3)
    assert e2 * one == e2 and one * e2 == e2
    assert (e2 * zero).is_zero() and (e2 * zero)._invariant
    sq = elementary_pm(1, 3) * elementary_pm(1, 3)
    assert sq == tuple_loop_mul(elementary_pm(1, 3), elementary_pm(1, 3))
    assert (sq - sq).is_zero()
    # a coefficient that cancels at every candidate: (h_1 - h_1) * h_1
    assert ((complete_pm(1, 2) - complete_pm(1, 2)) * complete_pm(1, 2)).is_zero()
    # a sparse operand with a large exponent, m_(1200,0,0,0)(y): its
    # x-terms are dense, so the check stays in y
    far = symmetrised(4, [((1200, 0, 0, 0), 1)])
    square = far * far
    assert square._invariant and square._y == y_product(far, far)
    assert square._y == {(2400, 0, 0, 0): 1, (1200, 1200, 0, 0): 2}
    h6, h8 = complete_pm(6, 3), complete_pm(8, 3)
    assert core._invariant_mul(3, h6, h8) == tuple_loop_mul(h6, h8)


def test_fallback_rule_in_both_directions(monkeypatch):
    # m_(1200,0,0,0)(y)^2 has about 6e10 candidates but 16 pairs of
    # y-monomials, so it takes the term-pair loop; h_6 * h_8 with n = 3
    # takes the kernel
    routes = []
    kernel, loop = core._y_mul, core._y_term_pair_mul
    monkeypatch.setattr(core, "_y_mul", lambda *args: routes.append("kernel") or kernel(*args))
    monkeypatch.setattr(core, "_y_term_pair_mul", lambda *args: routes.append("loop") or loop(*args))
    far = symmetrised(4, [((1200, 0, 0, 0), 1)])
    far * far
    assert routes == ["loop"]
    routes.clear()
    h6, h8 = complete_pm(6, 3), complete_pm(8, 3)
    got = h6 * h8
    assert routes == ["kernel"]
    assert got._y == y_product(h6, h8)


def test_an_operand_is_packed_again_at_a_new_digit_width():
    # h_2 enters products at the floor width, then at a wider one (F_1 = 64
    # for h_2 * h_62), then at the floor width again
    p, h1, h62 = complete_pm(2, 2), complete_pm(1, 2), complete_pm(62, 2)
    widths = []
    for other in (h1, h62, h1):
        candidates = core._candidates(*core._product_envelope(p, other))
        assert core._invariant_mul(2, p, other) == tuple_loop_mul(p, other)
        widths.append(candidates[0])
        assert p._packed[0] == candidates[0]
    assert widths[0] == widths[2] == core.KEY_WIDTH_FLOOR < widths[1]


def test_orbit_and_candidates():
    for nu in ((0, 0, 0), (2, 1, 0), (3, 3, 1), (2, 2, 2), (4,), (5, 0), ()):
        assert set(core._orbit(nu)) == signed_permutations(nu)
        assert len(core._orbit(nu)) == len(signed_permutations(nu))
        assert set(core._sn_orbit(nu)) == distinct_permutations(nu)
        assert len(core._sn_orbit(nu)) == len(distinct_permutations(nu))
    bound, parities = (4, 6, 7), frozenset((1,))
    got = core._candidates(bound, parities)[1]
    want = [
        nu
        for nu in itertools.product(range(8), repeat=3)
        if nu[0] >= nu[1] >= nu[2]
        and all(sum(nu[:k]) <= bound[k - 1] for k in (1, 2, 3))
        and sum(nu) % 2 == 1
    ]
    assert sorted(got) == sorted(want)


def x_terms_by_brute_force(n, y):
    """The terms of the sum of c m_lam(y), each y_i^k written out by the
    binomial theorem over every distinct permutation of lam."""
    terms = {}
    for lam, c in y.items():
        for e, k in y_monomial_in_x(lam).items():
            terms[e] = terms.get(e, 0) + c * k
    return {e: c for e, c in terms.items() if c}


@settings(max_examples=100, deadline=None)
@given(invariant_pairs(spans=dict.fromkeys(range(5), (1, 2, 6))))
def test_terms_of_y_values_match_brute_force(pair):
    n, a, b = pair
    for poly in (a, b, a - b):
        check_keys(poly)
        assert y_only(poly).terms == x_terms_by_brute_force(n, poly._y)


def test_terms_of_a_long_y_value_match_brute_force():
    for y in ({(1200,): 1}, {(1200,): 3, (1199,): -2, (0,): 5}):
        assert core._from_y(1, dict(y)).terms == x_terms_by_brute_force(1, y)


def doubled_letters(n):
    """Exponent vectors of the 2n letters x1, x1^-1, ..., xn, xn^-1."""
    letters = []
    for i in range(n):
        for sign in (1, -1):
            e = [0] * n
            e[i] = sign
            letters.append(tuple(e))
    return letters


def letter_tables(n, rmax):
    """e_0..e_2n and h_0..h_rmax of the doubled alphabet in x, letter by
    letter: e_k += e_(k-1) * letter, and h_r of the prefix x_1..x_j is
    h_r(x_1..x_(j-1)) + x_j * h_(r-1)(x_1..x_j)."""
    letters = doubled_letters(n)
    zero = LaurentPoly.zero(n)
    e = [LaurentPoly.one(n)] + [zero] * len(letters)
    for ell in letters:
        for k in range(len(letters), 0, -1):
            e[k] = e[k] + LaurentPoly.monomial(ell) * e[k - 1]
    prev = [LaurentPoly.one(n)] * (len(letters) + 1)
    h = [prev[-1]]
    for r in range(1, rmax + 1):
        table = [zero]
        for j, ell in enumerate(letters, start=1):
            table.append(table[-1] + LaurentPoly.monomial(ell) * prev[j])
        prev = table
        h.append(table[-1])
    return e, h


def test_doubled_tables_equal_the_letter_by_letter_build():
    for n in range(5):
        e, h = letter_tables(n, 12)
        for r, want in enumerate(e):
            got = elementary_pm(r, n)
            assert got._invariant and got == want, ("e", n, r)
        for r, want in enumerate(h):
            got = complete_pm(r, n)
            assert got._invariant and got == want, ("h", n, r)


def test_promise_is_made_only_where_proven():
    for n in (1, 2, 3):
        for r in range(0, 9):
            for poly in (elementary_pm(r, n), complete_pm(r, n)):
                assert poly._invariant and is_invariant(poly)
    # the plain alphabet is only S_n-invariant: its constants (e_0, h_0, 0
    # outside the range and every h_r of no variables) are promised, and
    # every other value is not
    for n in range(5):
        for r in range(-2, 15):
            assert elementary_plain(r, n)._invariant == (r <= 0 or r > n), ("e", n, r)
            assert complete_plain(r, n)._invariant == (r <= 0 or n == 0), ("h", n, r)
    assert not LaurentPoly.monomial((1, 0))._invariant
    assert LaurentPoly.one(2)._invariant and LaurentPoly.zero(2)._invariant
    p = complete_pm(2, 2)
    for kept in (p + p, -p, p - p, p.scaled(3), p * p, p * 5):
        assert kept._invariant
    assert not (p + untagged(p))._invariant
    q = untagged(p)
    for dropped in (-q, q + q, q - q, q.scaled(3), q * q):
        assert not dropped._invariant
    assert not (p * untagged(p))._invariant
    assert not (LaurentPoly.monomial((1, 0)) * p)._invariant


def test_every_promised_value_of_the_routes_is_invariant(monkeypatch):
    # every value built by sums, negations, scalings and products in
    # dual-JT, JT and Giambelli: every minor and hook block, each built
    # from its y coefficients (_from_y)
    promised = []
    seen_mul = []
    from_y, mul = core._from_y, core.LaurentPoly.__mul__

    def checked_from_y(n_vars, y):
        poly = from_y(n_vars, y)
        promised.append(poly)
        return poly

    def spying_mul(a, b):
        if isinstance(b, LaurentPoly):
            seen_mul.append(a._invariant and b._invariant)
        return mul(a, b)

    monkeypatch.setattr(core, "_from_y", checked_from_y)
    monkeypatch.setattr(core.LaurentPoly, "__mul__", spying_mul)
    _dual_jt_cached.cache_clear()
    try:
        for fam in (F.SP, F.SO_ODD, F.O_EVEN):
            for lam in partitions_upto(4, max_len=3):
                for mu in partitions_upto(lam.size(), max_len=1):
                    if not lam.contains(mu):
                        continue
                    for n in (1, 2):
                        for m in range(mu.length(), 2):
                            if lam.length() > n + m:
                                continue
                            for route in (dual_jacobi_trudi, jacobi_trudi, giambelli):
                                out = route(fam, lam, mu, n, m)
                                assert out._invariant
                                assert is_invariant(out)
    finally:
        _dual_jt_cached.cache_clear()
    assert seen_mul and all(seen_mul)
    assert len(promised) > 10000
    for p in promised:
        check_keys(p)
        assert is_invariant(p)
        assert p._y == y_from_terms(p.terms)
