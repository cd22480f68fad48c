"""The B_n-invariant product kernel of LaurentPoly.__mul__ and the
invariance promise it relies on.

B_n acts on exponent vectors by permuting the coordinates and changing
their signs.  Every value that carries the promise must be invariant, and
every product of two such values must equal the term-pair kernel and the
tuple-loop reference of test_core.
"""

import itertools

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


def signed_permutations(e):
    """The B_n orbit of e, built without the kernel's helpers."""
    return {
        tuple(s * e[p] for s, p in zip(signs, perm))
        for perm in itertools.permutations(range(len(e)))
        for signs in itertools.product((1, -1), repeat=len(e))
    }


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
    """The sum over seeds (e, c) of c times the orbit sum of e; seeds in one
    orbit add up, and may cancel."""
    terms = {}
    for e, c in seeds:
        for g in signed_permutations(e):
            terms[g] = terms.get(g, 0) + c
    return core._owning(n, {g: c for g, c in terms.items() if c}, True)


def untagged(poly):
    return LaurentPoly(poly.n_vars, poly.terms)


def dominant_only(poly):
    """A promised copy of poly stored by its dominant coefficients alone,
    its terms not yet written out."""
    return core._dominant(poly.n_vars, dict(poly._dom))


def dominant_part(poly):
    return {e: c for e, c in poly.terms.items() if core._is_dominant(e)}


# spans at which the dominant kernel's candidates, at most C(2 * span + n, n),
# stay few enough to test it directly; its digit width changes where
# 4 * span crosses a power of two (3/4, 7/8, 15/16, 31/32, 63/64, 127/128)
KERNEL_SPANS = {
    1: SPANS,
    2: (1, 2, 3, 15, 16, 31, 32),
    3: (1, 2, 3, 7, 8),
    4: (1, 2, 3, 4),
}


@st.composite
def invariant_pairs(draw, spans=dict.fromkeys(range(5), SPANS)):
    """Two B_n-symmetrised operands, n a key of spans, exponents within a
    span of spans[n] each, the extremes favoured, coefficients that cancel
    within and across orbits."""
    n = draw(st.sampled_from(sorted(spans)))

    def operand():
        span = draw(st.sampled_from(spans[n]))
        exponent = st.one_of(st.sampled_from((-span, span, 0, 1, -1)), st.integers(-span, span))
        seeds = draw(
            st.lists(
                st.tuples(st.tuples(*[exponent] * n), st.sampled_from(COEFFS)),
                min_size=1,
                max_size=3 if n < 4 else 1,
            )
        )
        return symmetrised(n, seeds)

    return n, operand(), operand()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invariant_pairs())
def test_invariant_product_matches_references(pair):
    n, a, b = pair
    assume(len(a.terms) * len(b.terms) <= 20000)  # the tuple loop stays fast
    assert a._invariant and b._invariant
    got = a * b
    assert got == untagged(a) * untagged(b) == tuple_loop_mul(a, b)
    assert b * a == got
    assert got._invariant and is_invariant(got)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invariant_pairs(spans=KERNEL_SPANS))
def test_dominant_kernel_matches_references(pair):
    # the kernel itself, also where __mul__ would take the term-pair loop
    n, a, b = pair
    assume(a.terms and b.terms)
    small, large = sorted((a, b), key=lambda p: len(p.terms))
    got = core._dominant_mul(n, small, large, core._candidates(*core._product_envelope(small, large)))
    assert got == tuple_loop_mul(a, b)
    assert got._invariant and is_invariant(got)


def tuple_sum(a, b, sign=1):
    """Reference a + sign * b, one term at a time on exponent tuples."""
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, 0) + sign * c
    return LaurentPoly(a.n_vars, {e: c for e, c in terms.items() if c})


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invariant_pairs(), st.sampled_from((-3, -1, 2, 10**30)))
def test_dominant_storage_matches_the_tuple_form(pair, k):
    n, a, b = pair
    assume(len(a.terms) * len(b.terms) <= 20000)  # the tuple loop stays fast
    want = {
        "sum": tuple_sum(a, b),
        "difference": tuple_sum(a, b, -1),
        "negation": LaurentPoly(n, {e: -c for e, c in a.terms.items()}),
        "scaling": LaurentPoly(n, {e: k * c for e, c in a.terms.items()}),
        "product": tuple_loop_mul(a, b),
    }
    da, db = dominant_only(a), dominant_only(b)
    got = {
        "sum": da + db,
        "difference": da - db,
        "negation": -da,
        "scaling": da.scaled(k),
    }
    # none of these writes an orbit out, of an operand or of the result
    assert da._terms is None and db._terms is None
    assert all(p._terms is None for p in got.values())
    got["product"] = da * db
    for name, ref in want.items():
        value = got[name]
        assert value._invariant, name
        assert value.is_zero() == (not ref.terms), name
        # dominant to dominant, then once expanded
        assert value._dom == dominant_part(ref), name
        assert value == core._owning(n, dict(ref.terms), True), name
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
    n, a, b = pair
    for poly in (a, b):
        assume(n and not poly.is_zero())
        assert core._envelope(dominant_only(poly)) == envelope_of_terms(poly.terms)


@settings(max_examples=150, deadline=None)
@given(invariant_pairs())
def test_zero_equality_and_hash_agree_with_untagged_copies(pair):
    n, a, b = pair
    da, db = dominant_only(a), dominant_only(b)
    cases = [(da, db), (db, da), (da, dominant_only(a)), (da - db, -(db - da)),
             (da - da, db - db), (da + db, db + da), (da, -da)]
    for x, y in cases:
        # both promised, terms not yet written: read off dominant coefficients
        same, zero = x == y, x.is_zero()
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
    exps = st.tuples(*[st.integers(-3, 3)] * n)
    terms = data.draw(st.dictionaries(exps, st.sampled_from(COEFFS), max_size=6))
    for poly in (LaurentPoly(n, terms), untagged(a), untagged(a).bar()):
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
    others = [elementary_pm(2, n), dominant_only(complete_pm(2, n)), untagged(elementary_pm(2, n)),
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
    # sparse operands with large exponents take the term-pair loop
    far = symmetrised(4, [((1200, 0, 0, 0), 1)])
    assert core._invariant_mul(4, far, far) is None
    assert far * far == tuple_loop_mul(far, far)
    assert (far * far)._invariant
    h6, h8 = complete_pm(6, 3), complete_pm(8, 3)
    assert core._invariant_mul(3, h6, h8) == tuple_loop_mul(h6, h8)


def test_an_operand_is_packed_again_at_a_new_digit_width():
    # h_2 enters products at the floor width, then at a wider one (F_1 = 64
    # for h_2 * h_62), then at the floor width again
    p, h1, h62 = complete_pm(2, 2), complete_pm(1, 2), complete_pm(62, 2)
    widths = []
    for other in (h1, h62, h1):
        small, large = sorted((p, other), key=lambda q: len(q.terms))
        candidates = core._candidates(*core._product_envelope(small, large))
        assert core._invariant_mul(2, small, large) == tuple_loop_mul(p, other)
        widths.append(candidates[0])
        assert p._packed[0] == candidates[0]
    assert widths[0] == widths[2] == core.KEY_WIDTH_FLOOR < widths[1]


def test_orbit_and_candidates():
    for nu in ((0, 0, 0), (2, 1, 0), (3, 3, 1), (2, 2, 2), (4,), (5, 0)):
        assert set(core._orbit(nu)) == signed_permutations(nu)
        assert len(core._orbit(nu)) == len(signed_permutations(nu))
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


def test_promise_is_made_only_where_proven():
    for n in (1, 2, 3):
        for r in range(0, 9):
            for poly in (elementary_pm(r, n), complete_pm(r, n)):
                assert poly._invariant and is_invariant(poly)
        # the plain alphabet is only S_n-invariant
        assert not elementary_plain(1, n)._invariant
        assert not complete_plain(2, n)._invariant
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
    assert not p.mul_monomial((1, 0))._invariant


def test_every_promised_value_of_the_routes_is_invariant(monkeypatch):
    # every value built by sums, negations, scalings and products in
    # dual-JT, JT and Giambelli: every minor and hook block, whether built
    # from its terms (_owning) or from its dominant coefficients alone
    # (_dominant)
    promised = []
    seen_mul = []
    owning, dominant, mul = core._owning, core._dominant, core.LaurentPoly.__mul__

    def checked_owning(n_vars, terms, invariant):
        poly = owning(n_vars, terms, invariant)
        if invariant:
            promised.append(poly)
        return poly

    def checked_dominant(n_vars, dom):
        poly = dominant(n_vars, dom)
        promised.append(poly)
        return poly

    def spying_mul(a, b):
        if isinstance(b, LaurentPoly):
            seen_mul.append(a._invariant and b._invariant)
        return mul(a, b)

    monkeypatch.setattr(core, "_owning", checked_owning)
    monkeypatch.setattr(core, "_dominant", checked_dominant)
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
        assert all(core._is_dominant(e) and c for e, c in p._dom.items())
        assert is_invariant(p)
        assert p._dom == dominant_part(p)
