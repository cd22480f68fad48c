import itertools
import tracemalloc

import pytest

from skewchar import (
    CharacterFamily,
    LaurentPoly,
    Partition,
    SkewShape,
    Tableau,
    character_by_tableaux,
    count_tableaux,
    dual_jacobi_trudi,
    elementary_pm,
    enumerate_tableaux,
    is_valid_tableau,
    tableau_weight,
)
from skewchar import cli, tableaux
from skewchar.core import partitions_upto
from skewchar.tableaux import Entry

F = CharacterFamily

FIG2 = ". 1b 2 / 1b 2b / 1 2 / 2b / 3"  # skew (3,2)-symplectic, (3,2,2,1,1)/(1)
FIG_SO = ". . 1b / 1h 1b 1 / 2 2 3b / 3 3 / 4h 4"  # (4,1)-odd orth, (3,3,3,2,2)/(2)
FIG_O = ". . 1b 1 / 1b 1b 1 2b / 3c 3b 3 4 / 3h 4b / 4b 4"  # (4,1)-even orth


def test_text_roundtrip():
    t = Tableau.from_text(FIG2)
    assert t.shape == SkewShape(Partition((3, 2, 2, 1, 1)), Partition((1,)))
    assert t.to_text() == FIG2


def test_figure_validity():
    assert is_valid_tableau(F.SP, Tableau.from_text(FIG2), 3, 2)
    assert is_valid_tableau(F.SO_ODD, Tableau.from_text(FIG_SO), 4, 1)
    assert is_valid_tableau(F.O_EVEN, Tableau.from_text(FIG_O), 4, 1)


def test_figure_invalidity():
    # row m+i below the symplectic bound
    bad = Tableau.from_text(". 1b 2 / 1b 2b / 1 2 / 2b / 1")
    assert not is_valid_tableau(F.SP, bad, 3, 2)
    # hat outside the first column
    bad2 = Tableau.from_text("1b 2h / 2 3")
    assert not is_valid_tableau(F.SO_ODD, bad2, 3, 1)
    # circ without its hat below
    bad3 = Tableau.from_text("1c / 1")
    assert not is_valid_tableau(F.O_EVEN, bad3, 2, 2)
    # even orthogonal condition: a row m+i starting with bar_i containing a
    # plain i needs bar_i right above that i (a skew hole above violates it)
    good = Tableau.from_text(". . / 1b 1b")
    assert is_valid_tableau(F.O_EVEN, good, 1, 1)
    bad5 = Tableau.from_text(". . / 1b 1")
    assert not is_valid_tableau(F.O_EVEN, bad5, 1, 1)
    good2 = Tableau.from_text(". 1b / 1b 1")
    assert is_valid_tableau(F.O_EVEN, good2, 1, 1)


def test_figure_weights():
    w2 = tableau_weight(F.SP, Tableau.from_text(FIG2), 3)
    assert w2 == LaurentPoly.monomial((-1, 0, 1))
    # recomputed from the paper's figure: x1^-1 x2^2 x3 x4 (hats weigh 1)
    w4 = tableau_weight(F.SO_ODD, Tableau.from_text(FIG_SO), 4)
    assert w4 == LaurentPoly.monomial((-1, 2, 1, 1))
    empty = Tableau(SkewShape(Partition((1,)), Partition((1,))), {})
    assert tableau_weight(F.SP, empty, 2) == LaurentPoly.one(2)


def test_enumeration_examples():
    five = list(enumerate_tableaux(F.SP, SkewShape(Partition((1, 1))), 2, 0))
    assert sorted(t.to_text() for t in five) == sorted(
        ["1b / 2b", "1b / 2", "1 / 2b", "1 / 2", "2b / 2"]
    )
    assert len(list(enumerate_tableaux(F.GL, SkewShape(Partition((1,))), 3))) == 3
    lamlam = SkewShape(Partition((2, 1)), Partition((2, 1)))
    for fam, m in [(F.GL, 0), (F.SP, 2), (F.SO_ODD, 2), (F.O_EVEN, 2)]:
        ts = list(enumerate_tableaux(fam, lamlam, 2, m))
        assert len(ts) == 1 and ts[0].cells == {}


def test_character_examples():
    assert character_by_tableaux(F.SP, SkewShape(Partition((1,))), 1, 0) == LaurentPoly(
        1, {(1,): 1, (-1,): 1}
    )
    c = character_by_tableaux(F.SP, SkewShape(Partition((1, 1))), 2, 0)
    assert c == elementary_pm(2, 2) - LaurentPoly.one(2)
    assert character_by_tableaux(F.O_EVEN, SkewShape(Partition((1, 1))), 2, 0) == elementary_pm(2, 2)
    assert character_by_tableaux(
        F.SO_ODD, SkewShape(Partition((1,))), 1, 0
    ) == LaurentPoly(1, {(1,): 1, (0,): 1, (-1,): 1})


def test_preconditions():
    with pytest.raises(ValueError, match="l\\(mu\\) <= m fails"):
        list(enumerate_tableaux(F.SP, SkewShape(Partition((2, 1)), Partition((1, 1))), 2, 1))
    with pytest.raises(ValueError, match="l\\(lambda\\) <= n\\+m fails"):
        list(enumerate_tableaux(F.SP, SkewShape(Partition((1, 1, 1))), 1, 1))
    with pytest.raises(ValueError, match="l\\(lambda\\) <= n fails"):
        list(enumerate_tableaux(F.GL, SkewShape(Partition((1, 1))), 1))


def test_max_cells_cap(monkeypatch):
    monkeypatch.setenv("SKEWCHAR_MAX_CELLS", "3")
    with pytest.raises(ValueError, match="SKEWCHAR_MAX_CELLS"):
        count_tableaux(F.SP, SkewShape(Partition((2, 2))), 2, 0)
    monkeypatch.setenv("SKEWCHAR_MAX_CELLS", "4")
    assert count_tableaux(F.SP, SkewShape(Partition((2, 2))), 2, 0) > 0


def test_max_cells_must_be_a_nonnegative_integer(monkeypatch):
    sh = SkewShape(Partition((1,)))
    for raw, want in [("abc", "SKEWCHAR_MAX_CELLS must be an integer, got 'abc'"),
                      ("-1", "SKEWCHAR_MAX_CELLS >= 0 fails: -1 < 0")]:
        monkeypatch.setenv("SKEWCHAR_MAX_CELLS", raw)
        for run in (character_by_tableaux, count_tableaux):
            with pytest.raises(ValueError, match=want):
                run(F.SP, sh, 1, 0)
        with pytest.raises(ValueError, match=want):
            list(enumerate_tableaux(F.SP, sh, 1, 0))
    monkeypatch.setenv("SKEWCHAR_MAX_CELLS", "0")
    assert count_tableaux(F.SP, SkewShape(Partition((1,)), Partition((1,))), 1, 1) == 1


# each family's decorated alphabet, in rank order within a value
ALPHABET = {
    F.GL: ("",),
    F.SP: ("b", ""),
    F.SO_ODD: ("h", "b", ""),
    F.O_EVEN: ("c", "h", "b", ""),
}


def _brute_force(fam, sh, n, m):
    """Every valid tableau, filtered from all fillings by the alphabet, in
    lexicographic row-major rank order."""
    alphabet = [Entry.from_text("%d%s" % (v, d)) for v in range(1, n + 1) for d in ALPHABET[fam]]
    cells = sh.cells()
    fills = itertools.product(alphabet, repeat=len(cells))
    fillings = (Tableau(sh, zip(cells, fill)) for fill in fills)
    return [t for t in fillings if is_valid_tableau(fam, t, n, m)]


# columns as tall as l(lambda) <= n (+ m) allows, so that every column cap
# binds: the top cells of column 1 must leave room for the cells under them
FULL_COLUMNS = [
    (F.GL, (2, 2, 1), (), 3, 0),
    (F.SP, (2, 2, 1, 1), (), 2, 2),
    (F.SO_ODD, (2, 2, 1, 1), (1,), 2, 2),
    (F.O_EVEN, (2, 1, 1, 1), (), 2, 2),
]


def test_enumeration_equals_brute_force():
    cases = []
    for lam in partitions_upto(6):
        for mu in partitions_upto(lam.size()):
            if not lam.contains(mu) or mu.length() > 2 or lam.size() - mu.size() > 4:
                continue
            for fam in (F.GL, F.SP, F.SO_ODD, F.O_EVEN):
                for n in (1, 2):
                    for m in (0,) if fam is F.GL else (0, 1, 2):
                        if mu.length() > m or lam.length() > n + m:
                            continue
                        if fam is F.GL and lam.length() > n:
                            continue
                        cases.append((fam, SkewShape(lam, mu), n, m))
    assert len(cases) == 1226
    for fam, outer, inner, n, m in FULL_COLUMNS:
        cases.append((fam, SkewShape(Partition(outer), Partition(inner)), n, m))
    for fam, sh, n, m in cases:
        want = _brute_force(fam, sh, n, m)
        got = list(enumerate_tableaux(fam, sh, n, m))
        assert got == want, (fam, sh, n, m)
        assert len(set(got)) == len(got)
        cells = sh.cells()
        order = [tuple(t.cells[c].rank for c in cells) for t in got]
        assert order == sorted(order)
        assert count_tableaux(fam, sh, n, m) == len(want)
        weight = LaurentPoly.zero(n)
        for t in want:
            weight = weight + tableau_weight(fam, t, n)
        assert character_by_tableaux(fam, sh, n, m) == weight


# shapes of three or more rows whose later rows are listed under many
# distinct rows above
MEMO_SHAPES = [
    (F.GL, (3, 3, 2), (1,), 3, 0),
    (F.SP, (3, 3, 3), (), 3, 0),
    (F.SO_ODD, (3, 3, 2, 1), (2,), 2, 2),
    (F.O_EVEN, (4, 3, 3, 2), (1,), 3, 1),
]


def test_row_memo_budget_keeps_every_tableau(monkeypatch):
    # past its budget the row memo walks a row afresh; the tableaux, their
    # order, count and character must not depend on what it kept
    want = {}
    for fam, outer, inner, n, m in MEMO_SHAPES:
        sh = SkewShape(Partition(outer), Partition(inner))
        want[fam] = (list(enumerate_tableaux(fam, sh, n, m)), character_by_tableaux(fam, sh, n, m))
    for budget in (0, 1, 3, 40):
        monkeypatch.setattr(tableaux, "ROW_MEMO_FILLS", budget)
        for fam, outer, inner, n, m in MEMO_SHAPES:
            sh = SkewShape(Partition(outer), Partition(inner))
            got = list(enumerate_tableaux(fam, sh, n, m))
            assert got == want[fam][0], (fam, budget)
            assert count_tableaux(fam, sh, n, m) == len(got)
            assert character_by_tableaux(fam, sh, n, m) == want[fam][1], (fam, budget)


def test_long_rows_are_walked_in_bounded_memory():
    # sp (16), n = 3 has C(21, 5) = 20,349 fills: a list of them would take
    # megabytes, the walk holds one prefix (counts by Jacobi-Trudi at 1)
    for outer, count in [((16,), 20349), ((16, 1), 80256)]:
        sh = SkewShape(Partition(outer))
        tracemalloc.start()
        try:
            assert count_tableaux(F.SP, sh, 3, 0) == count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (outer, peak)


def test_packed_weight_at_its_extremes():
    # one digit spans x^k .. x^-k; its width steps between 31 and 32 and
    # between 63 and 64 cells, the default cap
    for k in (31, 32, 63, 64):
        row = SkewShape(Partition((k,)))
        assert character_by_tableaux(F.SP, row, 1, 0) == LaurentPoly(
            1, {(j,): 1 for j in range(-k, k + 1, 2)}
        )
    # three digits, each reaching +-|shape| next to its neighbours
    sh = SkewShape(Partition((4,)))
    ch = character_by_tableaux(F.SP, sh, 3, 0)
    for v in range(3):
        for sign in (1, -1):
            exps = [0, 0, 0]
            exps[v] = 4 * sign
            assert ch.terms[tuple(exps)] == 1
    assert ch == dual_jacobi_trudi(F.SP, Partition((4,)), Partition(), 3)


def test_all_ones_counts_and_bc_symmetry():
    for fam in (F.SP, F.SO_ODD, F.O_EVEN):
        for outer, inner, n, m in [
            ((2, 1), (1,), 2, 1),
            ((2, 2), (), 2, 0),
            ((3, 1), (1,), 2, 1),
            ((2, 1, 1), (), 2, 1),
        ]:
            sh = SkewShape(Partition(outer), Partition(inner))
            ch = character_by_tableaux(fam, sh, n, m)
            assert ch.bar() == ch
            assert ch.eval_at([1] * n) == count_tableaux(fam, sh, n, m)


def test_monotone_restriction():
    sh = SkewShape(Partition((2, 1)), Partition((1,)))
    for fam in (F.GL, F.SP, F.SO_ODD, F.O_EVEN):
        n, m = (3, 0) if fam is F.GL else (3, 1)
        small = character_by_tableaux(fam, sh, n - 1, m)
        terms = {}
        for t in enumerate_tableaux(fam, sh, n, m):
            if any(e.value == n for e in t.cells.values()):
                continue
            exp = next(iter(tableau_weight(fam, t, n).terms))
            terms[exp[:-1]] = terms.get(exp[:-1], 0) + 1
        assert LaurentPoly(n - 1, {k: v for k, v in terms.items() if v}) == small


def test_gl_matches_plain_dual_jacobi_trudi():
    for lam in partitions_upto(5):
        for mu in partitions_upto(lam.size()):
            if not lam.contains(mu):
                continue
            for n in (1, 2, 3):
                if lam.length() > n:
                    continue
                oracle = character_by_tableaux(F.GL, SkewShape(lam, mu), n)
                det = dual_jacobi_trudi(F.GL, lam, mu, n)
                assert det == oracle, (lam, mu, n)
