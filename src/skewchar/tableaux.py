"""Enumeration oracles for the four tableau families.

Entries are decorated values ordered circ_i < hat_i < bar_i < plain_i <
circ_{i+1}; each family uses a sub-alphabet (plain for Schur, bar/plain for
symplectic, plus hat for odd orthogonal, plus circ for even orthogonal).
Enumeration works on integer ranks 4*(value-1) + decoration so comparisons
are plain int comparisons.
"""

import os
from typing import NamedTuple

from .core import LaurentPoly, Partition, SkewShape
from .symfunc import CharacterFamily

CIRC, HAT, BAR, PLAIN = range(4)

_DECO_SUFFIX = {CIRC: "c", HAT: "h", BAR: "b", PLAIN: ""}
_SUFFIX_DECO = {"c": CIRC, "h": HAT, "b": BAR, "": PLAIN}

_FAMILY_DECOS = {
    CharacterFamily.GL: (PLAIN,),
    CharacterFamily.SP: (BAR, PLAIN),
    CharacterFamily.SO_ODD: (HAT, BAR, PLAIN),
    CharacterFamily.O_EVEN: (CIRC, HAT, BAR, PLAIN),
}

DEFAULT_MAX_CELLS = 64


class Entry(NamedTuple):
    value: int
    deco: int

    @property
    def rank(self):
        return 4 * (self.value - 1) + self.deco

    def to_text(self):
        return "%d%s" % (self.value, _DECO_SUFFIX[self.deco])

    @classmethod
    def from_text(cls, s):
        s = s.strip()
        if s and s[-1] in "chb":
            return cls(int(s[:-1]), _SUFFIX_DECO[s[-1]])
        return cls(int(s), PLAIN)


def entry_rank(value, deco):
    return 4 * (value - 1) + deco


def _rank_entry(rank):
    return Entry(rank // 4 + 1, rank % 4)


class Tableau:
    """A filling of a skew shape; cells maps (row, col) -> Entry."""

    __slots__ = ("shape", "cells")

    def __init__(self, shape, cells):
        cells = dict(cells)
        expected = set(shape.cells())
        if set(cells) != expected:
            raise ValueError("cells do not cover the shape exactly")
        self.shape = shape
        self.cells = cells

    def __eq__(self, other):
        return (
            isinstance(other, Tableau)
            and self.shape == other.shape
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.cells.items()))))

    def __repr__(self):
        return "Tableau(%s)" % self.to_text()

    def entry(self, r, c):
        return self.cells.get((r, c))

    def column(self, c):
        """Entries of column c from top to bottom."""
        return [
            self.cells[(r, c)]
            for r in range(1, len(self.shape.outer) + 1)
            if (r, c) in self.cells
        ]

    def to_text(self):
        rows = []
        for r in range(1, len(self.shape.outer) + 1):
            toks = ["."] * self.shape.inner.part(r)
            for c in range(self.shape.inner.part(r) + 1, self.shape.outer.part(r) + 1):
                toks.append(self.cells[(r, c)].to_text())
            rows.append(" ".join(toks))
        return " / ".join(rows)

    @classmethod
    def from_text(cls, text):
        outer, inner, cells = [], [], {}
        for r, row in enumerate(text.split("/"), start=1):
            toks = row.split()
            skew = 0
            while skew < len(toks) and toks[skew] == ".":
                skew += 1
            outer.append(len(toks))
            if skew:
                inner.append(skew)
            for c in range(skew + 1, len(toks) + 1):
                cells[(r, c)] = Entry.from_text(toks[c - 1])
        shape = SkewShape(Partition(outer), Partition(inner))
        return cls(shape, cells)


def _max_cells():
    raw = os.environ.get("SKEWCHAR_MAX_CELLS")
    return int(raw) if raw else DEFAULT_MAX_CELLS


def check_preconditions(family, lam, mu, n, m):
    """Reject input outside every route's domain: negative n or m, mu not
    inside lambda, or too many rows for the n (and m) available."""
    if n < 0:
        raise ValueError("n >= 0 fails: %d < 0" % n)
    if m < 0:
        raise ValueError("m >= 0 fails: %d < 0" % m)
    if not lam.contains(mu):
        raise ValueError(
            "mu <= lambda fails: %r not contained in %r" % (mu.parts, lam.parts)
        )
    if family is CharacterFamily.GL:
        if lam.length() > n:
            raise ValueError("l(lambda) <= n fails: %d > %d" % (lam.length(), n))
        return
    if mu.length() > m:
        raise ValueError("l(mu) <= m fails: %d > %d" % (mu.length(), m))
    if lam.length() > n + m:
        raise ValueError("l(lambda) <= n+m fails: %d > %d" % (lam.length(), n + m))


def _row_min_rank(family, r, m):
    """Family lower bound for entries in row r (1-based)."""
    if family is CharacterFamily.GL or r <= m:
        return 0
    i = r - m
    if family is CharacterFamily.SP:
        return entry_rank(i, BAR)
    return entry_rank(i, HAT)  # modified condition for both orthogonal families


def _iter_fillings(family, shape, n, m):
    """Yield (grid, exps) for every valid filling; both are reused buffers."""
    check_preconditions(family, shape.outer, shape.inner, n, m)
    if shape.size() > _max_cells():
        raise ValueError(
            "shape has %d cells, over SKEWCHAR_MAX_CELLS=%d"
            % (shape.size(), _max_cells())
        )
    cells = shape.cells()
    decos = _FAMILY_DECOS[family]
    even = family is CharacterFamily.O_EVEN
    top_rank = 4 * n - 1
    grid = {}
    exps = [0] * n
    contains = shape.contains_cell

    def candidates(r, c):
        lo = _row_min_rank(family, r, m)
        if c > 1 and (r, c - 1) in grid:
            lo = max(lo, grid[(r, c - 1)])
        if (r - 1, c) in grid:
            lo = max(lo, grid[(r - 1, c)] + 1)
        # a circ above the first column forces the matching hat
        if even and c == 1:
            above = grid.get((r - 1, 1))
            if above is not None and above % 4 == CIRC:
                hat = entry_rank(above // 4 + 1, HAT)
                return [hat] if lo <= hat <= top_rank else []
        out = []
        for rank in range(lo, top_rank + 1):
            deco = rank % 4
            if deco not in decos:
                continue
            v = rank // 4 + 1
            if deco == HAT:
                if c != 1 or r != m + v:
                    continue
                if even:
                    # hat only under its circ (handled by forcing above)
                    continue
            elif deco == CIRC:
                if c != 1 or r != m + v - 1 or not contains(m + v, 1):
                    continue
            elif even and deco == PLAIN and r == m + v and c > 1:
                first = grid.get((r, 1))
                if first == entry_rank(v, BAR):
                    if grid.get((r - 1, c)) != entry_rank(v, BAR):
                        continue
            out.append(rank)
        return out

    def place(idx):
        if idx == len(cells):
            yield grid, exps
            return
        r, c = cells[idx]
        for rank in candidates(r, c):
            deco = rank % 4
            v = rank // 4
            grid[(r, c)] = rank
            if deco == PLAIN:
                exps[v] += 1
            elif deco == BAR:
                exps[v] -= 1
            yield from place(idx + 1)
            if deco == PLAIN:
                exps[v] -= 1
            elif deco == BAR:
                exps[v] += 1
            del grid[(r, c)]

    yield from place(0)


def enumerate_tableaux(family, shape, n, m=0):
    """Stream every valid tableau of the family exactly once."""
    for grid, _ in _iter_fillings(family, shape, n, m):
        yield Tableau(shape, {cell: _rank_entry(rank) for cell, rank in grid.items()})


def count_tableaux(family, shape, n, m=0):
    return sum(1 for _ in _iter_fillings(family, shape, n, m))


def tableau_weight(family, t, n):
    """The monomial prod x_i^(#plain_i - #bar_i); hat and circ contribute 0."""
    exps = [0] * n
    for e in t.cells.values():
        if e.deco == PLAIN:
            exps[e.value - 1] += 1
        elif e.deco == BAR:
            exps[e.value - 1] -= 1
    return LaurentPoly.monomial(exps)


def character_by_tableaux(family, shape, n, m=0):
    """Exact sum of tableau weights: the oracle for every determinant formula."""
    terms = {}
    for _, exps in _iter_fillings(family, shape, n, m):
        e = tuple(exps)
        terms[e] = terms.get(e, 0) + 1
    return LaurentPoly(n, terms)


def is_valid_tableau(family, t, n, m=0):
    """Full validity predicate: semistandardness plus the family conditions."""
    decos = _FAMILY_DECOS[family]
    shape = t.shape
    for (r, c), e in t.cells.items():
        if e.deco not in decos or not 1 <= e.value <= n:
            return False
        if e.rank < _row_min_rank(family, r, m):
            return False
        left = t.cells.get((r, c - 1))
        if left is not None and left.rank > e.rank:
            return False
        top = t.cells.get((r - 1, c))
        if top is not None and top.rank >= e.rank:
            return False
        if e.deco == HAT:
            if c != 1 or r != m + e.value:
                return False
            if family is CharacterFamily.O_EVEN and t.cells.get((r - 1, 1)) != Entry(
                e.value, CIRC
            ):
                return False
        if e.deco == CIRC:
            if c != 1 or r != m + e.value - 1:
                return False
            if t.cells.get((r + 1, 1)) != Entry(e.value, HAT):
                return False
    if family is CharacterFamily.O_EVEN:
        for (r, c), e in t.cells.items():
            # row m+i starting with bar_i forces bar_i above every plain_i
            if e.deco == PLAIN and r == m + e.value and c > 1:
                if t.cells.get((r, 1)) == Entry(e.value, BAR):
                    if t.cells.get((r - 1, c)) != Entry(e.value, BAR):
                        return False
    return True
