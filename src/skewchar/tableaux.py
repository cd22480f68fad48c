"""Enumeration oracles for the four tableau families.

Entries are decorated values ordered circ_i < hat_i < bar_i < plain_i <
circ_{i+1}; each family uses a sub-alphabet (plain for Schur, bar/plain for
symplectic, plus hat for odd orthogonal, plus circ for even orthogonal).
Enumeration works on integer ranks 4*(value-1) + decoration so comparisons
are plain int comparisons.
"""

import os
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .core import LaurentPoly, Partition, SkewShape, _key_width, _unpack, _weights
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
RULE_CACHE_SIZE = 4096


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
    if not raw:
        return DEFAULT_MAX_CELLS
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError("SKEWCHAR_MAX_CELLS must be an integer, got %r" % raw) from None
    if cap < 0:
        raise ValueError("SKEWCHAR_MAX_CELLS >= 0 fails: %d < 0" % cap)
    return cap


def domain_error(family, lam, mu, n, m):
    """The message of the first condition of every route's domain that the
    input fails, or None inside it: n, m >= 0, mu inside lambda, and rows
    the tableau alphabet can fill, l(lambda) <= n for the general linear
    family (which has no m), l(mu) <= m and l(lambda) <= n+m otherwise."""
    if n < 0:
        return "n >= 0 fails: %d < 0" % n
    if m < 0:
        return "m >= 0 fails: %d < 0" % m
    if not lam.contains(mu):
        return "mu <= lambda fails: %r not contained in %r" % (mu.parts, lam.parts)
    if family is CharacterFamily.GL:
        if lam.length() > n:
            return "l(lambda) <= n fails: %d > %d" % (lam.length(), n)
        return None
    if mu.length() > m:
        return "l(mu) <= m fails: %d > %d" % (mu.length(), m)
    if lam.length() > n + m:
        return "l(lambda) <= n+m fails: %d > %d" % (lam.length(), n + m)
    return None


def check_preconditions(family, lam, mu, n, m):
    """Reject input outside every route's domain (see domain_error)."""
    error = domain_error(family, lam, mu, n, m)
    if error:
        raise ValueError(error)


def matrix_size(N, least, name):
    """The size N of a determinant or path configuration, least when N is
    None; raises unless N >= least, the value named name."""
    if N is None:
        return least
    if N < least:
        raise ValueError("%s <= N fails: %d > %d" % (name, least, N))
    return N


def _row_min_rank(family, r, m):
    """Family lower bound for entries in row r (1-based)."""
    if family is CharacterFamily.GL or r <= m:
        return 0
    i = r - m
    if family is CharacterFamily.SP:
        return entry_rank(i, BAR)
    return entry_rank(i, HAT)  # modified condition for both orthogonal families


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _options(family, n, m, r, col1, below, left, above, first):
    """The ranks, ascending, that a cell of row r may take.

    col1 says the cell lies in column 1 and below that the column-1 cell
    under it exists (a circ needs that hat); left, above and first are the
    ranks of the left neighbour, the upper neighbour and the row's first
    cell, None where absent.  first matters only to the even orthogonal
    plain rule."""
    lo = _row_min_rank(family, r, m)
    if left is not None:
        lo = max(lo, left)
    if above is not None:
        lo = max(lo, above + 1)
    even = family is CharacterFamily.O_EVEN
    top_rank = 4 * n - 1
    # a circ above the first column forces the matching hat
    if even and col1 and above is not None and above % 4 == CIRC:
        hat = entry_rank(above // 4 + 1, HAT)
        return (hat,) if lo <= hat <= top_rank else ()
    decos = _FAMILY_DECOS[family]
    out = []
    for rank in range(lo, top_rank + 1):
        deco = rank % 4
        if deco not in decos:
            continue
        v = rank // 4 + 1
        if deco == HAT:
            # in the even family a hat comes only under its circ (forced above)
            if not col1 or r != m + v or even:
                continue
        elif deco == CIRC:
            if not col1 or r != m + v - 1 or not below:
                continue
        elif even and deco == PLAIN and r == m + v and not col1:
            if first == entry_rank(v, BAR) and above != first:
                continue
        out.append(rank)
    return tuple(out)


def _iter_fillings(family, shape, n, m):
    """Yield (ranks, key) for every valid filling, cells in row-major order.

    ranks is a reused buffer with one spare slot, always None, after the
    cells; key is the weight's exponent vector packed in core's format at
    digit width _key_width(cells), as no |exponent| exceeds the cells."""
    check_preconditions(family, shape.outer, shape.inner, n, m)
    cap = _max_cells()
    if shape.size() > cap:
        raise ValueError(
            "shape has %d cells, over SKEWCHAR_MAX_CELLS=%d" % (shape.size(), cap)
        )
    cells = shape.cells()
    size = len(cells)
    ranks = [0] * size + [None]
    if not size:
        yield ranks, 0
        return
    step = [0] * (4 * n)
    for v, weight in enumerate(_weights(n, _key_width(size))):
        step[4 * v + PLAIN] = weight
        step[4 * v + BAR] = -weight
    # per cell: the rule's fixed arguments and a getter of (left, above,
    # first) from ranks; an absent neighbour reads the spare None slot
    index = {cell: i for i, cell in enumerate(cells)}
    even = family is CharacterFamily.O_EVEN
    fixed = [(family, n, m, r, c == 1, c == 1 and (r + 1, 1) in index) for r, c in cells]
    getters = [
        itemgetter(
            index.get((r, c - 1), size),
            index.get((r - 1, c), size),
            index.get((r, 1), size) if even and c > 1 else size,
        )
        for r, c in cells
    ]
    seen = [{} for _ in cells]  # per cell: (left, above, first) -> options
    last = size - 1
    keys = [0] * size  # keys[i]: the weight of cells 0..i-1
    stack = [iter(_options(*fixed[0], *getters[0](ranks)))]
    i = 0
    while stack:
        for rank in stack[-1]:
            ranks[i] = rank
            if i == last:
                yield ranks, keys[i] + step[rank]
                continue
            keys[i + 1] = keys[i] + step[rank]
            i += 1
            probe = getters[i](ranks)
            opts = seen[i].get(probe)
            if opts is None:
                opts = seen[i][probe] = _options(*fixed[i], *probe)
            stack.append(iter(opts))
            break
        else:
            stack.pop()
            i -= 1


def enumerate_tableaux(family, shape, n, m=0):
    """Stream every valid tableau of the family exactly once."""
    cells = shape.cells()
    for ranks, _ in _iter_fillings(family, shape, n, m):
        yield Tableau(shape, {cell: _rank_entry(rank) for cell, rank in zip(cells, ranks)})


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
    counts = {}
    for _, key in _iter_fillings(family, shape, n, m):
        counts[key] = counts.get(key, 0) + 1
    return LaurentPoly(n, _unpack(counts, n, _key_width(shape.size())))


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
