"""Enumeration oracles for the four tableau families.

Entries are decorated values ordered circ_i < hat_i < bar_i < plain_i <
circ_{i+1}; each family uses a sub-alphabet (plain for Schur, bar/plain for
symplectic, plus hat for odd orthogonal, plus circ for even orthogonal).
Enumeration works on integer ranks 4*(value-1) + decoration so comparisons
are plain int comparisons.  It walks one row at a time, cell by cell
through the per-cell rule _options, and caps every cell's rank by its
column, so that no prefix is walked that leaves a cell to its right or
below with no rank.  A row's fills under a given row above are kept for
the call up to a fixed budget, so a walk's memory is bounded whatever
the number of tableaux.
"""

import os
from functools import lru_cache
from itertools import chain, islice
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
ROW_MEMO_FILLS = 1 << 14


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
    the tableau alphabet can fill, m = 0 and l(lambda) <= n for the general
    linear family (which has no m), l(mu) <= m and l(lambda) <= n+m
    otherwise."""
    if n < 0:
        return "n >= 0 fails: %d < 0" % n
    if m < 0:
        return "m >= 0 fails: %d < 0" % m
    if not lam.contains(mu):
        return "mu <= lambda fails: %r not contained in %r" % (mu.parts, lam.parts)
    if family is CharacterFamily.GL:
        if m:
            return "m = 0 fails for the general linear family: %d != 0" % m
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
def _options(family, n, m, r, col1, below, top_rank, left, above, first):
    """The ranks, ascending, that a cell of row r may take.

    family is a CharacterFamily's value, as a str key hashes in C where an
    Enum member's __hash__ is a Python call on every lookup.  col1 says
    the cell lies in column 1 and below that the column-1 cell under it
    exists (a circ needs that hat); top_rank is the cell's
    column cap (see _iter_fillings), at most 4n - 1, the alphabet's
    largest rank; left, above and first are the ranks of the left
    neighbour, the upper neighbour and the row's first cell, None where
    absent.  first matters only to the even orthogonal plain rule."""
    family = CharacterFamily(family)
    lo = _row_min_rank(family, r, m)
    if left is not None:
        lo = max(lo, left)
    if above is not None:
        lo = max(lo, above + 1)
    even = family is CharacterFamily.O_EVEN
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


def _unlink(ranks):
    """The ranks of a linked fill (see _row_fills) as a tuple, left to right."""
    out = []
    while ranks:
        ranks, rank = ranks
        out.append(rank)
    out.reverse()
    return tuple(out)


def _row_fills(plan, first_col, pad, overlap, above, step):
    """Yield every fill of one row under the row above, in ascending
    lexicographic order, as records (ranks, weight key, the key the next
    row looks up by).

    plan holds each cell's fixed _options arguments, left to right;
    first_col says the family is even orthogonal and the row starts in
    column 1, so that each later cell reads the row's first rank.  above
    holds each cell's upper neighbour's rank, None where absent.  ranks is
    linked, (the ranks before, the last rank) down to None, so fills share
    their prefixes and a fill costs one pair (_unlink reads it).  The next
    key is that tuple for the next nonempty row: pad Nones, then this
    row's first overlap ranks.  The walk holds one prefix at a time."""
    last = len(plan) - 1
    gap = (None,) * pad
    key = gap
    full = overlap > last  # the next key reads the whole row
    # cells before hold fix the next key or the row's first rank
    hold = max(overlap, first_col)
    heads = [None] * (last + 1)  # heads[i]: the linked ranks of cells 0..i-1
    weights = [0] * (last + 1)
    walks = [iter(_options(*plan[0], None, above[0], None))] + [None] * last
    first = None
    rules = {}  # (cell, left, first) -> the cell's ranks, for this row above
    i = 0
    while i >= 0:
        for rank in walks[i]:
            head = (heads[i], rank)
            weight = weights[i] + step[rank]
            if i == last:  # a one-cell row
                yield head, weight, gap + (rank,) if full else key
                continue
            if i < hold:
                if i + 1 == overlap:
                    key = gap + _unlink(head)
                if not i and first_col:
                    first = rank
            probe = (i + 1, rank, first)
            opts = rules.get(probe)
            if opts is None:
                opts = rules[probe] = _options(*plan[i + 1], rank, above[i + 1], first)
            if i + 1 < last:
                i += 1
                heads[i] = head
                weights[i] = weight
                walks[i] = iter(opts)
                break
            # the row's last cell, listed in place
            for end in opts:
                tail = (head, end)
                yield tail, weight + step[end], gap + _unlink(tail) if full else key
        else:
            i -= 1


def _iter_fillings(family, shape, n, m):
    """Yield (above, key, last) once per valid filling of every nonempty
    row but the last: above lists those rows' fill records (see
    _row_fills) top down, key is their summed weight and last iterates,
    once, the last row's fills under them, never empty.

    Completing above by each record of last gives every valid filling
    once, in ascending row-major rank order.  above is a reused list: read
    it before the next group.  A weight is the exponent vector packed in
    core's format at digit width _key_width(cells), as no |exponent|
    exceeds the cells.

    Each cell's largest rank is its column cap top(r, c) = min(top(r, c+1),
    top(r+1, c) - 1), with 4n - 1 for a neighbour outside the shape: rows
    weakly increase and columns strictly increase, so a larger rank leaves
    no room to its right or below.  The first row is walked once.  A later
    row's fills under a given row above are kept for the call while the
    kept fills and keys number under ROW_MEMO_FILLS; past that they are
    walked afresh, so memory stays bounded on rows with millions of fills."""
    check_preconditions(family, shape.outer, shape.inner, n, m)
    max_cells = _max_cells()
    if shape.size() > max_cells:
        raise ValueError(
            "shape has %d cells, over SKEWCHAR_MAX_CELLS=%d" % (shape.size(), max_cells)
        )
    step = [0] * (4 * n)
    for v, weight in enumerate(_weights(n, _key_width(shape.size()))):
        step[4 * v + PLAIN] = weight
        step[4 * v + BAR] = -weight
    # row r has columns inner[r-1]+1..outer[r-1]; one past the last row
    # reads as empty
    outer = shape.outer.parts + (0,)
    inner = shape.inner.parts + (0,) * (len(outer) - len(shape.inner.parts))
    even, name = family is CharacterFamily.O_EVEN, family.value
    # one pass up the rows: per nonempty row, its _row_fills arguments but
    # the row above, with every cell's cap
    rows = []
    below, nxt = (), None  # the caps of row r + 1; the next nonempty row
    for r in range(len(outer) - 1, 0, -1):
        lo, hi, d0, d1 = inner[r - 1], outer[r - 1], inner[r], outer[r]
        caps, cap = [], 4 * n - 1
        for c in range(hi, lo, -1):
            if c <= d1:
                cap = min(cap, below[c - d0 - 1] - 1)
            caps.append(cap)
        caps.reverse()
        below = caps
        if hi == lo:
            continue
        # the next row's cells under this row read its first ranks in
        # its key, the rest read None
        overlap = d1 - lo if nxt == r + 1 and d1 > lo else 0
        pad = outer[nxt - 1] - inner[nxt - 1] - overlap if nxt else 0
        col1 = lo == 0
        plan = [(name, n, m, r, col1, col1 and d1 > 0 and not d0, caps[0])]
        plan += [(name, n, m, r, False, False, cap) for cap in caps[1:]]
        rows.append((plan, even and col1, pad, overlap))
        nxt = r
    rows.reverse()
    if not rows:  # no cells: the empty filling
        yield [], 0, [(None, 0, ())]
        return
    top = _row_fills(*rows[0], (None,) * len(rows[0][0]), step)
    last = len(rows) - 1
    chosen = [None] * last
    if not last:
        head = next(top, None)
        if head is not None:
            yield chosen, 0, chain((head,), top)
        return
    memos = [{} for _ in rows]  # per row: the row above's key -> fills
    gets = [memo.get for memo in memos]
    room = ROW_MEMO_FILLS  # the fills and keys the memos may still keep
    keys = [0] * last  # keys[j]: the weight of rows 0..j-1
    stack = [top]
    j = 0
    while stack:
        for rec in stack[-1]:
            more = gets[j + 1](rec[2])
            if more is None:
                walk = _row_fills(*rows[j + 1], rec[2], step)
                more = list(islice(walk, room + 1))
                if len(more) < room:
                    room -= len(more) + 1
                    memos[j + 1][rec[2]] = more
                elif more:
                    more = chain(more, walk)
            if not more:
                continue
            chosen[j] = rec
            key = keys[j] + rec[1]
            if j + 1 == last:
                yield chosen, key, more
                continue
            j += 1
            keys[j] = key
            stack.append(iter(more))
            break
        else:
            stack.pop()
            j -= 1


def enumerate_tableaux(family, shape, n, m=0):
    """Stream every valid tableau of the family exactly once."""
    cells = shape.cells()
    for above, _, last in _iter_fillings(family, shape, n, m):
        head = tuple(rank for rec in above for rank in _unlink(rec[0]))
        for rec in last:
            ranks = head + _unlink(rec[0])
            yield Tableau(shape, {cell: _rank_entry(rank) for cell, rank in zip(cells, ranks)})


def count_tableaux(family, shape, n, m=0):
    return sum(1 for _, _, last in _iter_fillings(family, shape, n, m) for _ in last)


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
    get = counts.get
    for _, key, last in _iter_fillings(family, shape, n, m):
        for rec in last:
            k = key + rec[1]
            counts[k] = get(k, 0) + 1
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
