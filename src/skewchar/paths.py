"""Lattice path models for the characters: columnwise families read off
tableau columns, hookwise families read off principal hooks, weighted by the
e-labelling (and the combined e/h-labelling in the hookwise layout).

Lattice points are plain (x, y) tuples.  Levels measure progress along
antidiagonals: a horizontal unit step at level 2i-2 weighs x_i^-1 and at
level 2i-1 weighs x_i (for Schur paths level k weighs x_{k+1}).  A step
starting at (x, y) has level x+y-base, except in the hookwise region x < 0
where the level is y-base: there one horizontal step per entry height.
"""

from collections import defaultdict
from enum import Enum
from functools import lru_cache, reduce
from operator import or_

from .core import FrobeniusCoordinates, LaurentPoly, Partition, SkewShape
from .core import _key_width, _unpack, _weights
from .symfunc import CharacterFamily
from . import tableaux as tb


class StepKind(Enum):
    RIGHT = (1, 0)
    UP = (0, 1)
    DOWN = (0, -1)
    DIAG = (1, 1)
    OHORIZ = (2, 0)

    def __init__(self, dx, dy):
        # plain attributes: the walkers read them once per step tried
        self.dx = dx
        self.dy = dy


RIGHT, UP, DOWN, DIAG, OHORIZ = (
    StepKind.RIGHT,
    StepKind.UP,
    StepKind.DOWN,
    StepKind.DIAG,
    StepKind.OHORIZ,
)

_DELTA_KIND = {k.value: k for k in StepKind}

UP_KINDS = (UP, DIAG, OHORIZ)

# cell plans kept at once, one per (shape, layout, path count), see
# _path_cells; the two round-trip sweeps of the test suite meet 247
PLAN_CACHE_SIZE = 1024

# legal steps kept at once, one per (model key, point), see _steps_from; a
# seeded plan of the lgv-paths benchmark meets 616, its whole grid 664
STEP_CACHE_SIZE = 1024


class Layout(Enum):
    COLUMNWISE = "columnwise"
    HOOKWISE = "hookwise"


class InvalidFamilyError(ValueError):
    """A path family violates the model it claims to follow."""


class MalformedFamilyError(ValueError):
    """A family breaks a uniqueness/structure guarantee of the involution."""


class NoSiteError(ValueError):
    """involution_step on a family with no crossing and no trapped position."""


class PathModel:
    """Step legality, boundary rules and step weights for one family/layout."""

    __slots__ = ("family", "layout", "n", "m", "base", "kinds", "key")

    def __init__(self, family, layout, n, m, base=None):
        if layout is Layout.HOOKWISE and family is CharacterFamily.GL:
            raise ValueError("no hookwise model for the general linear family")
        self.family = family
        self.layout = layout
        self.n = n
        self.m = m
        self.base = 2 * m if base is None else base
        kinds = [RIGHT, UP]
        if layout is Layout.HOOKWISE:
            kinds.append(DOWN)
        if family is CharacterFamily.SO_ODD:
            kinds.append(DIAG)
        elif family is CharacterFamily.O_EVEN:
            kinds.append(OHORIZ)
        self.kinds = tuple(kinds)
        # plain values, cheap to hash: _steps_from is cached on it
        self.key = (family.value, layout.value, n, m, self.base)

    def __repr__(self):
        return "PathModel(%s, %s, n=%d, m=%d, base=%d)" % (
            self.family.name,
            self.layout.value,
            self.n,
            self.m,
            self.base,
        )

    def vertex_ok(self, x, y):
        if self.family is CharacterFamily.GL:
            return True
        if self.layout is Layout.COLUMNWISE:
            return y >= x - 1
        if x <= 0:
            return y >= self.base
        return y >= self.base - x and y >= x - 1

    def level(self, x, y):
        if self.layout is Layout.HOOKWISE and x < 0:
            return y - self.base
        return x + y - self.base

    def right_exp(self, x, y):
        """(variable index 0-based, exponent) of a horizontal step at (x, y),
        or None when the level falls outside the alphabet."""
        lev = self.level(x, y)
        if self.family is CharacterFamily.GL:
            return (lev, 1) if 0 <= lev < self.n else None
        if 0 <= lev < 2 * self.n:
            return (lev // 2, -1) if lev % 2 == 0 else (lev // 2, 1)
        return None

    def step_ok(self, x, y, kind):
        """Geometric legality of a step from (x, y)."""
        nx, ny = x + kind.dx, y + kind.dy
        if not (self.vertex_ok(x, y) and self.vertex_ok(nx, ny)):
            return False
        if kind is RIGHT:
            return self.right_exp(x, y) is not None
        if kind is UP:
            # hookwise ascents live strictly right of the seam; a unit up
            # step at x <= 0 never encodes a tableau entry
            return self.layout is Layout.COLUMNWISE or x >= 1
        if kind is DOWN:
            return self.layout is Layout.HOOKWISE and x <= 0
        if kind is DIAG:
            return (
                self.family is CharacterFamily.SO_ODD
                and y == x
                and (self.layout is Layout.COLUMNWISE or x >= 0)
            )
        if kind is OHORIZ:
            return (
                self.family is CharacterFamily.O_EVEN
                and y == x + 2
                and (self.layout is Layout.COLUMNWISE or x >= 0)
            )
        return False


class Path:
    """A start point plus a step sequence."""

    __slots__ = ("start", "steps", "_vertices")

    def __init__(self, start, steps=()):
        self.start = (int(start[0]), int(start[1]))
        self.steps = tuple(steps)
        self._vertices = None  # see vertices

    @classmethod
    def from_points(cls, pts):
        pts = [tuple(p) for p in pts]
        steps = []
        for a, b in zip(pts, pts[1:]):
            delta = (b[0] - a[0], b[1] - a[1])
            if delta not in _DELTA_KIND:
                raise ValueError("illegal step %r -> %r" % (a, b))
            steps.append(_DELTA_KIND[delta])
        return cls(pts[0], steps)

    @property
    def vertices(self):
        """The points the path visits, start first: vertices[k] is where
        steps[k] leaves from.  Every reader of the path's geometry zips it
        with steps; the walk along the steps happens here once, on first
        read."""
        pts = self._vertices
        if pts is None:
            x, y = self.start
            pts = [self.start]
            for s in self.steps:
                x, y = x + s.dx, y + s.dy
                pts.append((x, y))
            pts = self._vertices = tuple(pts)
        return pts

    def points(self):
        return list(self.vertices)

    @property
    def end(self):
        return self.vertices[-1]

    def arc_midpoints(self):
        return [(x + 1, y) for (x, y), s in zip(self.vertices, self.steps) if s is OHORIZ]

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and self.start == other.start
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.start, self.steps))

    def __repr__(self):
        return "Path(%r, %s)" % (self.start, "".join(s.name[0] for s in self.steps))

    def weight_exps(self, model):
        exps = [0] * model.n
        for pt, s in zip(self.vertices, self.steps):
            if s is RIGHT:
                ve = model.right_exp(*pt)
                if ve is None:
                    raise InvalidFamilyError("horizontal step at %r has no weight" % (pt,))
                exps[ve[0]] += ve[1]
        return tuple(exps)

    def validate(self, model):
        """Raise InvalidFamilyError unless every step is a legal move of model."""
        for pt, s in zip(self.vertices, self.steps):
            if not model.step_ok(*pt, s):
                raise InvalidFamilyError("illegal step %s at %r" % (s.name, pt))


class PathFamily:
    """Paths plus the permutation connecting start slots to end slots."""

    __slots__ = ("model", "paths", "connection")

    def __init__(self, model, paths, connection=None):
        self.model = model
        self.paths = tuple(paths)
        if connection is None:
            connection = tuple(range(len(self.paths)))
        self.connection = tuple(connection)
        if sorted(self.connection) != list(range(len(self.paths))):
            raise ValueError("connection must be a permutation")

    def __eq__(self, other):
        return (
            isinstance(other, PathFamily)
            and self.paths == other.paths
            and self.connection == other.connection
        )

    def __repr__(self):
        return "PathFamily(%d paths, connection=%r)" % (
            len(self.paths),
            self.connection,
        )

    def sign(self):
        inv = 0
        c = self.connection
        for i in range(len(c)):
            for j in range(i + 1, len(c)):
                if c[i] > c[j]:
                    inv += 1
        return -1 if inv & 1 else 1

    def signed_weight(self):
        exps = [0] * self.model.n
        for p in self.paths:
            for v, e in enumerate(p.weight_exps(self.model)):
                exps[v] += e
        return LaurentPoly.monomial(exps, self.sign())

    def is_strongly_nonintersecting(self):
        """No two paths share a vertex and no arc midpoint is taken twice,
        by a vertex or by another arc."""
        taken = [pt for p in self.paths for pt in p.vertices]
        taken.extend(mid for p in self.paths for mid in p.arc_midpoints())
        return len(set(taken)) == len(taken)


def _roles(pf):
    """vertex -> (path index, in step kind or None, out step kind or None),
    and the occupied set: every vertex and every arc midpoint."""
    roles = {}
    for i, p in enumerate(pf.paths):
        ins = (None,) + p.steps
        outs = p.steps + (None,)
        for pt, inc, out in zip(p.vertices, ins, outs):
            roles[pt] = (i, inc, out)
    full = set(roles)
    for p in pf.paths:
        full.update(p.arc_midpoints())
    return roles, full


# ---------------------------------------------------------------------------
# endpoint configurations


def columnwise_endpoints(family, shape, n, m, N):
    """Start and end points S_1..S_N, E_1..E_N for the columnwise models."""
    lam_c = shape.outer.conjugate()
    mu_c = shape.inner.conjugate()
    if family is CharacterFamily.GL:
        off = 2 * shape.inner.length()
        span = n
    else:
        off = 2 * m
        span = 2 * n
    starts = [
        (mu_c.part(i) - i + 1, off - mu_c.part(i) + i - 1) for i in range(1, N + 1)
    ]
    ends = [
        (lam_c.part(j) - j + 1, off + span - lam_c.part(j) + j - 1)
        for j in range(1, N + 1)
    ]
    return starts, ends


def hookwise_endpoints(shape, n, m):
    """Starts A_1..A_p, D_1..D_q and ends B_1..B_p, C_1..C_q."""
    fl = shape.outer.to_frobenius()
    fm = shape.inner.to_frobenius()
    top = 2 * n + 2 * m - 1
    a_pts = [(-a, top) for a in fl.arms]
    b_pts = [(b + 1, top - b) for b in fl.legs]
    c_pts = [(-g, 2 * m) for g in fm.arms]
    d_pts = [(d + 1, 2 * m - d - 1) for d in fm.legs]
    return a_pts + d_pts, b_pts + c_pts


def hook_connection(p, q):
    """A_i->C_i and D_i->B_i for i <= q, A_i->B_i beyond; its sign is (-1)^q."""
    sigma = list(range(p + q))
    for i in range(q):
        sigma[i] = p + i
        sigma[p + i] = i
    return tuple(sigma)


def model_and_endpoints(family, shape, n, m, N=None, layout=Layout.COLUMNWISE):
    if layout is Layout.COLUMNWISE:
        N = tb.matrix_size(N, shape.outer.first(), "lambda_1")
        base = 2 * shape.inner.length() if family is CharacterFamily.GL else 2 * m
        model = PathModel(family, layout, n, m, base)
        starts, ends = columnwise_endpoints(family, shape, n, m, N)
        return model, starts, ends
    if N is not None:
        raise ValueError("hookwise layout takes no N")
    model = PathModel(family, Layout.HOOKWISE, n, m)
    starts, ends = hookwise_endpoints(shape, n, m)
    return model, starts, ends


# ---------------------------------------------------------------------------
# tableau <-> path bijections
#
# Both layouts encode an entry as a non-vertical step at the entry's level
# (PathModel.level): _entry_level and _step_entries are the rule and its
# inverse, _encode builds and _decode reads one path with them.
# _path_cells says which cells each path carries, in both directions.


def _entry_level(family, entry):
    """Level of the non-vertical step encoding an entry.

    Schur's plain_i sits at level i-1.  Otherwise bar_i sits at level 2i-2
    and plain_i at 2i-1; hats are read as bars in the odd orthogonal family
    but as plain values in the even one, where the bar slot belongs to the
    circ of the pair.
    """
    if family is CharacterFamily.GL:
        return entry.value - 1
    if (
        entry.deco == tb.BAR
        or entry.deco == tb.CIRC
        or (entry.deco == tb.HAT and family is CharacterFamily.SO_ODD)
    ):
        return 2 * entry.value - 2
    return 2 * entry.value - 1


def _step_entries(family, kind, lev):
    """The entries a non-vertical step of the given kind at level lev
    encodes: the inverse of _entry_level."""
    if family is CharacterFamily.GL:
        return (tb.Entry(lev + 1, tb.PLAIN),)
    v = lev // 2 + 1
    if kind is DIAG:
        return (tb.Entry(v, tb.HAT),)
    if kind is OHORIZ:
        return (tb.Entry(v, tb.CIRC), tb.Entry(v, tb.HAT))
    return (tb.Entry(v, tb.PLAIN if lev % 2 else tb.BAR),)


def _encode(model, start, entries, end):
    """The path from start to end whose non-vertical steps encode entries in
    order: vertical steps up to (or, left of the seam, down to) each entry's
    level, then its step, a diagonal for an odd orthogonal hat, an arc for an
    even orthogonal circ and the hat under it, a horizontal step otherwise;
    vertical steps to end after the last entry."""
    family = model.family
    x, y = start
    steps = []
    entries = iter(entries)
    for e in entries:
        dy = _entry_level(family, e) - model.level(x, y)
        steps.extend([UP] * dy if dy > 0 else [DOWN] * -dy)
        if e.deco == tb.CIRC:
            kind = OHORIZ
            next(entries)  # the hat under the circ
        elif e.deco == tb.HAT and family is CharacterFamily.SO_ODD:
            kind = DIAG
        else:
            kind = RIGHT
        steps.append(kind)
        x, y = x + kind.dx, y + dy + kind.dy
    dy = end[1] - y
    steps.extend([UP] * dy if dy > 0 else [DOWN] * -dy)
    return Path(start, steps)


def _decode(model, path):
    """The entries of path's non-vertical steps in order: the inverse of
    _encode."""
    entries = []
    for pt, s in zip(path.vertices, path.steps):
        if s.dx:
            entries.extend(_step_entries(model.family, s, model.level(*pt)))
    return entries


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _path_cells(shape, layout, count):
    """(connection, plan) of the count paths that carry shape's cells:
    plan[i] lists, in encoding order, the cells path i carries from
    starts[i] to ends[connection[i]].

    Columnwise, path i carries column i+1 from top to bottom (count may
    exceed lambda_1: the paths beyond carry nothing).  Hookwise, count is
    p + q with p and q the Durfee sizes of the outer and inner shapes; path
    i <= p carries the arm of hook i right to left, and for i > q then the
    corner and the leg down, and the i-th of the q D paths carries the leg
    of hook i.
    """
    lam, mu = shape.outer, shape.inner
    lam_c, mu_c = lam.conjugate(), mu.conjugate()
    if layout is Layout.COLUMNWISE:
        plan = tuple(
            tuple((r, c) for r in range(mu_c.part(c) + 1, lam_c.part(c) + 1))
            for c in range(1, count + 1)
        )
        return tuple(range(count)), plan
    p, q = lam.durfee(), mu.durfee()
    hooks = []
    for i in range(1, p + 1):
        arm = [(i, c) for c in range(lam.part(i), max(i, mu.part(i)), -1)]
        if i > q:
            arm += [(r, i) for r in range(i, lam_c.part(i) + 1)]
        hooks.append(tuple(arm))
    for i in range(1, q + 1):
        hooks.append(tuple((r, i) for r in range(mu_c.part(i) + 1, lam_c.part(i) + 1)))
    return hook_connection(p, q), tuple(hooks)


def tableau_to_paths(family, t, n, m=0, N=None, layout=Layout.COLUMNWISE):
    """Weight-preserving encoding of a valid tableau as a path family: one
    path per column, or per principal hook with its arm and leg split at the
    inner shape's hooks.  Raises InvalidFamilyError if t is not a valid
    tableau of the family."""
    if not tb.is_valid_tableau(family, t, n, m):
        raise InvalidFamilyError("not a valid %s tableau: %s" % (family.name, t.to_text()))
    model, starts, ends = model_and_endpoints(family, t.shape, n, m, N, layout)
    connection, plan = _path_cells(t.shape, layout, len(starts))
    paths = [
        _encode(model, s, [t.cells[c] for c in cells], ends[j])
        for s, cells, j in zip(starts, plan, connection)
    ]
    return PathFamily(model, paths, connection)


def paths_to_tableau(pf):
    """Inverse of tableau_to_paths; raises InvalidFamilyError on rule violations."""
    model = pf.model
    for p in pf.paths:
        p.validate(model)
    if not pf.is_strongly_nonintersecting():
        raise InvalidFamilyError("family is not strongly non-intersecting")
    if model.family is CharacterFamily.O_EVEN and find_trapped_positions(pf):
        raise InvalidFamilyError("family has a trapped position")
    if model.layout is Layout.HOOKWISE:
        shape, cells = _hook_cells(pf)
    else:
        shape, cells = _column_cells(pf)
    t = tb.Tableau(shape, cells)
    if not tb.is_valid_tableau(model.family, t, model.n, model.m):
        raise InvalidFamilyError("decoded filling is not a valid tableau")
    return t


def _column_cells(pf):
    """Shape and cells read off a columnwise family, one column per path."""
    model = pf.model
    total = model.n if model.family is CharacterFamily.GL else 2 * model.n
    if list(pf.connection) != list(range(len(pf.paths))):
        raise InvalidFamilyError("connection permutation is not the identity")
    mu_cols = []
    cols = []
    for i, p in enumerate(pf.paths, start=1):
        sx, sy = p.start
        if sx + sy != model.base:
            raise InvalidFamilyError("start %r off the base antidiagonal" % ((sx, sy),))
        ex, ey = p.end
        if ex + ey != model.base + total:
            raise InvalidFamilyError("end %r off the top antidiagonal" % ((ex, ey),))
        mu_col = sx + i - 1
        if mu_col < 0:
            raise InvalidFamilyError("start %r left of slot %d" % ((sx, sy), i))
        mu_cols.append(mu_col)
        cols.append(_decode(model, p))
    lam_cols = [m0 + len(es) for m0, es in zip(mu_cols, cols)]
    for seq, name in ((mu_cols, "start"), (lam_cols, "end")):
        if seq != sorted(seq, reverse=True):
            raise InvalidFamilyError("%s points do not give a partition" % name)
    outer = Partition(
        sum(1 for c in lam_cols if c >= r)
        for r in range(1, max(lam_cols, default=0) + 1)
    )
    inner = Partition(
        sum(1 for c in mu_cols if c >= r) for r in range(1, max(mu_cols, default=0) + 1)
    )
    shape = SkewShape(outer, inner)
    return shape, _fill(shape, Layout.COLUMNWISE, cols)


def _hook_cells(pf):
    """Shape and cells read off a hookwise family: the Frobenius coordinates
    of both shapes from the end points, one hook piece per path."""
    model = pf.model
    top = 2 * model.n + 2 * model.m - 1
    p_count = sum(1 for path in pf.paths if path.start[1] == top)
    q_count = len(pf.paths) - p_count
    if any(path.start[1] != top for path in pf.paths[:p_count]):
        raise InvalidFamilyError("hook paths must list A starts before D starts")
    if pf.connection != hook_connection(p_count, q_count):
        raise InvalidFamilyError("connection permutation is not the hook pairing")
    a_paths, d_paths = pf.paths[:p_count], pf.paths[p_count:]
    arms = [-path.start[0] for path in a_paths]
    legs = [
        (d_paths[i] if i < q_count else a_paths[i]).end[0] - 1 for i in range(p_count)
    ]
    gammas = [-path.end[0] for path in a_paths[:q_count]]
    deltas = [path.start[0] - 1 for path in d_paths]
    lam = FrobeniusCoordinates(arms, legs).to_partition() if p_count else Partition()
    mu = FrobeniusCoordinates(gammas, deltas).to_partition() if q_count else Partition()
    shape = SkewShape(lam, mu)
    # a path decodes to one entry per unit of x it advances, so the entries
    # fill the cells the endpoints give exactly
    return shape, _fill(shape, Layout.HOOKWISE, [_decode(model, path) for path in pf.paths])


def _fill(shape, layout, entries):
    """cell -> entry, with entries[i] the decoded entries of path i placed
    on the cells _path_cells gives it."""
    cells = {}
    for where, got in zip(_path_cells(shape, layout, len(entries))[1], entries):
        cells.update(zip(where, got))
    return cells


# ---------------------------------------------------------------------------
# generating functions and enumeration


@lru_cache(maxsize=STEP_CACHE_SIZE)
def _steps_from(key, x, y):
    """The steps model.step_ok allows from (x, y), as (kind, nx, ny, exp)
    in model.kinds order, with exp model.right_exp(x, y) for a horizontal
    step and None otherwise; key is the model's PathModel.key."""
    model = PathModel(CharacterFamily(key[0]), Layout(key[1]), *key[2:])
    return tuple(
        (kind, x + kind.dx, y + kind.dy, model.right_exp(x, y) if kind is RIGHT else None)
        for kind in model.kinds
        if model.step_ok(x, y, kind)
    )


def _advance_width(starts, ends):
    """The digit width of packed weight keys (core) for paths from starts
    to ends.  No step decreases x, and a horizontal step advances x by 1
    and moves one exponent by +-1, so no exponent of a family's summed
    weight exceeds the family's total x-advance in absolute value."""
    return _key_width(sum(to[0] for to in ends) - sum(frm[0] for frm in starts))


class _SuffixTable(dict):
    """point -> every model-legal path from it to `to`, in enumeration order,
    as records (vertex mask, weight key packed with weights, first step,
    tail record); a point is walked on its first lookup.

    Tails are shared, so a table stores each step once.  index maps each
    vertex met to its bit; tables that share it give comparable masks, so
    paths are vertex-disjoint exactly when their masks are.  Nothing here
    refers back to the table, so it is freed as soon as its caller drops it.
    """

    __slots__ = ("model", "to", "index", "weights")

    def __init__(self, model, to, index, weights):
        self.model = model
        self.to = tuple(to)
        self.index = index
        self.weights = weights

    def __missing__(self, point):
        """Walk point: the steps model.step_ok allows from it, less any
        that overshoot to, each followed by every record of its end.

        step_ok alone fixes the order of a path's steps: it allows a descent
        only at x <= 0, every ascent lands at x >= 1 and x never decreases,
        so no path descends once it has ascended, nor ascends straight after
        a descent.  For the same reason a path above to is dead once it can
        no longer descend, that is in a columnwise model or at x > 0.
        """
        model, (tx, ty), weights = self.model, self.to, self.weights
        x, y = point
        here = self.index.setdefault(point, 1 << len(self.index))
        got = []
        if x == tx and y == ty:
            if model.vertex_ok(x, y):
                got.append((here, 0, None, None))
        elif y <= ty or (x <= 0 and model.layout is Layout.HOOKWISE):
            for kind, nx, ny, exp in _steps_from(model.key, x, y):
                if nx > tx or (ny > ty and kind in UP_KINDS):
                    continue
                tails = self[nx, ny]
                if tails:
                    step = 0 if exp is None else exp[1] * weights[exp[0]]
                    for t in tails:  # mostly one: a loop, not a comprehension call
                        got.append((here | t[0], t[1] + step, kind, t))
        self[point] = got
        return got


def _steps(record):
    while record[3] is not None:
        yield record[2]
        record = record[3]


def enumerate_paths(model, frm, to, blocked=frozenset()):
    """All model-legal paths from frm to to whose vertices avoid blocked
    (arc midpoints may pass over blocked points: that is the weak notion)."""
    frm = tuple(frm)
    index = {}
    weights = _weights(model.n, _advance_width([frm], [to]))
    records = _SuffixTable(model, to, index, weights)[frm]
    # a blocked point outside the index lies on no path
    avoid = 0
    for pt in blocked:
        avoid |= index.get(tuple(pt), 0)
    for rec in records:
        if not rec[0] & avoid:
            yield Path(frm, _steps(rec))


def _lgv_tables(model, starts, ends):
    """tables[i][j]: the records of the paths from starts[i] to ends[j],
    read off one _SuffixTable per end, all numbering the points with one bit
    index.  No step decreases x, and in the columnwise layout none decreases
    y, so a pair whose end lies left of (or, columnwise, below) its start
    has no path and is not walked."""
    index = {}
    weights = _weights(model.n, _advance_width(starts, ends))
    suffixes = [_SuffixTable(model, to, index, weights) for to in ends]
    rises = model.layout is Layout.COLUMNWISE
    return [
        [
            suffix[x, y] if x <= suffix.to[0] and (y <= suffix.to[1] or not rises) else ()
            for suffix in suffixes
        ]
        for x, y in starts
    ]


def _lgv_walk(model, starts, ends):
    """Every weakly non-intersecting family of N >= 1 paths, in
    enumerate_lgv_families's order, grouped by its first N-1 paths: see
    _grow.  The lists it yields are reused: read them before the next
    group."""
    return _grow(_lgv_tables(model, starts, ends))


def _grow(tables):
    """Yields (chosen, sigma, occupied, last) once per choice of the first
    N-1 paths: chosen[i] is a record from start i to end sigma[i], and
    occupied is the mask of chosen.  The one end left goes to the last
    start, and the group's families complete chosen with each record of
    last, that start's table to that end, whose mask misses occupied.

    One frame walks the starts in order over a stack holding, for each
    start, its choices left: (end, record) over the free ends in order and
    each end's records in table order.  So the groups come in the order of
    their families, and each is yielded once."""
    final = len(tables) - 1
    chosen, sigma, masks = [None] * final, [0] * (final + 1), [0] * (final + 1)
    stack = []
    while True:
        i = len(stack)
        if i < final:
            taken, occupied = sigma[:i], masks[i]
            row = enumerate(tables[i])
            stack.append(iter([(j, r) for j, table in row if j not in taken for r in table if not r[0] & occupied]))
        else:
            # the ends 0..final add up to final * (final + 1) / 2
            k = sigma[final] = final * (final + 1) // 2 - sum(sigma[:final])
            yield chosen, sigma, masks[final], tables[final][k]
        while stack and (choice := next(stack[-1], None)) is None:
            stack.pop()
        if not stack:
            return
        i = len(stack) - 1
        sigma[i], chosen[i] = choice
        masks[i + 1] = masks[i] | choice[1][0]


def _check_lengths(starts, ends):
    if len(ends) != len(starts):
        raise ValueError("start and end lists must have equal length")


def enumerate_lgv_families(model, starts, ends):
    """All weakly non-intersecting families connecting the given points."""
    _check_lengths(starts, ends)
    if not starts:
        yield PathFamily(model, ())
        return
    last_start = starts[-1]
    for chosen, sigma, occupied, last in _lgv_walk(model, starts, ends):
        head = [Path(frm, _steps(r)) for frm, r in zip(starts, chosen)]
        for r in last:
            if not r[0] & occupied:
                yield PathFamily(model, head + [Path(last_start, _steps(r))], sigma)


def lgv_signed_sum(model, starts, ends):
    """Signed sum over weakly non-intersecting families, by a transfer over
    the starts in order.

    After start i the state is (the ends taken so far, their paths' vertex
    mask cut to reach[i + 1]), reach[i + 1] being the vertices of every
    record of the starts after i: no later path can meet a vertex outside
    it, so families in one state complete in the same ways.  Each state
    holds {packed weight key: signed count} of its partial families.  Start
    i takes a free end j by a record whose mask misses the state's, and the
    sign flips when an odd number of taken ends lie after j, the
    inversions j makes with them.  N = 0 leaves the empty family, of
    weight 1."""
    _check_lengths(starts, ends)
    tables = _lgv_tables(model, starts, ends)
    reach = [0]  # the vertices of every record of the last 0, 1, ... starts
    for row in reversed(tables[1:]):
        reach.append(reduce(or_, (r[0] for table in row for r in table), reach[-1]))
    states = {(0, 0): {0: 1}}
    for row, ahead in zip(tables, reversed(reach)):
        after = defaultdict(dict)
        for (taken, occupied), sums in states.items():
            for j, table in enumerate(row):
                if taken >> j & 1:
                    continue
                terms = sums.items()
                if (taken >> j).bit_count() & 1:
                    terms = [(k, -c) for k, c in terms]
                for mask, key, _, _ in table:
                    if mask & occupied:
                        continue
                    acc = after[taken | 1 << j, (occupied | mask) & ahead]
                    get = acc.get
                    for k, c in terms:
                        k += key
                        acc[k] = get(k, 0) + c
        states = after
    keys = next(iter(states.values()), {})
    return LaurentPoly(model.n, _unpack(keys, model.n, _advance_width(starts, ends)))


def path_gf(model, frm, to):
    """Exact weighted sum over all model-legal paths from frm to to: the
    signed sum over one-path families, which all have sign +1."""
    return lgv_signed_sum(model, [frm], [to])


def path_gf_by_diag_count(model, frm, to, k):
    """Generating function restricted to exactly k special steps (diagonal
    steps for the odd family, o-horizontal steps for the even one)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    frm = tuple(frm)
    width = _advance_width([frm], [to])
    keys = {}
    for rec in _SuffixTable(model, to, {}, _weights(model.n, width))[frm]:
        if sum(kind is DIAG or kind is OHORIZ for kind in _steps(rec)) == k:
            keys[rec[1]] = keys.get(rec[1], 0) + 1
    return LaurentPoly(model.n, _unpack(keys, model.n, width))


# ---------------------------------------------------------------------------
# modified reflection


def reflect_initial_segment(path, d):
    """Reflect the initial segment up to the first touch of y = x + d.

    The start must be an even point off the line and d even.  Even points
    and straight odd points reflect across the line; odd left turns map to
    (y-d+1, x+d-1) and odd right turns to (y-d-1, x+d+1), which keeps the
    level labelling of every horizontal step and hence the weight.  The same
    map applied to the image recovers the original path.
    """
    if d % 2:
        raise ValueError("d must be even")
    a, b = path.start
    if (a + b) % 2:
        raise ValueError("start must be an even point")
    if b == a + d:
        raise ValueError("start lies on the line y = x + d")
    if any(s not in (RIGHT, UP) for s in path.steps):
        raise ValueError("reflection applies to unit right/up paths only")
    pts = path.points()
    touch = next((k for k, (x, y) in enumerate(pts) if y == x + d), None)
    if touch is None:
        raise ValueError("path does not touch y = x + %d" % d)
    reflected = []
    for k in range(touch + 1):
        x, y = pts[k]
        if (x + y) % 2 == 0 or k == touch:
            reflected.append((y - d, x + d))
            continue
        inc, out = path.steps[k - 1], path.steps[k]
        if inc is RIGHT and out is UP:
            reflected.append((y - d + 1, x + d - 1))
        elif inc is UP and out is RIGHT:
            reflected.append((y - d - 1, x + d + 1))
        else:
            reflected.append((y - d, x + d))
    return Path.from_points(reflected + pts[touch + 1 :])


# ---------------------------------------------------------------------------
# trapped positions and the sign-reversing involution


def _family_bbox(pf):
    """(min x, max x, min y, max y) over the family's vertices, or all 0 for
    an empty family."""
    pts = [pt for p in pf.paths for pt in p.vertices] or [(0, 0)]
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    return min(xs), max(xs), min(ys), max(ys)


def _trace_run(roles, D):
    """Follow the height D-1 horizontal run left from (1, D-1) into the
    h-region; returns the x of its first point, which must be entered by a
    descent left of the seam, or None."""
    x = 1
    while True:
        r = roles.get((x - 1, D - 1))
        if r is not None and r[2] is RIGHT:
            x -= 1
            continue
        break
    start = roles.get((x, D - 1))
    if start is not None and start[1] is DOWN and x <= -1:
        return x
    return None


def _walk_chain(pf, D, roles, full, for_flip):
    """Walk the odd antidiagonal x+y=D up from the boundary through left
    turns and classify the first break.

    Returns ("a", j0) for a vacancy at (j0, D-j0), ("b", None) for the seam
    dip/gap, ("c", xs) for a height D-1 run starting at (xs, D-1), or None.
    When for_flip is true the walk searches a freshly resolved crossing for
    its flip site, otherwise it detects a trapped position.
    """
    layout = pf.model.layout
    boundary_j = (D + 1) // 2
    j = boundary_j
    while True:
        pt = (j, D - j)
        if pt not in full:
            if j == boundary_j:
                return None  # a vacancy on the boundary itself is not a site
            if for_flip:
                return ("a", j)
            above = (j - 1, D - j + 1)
            role = roles.get(above)
            if role is not None and role[1] is UP and role[2] is RIGHT:
                return ("a", j)
            if (
                layout is Layout.HOOKWISE
                and j == 1
                and role is not None
                and role[2] is RIGHT
                and role[1] is not UP
                and (0, D - 1) not in full
            ):
                return ("b", None)
            return None
        role = roles.get(pt)
        if role is None:
            return None  # an arc midpoint blocks the chain
        _, inc, out = role
        if inc is RIGHT and out is UP:
            j -= 1
            if layout is Layout.HOOKWISE and j == 0:
                seam = roles.get((0, D))
                if seam is not None and seam[2] is DOWN:
                    # the left turn at (1, D-1) bottoms a dip through the seam
                    return ("b", None) if for_flip else None
                if seam is None and (0, D) not in full:
                    # the left turn at (1, D-1) ends a height D-1 run from
                    # the h-region; the flip happens at the run's descent
                    xs = _trace_run(roles, D)
                    if xs is None:
                        return None
                    if for_flip:
                        return ("c", xs)
                    if (xs - 1, D - 1) not in full:
                        return ("c", xs)
                    return None
                return None
            continue
        if (
            layout is Layout.HOOKWISE
            and j == 1
            and inc is RIGHT
            and out is RIGHT
        ):
            xs = _trace_run(roles, D)
            if xs is None:
                return None
            if for_flip:
                return ("c", xs)
            if (xs - 1, D - 1) not in full and xs - 1 <= 0:
                return ("c", xs)
            return None
        return None


def _collect_crossings(pf, roles):
    """o-horizontal steps whose midpoint carries another path's verticals."""
    sites = []
    for i, p in enumerate(pf.paths):
        for k, ((x, y), s) in enumerate(zip(p.vertices, p.steps)):
            if s is OHORIZ:
                mid = (x + 1, y)
                role = roles.get(mid)
                if role is not None:
                    if role[1] is not UP or role[2] is not UP:
                        raise MalformedFamilyError(
                            "crossing at %r is not a double vertical" % (mid,)
                        )
                    sites.append((mid[0] + mid[1], "cross", (i, k, role[0])))
    return sites


def _trap_sites(pf, roles, full):
    """(D, hit) for each odd antidiagonal D whose chain walk finds a trapped
    position, nearest first."""
    _, maxx, _, maxy = _family_bbox(pf)
    out = []
    for D in range(2 * pf.model.m + 1, maxx + maxy + 1, 2):
        hit = _walk_chain(pf, D, roles, full, for_flip=False)
        if hit is not None:
            out.append((D, hit))
    return out


def find_trapped_positions(pf):
    """All trapped positions of an even-orthogonal family, nearest first."""
    if pf.model.family is not CharacterFamily.O_EVEN:
        raise ValueError("trapped positions are defined for the even orthogonal family")
    out = []
    for D, (kind, arg) in _trap_sites(pf, *_roles(pf)):
        if kind == "a":
            out.append((arg, D - arg))
        elif kind == "b":
            out.append((1, D - 1))
        else:
            out.append((arg - 1, D - 1))
    return out


def _flip_segment(kind, arg, D):
    """(before, after) points of the flip that turns the crossing resolved on
    antidiagonal D into a trapped position, at the site _walk_chain reports:
    the vacancy (arg, D-arg) (kind a), the seam dip (b) or the height D-1 run
    that starts at (arg, D-1) (c).  The unflip at a trapped site is the flip
    at arg-1 (b: the same flip) read backwards."""
    if kind == "a":
        j = arg
        return (
            [(j, D - j - 1), (j + 1, D - j - 1), (j + 1, D - j)],
            [(j, D - j - 1), (j, D - j), (j + 1, D - j)],
        )
    if kind == "b":
        return [(0, D), (0, D - 1), (1, D - 1), (1, D)], [(0, D), (1, D)]
    xs = arg
    if xs + 1 > 0:
        raise MalformedFamilyError("run flip would descend at x=%d" % (xs + 1))
    return (
        [(xs, D), (xs, D - 1), (xs + 1, D - 1)],
        [(xs, D), (xs + 1, D), (xs + 1, D - 1)],
    )


def _rewrite(pf, old_pts, new_pts):
    """pf with the run of points old_pts replaced by new_pts in the path
    that passes through them."""
    paths = list(pf.paths)
    k = len(old_pts)
    for i, path in enumerate(paths):
        pts = path.points()
        for s in range(len(pts) - k + 1):
            if pts[s : s + k] == old_pts:
                paths[i] = Path.from_points(pts[:s] + new_pts + pts[s + k :])
                return PathFamily(pf.model, paths, pf.connection)
    raise MalformedFamilyError("segment %r not found" % (old_pts,))


def _index_of(pts, point):
    """The index of point in the point list pts of one path; a family whose
    path misses a point the rule needs is malformed."""
    for k, pt in enumerate(pts):
        if pt == point:
            return k
    raise MalformedFamilyError("point %r not on the path" % (point,))


def _resolve_crossing(pf, site):
    """Open the arc-over-verticals crossing into two left turns, swapping tails."""
    i, k, other = site
    paths = list(pf.paths)
    pts_a = paths[i].points()
    d = pts_a[k][0] + 1
    ka = _index_of(pts_a, (d - 1, d + 1))
    pts_b = paths[other].points()
    kb = _index_of(pts_b, (d, d + 1))
    new_a = pts_a[: ka + 1] + [(d, d + 1), (d, d + 2)] + pts_b[kb + 2 :]
    new_b = pts_b[:kb] + [(d + 1, d), (d + 1, d + 1)] + pts_a[ka + 2 :]
    paths[i] = Path.from_points(new_a)
    paths[other] = Path.from_points(new_b)
    conn = list(pf.connection)
    conn[i], conn[other] = conn[other], conn[i]
    return PathFamily(pf.model, paths, conn), 2 * d + 1


def _form_crossing(pf, D):
    """Close the two boundary-most left turns back into an arc over verticals."""
    d = (D - 1) // 2
    roles, _ = _roles(pf)
    low = roles.get((d + 1, d))
    high = roles.get((d, d + 1))
    for role in (low, high):
        if role is None or role[1] is not RIGHT or role[2] is not UP:
            raise MalformedFamilyError(
                "cannot re-form the crossing at %r" % ((d, d + 1),)
            )
    paths = list(pf.paths)
    ia, ib = high[0], low[0]  # ia receives the arc, ib the verticals
    pts_a = paths[ia].points()
    pts_b = paths[ib].points()
    ka = _index_of(pts_a, (d, d + 1))
    kb = _index_of(pts_b, (d + 1, d))
    new_a = pts_a[:ka] + [(d + 1, d + 1)] + pts_b[kb + 2 :]
    new_b = pts_b[:kb] + [(d, d + 1), (d, d + 2)] + pts_a[ka + 2 :]
    paths[ia] = Path.from_points(new_a)
    paths[ib] = Path.from_points(new_b)
    conn = list(pf.connection)
    conn[ia], conn[ib] = conn[ib], conn[ia]
    return PathFamily(pf.model, paths, conn)


def involution_step(pf):
    """Apply the sign-reversing local change at the unique nearest site."""
    if pf.model.family is not CharacterFamily.O_EVEN:
        raise ValueError("the involution is defined for the even orthogonal family")
    roles, full = _roles(pf)
    sites = _collect_crossings(pf, roles)
    sites.extend((D, "trap", hit) for D, hit in _trap_sites(pf, roles, full))
    if not sites:
        raise NoSiteError("family has no crossing and no trapped position")
    dmin = min(s[0] for s in sites)
    at_min = [s for s in sites if s[0] == dmin]
    if len(at_min) != 1:
        raise MalformedFamilyError("multiple sites at distance %d" % dmin)
    D, kind, info = at_min[0]
    if kind == "cross":
        resolved, D = _resolve_crossing(pf, info)
        hit = _walk_chain(resolved, D, *_roles(resolved), for_flip=True)
        if hit is None:
            raise MalformedFamilyError("no flip site on antidiagonal %d" % D)
        return _rewrite(resolved, *_flip_segment(*hit, D))
    kind, arg = info
    before, after = _flip_segment(kind, arg if kind == "b" else arg - 1, D)
    return _form_crossing(_rewrite(pf, after, before), D)
