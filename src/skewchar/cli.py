"""Command line front end: compute characters, count tableaux, render path
families and run verification sweeps.

Exit codes: 0 success, 1 verification mismatch, 2 usage, parse or I/O
error, 3 internal invariant failure or any other unexpected error.
"""

import argparse
import itertools
import json
import random
import sys
import traceback
from fractions import Fraction
from functools import lru_cache

from .core import LaurentPoly, Partition, SkewShape, partitions_upto
from .formulas import Method, character
from .paths import (
    Layout,
    MalformedFamilyError,
    NoSiteError,
    PathModel,
    enumerate_lgv_families,
    enumerate_paths,
    find_trapped_positions,
    involution_step,
    model_and_endpoints,
    path_gf,
    path_gf_by_diag_count,
    reflect_initial_segment,
    tableau_to_paths,
)
from .render import ascii_render, svg_render
from .symfunc import (
    CharacterFamily,
    DegeneratePointError,
    EntryPair,
    alphabet,
    complete_pm,
    elementary_pm,
    weyl_eval,
)
from .tableaux import character_by_tableaux, count_tableaux, domain_error, enumerate_tableaux

FAMILIES = {f.value: f for f in CharacterFamily}
METHODS = {m.value: m for m in Method}


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def _parse_parts(text, offset):
    if text in ("", "0"):
        return Partition()
    parts = []
    pos = offset
    for tok in text.split(","):
        if not tok or not tok.isdigit():
            raise ParseError("expected a positive integer, got %r" % tok, pos)
        v = int(tok)
        if v <= 0:
            raise ParseError("parts must be positive, got %d" % v, pos)
        if parts and parts[-1] < v:
            raise ParseError("not weakly decreasing: %d < %d" % (parts[-1], v), pos)
        parts.append(v)
        pos += len(tok) + 1
    return Partition(parts)


def parse_shape(text):
    """Parse OUTER[/INNER]; each side a comma list, empty as '' or '0'."""
    if text.count("/") > 1:
        raise ParseError("at most one '/' allowed", text.index("/", text.index("/") + 1))
    if "/" in text:
        outer_text, inner_text = text.split("/")
    else:
        outer_text, inner_text = text, ""
    outer = _parse_parts(outer_text, 0)
    inner = _parse_parts(inner_text, len(outer_text) + 1)
    return SkewShape(outer, inner)


def _parse_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise argparse.ArgumentTypeError("empty range %s: %d > %d" % (text, lo, hi))
        return lo, hi
    v = int(text)
    return v, v


def _poly_json(family, shape, n, m, method, poly):
    return {
        "family": family.value,
        "lambda": list(shape.outer.parts),
        "mu": list(shape.inner.parts),
        "n": n,
        "m": m,
        "method": method.value,
        "terms": poly.to_json_terms(),
    }


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# verification suites


def domain_cases(max_cells, n_range, m_range, families=tuple(CharacterFamily)):
    """Every (family tag, lambda parts, mu parts, n, m), sorted, that
    domain_error accepts with |lambda| <= max_cells, n in n_range and m in
    m_range, l(mu) at most the top of m_range; the general linear family,
    which has no m, takes m = 0 alone."""
    cases = []
    for lam in partitions_upto(max_cells):
        for mu in partitions_upto(lam.size(), max_len=m_range[1]):
            for fam in families:
                ms = (0,) if fam is CharacterFamily.GL else range(m_range[0], m_range[1] + 1)
                for n, m in itertools.product(range(n_range[0], n_range[1] + 1), ms):
                    if domain_error(fam, lam, mu, n, m) is None:
                        cases.append((fam.value, lam.parts, mu.parts, n, m))
    return sorted(cases)


def _run_four_way(case):
    fam_tag, lam_parts, mu_parts, n, m = case
    fam = FAMILIES[fam_tag]
    lam, mu = Partition(lam_parts), Partition(mu_parts)
    name = "four-way %s %s/%s n=%d m=%d" % (fam_tag, list(lam_parts), list(mu_parts), n, m)
    oracle = character(fam, lam, mu, n, m, Method.TABLEAUX)
    for meth in (Method.DUAL_JT, Method.JT, Method.GIAMBELLI):
        got = character(fam, lam, mu, n, m, meth)
        if got != oracle:
            return (name, False, "%s != tableaux" % meth.value)
    return (name, True, "")


def _lgv_cases(max_cells, n_range, m_range):
    """The four-way cases with at most 7 cells and n <= 2, where the
    brute-force signed path sum stays cheap."""
    return domain_cases(min(max_cells, 7), (n_range[0], min(n_range[1], 2)), m_range)


def _run_lgv(case):
    fam_tag, lam_parts, mu_parts, n, m = case
    fam = FAMILIES[fam_tag]
    lam, mu = Partition(lam_parts), Partition(mu_parts)
    name = "lgv %s %s/%s n=%d m=%d" % (fam_tag, list(lam_parts), list(mu_parts), n, m)
    oracle = character(fam, lam, mu, n, m, Method.TABLEAUX)
    got = character(fam, lam, mu, n, m, Method.LGV_PATHS)
    return (name, got == oracle, "" if got == oracle else "signed path sum mismatch")


def _weyl_cases(max_cells, n_range, seed):
    """Non-skew cases with at most 6 cells, each with the seed of its points."""
    return [case + (seed,) for case in domain_cases(min(max_cells, 6), n_range, (0, 0))]


def _run_weyl(case):
    fam_tag, lam_parts, _, n, _, seed = case
    fam = FAMILIES[fam_tag]
    lam = Partition(lam_parts)
    name = "weyl %s %s n=%d" % (fam_tag, list(lam_parts), n)
    ch = character(fam, lam, Partition(), n, 0, Method.DUAL_JT)
    rng = random.Random((seed, fam_tag, lam_parts, n).__repr__())
    done = 0
    while done < 20:
        pt = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) + rng.randint(0, 2) for _ in range(n)]
        try:
            w = weyl_eval(fam, lam, pt)
        except DegeneratePointError:
            continue
        v = ch.eval_at([x * x for x in pt]) if fam is CharacterFamily.SO_ODD else ch.eval_at(pt)
        if v != w:
            return (name, False, "mismatch at %r" % (pt,))
        done += 1
    return (name, True, "")


def _run_path_lemmas(bound, n_range):
    results = []
    for n in range(n_range[0], n_range[1] + 1):
        ok = True
        detail = ""
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                if (a + b) % 2 or b < a:
                    continue
                for c in range(-bound, bound + 1):
                    f = 2 * n + a + b - c
                    if f < c:
                        continue
                    e = lambda r: elementary_pm(r, n)
                    sp = PathModel(CharacterFamily.SP, Layout.COLUMNWISE, n, 0, base=a + b)
                    so = PathModel(CharacterFamily.SO_ODD, Layout.COLUMNWISE, n, 0, base=a + b)
                    oe = PathModel(CharacterFamily.O_EVEN, Layout.COLUMNWISE, n, 0, base=a + b)
                    if path_gf(sp, (a, b), (c, f)) != e(c - a) - e(c - b - 2):
                        ok, detail = False, "sp closed form at %r" % ((n, a, b, c),)
                    if path_gf(so, (a, b), (c, f)) != e(c - a) + e(c - b - 1):
                        ok, detail = False, "so closed form at %r" % ((n, a, b, c),)
                    want = e(c - a) if b == a else e(c - a) + e(c - b)
                    if path_gf(oe, (a, b), (c, f)) != want:
                        ok, detail = False, "o closed form at %r" % ((n, a, b, c),)
                    for k in (1, 2, 3):
                        got = path_gf_by_diag_count(so, (a, b), (c, f), k)
                        if got != e(c - b - k) - e(c - b - k - 2):
                            ok, detail = False, "so k=%d at %r" % (k, (n, a, b, c))
                    for k in (1, 2):
                        got = path_gf_by_diag_count(oe, (a, b), (c, f), k)
                        if b - a >= 2:
                            want = e(c - b - 2 * k + 2) - e(c - b - 2 * k - 2)
                        else:
                            want = e(c - a - 2 * k) - e(c - b - 2 * k - 2)
                        if got != want:
                            ok, detail = False, "o k=%d at %r" % (k, (n, a, b, c))
        results.append(("path-lemmas n=%d bound=%d" % (n, bound), ok, detail))
    return results


def _run_reflection(limit):
    """Reflecting the initial segment in y = x - 2 is a weight-preserving
    involution from the paths (0,2) -> (c,f) that touch the line onto all
    paths (4,-2) -> (c,f), for c + f <= limit."""
    nvars = max(1, (limit + 6) // 2 + 1)
    # both sides start on the antidiagonal x + y = 2; walk, a general
    # linear model, allows a right step at every level x + y - 2 below
    # 2 * nvars, as model does (these paths reach limit - 3), so it yields
    # every right/up path
    model = PathModel(CharacterFamily.SP, Layout.COLUMNWISE, nvars, 0, base=2)
    walk = PathModel(CharacterFamily.GL, Layout.COLUMNWISE, 2 * nvars, 0, base=2)
    results = []
    for c in range(0, limit + 1):
        for f in range(-3, limit + 1):
            if c + f > limit or f <= c - 2:
                continue
            touched = [
                p for p in enumerate_paths(walk, (0, 2), (c, f))
                if any(y == x - 2 for x, y in p.points())
            ]
            images = [reflect_initial_segment(p, -2) for p in touched]
            ok, detail = True, ""
            for p, q in zip(touched, images):
                if p.weight_exps(model) != q.weight_exps(model):
                    ok, detail = False, "weight changed"
                if reflect_initial_segment(q, -2) != p:
                    ok, detail = False, "not an involution"
            if set(images) != set(enumerate_paths(walk, (4, -2), (c, f))):
                ok, detail = False, "image set mismatch"
            results.append(("reflection (0,2)->(%d,%d)" % (c, f), ok, detail))
    return results


def _run_eh():
    results = []
    for n in (1, 2):
        one, zero = LaurentPoly.one(n), LaurentPoly.zero(n)
        for N in (1, 2, 3, 4, 5, 6):
            for m in (0, 1, 2, 3):
                for k in (0, 1, 2):
                    for t in (-1, 0, 1, 2):
                        pair = EntryPair(*alphabet(n), k, t, m)
                        ok = True
                        for i in range(1, N + 1):
                            for j in range(1, N + 1):
                                # row i of E times column j of H, H(l, j) signed
                                prod = zero
                                for l in range(1, N + 1):
                                    f = pair.E(i, l) * pair.H(l, j)
                                    prod = prod - f if (l - j) & 1 else prod + f
                                if prod != (one if i == j else zero):
                                    ok = False
                        results.append(
                            (
                                "eh N=%d m=%d k=%d t=%d n=%d" % (N, m, k, t, n),
                                ok,
                                "" if ok else "E*H != I",
                            )
                        )
    for n in (1, 2):
        ok = True
        for r in range(0, 2 * n + 3):
            acc = LaurentPoly.zero(n)
            for k in range(0, r + 1):
                term = elementary_pm(r - k, n) * complete_pm(k, n)
                acc = acc + (term if k % 2 == 0 else -term)
            want = LaurentPoly.one(n) if r == 0 else LaurentPoly.zero(n)
            if acc != want:
                ok = False
        results.append(("eh convolution n=%d" % n, ok, ""))
    return results


def _run_involution(max_cells, n_range, m_range):
    """Even orthogonal families: the involution pairs the dirty families with
    negated weights, so they cancel; the clean ones have sign +1 and biject
    onto the tableaux."""
    results = []
    for _, lam_parts, mu_parts, n, m in domain_cases(
        max_cells, n_range, m_range, (CharacterFamily.O_EVEN,)
    ):
        if not lam_parts:
            continue
        name = "involution %s/%s n=%d m=%d" % (list(lam_parts), list(mu_parts), n, m)
        sh = SkewShape(lam_parts, mu_parts)
        model, starts, ends = model_and_endpoints(CharacterFamily.O_EVEN, sh, n, m)
        clean, dirty, clean_count = {}, {}, 0
        ok, detail = True, ""
        try:
            for fam in enumerate_lgv_families(model, starts, ends):
                weight = fam.signed_weight()
                if fam.is_strongly_nonintersecting() and not find_trapped_positions(fam):
                    clean_count += 1
                    acc = clean
                    if fam.sign() != 1:
                        ok, detail = False, "clean family with sign -1"
                else:
                    acc = dirty
                    img = involution_step(fam)
                    if involution_step(img) != fam:
                        ok, detail = False, "involution not involutive"
                    if img.signed_weight() != -weight:
                        ok, detail = False, "weight not negated"
                for e, c in weight.terms.items():
                    acc[e] = acc.get(e, 0) + c
        except (MalformedFamilyError, NoSiteError) as exc:
            # a broken rule is a failed check of this case, not a crash
            results.append((name, False, "%s: %s" % (type(exc).__name__, exc)))
            continue
        if any(dirty.values()):
            ok, detail = False, "dirty families do not cancel"
        oracle = character_by_tableaux(CharacterFamily.O_EVEN, sh, n, m)
        if LaurentPoly(n, {e: c for e, c in clean.items() if c}) != oracle:
            ok, detail = False, "clean families != oracle"
        if clean_count != count_tableaux(CharacterFamily.O_EVEN, sh, n, m):
            ok, detail = False, "clean family count != tableau count"
        results.append((name, ok, detail))
    return results


def _check_at_least(name, value, low):
    if value < low:
        raise ValueError("%s >= %d fails: %d < %d" % (name, low, value, low))


def run_verify(args):
    for name, (lo, _) in (("n", args.n), ("m", args.m)):
        _check_at_least(name, lo, 0)
    _check_at_least("max-cells", args.max_cells, 0)
    _check_at_least("jobs", args.jobs, 1)
    suites = SUITES if args.suite == "all" else (args.suite,)
    results = []
    for suite in suites:
        results.extend(_SUITE_RUNNERS[suite](args))
    results.sort(key=lambda r: r[0])
    lines = []
    failed = 0
    for name, ok, detail in results:
        if ok:
            lines.append("PASS %s" % name)
        else:
            failed += 1
            lines.append("FAIL %s: %s" % (name, detail))
    lines.append("checked=%d passed=%d failed=%d" % (len(results), len(results) - failed, failed))
    _emit("\n".join(lines), args.out)
    return 1 if failed else 0


def _map_cases(fn, cases, jobs):
    if jobs > 1:
        # imported here, not at start-up: only --jobs > 1 pays its ~12 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, cases, chunksize=8))
    return [fn(c) for c in cases]


# each suite's runner, from the parsed verify arguments to its results
_SUITE_RUNNERS = {
    "four-way": lambda a: _map_cases(_run_four_way, domain_cases(a.max_cells, a.n, a.m), a.jobs),
    "lgv": lambda a: _map_cases(_run_lgv, _lgv_cases(a.max_cells, a.n, a.m), a.jobs),
    "weyl": lambda a: _map_cases(_run_weyl, _weyl_cases(a.max_cells, a.n, a.seed), a.jobs),
    "path-lemmas": lambda a: _run_path_lemmas(4, a.n),
    "reflection": lambda a: _run_reflection(10),
    "eh": lambda a: _run_eh(),
    "involution": lambda a: _run_involution(min(a.max_cells, 4), a.n, a.m),
}
SUITES = tuple(_SUITE_RUNNERS)


# ---------------------------------------------------------------------------
# commands


def run_compute(args):
    shape = parse_shape(args.shape)
    family = FAMILIES[args.family]
    method = METHODS[args.method]
    poly = character(family, shape.outer, shape.inner, args.n, args.m, method, args.N)
    if args.format == "json":
        _emit(json.dumps(_poly_json(family, shape, args.n, args.m, method, poly)), args.out)
    else:
        _emit(poly.to_text(), args.out)
    return 0


def run_count(args):
    shape = parse_shape(args.shape)
    family = FAMILIES[args.family]
    _emit(str(count_tableaux(family, shape, args.n, args.m)), args.out)
    return 0


def run_paths(args):
    _check_at_least("limit", args.limit, 0)
    shape = parse_shape(args.shape)
    family = FAMILIES[args.family]
    layout = Layout(args.layout)
    written = []
    for idx, t in enumerate(enumerate_tableaux(family, shape, args.n, args.m)):
        if args.limit and idx >= args.limit:
            break
        pf = tableau_to_paths(family, t, args.n, args.m, N=args.N, layout=layout)
        if args.render == "svg":
            content = svg_render(pf)
            path = "%s.%d.svg" % (args.out, idx)
        else:
            content = ascii_render(pf)
            path = "%s.%d.txt" % (args.out, idx)
        with open(path, "w") as fh:
            fh.write(content + "\n")
        written.append(path)
    sys.stdout.write("\n".join(written) + ("\n" if written else ""))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewchar",
        description="Skew symplectic and orthogonal characters by tableaux, "
        "lattice paths and determinant formulas, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shape_args(p):
        p.add_argument("--family", required=True, choices=sorted(FAMILIES))
        p.add_argument("--shape", required=True, help="OUTER[/INNER], e.g. 4,4,2/1")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, default=0)

    p = sub.add_parser("compute", help="compute a character polynomial")
    add_shape_args(p)
    p.add_argument("--method", default="dual-jt", choices=sorted(METHODS))
    p.add_argument("--N", type=int, default=None, help="determinant size override")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_compute)

    p = sub.add_parser("count", help="count the valid tableaux of a shape")
    add_shape_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_count)

    p = sub.add_parser("paths", help="render the path family of each tableau")
    add_shape_args(p)
    p.add_argument("--layout", default="columnwise", choices=("columnwise", "hookwise"))
    p.add_argument("--render", default="ascii", choices=("ascii", "svg"))
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--limit", type=int, default=0, help="0 renders every tableau")
    p.add_argument("--out", required=True, help="output file prefix")
    p.set_defaults(func=run_paths)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("--suite", default="four-way", choices=SUITES + ("all",))
    p.add_argument("--max-cells", type=int, default=8, dest="max_cells")
    p.add_argument("--n", type=_parse_range, default=(1, 2))
    p.add_argument("--m", type=_parse_range, default=(0, 2))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_verify)
    return parser


@lru_cache(maxsize=1)
def _parser():
    """build_parser's parser, built once per process: parsing leaves it as it was."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedFamilyError as exc:
        sys.stderr.write("internal invariant failure: %s\n" % exc)
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
