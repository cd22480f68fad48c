"""Workload definitions for the skewchar benchmark: the case grids, the
seeded stratified plan, the e/h warm-up and the op run on each case.

A case is a tuple (family, lambda parts, mu parts, n, m), plus the compute
method for wide-row.  Every grid is fixed; the seed only chooses which case
of each cost stratum a run takes, so two seeds give different inputs with the
same cost profile.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COSTS = HERE / "costs"


class BenchSetupError(RuntimeError):
    """The checkout does not hold a usable skewchar source tree."""


def import_skewchar():
    """Import skewchar from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "skewchar" / "__init__.py").is_file():
        raise BenchSetupError("no skewchar sources under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import skewchar
    import skewchar.cli

    if Path(skewchar.__file__).resolve().parent != (src / "skewchar").resolve():
        raise BenchSetupError("imported skewchar from %s, not from %s" % (skewchar.__file__, src))
    return skewchar


# ---------------------------------------------------------------------------
# grids


def _partitions_in_box(width, height):
    out = [()]

    def rec(acc, mx):
        if len(acc) == height:
            return
        for p in range(min(mx, width), 0, -1):
            out.append(acc + (p,))
            rec(acc + (p,), p)

    rec((), width)
    return out


def _partitions_upto(size):
    out = [()]

    def rec(acc, rest, mx):
        for p in range(min(rest, mx), 0, -1):
            out.append(acc + (p,))
            rec(acc + (p,), rest - p, p)

    rec((), size, size)
    return out


def _contains(lam, mu):
    return len(mu) <= len(lam) and all(a >= b for a, b in zip(lam, mu))


def verify_box_grid():
    """Acceptance criterion 1: mu <= lambda <= (4^4), l(mu) <= 2, n <= 3,
    m <= 2, the three BC families."""
    box = _partitions_in_box(4, 4)
    cases = []
    for lam in box:
        for mu in box:
            if not _contains(lam, mu) or len(mu) > 2:
                continue
            for fam in ("sp", "so", "o"):
                for n in (1, 2, 3):
                    for m in range(len(mu), 3):
                        if len(lam) <= n + m:
                            cases.append((fam, lam, mu, n, m))
    return sorted(cases)


def lgv_paths_grid():
    """Acceptance criterion 2 widened from 6 to 9 cells: |lambda| <= 9,
    l(mu) <= 2, n <= 2, all four families (m = 0 for schur).  The 6-cell
    grid has only 1,586 distinct cases, 2.6 s of work."""
    cases = []
    for lam in _partitions_upto(9):
        for mu in _partitions_upto(sum(lam)):
            if not _contains(lam, mu) or len(mu) > 2:
                continue
            for fam in ("schur", "sp", "so", "o"):
                for n in (1, 2):
                    if fam == "schur":
                        if len(lam) <= n:
                            cases.append((fam, lam, mu, n, 0))
                        continue
                    for m in range(len(mu), 3):
                        if len(lam) <= n + m:
                            cases.append((fam, lam, mu, n, m))
    return sorted(cases)


WIDE_METHODS = ("dual-jt", "giambelli", "jt")


def wide_row_grid():
    """n = 3, 5 <= lambda_1 <= 7, lambda_2 <= 2, mu in {(), (1), (2)},
    m <= 1, the BC families, each compute method."""
    cases = []
    for fam in ("sp", "so", "o"):
        for l1 in (5, 6, 7):
            for l2 in (0, 1, 2):
                lam = (l1, l2) if l2 else (l1,)
                for mu in ((), (1,), (2,)):
                    for m in range(len(mu), 2):
                        for meth in WIDE_METHODS:
                            cases.append((fam, lam, mu, 3, m, meth))
    return sorted(cases)


# ---------------------------------------------------------------------------
# ops: op(sk, case) runs inside the timed region, check(sk, case, result)
# outside it; both together decide whether the op failed.


def _args(sk, case):
    fam, lam, mu, n, m = case[:5]
    return sk.CharacterFamily(fam), sk.Partition(lam), sk.Partition(mu), n, m


def op_four_way(sk, case):
    fam, lam, mu, n, m = _args(sk, case)
    M = sk.Method
    oracle = sk.character(fam, lam, mu, n, m, M.TABLEAUX)
    return all(
        sk.character(fam, lam, mu, n, m, meth) == oracle
        for meth in (M.DUAL_JT, M.JT, M.GIAMBELLI)
    )


def op_lgv(sk, case):
    fam, lam, mu, n, m = _args(sk, case)
    got = sk.character(fam, lam, mu, n, m, sk.Method.LGV_PATHS)
    return got == sk.character(fam, lam, mu, n, m, sk.Method.TABLEAUX)


def check_agreed(sk, case, result):
    return result is True


def _shape_arg(lam, mu):
    outer = ",".join(map(str, lam))
    return outer + "/" + ",".join(map(str, mu)) if mu else outer


def clear_character_cache():
    """Drop the Giambelli block cache.  Every op starts without it, as a new
    process would, so that an op's cost does not depend on which ops the
    seed put before it; the e/h tables stay warm."""
    from skewchar import formulas

    cached = formulas.__dict__.get("_dual_jt_cached")
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def op_compute(sk, case):
    fam, lam, mu, n, m, meth = case
    argv = ["compute", "--family", fam, "--shape", _shape_arg(lam, mu),
            "--n", str(n), "--m", str(m), "--method", meth]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sk.cli.main(argv)
    return rc, buf.getvalue()


_EXPECTED = {}  # case -> the oracle's output text, so a run computes it once per case


def check_compute(sk, case, result):
    if case not in _EXPECTED:
        fam, lam, mu, n, m = _args(sk, case)
        _EXPECTED[case] = sk.character(fam, lam, mu, n, m, sk.Method.TABLEAUX).to_text() + "\n"
    return result == (0, _EXPECTED[case])


class Workload:
    def __init__(self, name, grid, op, check, strata):
        self.name = name
        self.grid = grid
        self.op = op
        self.check = check
        self.strata = strata  # ops of one round: one case per cost stratum


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-box", verify_box_grid, op_four_way, check_agreed, 150),
        Workload("wide-row", wide_row_grid, op_compute, check_compute, 100),
        Workload("lgv-paths", lgv_paths_grid, op_lgv, check_agreed, 1500),
    )
}


# ---------------------------------------------------------------------------
# plan and warm-up


def load_costs(name, size):
    """Reference cost (ms) of each grid case, in grid order; see calibrate.py."""
    data = json.loads((COSTS / ("%s.json" % name)).read_text())
    if len(data["cost_ms"]) != size:
        raise BenchSetupError(
            "%s: cost table has %d entries, grid has %d" % (name, len(data["cost_ms"]), size)
        )
    return data["cost_ms"]


def plan(cases, costs, strata, seed):
    """The run's ops: one case from each of `strata` cost strata, in a
    seeded random order.  The grid is sorted by reference cost (the seed
    breaks ties) and cut into equal-count strata; the seed picks the case
    of each.  So every seed's plan holds the cheapest and the costliest
    stratum alike, and different seeds have the same cost profile.  No case
    appears twice."""
    rng = random.Random(seed)
    order = sorted(range(len(cases)), key=lambda i: (costs[i], rng.random()))
    strata = min(strata, len(cases))
    ops = [
        cases[rng.choice(order[h * len(order) // strata:(h + 1) * len(order) // strata])]
        for h in range(strata)
    ]
    rng.shuffle(ops)
    return ops


def warm(cases):
    """Build the e/h tables for every n of the grid, up to lambda_1 + l(lambda)
    + 2m, which bounds every index a JT, dual-JT or Giambelli matrix entry can
    ask for.  Nothing else: no character is computed."""
    from skewchar import symfunc

    rmax = max(c[1][0] + len(c[1]) + 2 * c[4] for c in cases if c[1])
    for n in sorted({c[3] for c in cases}):
        for r in range(rmax + 1):
            symfunc.elementary_pm(r, n)
            symfunc.complete_pm(r, n)
            symfunc.elementary_plain(r, n)
            symfunc.complete_plain(r, n)


def reset_caches(cases):
    """Empty the e/h tables and warm them again, so that their cache
    statistics count every table entry that set-up builds."""
    from skewchar import symfunc

    for fn in (symfunc.__dict__.get("_e_table"), symfunc.__dict__.get("_h_table")):
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    warm(cases)


def setup(name, seed, strata=None):
    """Everything before the first op: import, inputs, warm-up."""
    sk = import_skewchar()
    workload = WORKLOADS[name]
    cases = workload.grid()
    ops = plan(cases, load_costs(name, len(cases)), strata or workload.strata, seed)
    warm(cases)
    return sk, workload, cases, ops
