"""Acceptance suite: every criterion exact (tolerance zero), one line per
criterion.  Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 1-6 and 8 run the verification suites of `skewchar verify`
(skewchar.cli) at the bounds below, so the CLI and these tests share one
implementation of every check.
"""

import os

from skewchar import (
    CharacterFamily,
    Method,
    Partition,
    SkewShape,
    character,
    count_tableaux,
    dual_jacobi_trudi,
)
from skewchar.cli import (
    _lgv_cases,
    _map_cases,
    _run_eh,
    _run_four_way,
    _run_involution,
    _run_lgv,
    _run_path_lemmas,
    _run_reflection,
    _run_weyl,
    _weyl_cases,
    domain_cases,
)
from conftest import partitions_in_box

F, M = CharacterFamily, Method


def _report(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print("ACCEPTANCE %d %s: %s" % (num, name, status))
    assert not failures, failures[:5]


def _failures(results):
    print("cases: %d" % len(results))
    return [(name, detail) for name, ok, detail in results if not ok]


def test_criterion_1_four_way_agreement():
    box = partitions_in_box(4, 4)
    cases = []
    for lam in box:
        for mu in box:
            if not lam.contains(mu) or mu.length() > 2:
                continue
            for fam in (F.SP, F.SO_ODD, F.O_EVEN):
                for n in (1, 2, 3):
                    for m in range(mu.length(), 3):
                        if lam.length() > n + m:
                            continue
                        cases.append((fam.value, lam.parts, mu.parts, n, m))
    cases.sort()
    results = _map_cases(_run_four_way, cases, min(os.cpu_count() or 1, 8))
    _report(1, "four-way agreement (tableaux = dual-jt = jt = giambelli)", _failures(results))


def test_criterion_2_lgv_route():
    results = [_run_lgv(c) for c in _lgv_cases(7, (1, 2), (0, 2))]
    _report(2, "signed lattice-path sums equal the tableau oracle", _failures(results))


def test_criterion_3_path_lemma_closed_forms():
    results = _run_path_lemmas(8, (1, 3))
    _report(3, "path lemma closed forms on the full grid", _failures(results))


def test_criterion_4_modified_reflection():
    results = _run_reflection(10)
    _report(4, "modified reflection is a weight-preserving bijection", _failures(results))


def test_criterion_5_matrix_pair_and_convolution():
    results = _run_eh()
    _report(5, "E and H matrices are mutually inverse; convolution identity", _failures(results))


def test_criterion_6_weyl_reduction():
    results = [_run_weyl(c) for c in _weyl_cases(6, (1, 3), 20240831)]
    _report(6, "non-skew characters equal the Weyl ratios at 20 points", _failures(results))


def test_criterion_7_dimension_symmetry_sanity():
    failures = []
    cases = domain_cases(5, (1, 2), (0, 2), (F.SP, F.SO_ODD, F.O_EVEN))
    print("cases: %d" % len(cases))
    for case in cases:
        fam_tag, lam_parts, mu_parts, n, m = case
        fam, lam, mu = F(fam_tag), Partition(lam_parts), Partition(mu_parts)
        sh = SkewShape(lam, mu)
        ch = character(fam, lam, mu, n, m, M.DUAL_JT)
        if ch.eval_at([1] * n) != count_tableaux(fam, sh, n, m):
            failures.append(("dimension",) + case)
        if ch.bar() != ch:
            failures.append(("bar",) + case)
        for extra in (1, 2):
            if dual_jacobi_trudi(fam, lam, mu, n, m, lam.first() + extra) != ch:
                failures.append(("N-independence",) + case)
    _report(7, "all-ones dimension, bar symmetry, N-independence", failures)


def test_criterion_8_involution_pairing():
    results = _run_involution(5, (1, 2), (0, 2))
    _report(8, "dirty families cancel; clean families biject onto tableaux", _failures(results))
