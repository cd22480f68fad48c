"""Fast checks of the benchmark itself.

    python3 -m pytest perfbench

Each workload runs at a tiny size (three ops, one per cost stratum, one
round) untraced and traced; the tracer's counters are checked against determinant counts
measured by hand; and a directory without the program must make the
benchmark fail without printing a result.
"""

import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_tiny(name):
    result, summary, _ = run.measure(name, seed=7, seconds=0, trace=0, strata=3, probes=1, min_rounds=1)
    assert summary["ops_per_round"] == 3 and summary["rounds"] == 1
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert result["metrics"]["ok_ratio"]["value"] == 1.0  # fail_ratio 0
    assert all(m["value"] > 0 for m in result["metrics"].values())

    result, summary, dump = run.measure(name, seed=7, seconds=0, trace=1, strata=3)
    assert result["correct"] and result["attempted"] == 6  # each op untraced and traced
    assert {k: m["unit"] for k, m in result["metrics"].items()} == tracing.PER_LAYER
    assert dump["missing"] == []
    assert {span[0] for span in dump["span_list"]} == {0, 1, 2}
    assert result["metrics"]["symfunc.eh_table.builds"]["value"] > 0  # set-up's warm-up counts


def test_quantile_is_a_weighted_mean_of_the_order_statistics():
    assert run.quantile([5.0], 0.5) == 5.0
    assert abs(run.quantile([3.0, 1.0, 2.0], 0.5) - 2.0) < 1e-12
    values = list(range(1, 101))
    assert 50 < run.quantile(values, 0.5) < 51
    assert 90 < run.quantile(values, 0.9) < 92


# (k, multiplies, peak operand terms, result terms) of the dual-JT route on
# sp (k,) with n = 3: the baseline table of ROADMAP.md, measured on the
# Laplace expansion of the program at the commit that defined the benchmark
BASELINE = [(4, 27, 79, 85), (6, 143, 357, 231), (8, 645, 1043, 489)]


@pytest.mark.parametrize("k, muls, peak, result_terms", BASELINE)
def test_counters_reproduce_baseline(k, muls, peak, result_terms):
    sk = workloads.import_skewchar()
    tracer = tracing.Tracer(tracing.skewchar_modules())
    tracer.begin_op(0)
    try:
        poly = sk.character(sk.CharacterFamily.SP, sk.Partition((k,)), sk.Partition(), 3, 0, sk.Method.DUAL_JT)
    finally:
        tracer.end_op()
    assert tracer.calls["core.mul"] == muls
    assert tracer.max["core.mul.peak_operand_terms"] == peak
    assert len(poly.terms) == result_terms
    assert tracer.counts["core.det.result_terms"] == result_terms
    assert sk.LaurentPoly.__mul__ is sk.LaurentPoly.__rmul__  # uninstalled


def test_fails_without_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lgv-paths", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
