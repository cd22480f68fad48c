import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import skewchar
from skewchar import LaurentPoly, Partition, character, CharacterFamily, Method
from skewchar import cli
from skewchar.cli import SUITES, ParseError, main, parse_shape
from skewchar.core import partitions_upto


def test_parse_shape_examples():
    sh = parse_shape("4,4,4,2,1/3,1")
    assert sh.outer == Partition((4, 4, 4, 2, 1))
    assert sh.inner == Partition((3, 1))
    assert parse_shape("3").outer == Partition((3,))
    assert parse_shape("3").inner == Partition()
    assert parse_shape("0").outer == Partition()
    assert parse_shape("2,1/0").inner == Partition()


def test_parse_shape_errors():
    with pytest.raises(ParseError) as err:
        parse_shape("2,3")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_shape("a,1")
    with pytest.raises(ValueError, match=r"inner \(3,\) not contained in outer \(2, 1\)"):
        parse_shape("2,1/3")


def test_compute_text(capsys):
    rc = main(["compute", "--family", "sp", "--shape", "1", "--n", "1", "--m", "0", "--method", "dual-jt"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "x1 + x1^-1"


def test_main_builds_the_parser_once(capsys, monkeypatch):
    build, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["compute", "--family", "sp", "--shape", "1", "--n", "1"]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert capsys.readouterr().out == "x1 + x1^-1\n" * 2


def test_compute_all_methods_agree(capsys):
    outs = []
    for meth in ("tableaux", "dual-jt", "jt", "giambelli", "lgv"):
        rc = main(
            ["compute", "--family", "so", "--shape", "2,1/1", "--n", "2", "--m", "1", "--method", meth]
        )
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert len(set(outs)) == 1


def test_compute_json_roundtrip(capsys):
    rc = main(
        ["compute", "--family", "o", "--shape", "2,1/1", "--n", "2", "--m", "1", "--format", "json"]
    )
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["family"] == "o" and blob["lambda"] == [2, 1] and blob["mu"] == [1]
    poly = LaurentPoly.from_json_terms(blob["n"], blob["terms"])
    want = character(
        CharacterFamily.O_EVEN, Partition((2, 1)), Partition((1,)), 2, 1, Method.DUAL_JT
    )
    assert poly == want
    exps = [tuple(t["exp"]) for t in blob["terms"]]
    assert exps == sorted(exps)


def test_count(capsys):
    rc = main(["count", "--family", "sp", "--shape", "1,1", "--n", "2", "--m", "0"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "5"


def test_usage_errors_exit_2(capsys):
    assert main(["compute", "--family", "sp", "--shape", "2,3", "--n", "1", "--m", "0"]) == 2
    capsys.readouterr()
    rc = main(["compute", "--family", "sp", "--shape", "1,1,1,1,1", "--n", "2", "--m", "2"])
    assert rc == 2
    assert "l(lambda) <= n+m fails: 5 > 4" in capsys.readouterr().err
    for shape, n, m, want in (
        ("1", "-1", "2", "n >= 0 fails: -1 < 0"),
        ("0", "-1", "1", "n >= 0 fails: -1 < 0"),
        ("0", "1", "-1", "m >= 0 fails: -1 < 0"),
    ):
        for cmd in ("compute", "count"):
            rc = main([cmd, "--family", "sp", "--shape", shape, "--n", n, "--m", m])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert want in captured.err


def test_schur_takes_no_m(tmp_path, capsys):
    # the general linear family has no m: a nonzero m is refused by every
    # route, not ignored
    shape = ["--family", "schur", "--shape", "2,1", "--n", "2"]
    argvs = [["compute"] + shape + ["--m", "1", "--method", method] for method in sorted(cli.METHODS)]
    argvs.append(["count"] + shape + ["--m", "1"])
    argvs.append(["paths"] + shape + ["--m", "1", "--out", str(tmp_path / "fam")])
    for argv in argvs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "m = 0 fails for the general linear family: 1 != 0" in captured.err
    assert not list(tmp_path.iterdir())
    assert main(["compute"] + shape + ["--m", "0"]) == 0
    assert capsys.readouterr().out == "x1*x2^2 + x1^2*x2\n"


def test_verify_rejects_negative_n_and_m(capsys):
    for suite in SUITES + ("all",):
        for flag, want in (
            ("--n=-1..0", "n >= 0 fails: -1 < 0"),
            ("--m=-1..1", "m >= 0 fails: -1 < 0"),
        ):
            assert main(["verify", "--suite", suite, "--max-cells", "2", flag]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert want in captured.err


def test_negative_sizes_exit_2(tmp_path, capsys):
    out = str(tmp_path / "fam")
    runs = [
        (["paths", "--family", "sp", "--shape", "2,1", "--n", "2", "--out", out, "--limit", "-1"],
         "limit >= 0 fails: -1 < 0"),
    ]
    for suite in SUITES + ("all",):
        runs.append((["verify", "--suite", suite, "--max-cells", "-1"], "max-cells >= 0 fails: -1 < 0"))
        runs.append((["verify", "--suite", suite, "--max-cells", "2", "--jobs", "-2"], "jobs >= 1 fails: -2 < 1"))
    for argv, want in runs:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert want in captured.err
    assert not list(tmp_path.iterdir())


def test_N_only_for_routes_it_sizes(capsys):
    base = ["compute", "--family", "sp", "--shape", "3", "--n", "1"]
    for method in ("tableaux", "giambelli"):
        assert main(base + ["--method", method, "--N", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "method %s takes no N" % method in captured.err
    for method in ("dual-jt", "jt", "lgv"):
        assert main(base + ["--method", method, "--N", "3"]) == 0
        assert capsys.readouterr().out == "x1^3 + x1 + x1^-1 + x1^-3\n"


def test_N_check_worded_alike_by_every_route(capsys):
    base = ["compute", "--family", "sp", "--shape", "3", "--n", "1", "--N", "1"]
    for method in ("lgv", "dual-jt"):
        assert main(base + ["--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lambda_1 <= N fails: 3 > 1" in captured.err


def test_io_error_exits_2_and_unexpected_error_exits_3(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "missing" / "poly.txt")
    rc = main(["compute", "--family", "sp", "--shape", "1", "--n", "1", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "character", boom)
    rc = main(["compute", "--family", "sp", "--shape", "1", "--n", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_reversed_range_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "lgv", "--n", "3..1"])
    assert exc.value.code == 2
    assert "empty range 3..1: 3 > 1" in capsys.readouterr().err


def test_verify_four_way_and_determinism(capsys):
    args = ["verify", "--suite", "four-way", "--max-cells", "4", "--n", "1..2", "--m", "0..2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "failed=0" in first
    assert first.count("FAIL") == 0


def test_verify_jobs_prints_the_same_bytes(capsys):
    args = ["verify", "--suite", "four-way", "--max-cells", "3"]
    assert main(args + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert serial.endswith(" failed=0\n")


def test_cli_import_leaves_the_process_pool_out():
    # only verify --jobs > 1 needs concurrent.futures.process, so the CLI
    # imports it there and not at start-up
    src = str(Path(skewchar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, skewchar.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_verify_reflection_and_eh(capsys):
    assert main(["verify", "--suite", "reflection"]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "eh"]) == 0
    assert "failed=0" in capsys.readouterr().out


def test_verify_lgv_small(capsys):
    assert main(["verify", "--suite", "lgv", "--max-cells", "3", "--n", "1..2", "--m", "0..1"]) == 0
    assert "failed=0" in capsys.readouterr().out


def test_verify_suites_honour_n_and_m(capsys):
    for args, want in (
        (["lgv", "--max-cells", "1", "--n", "2..2", "--m", "0..0"], {("n", "2"), ("m", "0")}),
        (["weyl", "--max-cells", "1", "--n", "1..1"], {("n", "1")}),
        (["weyl", "--max-cells", "1", "--n", "0..1"], {("n", "0"), ("n", "1")}),
        (["path-lemmas", "--n", "2..3"], {("n", "2"), ("n", "3")}),
        (["involution", "--max-cells", "2", "--n", "2..2", "--m", "1..1"], {("n", "2"), ("m", "1")}),
    ):
        assert main(["verify", "--suite"] + args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) > 1 and lines[-1].endswith("failed=0")
        assert {nm for line in lines[:-1] for nm in re.findall(r" ([nm])=(\d+)", line)} == want


def test_verify_involution_each_case_once(capsys):
    assert main(["verify", "--suite", "involution", "--max-cells", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(set(lines[:-1])) == len(lines) - 1
    assert lines[-1] == "checked=158 passed=158 failed=0"


@pytest.mark.parametrize("error", [skewchar.MalformedFamilyError, skewchar.NoSiteError])
def test_verify_involution_reports_a_broken_rule_as_a_fail_line(error, monkeypatch, capsys):
    # a rule that cannot apply to a dirty family fails its case with the
    # message, and verify goes on to the other cases and exits 1
    def broken(fam):
        raise error("segment not found")

    monkeypatch.setattr(cli, "involution_step", broken)
    assert main(["verify", "--suite", "involution", "--max-cells", "2", "--n", "1..1", "--m", "0..1"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL involution ")]
    assert fails and all(line.endswith(": %s: segment not found" % error.__name__) for line in fails)
    assert lines[-1] == "checked=%d passed=%d failed=%d" % (len(lines) - 1, len(lines) - 1 - len(fails), len(fails))
    assert "Traceback" not in err


def test_paths_rendering(tmp_path, capsys):
    out = str(tmp_path / "fam")
    rc = main(
        ["paths", "--family", "so", "--shape", "2,1/1", "--n", "2", "--m", "1",
         "--out", out, "--limit", "2"]
    )
    assert rc == 0
    files = capsys.readouterr().out.split()
    assert len(files) == 2
    body = open(files[0]).read()
    assert "o" in body and "*" in body
    rc = main(
        ["paths", "--family", "o", "--shape", "2,1/1", "--n", "2", "--m", "1",
         "--render", "svg", "--out", out, "--limit", "1"]
    )
    assert rc == 0
    svg = open(capsys.readouterr().out.split()[0]).read()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_paths_hookwise_refuses_N(tmp_path, capsys):
    out = str(tmp_path / "fam")
    base = ["paths", "--family", "sp", "--shape", "2,1", "--n", "2", "--out", out]
    assert main(base + ["--layout", "hookwise", "--N", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hookwise layout takes no N" in captured.err
    assert not list(tmp_path.iterdir())
    assert main(base + ["--layout", "columnwise", "--N", "5", "--limit", "1"]) == 0
    assert len(capsys.readouterr().out.split()) == 1


def test_compute_writes_file(tmp_path):
    out = tmp_path / "poly.txt"
    rc = main(
        ["compute", "--family", "sp", "--shape", "2", "--n", "1", "--m", "0", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().strip() == "x1^2 + 1 + x1^-2"


def test_bad_max_cells_exits_2_and_names_the_variable(capsys, monkeypatch):
    base = ["compute", "--family", "sp", "--shape", "2,1", "--n", "2"]
    assert main(base + ["--method", "dual-jt"]) == 0
    want_out = capsys.readouterr().out
    for raw, want in [("abc", "SKEWCHAR_MAX_CELLS must be an integer, got 'abc'"),
                      ("-1", "SKEWCHAR_MAX_CELLS >= 0 fails: -1 < 0")]:
        monkeypatch.setenv("SKEWCHAR_MAX_CELLS", raw)
        assert main(base + ["--method", "tableaux"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % want
        # the routes that enumerate nothing never read the cap
        for method in ("dual-jt", "jt", "giambelli", "lgv"):
            assert main(base + ["--method", method]) == 0
            assert capsys.readouterr().out == want_out


def test_python_dash_m_runs_the_cli():
    # python -m skewchar is the same program as python -m skewchar.cli
    src = str(Path(skewchar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(module, *args):
        return subprocess.run([sys.executable, "-m", module, *args], capture_output=True, text=True,
                              env=env, timeout=120)

    args = ("compute", "--family", "sp", "--shape", "3,1", "--n", "2", "--method", "jt")
    package, module = run("skewchar", *args), run("skewchar.cli", *args)
    assert package.returncode == module.returncode == 0
    assert package.stdout == module.stdout
    assert package.stdout.startswith("x1*x2^3 + x1^2*x2^2 + ")
    bad = run("skewchar", "compute", "--family", "sp", "--shape", "2,3", "--n", "1")
    assert bad.returncode == 2
    assert bad.stdout == ""
    assert bad.stderr.startswith("error: ")


def _golden_cases():
    """The wide-row shape grid of the benchmark (n = 3, 5 <= lambda_1 <= 7,
    lambda_2 <= 2, mu in {(), (1), (2)}, m <= 1, the BC families) by JT, then
    three tableaux and three Giambelli cases."""
    cases = []
    for fam in ("sp", "so", "o"):
        for l1 in (5, 6, 7):
            for l2 in (0, 1, 2):
                outer = "%d,%d" % (l1, l2) if l2 else str(l1)
                for mu in ("", "1", "2"):
                    for m in range(1 if mu else 0, 2):
                        cases.append((fam, outer + ("/" + mu if mu else ""), "3", str(m), "jt"))
    cases += [
        ("sp", "3,1", "2", "0", "tableaux"),
        ("so", "3,2/1", "2", "1", "tableaux"),
        ("o", "2,2/1", "3", "1", "tableaux"),
        ("sp", "6,2/1", "3", "1", "giambelli"),
        ("so", "4,3,1", "3", "0", "giambelli"),
        ("o", "5,5,4,2/2,1", "3", "2", "giambelli"),
    ]
    return cases


def test_compute_output_is_pinned(capsys):
    # one sha256 over the concatenated stdout of every case, per format;
    # any change to the order, the spacing or a digit of either form shows
    digests = {}
    for fmt in ("text", "json"):
        h = hashlib.sha256()
        for fam, shape, n, m, meth in _golden_cases():
            argv = ["compute", "--family", fam, "--shape", shape, "--n", n, "--m", m,
                    "--method", meth, "--format", fmt]
            assert main(argv) == 0
            h.update(capsys.readouterr().out.encode())
        digests[fmt] = h.hexdigest()
    assert len(_golden_cases()) == 114
    assert digests == {
        "text": "b99108f02342db8689a48264f402bcab54e9a0f8e670273f3da9ab95bed03fdc",
        "json": "ed31bbab8c8ce6f7f9150fe8a5c3cf4f6049294244bec51eac4b89147528f452",
    }


def test_verify_output_is_pinned(capsys):
    # the whole stdout of every suite at two settings: a case added, lost or
    # renamed shows
    pins = {
        ("4", "0..2", "0..2"): (2290, "df11c9dd43495432ba896f6e1698cc0cc9962627bc488d9839dacebc69d9fc14"),
        ("5", "1..3", "1..2"): (3276, "596746d665fe41633ccceefcb6f3c1f7423c985337cb189f0553849f46794013"),
    }
    for (cells, n, m), (checked, digest) in pins.items():
        assert main(["verify", "--suite", "all", "--max-cells", cells, "--n", n, "--m", m]) == 0
        out = capsys.readouterr().out
        assert out.endswith("checked=%d passed=%d failed=0\n" % (checked, checked))
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# the argv grammar of every command at small sizes, malformed tokens included
_SMALL_SHAPES = [",".join(map(str, lam.parts)) for lam in partitions_upto(5)]
_BAD_SHAPES = ["2//1", "1,2", "a", "2/3", "", "0", "3,0", "/1", "2,1/1,1,1"]


def _shapes():
    inner = st.sampled_from(["", "/", "/0", "/1", "/2", "/1,1", "/3"])
    return st.one_of(
        st.builds(lambda o, i: o + i, st.sampled_from(_SMALL_SHAPES), inner),
        st.sampled_from(_BAD_SHAPES),
    )


def _opt(flag, values):
    """flag with one of values, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _shape_args():
    return st.tuples(
        st.sampled_from(sorted(cli.FAMILIES) + ["bogus"]).map(lambda f: ["--family", f]),
        _shapes().map(lambda s: ["--shape", s]),
        st.integers(-1, 3).map(lambda n: ["--n", str(n)]),
        _opt("--m", st.integers(-1, 2)),
    ).map(lambda parts: sum(parts, []))


def _ranges(lo, hi):
    value = st.integers(lo, hi)
    return st.one_of(
        value.map(str),
        st.tuples(value, value).map(lambda r: "%d..%d" % r),
        st.sampled_from(["2..1", "a", "1..", ""]),
    )


def _argvs(out):
    compute = st.tuples(
        st.just(["compute"]),
        _shape_args(),
        _opt("--method", st.sampled_from(sorted(cli.METHODS) + ["bogus"])),
        _opt("--N", st.integers(-1, 6)),
        _opt("--format", st.sampled_from(["text", "json"])),
    )
    count = st.tuples(st.just(["count"]), _shape_args())
    paths = st.tuples(
        st.just(["paths"]),
        _shape_args(),
        _opt("--layout", st.sampled_from(["columnwise", "hookwise"])),
        _opt("--render", st.sampled_from(["ascii", "svg"])),
        _opt("--N", st.integers(-1, 6)),
        # a limit keeps the files written few; 0 would write every tableau
        st.sampled_from([-1, 1, 2, 3]).map(lambda v: ["--limit", str(v)]),
        st.just(["--out", out]),
    )
    verify = st.tuples(
        st.just(["verify"]),
        _opt("--suite", st.sampled_from(SUITES + ("all", "bogus"))),
        st.integers(-1, 3).map(lambda v: ["--max-cells", str(v)]),
        _opt("--n", _ranges(-1, 3)),
        _opt("--m", _ranges(-1, 2)),
        # at most one worker, so no process pool starts
        _opt("--jobs", st.integers(-1, 1)),
        _opt("--seed", st.integers(0, 3)),
    )
    return st.one_of(compute, count, paths, verify).map(lambda parts: sum(parts, []))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_cli_contract_fuzz(tmp_path, data):
    # every argv exits 0 or 2, never 1 (a failed check) or 3 (an internal
    # error); an exit 2 leaves one "error: ..." line or argparse's usage
    argv = data.draw(_argvs(str(tmp_path / "fam")), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
            assert rc == 2, (argv, err.getvalue())
            assert err.getvalue().startswith("usage: skewchar"), (argv, err.getvalue())
            assert ": error: " in err.getvalue(), (argv, err.getvalue())
            return
    assert rc in (0, 2), (argv, err.getvalue())
    if rc == 2:
        assert re.fullmatch(r"error: [^\n]+\n", err.getvalue()), (argv, err.getvalue())
    else:
        assert err.getvalue() == "", (argv, err.getvalue())
