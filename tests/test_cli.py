import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewchar
from skewchar import LaurentPoly, Partition, character, CharacterFamily, Method
from skewchar import cli
from skewchar.cli import SUITES, ContainmentError, ParseError, main, parse_shape


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
    with pytest.raises(ContainmentError):
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
