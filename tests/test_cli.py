import io
import contextlib
from pathlib import Path

import pytest

from actbij import verify
from actbij.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_alpha_subcommand():
    code, out = run(["alpha", str(DATA / "k4.graph")])
    assert code == 0 and out == "1,2,4\n"
    code, out = run(["alpha", str(DATA / "k4.graph"), "--reorient", "3,5,6"])
    assert code == 0 and out == "1,3,6\n"
    code, out = run(["alpha", str(DATA / "k4.graph"), "--reorient", "3,5"])
    assert code == 0 and out == "1,3,5\n"
    code, out = run(["alpha", str(DATA / "k4.graph"), "--reorient", "b:001011"])
    assert code == 0 and out == "1,3,6\n"


def test_alpha_inverse_subcommand():
    code, out = run(["alpha-inverse", str(DATA / "k4.graph"), "--basis", "1,3,6"])
    assert code == 0
    assert out.splitlines() == ["3,5,6", "1,2,4"]
    code, out = run(["alpha-inverse", str(DATA / "k3.graph"), "--basis", "1,2"])
    assert out.splitlines() == ["-", "1", "2,3", "1,2,3"]


def test_activities_subcommand():
    code, out = run(["activities", str(DATA / "k4.graph")])
    assert code == 0
    assert out.splitlines() == [
        "O\t-",
        "O*\t1,2,4",
        "partition\t1|2,3|4,5,6",
        "chain\t-* < 1 < 1,2,3 < 1,2,3,4,5,6",
    ]
    code, out = run(["activities", str(DATA / "k3.graph"), "--reorient", "2"])
    assert out.splitlines() == [
        "O\t1",
        "O*\t-",
        "partition\t1,2,3*",
        "chain\t- < 1,2,3*",
    ]


def test_tutte_subcommand():
    code, out = run(["tutte", str(DATA / "k3.graph")])
    assert code == 0
    assert out.splitlines() == [
        "i\tj\tb",
        "0\t1\t1",
        "1\t0\t1",
        "2\t0\t1",
        "t(x,y) = x^2 + x + y",
    ]


def test_tutte_check_agreement():
    code, out = run(["tutte", str(DATA / "k4.graph"), "--check"])
    assert code == 0
    assert out.splitlines()[-1] == "agree=4/4"
    assert "t(x,y) = x^3 + 3x^2 + 2x + 4xy + 2y + 3y^2 + y^3" in out


def test_table_matches_golden_files():
    for name in ("k3", "k4"):
        code, out = run(["table", str(DATA / f"{name}.graph")])
        assert code == 0
        assert out == (GOLDEN / f"{name}_table.tsv").read_text()


def test_refined_subcommand():
    code, out = run(["refined", str(DATA / "k3.graph")])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A\talpha_M(A)\ttheta*\ttheta*bar\ttheta\tthetabar"
    assert len(lines) == 1 + 8
    assert lines[1] == "-\t1,2\t1,2\t-\t-\t-"
    # the images form a permutation of the power set
    images = {line.split("\t")[1] for line in lines[1:]}
    assert len(images) == 8


def test_output_is_deterministic():
    for argv in (
        ["table", str(DATA / "k4.graph")],
        ["refined", str(DATA / "k3.graph")],
        ["tutte", str(DATA / "k4.graph"), "--check"],
    ):
        assert run(argv) == run(argv)


def test_verify_subcommand_passes():
    code, out = run(["verify", str(DATA / "k3.graph")])
    assert code == 0
    assert all(line.startswith("ok ") for line in out.splitlines())
    assert len(out.splitlines()) == len(verify.ALL_CHECKS)


def test_verify_failure_exit_code(monkeypatch):
    def broken(m):
        raise verify.VerificationFailure("structure: injected failure")

    monkeypatch.setattr(verify, "ALL_CHECKS", [("structure", broken)])
    code, out = run(["verify", str(DATA / "k3.graph")])
    assert code == 1
    assert out.splitlines() == ["FAIL structure: injected failure"]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("graph x\n")
    assert main(["tutte", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.graph"
    assert main(["tutte", str(missing)]) == 2


def test_om_file_input(tmp_path):
    from actbij.examples import k4
    from actbij.graphs import serialize_om

    path = tmp_path / "k4.om"
    path.write_text(serialize_om(k4()))
    code, out = run(["alpha", str(path)])
    assert code == 0 and out == "1,2,4\n"


@pytest.mark.parametrize("basis", ["1,2,3", "1"])
def test_alpha_inverse_rejects_a_non_basis(basis, capsys):
    # 1,2,3 is a triangle of K4 (right size, dependent); 1 is too small
    assert main(["alpha-inverse", str(DATA / "k4.graph"), "--basis", basis]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {basis} is not a basis of the oriented matroid\n"


@pytest.mark.parametrize("argv", [
    ["alpha", str(DATA / "k4.graph"), "--reorient", "1,1"],
    ["alpha-inverse", str(DATA / "k4.graph"), "--basis", "1,1,3"],
])
def test_repeated_indices_are_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: repeated element")
