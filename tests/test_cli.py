import argparse
import io
import contextlib
import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from actbij import activities, bijection, cli, core, tutte, verify
from actbij.cli import main
from actbij.graphs import format_elements
from conftest import refined_by_direct_route, refined_stdout, serialize_om, subsets, table_stdout
from examples import diamond_doubled, k3, k4, k4_missing_a_cocircuit, w4

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


@pytest.mark.parametrize("m", [k4(), w4()], ids=["K4", "W4"])
def test_activities_prints_the_orientation_activities_at_every_reorientation(monkeypatch, m):
    # the command reads O and O* off the active filtration; orientation_activities
    # finds them by its own positivity pass
    monkeypatch.setattr(cli, "_load", lambda path: m)
    for a in subsets(m.n):
        ostar, o = activities.orientation_activities(m, a)
        code, out = run(["activities", "-", "--reorient", format_elements(a)])
        assert code == 0 and out.splitlines()[:2] == [f"O\t{format_elements(o)}", f"O*\t{format_elements(ostar)}"]


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


def one_more_empty_subset(counts):
    """The counts of a four-variable sum with one more A at (0, 0, 0, 0)."""
    return {**counts, (0, 0, 0, 0): counts.get((0, 0, 0, 0), 0) + 1}


@pytest.mark.parametrize("route", ["reorientation-sum"])  # the subset-sum route is the partition alone
def test_a_four_variable_sum_off_by_one_fails_tutte_check(monkeypatch, route):
    # the route compares the histogram behind the sum exactly; only the CLI's reading is planted
    real = cli._reorientation_histogram
    monkeypatch.setattr(cli, "_reorientation_histogram", lambda m: one_more_empty_subset(real(m)))
    code, out = run(["tutte", str(DATA / "k3.graph"), "--check"])
    assert code == 1
    assert out.splitlines()[-3:] == ["route\tsubset-sum\tok", f"route\t{route}\tmismatch", "agree=3/4"]


# K4's coefficients of t(x+u, y+v) with an error of degree 3 in x: t(x, 0) = x^3 + 3x^2 + 2x
# becomes 2x^3 + 4x, which agrees with it at x = 0, 1, 2 and so at every point of {0,1,2}^4
K4_DEGREE_3_PLANT = {(3, 0, 0, 0): 2, (2, 0, 0, 0): 0, (1, 0, 0, 0): 4}


def four_var_value(counts, x, u, y, v):
    """The four-variable sum with the given counts at (x, u, y, v)."""
    return sum(c * x**i * u**p * y**e * v**q for (i, p, e, q), c in counts.items())


def test_an_error_of_degree_3_the_grid_misses_fails_tutte_check(monkeypatch):
    # only the CLI's reading of the expansion is planted
    real = cli._shifted_coefficients
    monkeypatch.setattr(cli, "_shifted_coefficients", lambda t: {**real(t), **K4_DEGREE_3_PLANT})
    t = cli.tutte_from_bases(k4())
    planted = cli._shifted_coefficients(t)
    grid = itertools.product(range(3), repeat=4)
    assert all(four_var_value(planted, x, u, y, v) == t.evaluate(x + u, y + v) for x, u, y, v in grid)
    assert four_var_value(planted, 3, 0, 0, 0) == 66 != 60 == t.evaluate(3, 0)
    code, out = run(["tutte", str(DATA / "k4.graph"), "--check"])
    assert code == 1
    assert out.splitlines()[-3:] == ["route\tsubset-sum\tok", "route\treorientation-sum\tmismatch", "agree=3/4"]


def test_a_failed_divisibility_self_test_fails_tutte_check(monkeypatch, capsys):
    # K4's histogram with the degree-3 plant: o_(3,0) = 9 is not divisible by 2^3
    real = tutte._reorientation_histogram
    monkeypatch.setattr(tutte, "_reorientation_histogram", lambda m: {**real(m), **K4_DEGREE_3_PLANT})
    code, out = run(["tutte", str(DATA / "k4.graph"), "--check"])
    assert (code, capsys.readouterr().err) == (1, "")
    assert out.splitlines()[-5:] == [
        "route\tbases\tx^3 + 3x^2 + 2x + 4xy + 2y + 3y^2 + y^3", "route\torientations\tmismatch",
        "route\tsubset-sum\tok", "route\treorientation-sum\tok", "agree=3/4",
    ]


def test_basis_intervals_that_fail_to_partition_fail_tutte_check(monkeypatch, request, capsys):
    # every basis of K3 given the parts 1|2|3 above the cyclic flat: the intervals overlap
    parts = activities.Filtration.from_masks((1, 2, 4), 0)
    monkeypatch.setattr(activities, "basis_pass", lambda funds, basis: (parts, 0))
    for cached in (activities._interval_table, activities._interval_walk):
        cached.cache_clear()
        request.addfinalizer(cached.cache_clear)  # no record made under the plant stays
    code, out = run(["tutte", str(DATA / "k3.graph"), "--check"])
    assert (code, capsys.readouterr().err) == (1, "")
    assert out.splitlines()[-5:] == [
        "route\tbases\t3x^3", "route\torientations\tx^2 + x + y",
        "route\tsubset-sum\tmismatch", "route\treorientation-sum\tmismatch", "agree=1/4",
    ]


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


def test_verify_subcommand_passes(tmp_path):
    # besides K3, the smallest inputs: no element, one loop, one isthmus,
    # a parallel pair and a path of two edges
    tiny = ["graph 1\n", "om 0\n", "graph 1\na a\n", "graph 2\na b\n", "graph 2\na b\na b\n", "graph 3\na b\nb c\n"]
    paths = [DATA / "k3.graph"]
    for i, text in enumerate(tiny):
        paths.append(tmp_path / f"tiny{i}.txt")
        paths[-1].write_text(text)
    for path in paths:
        code, out = run(["verify", str(path)])
        assert code == 0, path.read_text()
        assert all(line.startswith("ok ") for line in out.splitlines())
        assert len(out.splitlines()) == len(verify.ALL_CHECKS) == 19


CACHES = {  # by name, as --stats lists them
    "activities._interval_table": activities._interval_table,
    "activities._interval_walk": activities._interval_walk,
    "activities._step_minor": activities._step_minor,
    "bijection.fully_optimal_basis": bijection.fully_optimal_basis,
    "core._bases": core._bases,
    "tutte._reorientation_histogram": tutte._reorientation_histogram,
}


def test_verify_stats_time_each_check_and_read_every_cache(capsys):
    path = str(DATA / "k4.graph")
    code, plain = run(["verify", path])
    assert (code, capsys.readouterr().err) == (0, "")
    stats = []
    for _ in range(2):
        for cached in CACHES.values():
            cached.cache_clear()
        code, out = run(["verify", path, "--stats"])
        assert (code, out) == (0, plain)  # stdout as without the flag
        stats.append(json.loads(capsys.readouterr().err))
    names = [name for name, _ in verify.ALL_CHECKS]
    assert len(names) == 19 and [*stats[0]["check_s"]] == names
    assert all(type(t) is float and t >= 0 for t in stats[0]["check_s"].values())
    assert [*stats[0]] == ["check_s", "caches", "minors", "values"]
    assert [*stats[0]["caches"]] == [*CACHES] and stats[0]["caches"]["core._bases"]["misses"] > 0
    assert stats[1]["caches"] == stats[0]["caches"]  # the counts repeat from empty caches
    # the values the run's record computed, per side and function: each at most once per A or B
    values = stats[0]["values"]
    assert [*values] == ["M", "M*"] and values["M"]["_active_basis"] == values["M*"]["_active_basis"] == 1 << 6
    assert all(0 < count <= 1 << 6 for side in values.values() for count in side.values())
    assert stats[1]["values"] == values


def test_verify_stats_count_the_minors_built_the_same_in_each_fresh_process():
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "actbij.cli", "verify", str(DATA / "k4.graph"), "--stats"]
    runs = [subprocess.run(argv, env=env, capture_output=True, text=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout == run(["verify", str(DATA / "k4.graph")])[1]
    counts = [json.loads(done.stderr)["minors"] for done in runs]
    assert counts[0] > 0 and counts[1] == counts[0]


def test_verify_runs_without_a_stats_attribute(capsys):
    # the command body called with a bare Namespace, as by a caller that builds its own args
    out = io.StringIO()
    assert cli._cmd_verify(k3(), argparse.Namespace(), out) == 0
    assert out.getvalue() == run(["verify", str(DATA / "k3.graph")])[1] and capsys.readouterr().err == ""


def test_verify_failure_exit_code(monkeypatch):
    def broken(m, sweep):
        raise verify.VerificationFailure("injected failure")

    monkeypatch.setattr(verify, "ALL_CHECKS", [("structure", broken)])
    code, out = run(["verify", str(DATA / "k3.graph")])
    assert code == 1
    assert out.splitlines() == ["FAIL structure: injected failure"]


def test_a_library_fault_inside_verify_exits_1(monkeypatch, request):
    # positivity without the sets whose negative side empties under the flip
    monkeypatch.setattr(core, "_positive_under", lambda sets, flip: [x | y for x, y in sets if not (x & ~flip | y & flip)])
    bijection.fully_optimal_basis.cache_clear()
    request.addfinalizer(bijection.fully_optimal_basis.cache_clear)  # no entry made under the plant stays
    code, out = run(["verify", str(DATA / "k4.graph")])
    assert code == 1
    assert out.splitlines()[-1] == "FAIL bijection: expected exactly one cocircuit inside [1], found 0"


def test_verify_above_the_cap_still_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_load", lambda path: core.OrientedMatroid(core.ENUMERATION_CAP + 1, (), (), 0))
    assert main(["verify", str(DATA / "k4.graph")]) == 2
    assert capsys.readouterr().err.startswith("error: refusing 2^25 enumeration")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("graph x\n")
    assert main(["tutte", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.graph"
    assert main(["tutte", str(missing)]) == 2


@pytest.mark.parametrize("name, content, message", [
    ("bytes.graph", b"\xff\xfe", "error: not a UTF-8 text file: "),
    ("negative.om", b"om -1\n", "error: line 1: ground set size must be nonnegative\n"),
    ("bare.graph", b"graph\n", "error: line 1: expected 'graph <num_vertices>', got 'graph'\n"),
    ("negative.graph", b"graph -1\n", "error: line 1: vertex count must be nonnegative\n"),
    ("bare.om", b"om\n", "error: line 1: expected 'om <n>', got 'om'\n"),
    ("letter.om", b"om x\n", "error: line 1: bad ground set size 'x'\n"),
    # a count is ASCII digits alone: int() would read om 1_0 as n = 10, +3 and a fullwidth ３ as 3
    ("underscore.om", b"om 1_0\n", "error: line 1: bad ground set size '1_0'\n"),
    ("plus.graph", b"graph +3\na b\n", "error: line 1: bad vertex count '+3'\n"),
    ("fullwidth.om", "om ３\n".encode(), "error: line 1: bad ground set size '３'\n"),
    ("big.om", b"om 25\n", "error: refusing 2^25 enumeration: ground set size 25 exceeds cap 24\n"),
    ("positive.om", b"om 2\nC ++\nD ++\n",
     "error: orthogonality fails for circuit SignedSubset(+1,+2) and cocircuit SignedSubset(+1,+2)\n"),
    # the header is reported on its own line, after comments and blank lines
    ("unknown.graph", b"# c\n\nfoo 3\n", "error: line 3: unrecognized header 'foo 3'\n"),
])
def test_unreadable_input_is_a_parse_error(tmp_path, capsys, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["table", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


def test_om_file_input(tmp_path):
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


@pytest.mark.parametrize("token", ["1_0", "+1", "１", "1, 2", "-1"])
def test_a_reorientation_item_is_ascii_digits_alone(token, capsys):
    # int() would read 1_0 as 10, and +1 and a fullwidth １ as 1
    assert main(["alpha", str(DATA / "k4.graph"), "--reorient", token]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: bad reorientation token {token!r}\n"


def without_line(text: str, i: int) -> str:
    lines = text.splitlines(keepends=True)
    return "".join(lines[:i] + lines[i + 1:])


# the function that serves each command's answer
SERVED_BY = {"alpha": "active_basis", "activities": "active_filtration_orientation", "refined": "_interval_table"}


def planted(*args):
    raise RuntimeError("planted")


@pytest.mark.parametrize("dropped, argv", [
    ("D 000+++", ["alpha", "--reorient", "1,3"]),  # once: the active filtration missed E
    ("D 000+++", ["activities", "--reorient", "1,3"]),
    ("D ++00--", ["refined"]),  # once: a minor neither bounded nor dual-bounded
])
def test_an_internal_error_exits_3_on_one_line(tmp_path, capsys, monkeypatch, dropped, argv):
    text = serialize_om(k4())
    path = tmp_path / "k4.om"
    # these files once reached an internal error; the parser now refuses them
    path.write_text(without_line(text, text.splitlines().index(dropped)))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    monkeypatch.setattr(cli, SERVED_BY[argv[0]], planted)
    path.write_text(text)
    assert main([argv[0], str(path), *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: planted\n"


def test_a_failed_self_test_exits_3_on_one_line(monkeypatch, capsys):
    # om_from_lists accepts K4 without one cocircuit, which no om file can give
    monkeypatch.setattr(cli, "_load", lambda path: k4_missing_a_cocircuit())
    assert main(["activities", str(DATA / "k4.graph"), "--reorient", "1,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: AssertionError: active filtration does not reach the ground set\n"


def test_om_files_missing_a_line_never_raise(tmp_path, capsys):
    commands = [
        ["alpha", "--reorient", "1,3"],
        ["activities", "--reorient", "1,3"],
        ["refined"],
        ["table"],
        ["tutte", "--check"],
    ]
    runs = 0
    for m in (k4(), diamond_doubled()):
        text = serialize_om(m)
        for i in range(1, len(text.splitlines())):  # every circuit or cocircuit line
            path = tmp_path / f"{m.n}_{i}.om"
            path.write_text(without_line(text, i))
            for argv in commands:
                code, out = run([argv[0], str(path), *argv[1:]])
                err = capsys.readouterr().err
                assert (code, out) == (2, ""), (i, argv)
                assert err.count("\n") == 1 and err.startswith("error: "), (i, argv, err)
                runs += 1
    assert runs == (14 + 12) * 5


@pytest.mark.parametrize("example", [k3, k4, diamond_doubled, w4])
def test_refined_matches_the_direct_route(example):
    m = example()
    assert refined_stdout(m) == refined_by_direct_route(m)


def test_refined_builds_no_minor_and_runs_no_scan(monkeypatch):
    m = k4()
    want = refined_stdout(m)
    activities._interval_table.cache_clear()  # the records are built again below
    for module in (core, activities, bijection, cli):
        for name in ("reorient", "restrict_contract", "_minor", "_step_minor", "active_basis",
                     "fully_optimal_basis", "bases"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, planted)
    assert refined_stdout(m) == want


def test_table_builds_no_minor_and_runs_no_scan(monkeypatch):
    m = w4()
    want = table_stdout(m)
    activities._interval_table.cache_clear()  # the records are built again below
    for module in (core, activities, bijection, cli):
        for name in ("reorient", "restrict_contract", "_minor", "_step_minor", "active_basis",
                     "fully_optimal_basis", "alpha_inverse_class", "basis_activities", "bases"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, planted)
    assert table_stdout(m) == want


@pytest.mark.parametrize("commands", [
    [["table"], ["tutte", "--check"]],
    [["refined"]],
    [["alpha-inverse", "--basis", "1,2,4"]],
])
@pytest.mark.parametrize("graph", ["k4.graph", "diamond_doubled.graph"])
def test_one_fundamental_pass_per_basis(monkeypatch, graph, commands):
    # the commands that read every basis find all their fundamental sets
    # in one batch over bases(m); alpha-inverse scans for its one basis
    batches, passes = [], []
    real_batch, real_pass = core._all_fundamentals, core._fundamentals

    def batch(m, masks):
        batches.append(list(masks))
        return real_batch(m, masks)

    def single(m, basis):
        passes.append(basis)
        return real_pass(m, basis)

    for module in (core, activities, bijection):
        for name, counted in (("_all_fundamentals", batch), ("_fundamentals", single)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    activities._interval_table.cache_clear()
    activities._interval_walk.cache_clear()
    for argv in commands:
        assert run([argv[0], str(DATA / graph), *argv[1:]])[0] == 0
    m = cli._load(str(DATA / graph))
    if commands[0][0] == "alpha-inverse":
        assert (batches, passes) == ([], [core._mask({1, 2, 4})])
    else:
        assert (batches, passes) == ([[core._mask(b) for b in core.bases(m)]], [])


def test_alpha_builds_each_chain_step_once_and_never_reorients_m(monkeypatch):
    m = w4()
    built, reoriented = [], []

    def counted(om, keep, contracted):
        built.append((core._elements(keep), core._elements(contracted)))
        return core._minor(om, keep, contracted)

    # the step cache binds core._minor when it is made: count the builds behind a cache of its size
    assert activities._step_minor.__wrapped__ is core._minor
    step_cache = functools.lru_cache(**activities._step_minor.cache_parameters())
    monkeypatch.setattr(activities, "_step_minor", step_cache(counted))
    for module in (core, activities, bijection, cli):
        if hasattr(module, "reorient"):
            monkeypatch.setattr(module, "reorient", lambda *args: reoriented.append(args))
    steps = set()
    for a in subsets(m.n):
        chain = activities.active_filtration_orientation(m, a).chain
        steps |= set(zip(chain[1:], chain))
        bijection.active_basis(m, a)
    assert len(built) == len(set(built)) and set(built) == steps  # once per distinct step
    assert reoriented == []


@pytest.mark.parametrize("command", ["alpha", "activities"])
def test_alpha_and_activities_never_reorient(monkeypatch, command):
    tokens = [",".join(map(str, sorted(a))) or "-" for a in subsets(6)]
    want = [run([command, str(DATA / "k4.graph"), "--reorient", token]) for token in tokens]
    for module in (core, activities, bijection, cli):
        if hasattr(module, "reorient"):
            monkeypatch.setattr(module, "reorient", planted)
    assert [run([command, str(DATA / "k4.graph"), "--reorient", token]) for token in tokens] == want
    assert all(code == 0 for code, _ in want)


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # about half of a start-up once went to dataclasses and the inspect, ast,
    # dis and tokenize it pulls in; every value is a tuple subclass instead
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import actbij.cli, sys; print('dataclasses' in sys.modules or 'inspect' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
