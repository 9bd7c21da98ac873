"""The verify suite: which modules may use the oracles, and that its named
checks report a planted fault under their own names."""

import ast
from pathlib import Path

import pytest

from actbij import activities, oracles, verify
from actbij.examples import k3
from actbij.tutte import TuttePolynomial

SRC = Path(__file__).resolve().parent.parent / "src" / "actbij"
SERVING = ("core", "graphs", "activities", "bijection", "tutte", "cli", "examples")


def imports_oracles(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any("oracles" in name.split(".") for name in names):
            return True
    return False


def test_only_verify_imports_the_oracles():
    modules = {path.stem: path for path in SRC.glob("*.py")}
    assert set(SERVING) <= set(modules)
    assert not [name for name in SERVING if imports_oracles(modules[name])]
    # the package re-exports check_active_duality and tutte_delcon_oracle
    assert {name for name, path in modules.items() if imports_oracles(path)} == {"__init__", "verify"}


PLANTED = [
    (
        "class-invariance",
        activities,
        "activity_class",
        lambda real: lambda m, a: [*real(m, a), frozenset(a) ^ {2}],
        "class-invariance: A=[], member=[2]",
    ),
    (
        "fixed-representative",
        activities,
        "activity_class",
        lambda real: lambda m, a: real(m, a) * 2,
        "fixed-representative: A=[]: 2 fixed members",
    ),
    (
        "recursive-definitions",
        oracles,
        "active_basis_recursive",
        lambda real: lambda m, **kwargs: frozenset(),
        "recursive-alpha: A=[]: cocircuit induction",
    ),
    (
        "tutte-routes",
        oracles,
        "tutte_delcon_oracle",
        lambda real: lambda m: TuttePolynomial({}),
        "tutte: deletion/contraction oracle disagrees",
    ),
]


@pytest.mark.parametrize("check, module, attr, fault, message", PLANTED, ids=[p[0] for p in PLANTED])
def test_a_planted_fault_fails_its_check(monkeypatch, check, module, attr, fault, message):
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    names = [name for name, _ in verify.ALL_CHECKS]
    lines: list[str] = []
    assert not verify.run_all(k3(), report=lines.append)
    assert lines == [f"ok {name}" for name in names[: names.index(check)]] + [f"FAIL {message}"]
