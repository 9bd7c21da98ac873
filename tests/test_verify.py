"""The verify suite: which modules may use the oracles, that every cache
in the library is bounded, that no function declares a global, that
every public function, class, method, property or namedtuple field has a
caller outside the tests or names a notion of the paper, that one run maps each
reorientation of M once, makes one basis pass per served basis and calls
``reorient`` only on single elements, that recursive-definitions keeps no
reoriented OM, that each check is named once, by its function, and reports a planted
fault or a library error inside it on one ``FAIL <check>: <detail>`` line,
that full-optimality-uniqueness fails when the served basis is not the
scan's, that an A the fully optimal table leaves to the scan fails with the
scan's own message, that check_active_duality on the tables gives the scans'
verdict, and that filtration-uniqueness's product over parts fails where the
A × filtration loop does."""

import ast
import functools
import importlib
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from actbij import activities, bijection, core, oracles, tutte, verify
from actbij.activities import Filtration
from actbij.tutte import TuttePolynomial
import conftest
from conftest import fully_optimal_basis_scan
from examples import diamond_doubled, k3, k4, k5, w4, w5

SRC = Path(__file__).resolve().parent.parent / "src" / "actbij"
BENCH = SRC.parent.parent / "bench"
SERVING = ("core", "graphs", "activities", "bijection", "tutte", "cli")


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
    # the package re-exports check_active_duality and tutte_rank_oracle
    assert {name for name, path in modules.items() if imports_oracles(path)} == {"__init__", "verify"}


def takes_binomials(path: Path) -> bool:
    """Whether the module reads math.comb, imported by name or off math."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "math" and "comb" in [a.name for a in node.names]:
            return True
        if isinstance(node, ast.Attribute) and node.attr == "comb" and getattr(node.value, "id", None) == "math":
            return True
    return False


def test_only_tutte_imports_the_binomials():
    # t(x+u, y+v) is expanded in one place, tutte._shifted_coefficients
    assert {path.stem for path in SRC.glob("*.py") if takes_binomials(path)} == {"tutte"}


def cache_sizes(path: Path) -> dict[str, object]:
    """The maxsize of every function decorated with lru_cache (128 when
    bare) or with functools.cache (None), by function name."""
    sizes = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.FunctionDef):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            kind = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if kind == "cache":
                sizes[node.name] = None
            elif kind == "lru_cache":
                given = [*call.args, *(k.value for k in call.keywords if k.arg == "maxsize")] if call else []
                sizes[node.name] = ast.literal_eval(given[0]) if given else 128
    return sizes


def test_every_cache_in_src_has_a_finite_maxsize():
    sizes = {
        f"{path.stem}.{name}": size
        for path in sorted(SRC.glob("*.py"))
        for name, size in cache_sizes(path).items()
    }
    assert "core._bases" in sizes
    assert [name for name, size in sizes.items() if type(size) is not int] == []


def test_no_function_in_src_declares_a_global():
    # the verify record and the oracle memos live for one call or one check;
    # a `global` statement would let one call see the state of the last
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []


# public names that only the tests call, kept because each names a notion
# of the paper: the phrase its docstring names it by
PAPER_NOTIONS = {
    "activities.Filtration.cyclic_flat": "cyclic flat",
    "activities.Filtration.parts": "partition",
    "activities.basis_of_subset": "basis intervals",
    "bijection.ReorientationClassResult.filtration": "active filtration",
    "bijection.is_fully_optimal": "full optimality criterion",
    "core.SignedSubset.negated": "opposite signed set",
    "core.SignedSubset.reoriented": "reorientation",
    "core.SignedSubset.support": "support",
    "core.contract": "contraction",
    "core.delete": "deletion",
    "core.fundamental_circuit": "fundamental circuit",
    "core.fundamental_cocircuit": "fundamental cocircuit",
    "tutte.beta": "beta invariant",
    "tutte.beta_star": "beta invariant",
    "tutte.four_var_reorientation_sum": "refined activities for reorientations",
    "tutte.four_var_subset_sum": "refined activities for subsets",
}


def names_read(text: str, members: bool = False, skip=frozenset()) -> set:
    """Every name read in the source; with ``members``, only the attributes
    read off something other than a name in ``skip``.  Each attribute counts
    bare and qualified by what it is read off: ``core.SignedSubset.from_masks``
    reads ``from_masks`` and ``SignedSubset.from_masks``."""
    used = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = getattr(node.value, "id", None)
            if not (members and owner in skip):
                qualifier = owner or getattr(node.value, "attr", "")
                used |= {node.attr, f"{qualifier}.{node.attr}"}
        elif isinstance(node, ast.Name) and not members:
            used.add(node.id)
    return used


def names_used_outside_the_tests(members: bool = False) -> set:
    """Every name read in src or bench; with ``members``, only the attributes
    read off something other than one of bench's own modules or ``args``,
    the parsed command line, so that a local variable, a bench function or
    an option does not hide a member of the same name.  A re-export from
    __init__ is not a use; the CLI is cli.py under src."""
    skip = {path.stem for path in BENCH.glob("*.py")} | {"args"}
    paths = [path for path in [*SRC.glob("*.py"), *BENCH.glob("*.py")] if path.name != "__init__.py"]
    return set().union(*(names_read(path.read_text(encoding="utf-8"), members, skip) for path in paths))


def public_definitions(body, prefix: str):
    """(qualified name, node) of each public function, class and annotated
    name defined in body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield f"{prefix}.{name}", node


def public_members(node: ast.ClassDef, prefix: str) -> list[str]:
    """The qualified names of the fields of a class's ``namedtuple("_X",
    [...])`` base, then of its public methods, properties and annotated names."""
    fields = [
        name
        for base in node.bases
        if isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple"
        for name in ast.literal_eval(base.args[1])
    ]
    return [f"{prefix}.{name}" for name in fields] + [name for name, _ in public_definitions(node.body, prefix)]


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    used = names_used_outside_the_tests()
    public = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name, _ in public_definitions(ast.parse(path.read_text(encoding="utf-8")).body, path.stem)
    ]
    assert [name for name in public if name.split(".")[1] not in used and name not in PAPER_NOTIONS] == []
    for name, notion in PAPER_NOTIONS.items():
        module, *path, last = name.split(".")
        owner = functools.reduce(getattr, path, importlib.import_module(f"actbij.{module}"))
        # a namedtuple field's own docstring is "Alias for field number i": its class names it
        doc = (owner if last in getattr(owner, "_fields", ()) else getattr(owner, last)).__doc__
        assert notion in " ".join(doc.split()), name


def unused_members(modules: dict[str, str], used: set) -> list[str]:
    """The public methods, properties, annotated names and namedtuple fields
    of the public classes in ``modules`` (source by module name) that
    ``used`` does not read.  A member name that two classes define counts
    only where it is read off its own class, as in ``Filtration.from_masks``."""
    members = [
        member
        for module, text in modules.items()
        for name, node in public_definitions(ast.parse(text).body, module)
        if isinstance(node, ast.ClassDef)
        for member in public_members(node, name)
    ]
    names = [member.split(".")[2] for member in members]
    return [
        member
        for member, name in zip(members, names)
        if (member.split(".", 1)[1] if names.count(name) > 1 else name) not in used
    ]


def test_every_public_method_and_property_has_a_caller_outside_the_tests():
    # a member, namedtuple fields included, is used where an attribute of
    # that name is read in src or bench; from_masks, which two classes
    # define, must be read off each
    used = names_used_outside_the_tests(members=True)
    assert {"Filtration.from_masks", "SignedSubset.from_masks"} <= used
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert [name for name in unused_members(modules, used) if name not in PAPER_NOTIONS] == []


def test_a_member_name_two_classes_share_is_used_only_where_read_off_its_class():
    modules = {
        "shapes": "class Square:\n    def from_masks(cls): ...\n    def area(self): ...\n"
        "class Circle:\n    def from_masks(cls): ...\n"
    }
    reader = "import shapes\nshapes.Square.from_masks()\nc.from_masks()\nc.area()\n"
    assert unused_members(modules, names_read(reader, members=True)) == ["shapes.Circle.from_masks"]
    assert unused_members(modules, names_read(reader + "Circle.from_masks()\n", members=True)) == []


def test_an_unread_namedtuple_field_is_reported():
    modules = {"shapes": 'class Box(namedtuple("_Sides", ["width", "height"])):\n    def area(self): ...\n'}
    reader = "import shapes\nbox.width\nbox.area()\n"
    assert unused_members(modules, names_read(reader, members=True)) == ["shapes.Box.height"]


def test_a_run_maps_each_reorientation_once(monkeypatch):
    # per A: the records of M and M* call the forward map, and the public map runs
    # once per activity class (16 on K4); the two inductions share minors through the memo
    calls: Counter = Counter()

    def counted(module, attr):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    counted(bijection, "active_basis")
    counted(bijection, "_active_basis")
    counted(oracles, "_minor")
    assert verify.run_all(k4(), report=lambda line: None)
    assert calls["active_basis"] <= 16 and calls["_active_basis"] <= (2 << 6) + 16
    assert calls["_minor"] <= 183  # 168 filtration steps, 15 for the recursion relative to M


def test_the_recursive_check_keeps_no_reoriented_om():
    # its memo holds minors of M and int masks; keyed on each -_A M, the check peaked at about 4 MB on W5
    m = w5()
    sweep = verify.Sweep(m)
    for a in range(1 << m.n):
        sweep.value(bijection._active_basis, a)
    tracemalloc.start()
    try:
        verify.check_recursive_definitions(m, sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_run_makes_one_basis_pass_per_served_basis(monkeypatch):
    # activity-preservation reads the served basis's filtration off the run's record
    calls = []
    real = activities.active_filtration_basis
    monkeypatch.setattr(activities, "active_filtration_basis", lambda m, b: calls.append(b) or real(m, b))
    m = w4()
    assert verify.run_all(m, report=lambda line: None)
    assert len(core.bases(m)) == 45 and len(calls) <= 45


def test_a_run_reorients_through_reorient_only_on_single_elements(monkeypatch):
    # the oracle sides reorient M by mask; structure reorients it there and back per element
    calls = []
    real = core.reorient
    monkeypatch.setattr(core, "reorient", lambda m, a: calls.append(a) or real(m, a))
    m = k4()
    assert verify.run_all(m, report=lambda line: None)
    assert len(calls) <= 2 * m.n


@pytest.mark.parametrize("m", [k3(), k4(), w4()], ids=["K3", "K4", "W4"])
def test_reorienting_a_single_element_changes_m_and_twice_restores_it(m):
    # what the structure check's involution tests; on E it would compare M with itself
    assert core.reorient(m, m.ground_set) == m
    for e in m.ground_set:
        r = core.reorient(m, {e})
        assert r != m and core.reorient(r, {e}) == m


def zero_off_the_first_call(real):
    """A rank table of zeros from its second call on: the first is tutte-routes', whose
    rank-generating route would catch it before interval-unions reads one."""
    calls = []

    def planted(m):
        calls.append(m)
        return real(m) if len(calls) == 1 else bytearray(1 << m.n)

    return planted


PLANTED = [
    (
        # K3 has rank 2 and its dual rank 1: the planted dual of M* is M* itself
        "structure",
        core,
        "dual",
        lambda real: lambda m: real(m) if m.rank == 2 else m,
        "structure: dual is not an involution",
    ),
    (
        # the fundamental cocircuit of 1 loses 3, which its fundamental circuit keeps
        "pivot-property",
        core,
        "_fundamentals",
        lambda real: lambda m, b: [core.SignedSubset.from_masks(1, 0), *real(m, b)[1:]],
        "pivot-property: B=[1, 2], b=1, e=3",
    ),
    (
        "compose-support",
        core,
        "compose",
        lambda real: lambda x, y: x,
        "compose-support: covector support wrong for B=[1, 2]",
    ),
    (
        # only the dual's activities swap
        "activity-duality",
        activities,
        "basis_activities",
        lambda real: lambda m, b: real(m, b) if m.rank == 2 else real(m, b)[::-1],
        "activity-duality: B=[1, 2]",
    ),
    (
        "filtration-duality",
        activities,
        "active_filtration_orientation",
        lambda real: lambda m, a=(): real(m, a) if m.rank == 2 else Filtration.from_masks([7], 0),
        "filtration-duality: A=[]",
    ),
    (
        # the check reads M's step minors' bounded flips, without building -_A M
        "bounded-minors",
        oracles,
        "_bounded_flips",
        lambda real: lambda m: (0, 0),
        "bounded-minors: A=[], part 0",
    ),
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
        "bijection",
        bijection,
        "alpha_inverse_class",
        lambda real: lambda m, b: real(m, b)._replace(class_members=real(m, b).class_members[1:]),
        "bijection: B=[1, 2]: inverse class mismatch",
    ),
    (
        "activity-preservation",
        activities,
        "active_filtration_basis",
        lambda real: lambda m, b: Filtration((frozenset(), m.ground_set), 0),
        "activity-preservation: A=[]: filtrations differ",
    ),
    (
        "refined-bijection",
        bijection,
        "refined_alpha_inverse",
        lambda real: lambda m, x: real(m, x) ^ {1},
        "refined-bijection: A=[]",
    ),
    (
        # every basis twice: the table owns no A once and leaves each to the scan, which
        # takes the oracles' binding too; the serving recursion never reads it
        "full-optimality-uniqueness",
        oracles,
        "_basis_masks",
        lambda real: lambda m: real(m) * 2,
        "full-optimality-uniqueness: A=[2]: expected exactly one fully optimal basis, found 2: [[2, 3], [2, 3]]",
    ),
    (
        # K3 has rank 2 and its dual rank 1: only the dual's bases change
        "alpha-duality",
        bijection,
        "_active_basis",
        lambda real: lambda m, f, a: real(m, f, a) ^ 1 if m.rank == 1 else real(m, f, a),
        "alpha-duality: A=[]",
    ),
    (
        # the companion -_p M* of -_{1,2} M, M*'s entry at {2}, read as neither bounded nor dual-bounded
        "active-duality",
        oracles,
        "_optimal_table",
        lambda real: lambda m: real(m) if m.rank == 2 else ([*real(m)[0][:2], None, *real(m)[0][3:]], real(m)[1]),
        "active-duality: A=[1, 2]",
    ),
    (
        "recursive-definitions",
        oracles,
        "active_basis_recursive",
        lambda real: lambda m, **kwargs: frozenset(),
        "recursive-definitions: A=[]: cocircuit induction",
    ),
    (
        "tutte-routes",
        oracles,
        "tutte_rank_oracle",
        lambda real: lambda m: TuttePolynomial({}),
        "tutte-routes: rank-generating route disagrees",
    ),
    (
        # all-zero ranks once tutte-routes has read its table
        "interval-unions",
        oracles,
        "_rank_table",
        zero_off_the_first_call,
        "interval-unions: upper intervals are not the spanning sets",
    ),
    (
        "filtration-uniqueness",
        oracles,
        "all_connected_filtrations",
        lambda real: lambda m: [],
        "filtration-uniqueness: A=[]: 0 decompositions",
    ),
]


@pytest.mark.parametrize("check, module, attr, fault, message", PLANTED, ids=[p[0] for p in PLANTED])
def test_a_planted_fault_fails_its_check(monkeypatch, check, module, attr, fault, message):
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    bijection.fully_optimal_basis.cache_clear()  # results cached by earlier tests would hide a fault
    bijection._step_basis.cache_clear()
    activities._step_minor.cache_clear()
    assert_fails_at(check, f"FAIL {message}")


def test_a_failed_self_test_inside_a_check_is_reported_as_its_failure(monkeypatch):
    def planted(*args):
        raise AssertionError("planted")

    # bijection is the first check to ask the run's record for an active basis
    for attr in ("alpha_inverse_class", "_active_basis"):
        with monkeypatch.context() as patch:
            patch.setattr(bijection, attr, planted)
            assert_fails_at("bijection", "FAIL bijection: planted")


def one_x_for_u(counts):
    """K3's counts of a four-variable sum with one A moved from x u to x^2: each
    o_ij of the orientation route, a sum over i and j, stays as it was."""
    return {**counts, (1, 1, 0, 0): counts[1, 1, 0, 0] - 1, (2, 0, 0, 0): counts[2, 0, 0, 0] + 1}


def test_a_library_fault_inside_a_check_is_reported_as_its_failure(monkeypatch, request):
    # positivity without the sets whose negative side empties under the flip: a
    # fundamental-set self-test raises InvalidOrientedMatroid, a ValueError
    monkeypatch.setattr(core, "_positive_under", lambda sets, flip: [x | y for x, y in sets if not (x & ~flip | y & flip)])
    for cached in (bijection.fully_optimal_basis, bijection._step_basis):
        cached.cache_clear()
        request.addfinalizer(cached.cache_clear)  # no entry made under the plant stays
    lines: list[str] = []
    assert not verify.run_all(k4(), report=lines.append)
    assert lines[-1] == "FAIL bijection: expected exactly one cocircuit inside [1], found 0"


def test_the_check_names_are_the_listed_nineteen_in_order():
    # read off the function names: a renamed function must not rename its check
    assert [name for name, _ in verify.ALL_CHECKS] == [
        "structure",
        "pivot-property",
        "compose-support",
        "activity-duality",
        "filtration-duality",
        "bounded-minors",
        "class-invariance",
        "fixed-representative",
        "bijection",
        "activity-preservation",
        "refined-bijection",
        "full-optimality-uniqueness",
        "alpha-duality",
        "active-duality",
        "recursive-definitions",
        "tutte-routes",
        "class-counts",
        "interval-unions",
        "filtration-uniqueness",
    ]


def invalid_oriented_matroid(*args):
    raise core.InvalidOrientedMatroid("planted")


@pytest.mark.parametrize(
    "attr, fault, raised, detail",
    [
        ("dual", lambda real: lambda m: real(m) if m.rank == 2 else m, verify.VerificationFailure, "dual is not an involution"),
        ("om_from_lists", lambda real: invalid_oriented_matroid, core.InvalidOrientedMatroid, "planted"),
    ],
    ids=["verification-failure", "library-value-error"],
)
def test_a_check_failure_and_a_library_error_in_one_check_print_one_format(monkeypatch, attr, fault, raised, detail):
    monkeypatch.setattr(core, attr, fault(getattr(core, attr)))
    m = k3()
    with pytest.raises(raised) as exc:
        verify.check_structure(m, verify.Sweep(m))
    assert type(exc.value) is raised and str(exc.value) == detail
    assert_fails_at("structure", f"FAIL structure: {detail}")


def test_the_cap_check_still_raises():
    with pytest.raises(core.GroundSetTooLarge):
        verify.run_all(core.OrientedMatroid(core.ENUMERATION_CAP + 1, (), (), 0), report=lambda line: None)


def test_an_error_of_degree_3_the_grid_misses_fails_tutte_routes(monkeypatch):
    # K4's expansion of t(x+u, y+v) with t(x, 0) = x^3 + 3x^2 + 2x read as 2x^3 + 4x: equal at
    # x = 0, 1, 2.  Planted in the expansion, as the orientation route reads the histogram too
    real = tutte._shifted_coefficients
    plant = {(3, 0, 0, 0): 2, (2, 0, 0, 0): 0, (1, 0, 0, 0): 4}
    monkeypatch.setattr(tutte, "_shifted_coefficients", lambda t: {**real(t), **plant})
    names, lines = [name for name, _ in verify.ALL_CHECKS], []
    assert not verify.run_all(k4(), report=lines.append)
    assert lines == [f"ok {name}" for name in names[: names.index("tutte-routes")]] + [
        "FAIL tutte-routes: reorientation sum coefficient (1, 0, 0, 0): 2 != 4"
    ]


def flips_2_as_well_off_the_first_om(real):
    """A reorient that also flips 2 unless its argument is the first OM it was given."""
    first = []

    def planted(m, a):
        first[:] = first or [m]
        return real(m, a if m == first[0] else {*a, 2})

    return planted


# faults planted under one check called alone on a fresh record: where an
# earlier check would read the plant first, or to reach a later condition of
# a check than its PLANTED entry does.  No single fault reaches one clause,
# as an earlier clause of its check implies it: refined-bijection's "not a
# permutation" (refined_alpha_inverse undoes refined_alpha at every A).
# A fault in the basis intervals raises the walk's own AssertionError
PLANTED_ALONE = [
    (
        # tutte-routes reads tutte_from_bases before class-counts does
        "class-counts",
        verify.check_class_counts,
        tutte,
        "tutte_from_bases",
        lambda real: lambda m: TuttePolynomial({}),
        "class representatives: 3 != 0",
    ),
    (
        # the planted reorientation of M is M*, and that of M* is M* again
        "structure-reorientation",
        verify.check_structure,
        core,
        "reorient",
        lambda real: lambda m, a: core.dual(m) if m.rank == 2 else m,
        "reorientation is not an involution",
    ),
    (
        # reorienting M is right and only reorienting back is wrong: -_E M = M would hide it
        "structure-reorientation-back",
        verify.check_structure,
        core,
        "reorient",
        flips_2_as_well_off_the_first_om,
        "reorientation is not an involution",
    ),
    (
        # only the dual's orientation activities swap
        "activity-duality-reorientations",
        verify.check_activity_duality,
        activities,
        "orientation_activities",
        lambda real: lambda m, a=(): real(m, a) if m.rank == 2 else real(m, a)[::-1],
        "A=[]",
    ),
    (
        # every basis of K3 given the parts 1|2|3 above the cyclic flat: the intervals overlap
        "tutte-routes-subset-sum",
        verify.check_tutte_routes,
        activities,
        "basis_pass",
        lambda real: lambda funds, basis: (Filtration.from_masks((1, 2, 4), 0), 0),
        "subset 111 lies in two basis intervals",
    ),
    (
        "tutte-routes-reorientation-sum",
        verify.check_tutte_routes,
        tutte,
        "_reorientation_histogram",
        lambda real: lambda m: one_x_for_u(real(m)),
        "reorientation sum coefficient (1, 1, 0, 0): 1 != 2",
    ),
    (
        # a key on one side only is compared too: here the histogram lacks it
        "tutte-routes-expansion-only",
        verify.check_tutte_routes,
        tutte,
        "_shifted_coefficients",
        lambda real: lambda t: {**real(t), (0, 0, 0, 2): 1},
        "reorientation sum coefficient (0, 0, 0, 2): 0 != 1",
    ),
    (
        # and here the expansion lacks it; both sides read 1 where they hold it
        "tutte-routes-histogram-only",
        verify.check_tutte_routes,
        tutte,
        "_shifted_coefficients",
        lambda real: lambda t: {key: c for key, c in real(t).items() if key != (2, 0, 0, 0)},
        "reorientation sum coefficient (2, 0, 0, 0): 1 != 0",
    ),
    (
        "bounded-minors-connected",
        verify.check_bounded_minors,
        activities,
        "is_connected_filtration",
        lambda real: lambda m, f: False,
        "A=[]: filtration not connected",
    ),
    (
        "bijection-onto",
        verify.check_bijection,
        bijection,
        "_active_basis",
        lambda real: lambda m, f, a: 0b11,
        "active basis map is not onto the bases",
    ),
    (
        # the class of [1, 2] has one part where B has two active elements
        "bijection-preimages",
        verify.check_bijection,
        bijection,
        "alpha_inverse_class",
        lambda real: lambda m, b: real(m, b)._replace(filtration=Filtration.from_masks([7], 0)),
        "B=[1, 2] has 4 preimages",
    ),
    (
        # Int(B) and Ext(B) swapped: 1 is active in exactly one of them
        "activity-preservation-activities",
        verify.check_activity_preservation,
        activities,
        "basis_activities",
        lambda real: lambda m, b: real(m, b)[::-1],
        "A=[]",
    ),
    (
        "refined-bijection-transport",
        verify.check_refined_bijection,
        activities,
        "reorientation_params",
        lambda real: lambda m, a: (),
        "A=[]: parameter transport",
    ),
    (
        # the check's images come through bijection._refine: only the public map, asked once per class, sees this
        "refined-bijection-public",
        verify.check_refined_bijection,
        bijection,
        "refined_alpha",
        lambda real: lambda m, a: real(m, a) ^ {1},
        "A=[]: public refined map differs",
    ),
    (
        # the interval's ends swapped: a single subset, while every class has at least two members
        "refined-bijection-interval",
        verify.check_refined_bijection,
        activities,
        "interval_of_basis",
        lambda real: lambda m, b: real(m, b)[::-1],
        "A=[]: class does not fill the interval",
    ),
    (
        "recursive-definitions-circuit",
        verify.check_recursive_definitions,
        oracles,
        "active_basis_recursive",
        lambda real: lambda m, **kwargs: frozenset() if kwargs.get("circuit_induction") else real(m, **kwargs),
        "A=[]: circuit induction",
    ),
    (
        "tutte-routes-orientations",
        verify.check_tutte_routes,
        tutte,
        "tutte_from_orientations",
        lambda real: lambda m: TuttePolynomial({}),
        "orientation route disagrees with basis route",
    ),
    (
        # the routes count bases through core._basis_masks, not the public bases
        "tutte-routes-bases",
        verify.check_tutte_routes,
        core,
        "bases",
        lambda real: lambda m: real(m)[1:],
        "t(1,1) is not the number of bases",
    ),
    (
        # no route evaluates the polynomial, and t(1,1) is left as it is
        "tutte-routes-two-two",
        verify.check_tutte_routes,
        TuttePolynomial,
        "evaluate",
        lambda real: lambda self, x, y: real(self, x, y) + ((x, y) == (2, 2)),
        "t(2,2) is not 2^n",
    ),
    (
        # no route reads a single coefficient
        "tutte-routes-constant-term",
        verify.check_tutte_routes,
        TuttePolynomial,
        "coefficient",
        lambda real: lambda self, i, j: 1,
        "b_00 nonzero for a nonempty ground set",
    ),
    (
        # the one acyclic part E is valid first at [1, 2], where -_A M is bounded
        "filtration-uniqueness-twice",
        verify.check_filtration_uniqueness,
        oracles,
        "all_connected_filtrations",
        lambda real: lambda m: [*real(m), real(m)[0]],
        "A=[1, 2]: 2 decompositions",
    ),
    (
        "filtration-uniqueness-served",
        verify.check_filtration_uniqueness,
        activities,
        "active_filtration_orientation",
        lambda real: lambda m, a=(): Filtration.from_masks([7], 0),
        "A=[]: 1 decompositions",
    ),
    (
        # Int(B) dropped: each lower interval is B alone
        "interval-unions-lower",
        verify.check_interval_unions,
        activities,
        "basis_activities",
        lambda real: lambda m, b: (frozenset(), real(m, b)[1]),
        "lower intervals are not the independent sets",
    ),
]


@pytest.mark.parametrize("name, check, module, attr, fault, message", PLANTED_ALONE, ids=[p[0] for p in PLANTED_ALONE])
def test_a_planted_fault_fails_its_check_called_alone(monkeypatch, request, name, check, module, attr, fault, message):
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    for cached in (activities._interval_table, activities._interval_walk):
        cached.cache_clear()  # records cached by earlier tests would hide a fault
        request.addfinalizer(cached.cache_clear)  # and none made under the plant stays
    m = k3()
    with pytest.raises(AssertionError, match=f"^{re.escape(message)}$") as raised:
        check(m, verify.Sweep(m))
    # the walk's partition self-test, alone, is the library's own AssertionError
    assert type(raised.value) is (AssertionError if name == "tutte-routes-subset-sum" else verify.VerificationFailure)


def test_the_constant_term_is_checked_on_one_element(monkeypatch):
    # an isthmus: the smallest nonempty ground set
    m = core.om_from_lists(1, [], [core.SignedSubset(frozenset({1}), frozenset())])
    monkeypatch.setattr(TuttePolynomial, "coefficient", lambda self, i, j: 1)
    with pytest.raises(verify.VerificationFailure, match="^b_00 nonzero for a nonempty ground set$"):
        verify.check_tutte_routes(m, verify.Sweep(m))


def filtration_uniqueness_by_loop(m, sweep):
    """filtration-uniqueness as an A × filtration loop over the minors of -_A M built whole."""
    filtrations = oracles.all_connected_filtrations(m)
    for a in range(1 << m.n):
        valid = [
            f
            for f in filtrations
            if all(
                (core.is_dual_bounded if f.part_is_cyclic(i) else core.is_bounded)(minor)
                for i, minor in enumerate(activities.active_minors(m, f, core._elements(a)))
            )
        ]
        if len(valid) != 1 or valid[0] != sweep.value(activities.active_filtration_orientation, a):
            raise verify.VerificationFailure(f"A={core._positions(a)}: {len(valid)} decompositions")


@pytest.mark.parametrize("m", [k3(), k4(), diamond_doubled(), w4()], ids=["K3", "K4", "diamond_doubled", "W4"])
def test_the_product_over_parts_fails_where_the_filtration_loop_does(monkeypatch, m):
    filtrations, served = oracles.all_connected_filtrations, activities.active_filtration_orientation
    faults = [
        (oracles, "all_connected_filtrations", filtrations),
        (oracles, "all_connected_filtrations", lambda m: filtrations(m)[1:]),
        (oracles, "all_connected_filtrations", lambda m: [*filtrations(m), filtrations(m)[-1]]),
        (activities, "active_filtration_orientation", lambda m, a=(): served(m, ())),
    ]
    outcomes = []
    for module, attr, fault in faults:
        with monkeypatch.context() as patch:
            patch.setattr(module, attr, fault)
            by_route = []
            for check in (verify.check_filtration_uniqueness, filtration_uniqueness_by_loop):
                try:
                    check(m, verify.Sweep(m))
                    by_route.append(None)
                except verify.VerificationFailure as exc:
                    by_route.append(str(exc))
            assert by_route[0] == by_route[1]
            outcomes.append(by_route[0])
    assert outcomes[0] is None and all(outcomes[1:])


def test_filtration_uniqueness_above_its_cap_is_reported_as_skipped(monkeypatch):
    monkeypatch.setattr(verify, "FILTRATION_UNIQUENESS_CAP", 5)  # K4 has n = 6
    lines: list[str] = []
    assert verify.run_all(k4(), report=lines.append)
    assert lines == [f"ok {name}" for name, _ in verify.ALL_CHECKS[:-1]] + ["skip filtration-uniqueness (n > 5)"]


def test_filtration_uniqueness_runs_on_w4_at_the_default_cap(monkeypatch):
    # n = 8: above the cap of 7 the check once returned at once and still printed ok
    monkeypatch.setattr(oracles, "all_connected_filtrations", lambda m: [])
    lines: list[str] = []
    assert not verify.run_all(w4(), report=lines.append)
    assert lines[-1] == "FAIL filtration-uniqueness: A=[]: 0 decompositions"


def test_full_optimality_fails_when_the_served_basis_is_not_the_scans(monkeypatch):
    m = k3()
    real = bijection._active_basis
    monkeypatch.setattr(bijection, "_active_basis", lambda m, f, a: real(m, f, a) ^ 1)
    message = "A=[2]: scan [2, 3] != served [1, 2, 3]"
    with pytest.raises(verify.VerificationFailure, match=f"^{re.escape(message)}$"):
        verify.check_full_optimality_uniqueness(m, verify.Sweep(m))


def full_optimality_by_scan(m, sweep):
    """full-optimality-uniqueness with no table: the scan of every basis at each A."""
    for a in range(1 << m.n):
        try:
            hit = fully_optimal_basis_scan(m, a)
        except AssertionError as exc:
            raise verify.VerificationFailure(f"A={core._positions(a)}: {exc}") from None
        if hit is not None and hit != (served := core._elements(sweep.value(bijection._active_basis, a))):
            message = f"A={core._positions(a)}: scan {sorted(hit)} != served {sorted(served)}"
            raise verify.VerificationFailure(message)


def plant_a_criteria_disagreement(patch, m):
    """In the table's fundamental sets and the scan's alike, f_e of the owner B of M's first
    bounded or dual-bounded A for e = min(B), the first set its covector composes, with the
    sign of its top swapped: sign opposition, which reads minima only, cannot see it."""
    b = next(x for x in oracles._optimal_table(m)[0] if x is not None)
    low = (b & -b).bit_length() - 1

    def swapped(funds):
        f = funds[low]
        top = 1 << (f.pos | f.neg).bit_length() - 1
        return [*funds[:low], core.SignedSubset.from_masks(f.pos ^ top, f.neg ^ top), *funds[low + 1 :]]

    every, one = oracles._all_fundamentals, bijection._fundamentals
    patch.setattr(oracles, "_all_fundamentals", lambda om, masks: [
        swapped(funds) if basis == b else funds for funds, basis in zip(every(om, masks), masks)
    ])
    patch.setattr(bijection, "_fundamentals", lambda om, basis: swapped(one(om, basis)) if basis == b else one(om, basis))


def plant_a_doubled_owner(patch, m):
    """M's bases with the owner of its first bounded or dual-bounded A listed twice, for the table and the scan."""
    real, owner = oracles._basis_masks, next(x for x in oracles._optimal_table(m)[0] if x is not None)
    for module in (oracles, conftest):
        patch.setattr(module, "_basis_masks", lambda om: (*real(om), owner))


def plant_a_missing_owner(patch, m):
    """M's bases without the owner of its first bounded or dual-bounded A, for the table and the scan."""
    real, owner = oracles._basis_masks, next(x for x in oracles._optimal_table(m)[0] if x is not None)
    for module in (oracles, conftest):
        patch.setattr(module, "_basis_masks", lambda om: tuple(b for b in real(om) if b != owner))


def plant_borrowed_fundamental_sets(patch, m):
    """In the table and the scan alike, the basis B after the owner B' of M's first bounded or
    dual-bounded A, on the same side of 1, given the fundamental sets of B': at A, B passes
    sign opposition with B' and, composing them on its own sides, fails composition."""
    masks = oracles._basis_masks(m)
    owner = next(x for x in oracles._optimal_table(m)[0] if x is not None)
    b = next(x for x in masks[masks.index(owner) + 1 :] if x & 1 == owner & 1)
    every, one = oracles._all_fundamentals, bijection._fundamentals
    patch.setattr(oracles, "_all_fundamentals", lambda om, masks: [
        every(om, [owner])[0] if basis == b else funds for funds, basis in zip(every(om, masks), masks)
    ])
    patch.setattr(bijection, "_fundamentals", lambda om, basis: one(om, owner if basis == b else basis))


@pytest.mark.parametrize(
    "plant, found",
    [
        (plant_a_criteria_disagreement, "full optimality criteria disagree"),
        (plant_borrowed_fundamental_sets, "full optimality criteria disagree"),
        (plant_a_doubled_owner, "found 2"),
        (plant_a_missing_owner, "found 0"),
    ],
    ids=["criteria", "borrowed", "owner", "no-owner"],
)
def test_an_a_the_table_marks_fails_with_the_scans_message(monkeypatch, plant, found):
    m = k4()
    sweep = verify.Sweep(m)
    for a in range(1 << m.n):  # the served bases, read before the plant
        sweep.value(bijection._active_basis, a)
    plant(monkeypatch, m)
    with pytest.raises(verify.VerificationFailure) as by_scan:
        full_optimality_by_scan(m, sweep)
    only, scanned = oracles._only_passing, []
    monkeypatch.setattr(oracles, "_only_passing", lambda om, *args: scanned.append(om) or only(om, *args))
    with pytest.raises(verify.VerificationFailure) as by_table:
        verify.check_full_optimality_uniqueness(m, sweep)
    assert str(by_table.value) == str(by_scan.value) and found in str(by_table.value)
    # the table read every A before it and left this one to the scan of -_A M
    listed = re.match(r"A=(\[[\d, ]*\]): ", str(by_table.value))[1]
    assert scanned == [core._reoriented(m, core._mask(ast.literal_eval(listed)))]


def test_where_the_tables_leave_every_a_to_the_scans_the_scans_decide(monkeypatch):
    real = oracles._optimal_table
    monkeypatch.setattr(oracles, "_optimal_table", lambda m: ([x if x is None else -1 for x in real(m)[0]], real(m)[1]))
    m = k3()
    for check in (verify.check_active_duality, verify.check_recursive_definitions):
        check(m, verify.Sweep(m))
    # the scan of M* (rank 1) under any flip answers with 1 added: -_p M*'s basis no longer complements α(M)
    only = oracles._only_passing
    monkeypatch.setattr(oracles, "_only_passing", lambda om, *args: only(om, *args) | (om.rank == 1))
    with pytest.raises(verify.VerificationFailure, match=r"^A=\[1, 2\]$"):
        verify.check_active_duality(m, verify.Sweep(m))


def active_duality_by_scans(r) -> bool:
    """Both active duality identities on the bounded OM r, by the scan of every basis of each OM built whole."""
    lhs, companion = fully_optimal_basis_scan(r), fully_optimal_basis_scan(core.reorient(core.dual(r), {1}))
    if companion is None:
        return False
    plain = fully_optimal_basis_scan(core.dual(r)) == r.ground_set - lhs
    return lhs == (r.ground_set - companion) - {2} | {1} and plain


@pytest.mark.parametrize("m", [k4(), w4(), k5()], ids=["K4", "W4", "K5"])
def test_check_active_duality_gives_the_scans_verdict_at_every_bounded_a(m):
    tables = oracles._optimal_table(m), oracles._optimal_table(core.dual(m))
    bounded = [a for a in range(1 << m.n) if core._bounded_under(m, a, False)]
    assert bounded and bounded == [a - 1 for a in core._positions(tables[0][1])]
    for a in bounded:
        r = core._reoriented(m, a)
        assert oracles.check_active_duality(m, a, tables) == active_duality_by_scans(r) == oracles.check_active_duality(r)


def assert_fails_at(check, fail_line):
    names = [name for name, _ in verify.ALL_CHECKS]
    lines: list[str] = []
    assert not verify.run_all(k3(), report=lines.append)
    assert lines == [f"ok {name}" for name in names[: names.index(check)]] + [fail_line]
