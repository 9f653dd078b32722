"""Every name a persax module imports is used in that module, every
private name a module defines is used somewhere in the package, every
public constant a module defines is read somewhere in the package or tests,
and every public function, class and method is read somewhere in the
package, outside a fixed list.  No memo beyond a fixed list grows without
bound.  Only ``linalg`` reduces rows or reads pivots.  A fresh process loads
only the modules its work reaches, and every public name of the package
resolves to its submodule's object.

The package ``__init__`` is exempt from the first check, and its export
table, which names the public re-exports, is not a read.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import persax

from ._cli import SOURCE_ROOT
from .test_bench_hooks import tracer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "persax"
SOURCES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def is_export_table(node: ast.stmt) -> bool:
    """The package's name -> submodule table.  Its strings name re-exports,
    as its import statements once did; they are not reads."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)


def test_modules_are_found():
    assert {"filtration.py", "homology.py", "skeletal.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def private_definitions(tree: ast.Module):
    """Each private name a module binds at top level, with the statement that
    binds it: functions, classes and assigned names, tuple targets included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_unused_private_names():
    """A private helper is read, imported or looked up outside the statement
    that defines it, in its own module or another one."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    reads = []
    for tree in trees.values():
        for node in tree.body:
            names = used_names(node)
            names.update(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))
            names.update(a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
                         for a in n.names)
            reads.append((node, names))
    unused = [
        f"{file}:{defined.lineno} {name}"
        for file, tree in trees.items()
        for name, defined in private_definitions(tree)
        if not any(name in names for node, names in reads if node is not defined)
    ]
    assert not unused, f"private names nothing uses: {unused}"


def public_constants(tree: ast.Module):
    """Each public name a module assigns at top level, with the statement."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, node


def test_no_unused_public_constants():
    """A public constant is read, as a name or an attribute, outside the
    statement that defines it; an import or a re-export is not a read."""
    trees = {path: ast.parse(path.read_text()) for path in SOURCES + TESTS}
    reads = []
    for tree in trees.values():
        for node in tree.body:
            if is_export_table(node):
                continue
            names = used_names(node)
            names.update(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))
            reads.append((node, names))
    unused = [
        f"{path.name}:{defined.lineno} {name}"
        for path in SOURCES
        for name, defined in public_constants(trees[path])
        if not any(name in names for node, names in reads if node is not defined)
    ]
    assert not unused, f"public constants nothing reads: {unused}"


# Public names nothing in the package reads: the library surface that only
# the tests, the README or a user's code calls.  A new public name needs a
# reader in the package, and this list may only shrink.
LIBRARY_ONLY = {
    "filtration.FilteredSet.support",
    "filtration.cylinder",
    "filtration.is_star_shaped",
    "homology.coefficient_group",
    "homology.h0_decomposition",
    "linalg.Matrix.is_zero",
    "linalg.Subspace.sum",
    "linalg.preimage",
    "sequences.ExactSequence.dims",
    "sequences.ExactSequence.with_arrow",
    "sequences.are_contiguously_equivalent",
    "sequences.deformation_retract_check",
    "sequences.direct_sum_check",
    "sequences.is_homologically_trivial",
    "skeletal.generator",
    "skeletal.incidence_iso",
}


def public_definitions(tree: ast.Module):
    """Each public top-level function and class, and each public method of a
    top-level class, as (dotted name, defining node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_no_unread_public_names():
    """A public function or class is read as a name or an attribute, and a
    public method as an attribute, outside the statement or method that
    defines it.  Imports and the export table of ``__init__`` are not reads;
    a name the benchmark's tracer wraps counts as read."""
    reads = []  # (statement or method, names read, attributes read)
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if is_export_table(node):
                continue
            for unit in node.body if isinstance(node, ast.ClassDef) else [node]:
                attrs = {n.attr for n in ast.walk(unit) if isinstance(n, ast.Attribute)}
                reads.append((unit, used_names(unit) | attrs, attrs))
    wrapped = {f"{module}.{name}" for module, names in tracer.LAYERS.values() for name in names}
    unread = set()
    for path in MODULES:
        for name, defined in public_definitions(ast.parse(path.read_text())):
            own = set(map(id, ast.walk(defined)))
            leaf = name.rpartition(".")[2]
            column = 2 if "." in name else 1
            if f"{path.stem}.{name}" not in wrapped and not any(
                    leaf in read[column] for read in reads if id(read[0]) not in own):
                unread.add(f"{path.stem}.{name}")
    assert unread == LIBRARY_ONLY


# ``linalg`` owns the echelon bases: no other module reduces rows, builds a
# matrix or subspace past its checks, or reads pivots, so a new storage for
# them touches one module.  A dense identity outside it stays only where
# ``direct_to_skeletal`` takes its right inverse (ROADMAP item 2).
IDENTITY_ALLOWED = {("skeletal", "direct_to_skeletal")}


def echelon_uses(tree: ast.Module):
    """Each use of the echelon format in a module, as (top-level statement,
    line, what): an ``.rref()``, ``Matrix._trusted`` or ``Matrix.identity``
    call, a ``Subspace(...)`` call or a ``.pivots`` read."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "pivots":
                yield top, node.lineno, ".pivots"
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "Subspace":
                yield top, node.lineno, "Subspace(...)"
            elif isinstance(func, ast.Attribute):
                owner = func.value.id if isinstance(func.value, ast.Name) else None
                if func.attr == "rref":
                    yield top, node.lineno, ".rref()"
                elif owner == "Matrix" and func.attr in ("_trusted", "identity"):
                    yield top, node.lineno, f"Matrix.{func.attr}"


def test_the_echelon_check_sees_every_use():
    code = ("def f(m, s):\n    m.rref(); s.pivots; Subspace(1, m, ())\n"
            "    Matrix._trusted(F, (), 0, 0); Matrix.identity(F, 2)\n")
    assert [what for _, _, what in echelon_uses(ast.parse(code))] == [
        ".rref()", ".pivots", "Subspace(...)", "Matrix._trusted", "Matrix.identity"]


def test_only_linalg_reads_echelon_bases():
    found = [
        f"{path.name}:{line} {what}"
        for path in MODULES if path.stem != "linalg"
        for top, line, what in echelon_uses(ast.parse(path.read_text()))
        if not (what == "Matrix.identity"
                and (path.stem, getattr(top, "name", None)) in IDENTITY_ALLOWED)
    ]
    assert not found, f"echelon bases read outside linalg: {found}"


# The memos that keep every entry for the life of the process (ROADMAP item
# 5).  The direct and skeletal paths memoise on the pair's total set
# (``filtration.memoized``), so none is left.  A new memo takes a maxsize,
# and this list may only shrink.
UNBOUNDED_MEMOS = set()


def test_no_new_unbounded_memos():
    found = set()
    for path in MODULES:
        if path.stem == "__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(f"persax.{path.stem}")
        for value in vars(module).values():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                if value.cache_parameters()["maxsize"] is None:
                    found.add(f"{path.stem}.{value.__name__}")
    assert found == UNBOUNDED_MEMOS


def persax_modules_after(code: str) -> list[str]:
    """The persax modules a fresh interpreter holds after running ``code``."""
    report = ("import sys; print(*sorted(m for m in sys.modules"
              " if m == 'persax' or m.startswith('persax.')))")
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], cwd=SOURCE_ROOT,
                          env=dict(os.environ, PYTHONPATH=SOURCE_ROOT), capture_output=True, text=True,
                          timeout=60, check=True)
    return proc.stdout.split()


def test_the_command_line_imports_only_what_parsing_needs():
    assert persax_modules_after("import persax, persax.cli") == [
        "persax", "persax.cli", "persax.filtration", "persax.formats"]


def test_the_oracle_exception_loads_no_skeletal_path():
    assert persax_modules_after("from persax import OracleMismatch") == [
        "persax", "persax.filtration"]


def test_the_bars_path_adds_only_the_reduction_and_its_field():
    code = ("import sys, persax, persax.cli; persax.pair_barcode\n"
            "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'")
    assert persax_modules_after(code) == [
        "persax", "persax.barcode", "persax.cli", "persax.fields", "persax.filtration",
        "persax.formats"]


def test_a_field_loads_no_linear_algebra_and_no_dataclasses():
    code = ("import sys, persax, persax.cli; persax.GF(2)\n"
            "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'")
    assert persax_modules_after(code) == [
        "persax", "persax.cli", "persax.fields", "persax.filtration", "persax.formats"]


def test_the_direct_path_and_a_fuzz_run_load_no_dataclasses():
    code = ("import sys, io, contextlib\n"
            "import persax.cli, persax.homology, persax.sequences, persax.axioms, persax.fuzz,"
            " persax.skeletal\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    persax.cli.main(['verify-axioms', '--fuzz', '1'])\n"
            "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'")
    assert "persax.skeletal" in persax_modules_after(code)


# The package's public names, by the submodule that defines each.
REEXPORTS = {
    "filtration": (
        "EMPTY_SET", "INF", "FiltrationError", "FiltValue", "FilteredSet", "Interval",
        "MissingFace", "MonotonicityViolation", "NotFiltrationPreserving", "PreservingMap",
        "RelativeFilteredPair", "SubNotMappedIntoSub", "UnknownVertex", "closed_star",
        "complex_at", "compose", "critical_intervals", "critical_values", "cylinder", "fin",
        "identity_map", "inclusion", "intersection", "is_star_shaped", "pair_of", "point",
        "simplex", "skeleton", "standard_boundary", "standard_simplex", "union",
        "OracleMismatch",
    ),
    "fields": ("GF", "GF2", "GF3", "QQ"),
    "linalg": (
        "DimensionMismatch", "Matrix", "Subspace", "SubspaceNotContained", "boundary_matrix",
        "chain_map_matrix", "chain_space", "image", "kernel", "preimage",
    ),
    "homology": (
        "BettiGrid", "ClassNotInTarget", "DirectSumGroup", "HomologyGroup", "LinearMap",
        "NotRepresentableAtLowerEndpoint", "VertexNotPresent", "betti_grid",
        "coefficient_group", "connecting", "h0_decomposition", "homology", "induced_map",
        "point_class", "reduced_homology", "zero_group",
    ),
    "barcode": ("Bar", "bars_alive", "barcode", "pair_barcode", "reduced_barcode"),
    "sequences": (
        "ExactSequence", "ExactnessReport", "HypothesisViolated", "NotARetraction",
        "are_contiguous", "are_contiguously_equivalent", "check_exact",
        "deformation_retract_check", "direct_sum_check", "is_homologically_trivial",
        "is_proper_triad", "les_pair", "les_triple", "mayer_vietoris", "reduced_les_pair",
        "triad_sequence",
    ),
    "skeletal": (
        "SkeletalChainGroup", "SkeletalHomology", "direct_to_skeletal",
        "generator", "incidence_iso", "skeletal_boundary", "skeletal_chain_group",
        "skeletal_homology", "skeletal_pair",
    ),
    "axioms": ("AxiomReport", "MalformedInstance", "verify_axiom"),
    "fuzz": ("fuzz_axiom_reports",),
}


def test_every_public_name_is_its_submodules_object():
    names = [name for group in REEXPORTS.values() for name in group]
    assert sorted(persax.__all__) == sorted(names)
    assert set(names) <= set(dir(persax))
    for module, group in REEXPORTS.items():
        source = importlib.import_module(f"persax.{module}")
        for name in group:
            assert getattr(persax, name) is getattr(source, name), name
    assert importlib.import_module("persax.linalg").GF is persax.GF  # computes over it


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        persax.nothing


def test_homology_and_barcode_stay_functions_after_their_submodules_load():
    check = ("import persax.homology, persax.barcode\n"
             "from persax import homology\n"
             "import persax, types\n"
             "assert not isinstance(homology, types.ModuleType), homology\n"
             "assert homology is sys.modules['persax.homology'].homology\n"
             "assert persax.barcode is sys.modules['persax.barcode'].barcode")
    assert "persax.homology" in persax_modules_after(f"import sys\n{check}")
    for name in ("homology", "barcode"):
        assert not isinstance(getattr(persax, name), types.ModuleType)
