"""No module under src/ or tests/ imports a name it never uses. A name
listed in a module's __all__ counts as used: the package re-exports it.
The lower modules keep their layering: algebra_core imports no other module
of the package, groebner imports algebra_core alone, the packed monomial
format is defined in algebra_core only, and groebner is the one module
that imports underscore-prefixed names from another. No module of the
package imports dataclasses, whose import and decorators cost more start-up
time than the rest of the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never references."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom math import gcd, lcm\nimport a.b as c\n\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == [(1, "os"), (2, "lcm"), (3, "c")]


PACKAGE = ROOT / "src" / "cni_prover"


def package_imports(source: str) -> set[str]:
    """The modules of the package that a module imports, by relative or by
    absolute name; the package itself counts as "cni_prover"."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "cni_prover":
                    out.add(rest.split(".")[0] or top)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                top, _, module = module.partition(".")
                if top != "cni_prover":
                    continue
            if module:
                out.add(module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def top_level_definitions(source: str) -> set[str]:
    """The names a module binds at its top level by def, class or assignment."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


@pytest.mark.parametrize(
    "module,allowed", [("algebra_core", set()), ("groebner", {"algebra_core"})]
)
def test_lower_modules_keep_their_layering(module, allowed):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert package_imports(source) == allowed


def test_the_packed_format_is_defined_once():
    packed = {"_Packing", "_WIDTH", "_HALF", "_FIELD"}
    owners = {
        path.stem: packed & top_level_definitions(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {stem: names for stem, names in owners.items() if names} == {"algebra_core": packed}


def test_package_imports_are_found():
    source = (
        "from __future__ import annotations\nimport os\nimport cni_prover\n"
        "from . import groebner\nfrom .algebra_core import Polynomial\n"
        "import cni_prover.prover\nfrom cni_prover import cli_dsl\n"
    )
    assert package_imports(source) == {
        "groebner", "algebra_core", "prover", "cli_dsl", "cni_prover"
    }


def private_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) of each underscore-prefixed name that a module imports
    from the package, by relative or by absolute name."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "cni_prover"
        ):
            out.extend((node.module or "", a.name) for a in node.names if a.name.startswith("_"))
    return sorted(out)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "groebner"],
    ids=lambda p: p.stem,
)
def test_only_the_engine_imports_private_names(path):
    # groebner works on algebra_core's packed monomials and integer terms;
    # every other module reaches the rest of the package by public names
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_imports_are_found():
    source = (
        "from __future__ import annotations\nfrom math import _x\n"
        "from .algebra_core import Polynomial, _primitive\n"
        "from cni_prover.groebner import _Budget\nfrom . import _hidden\n"
    )
    assert private_imports(source) == [
        ("", "_hidden"), ("algebra_core", "_primitive"), ("cni_prover.groebner", "_Budget")
    ]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a module imports by absolute name,
    anywhere in it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add((node.module or "").partition(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_the_package_does_not_import_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_imported_modules_are_found():
    source = (
        "from __future__ import annotations\nimport os.path, sys as s\n"
        "from . import groebner\nfrom .prover import prove\n"
        "def f():\n    from dataclasses import dataclass\n"
    )
    assert imported_modules(source) == {"__future__", "os", "sys", "dataclasses"}
