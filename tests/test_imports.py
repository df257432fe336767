"""Every module imports only names it uses, and the package only what it declares.

An AST scan of the package modules, the test files and the scripts: a name
bound by an import statement must appear somewhere else in the module, as a
bare name or the root of an attribute chain.  A name in a package module's
``__all__`` must be defined at the top level of that module, so a stale
entry left by a deletion is an error, and ``__all__`` re-exports no import.
The package ``__init__`` is skipped, because its imports are the public API.
Every import in the package is relative, from the standard library, or a
dependency listed in ``pyproject.toml``.

The reachability census: every top-level def or class of the package is
reached from the command line (``cli.main`` and every ``cmd_*``), from the
package's module-level code, or from a name the scripts, the benchmark
harness or the acceptance tests use, except the few named in ``UNREACHED``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for p in [
        *(ROOT / "src" / "schrobvp").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
    ]
    if p.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement of the module -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in _imported_names(tree).items() if name not in used)


def undefined_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level def, class or assignment of the module binds."""
    defined, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            defined.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


def test_scan_flags_an_unused_name_and_keeps_used_ones():
    source = (
        "import numpy as np\n"
        "from typing import Iterable, Literal\n"
        "import os.path\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(k: Literal['a']):\n"
        "    return np.zeros(3), os.path.sep\n"
    )
    # an __all__ entry is not a use: the import behind it is still unused
    assert unused_imports(source) == [("Iterable", 2), ("exported", 4)]


def test_export_scan_flags_stale_and_imported_entries():
    source = (
        "from .x import imported\n"
        "LIMIT: int = 3\n"
        "Kind = str\n"
        "__all__ = ['f', 'C', 'LIMIT', 'Kind', 'splitting_residual', 'imported']\n"
        "def f(): pass\n"
        "class C: pass\n"
    )
    assert undefined_exports(source) == ["splitting_residual", "imported"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "schrobvp").glob("*.py")), ids=lambda p: f"schrobvp/{p.name}"
)
def test_every_exported_name_is_defined_in_its_module(path):
    assert undefined_exports(path.read_text()) == []


def _referenced_names(node: ast.AST) -> set[str]:
    """Every bare name and attribute name under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreached_defs(package: dict[str, str], roots: set[str]) -> set[str]:
    """Top-level defs and classes of the ``package`` sources (module name -> source)
    that no chain of name references reaches from ``roots`` or from module-level code.

    Names are matched by spelling alone, so a def is reached when any reached body
    uses its name; a reached class reaches everything its methods use.
    """
    defs, reached = {}, set()
    for source in package.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            else:
                roots = roots | _referenced_names(node)
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(ref for node in defs[name] for ref in _referenced_names(node) if ref in defs)
    return set(defs) - reached


# kept without a pipeline caller, each for its unit tests
UNREACHED = {
    "hilbert": "the spectral identities H^2 = -(I - Pi0) and the L^2 isometry off Pi0",
    "pi0": "the mean projection of those identities",
    "remove_pi0": "the mean-free part of those identities",
    "unit_weight": "the q = 0 weight of the unweighted unit tests",
}


def _census_roots() -> set[str]:
    cli = ast.parse((ROOT / "src" / "schrobvp" / "cli.py").read_text())
    roots = {"main"} | {
        node.name for node in cli.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    }
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        roots |= _referenced_names(ast.parse(path.read_text()))
    return roots


def _package_sources() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted((ROOT / "src" / "schrobvp").glob("*.py"))}


def test_census_flags_a_def_no_root_reaches():
    package = {
        "m": (
            "LIMIT = helper()\n"
            "def helper(): return 1\n"
            "def main(): return Kind().run()\n"
            "class Kind:\n"
            "    def run(self): return chained()\n"
            "def chained(): return 2\n"
            "def orphan(): return chained()\n"
        )
    }
    assert unreached_defs(package, {"main"}) == {"orphan"}
    assert unreached_defs(package, set()) == {"main", "Kind", "chained", "orphan"}


def test_every_package_def_is_reached_but_the_named_few():
    assert unreached_defs(_package_sources(), _census_roots()) == set(UNREACHED)


def _declared_dependencies() -> set[str]:
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in deps}


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "schrobvp").glob("*.py")), ids=lambda p: f"schrobvp/{p.name}"
)
def test_package_imports_only_stdlib_and_declared_dependencies(path):
    allowed = set(sys.stdlib_module_names) | _declared_dependencies()
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    assert roots - allowed == set()


def test_cli_builds_the_benchmark_without_sympy():
    code = (
        "import sys; sys.modules['sympy'] = None\n"
        "from schrobvp.cli import build_scenario\n"
        "sc = build_scenario({'preset': 'benchmark'})\n"
        "assert sc.coeffs.time_dependent\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
