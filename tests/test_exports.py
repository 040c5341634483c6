"""Every name the package exports is used by the program: by a module of the
package, by a script or by the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ctrlchan"

# Exported names that no program file uses, each with the reason it stays.
UNUSED_EXPORTS = {
    # bench/test_bench.py removes it from ctrlchan.linalg and
    # ctrlchan.implementations with a raising monkeypatch.delattr
    "pseudoinverse": "deleted by name in bench/test_bench.py",
}


def exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def used() -> set[str]:
    """Names loaded or read as attributes in the package modules, scripts and
    benchmark, and names imported by the scripts and the benchmark."""
    package = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    outside = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    names = set()
    for path in package + outside:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and path in outside:
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_is_used_by_the_program():
    assert sorted(exported() - used() - UNUSED_EXPORTS.keys()) == []


def test_allowlisted_names_are_exported_and_unused():
    assert sorted(UNUSED_EXPORTS.keys() - (exported() - used())) == []
