"""Every name the package exports is used by the program: by a module of the
package, by a script or by the benchmark.  The references of
``tests/reference.py`` share no code with the package and have no second
copy in a test module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ctrlchan"
TESTS = ROOT / "tests"


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
    assert sorted(exported() - used()) == []


def test_the_choi_pseudoinverse_and_second_shannon_sum_stay_out():
    # one route per quantity: admissibility is solved on the Kraus matrix,
    # binary entropy sums its bits through the spectrum helper and the switch
    # contracts its interference blocks in the Choi order only; a channel or
    # implementation is built and written by the one route the program uses
    import ctrlchan
    from ctrlchan import control, implementations, info, linalg, serialization

    gone = [
        (ctrlchan, "pseudoinverse"),
        (implementations, "pseudoinverse"),
        (linalg, "pseudoinverse"),
        (linalg, "is_hermitian"),
        (linalg, "PINV_RANK_TOL"),
        (info, "shannon_entropy"),
        (control, "_sandwich_order"),
        (serialization, "implementation_to_json"),
        (linalg, "CONSTANT_CUTOFF"),
        (linalg, "_check_density"),
        (control.ControlledOutput, "_fresh"),
    ]
    assert [f"{m.__name__}.{n}" for m, n in gone if hasattr(m, n)] == []


def test_the_reference_module_imports_only_the_input_data_classes():
    allowed = {"Channel", "ChannelImplementation", "ControlState"}
    imported = set()
    for node in ast.walk(ast.parse((TESTS / "reference.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctrlchan":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "ctrlchan")
    assert sorted(imported - allowed) == []


def test_no_test_module_defines_a_reference_again():
    def defined(path):
        return {
            node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    references = defined(TESTS / "reference.py")
    copies = [
        f"{path.name}:{name}"
        for path in sorted(TESTS.glob("test_*.py"))
        for name in sorted(defined(path) & references)
    ]
    assert copies == []
