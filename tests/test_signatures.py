"""No public function or method of the package takes a tolerance: each one is
a named constant in the table at the top of ``ctrlchan/linalg.py``, so two
callers cannot reach different verdicts on one input."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ctrlchan"


def tolerance_parameters() -> list[str]:
    """``module:function(parameter)`` for every parameter whose name ends in
    ``tol`` of a function or method not marked private by one underscore."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_") and not node.name.startswith("__"):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            found += [
                f"{path.stem}:{node.name}({p.arg})"
                for p in params
                if p is not None and p.arg.endswith("tol")
            ]
    return found


def test_no_public_function_takes_a_tolerance():
    assert tolerance_parameters() == []
