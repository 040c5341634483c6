"""Mutation probe: which one-operator changes to a module do its tests miss?

    python tools/mutate.py src/ctrlchan/linalg.py tests/test_linalg.py tests/test_reference.py
    python tools/mutate.py src/ctrlchan/control.py tests/test_control.py --out control.json

Four operators, each applied at one site per mutant:

* ``conj``: drop a ``.conj()`` call;
* ``addsub``: swap a binary or augmented ``+`` and ``-``;
* ``matmul``: swap the operands of ``@``;
* ``cmp``: flip ``<`` and ``<=``, or ``>`` and ``>=``, in one comparison.

Each mutant runs in a fresh copy of the repository (without ``.git``) in a
new temporary directory, as one ``pytest -x`` process with one BLAS
thread and a fixed hypothesis seed.  It is killed when pytest exits nonzero
or runs past ten times the unmutated run (at least 60 s).  The survivors go
to standard output, or to ``--out``, as JSON; progress goes to standard
error.  Standard library only; this is not part of the tier-1 suite.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CMP_FLIP = {ast.Lt: (b"<", b"<="), ast.LtE: (b"<=", b"<"), ast.Gt: (b">", b">="), ast.GtE: (b">=", b">")}


def _find_op(src: bytes, start: int, end: int, op: bytes) -> int:
    """Offset of the operator ``op`` in ``src[start:end]``, the text between
    two operands, skipping comments and a longer operator it begins."""
    i, comment = start, False
    while i < end:
        c = src[i : i + 1]
        if c == b"#":
            comment = True
        elif c == b"\n":
            comment = False
        elif not comment and src.startswith(op, i) and src[i + len(op) : i + len(op) + 1] not in (b"=", b"<", b">"):
            return i
        elif not comment and op in (b"+", b"-") and src.startswith(op + b"=", i):
            return i  # augmented assignment
        i += 1
    raise ValueError(f"operator {op!r} not found between offsets {start} and {end}")


def mutants(src: bytes) -> list[tuple[str, int, bytes]]:
    """(operator, line, mutated source) for every site in ``src``."""
    starts = [0] + [i + 1 for i, c in enumerate(src) if c == ord("\n")]

    def begin(node):
        return starts[node.lineno - 1] + node.col_offset

    def end(node):
        return starts[node.end_lineno - 1] + node.end_col_offset

    def edit(a: int, b: int, text: bytes) -> bytes:
        return src[:a] + text + src[b:]

    out = []
    for node in ast.walk(ast.parse(src)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "conj"
            and not node.args
            and not node.keywords
        ):
            # from the call's last dot: a parenthesised receiver ends before
            # its closing parenthesis, which must stay
            dot = src.rfind(b".", begin(node), end(node))
            out.append(("conj", node.lineno, edit(dot, end(node), b"")))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.Add, ast.Sub)):
            left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            op, new = (b"+", b"-") if isinstance(node.op, ast.Add) else (b"-", b"+")
            at = _find_op(src, end(left), begin(right), op)
            out.append(("addsub", node.lineno, edit(at, at + 1, new)))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            left = src[begin(node.left) : end(node.left)]
            right = src[begin(node.right) : end(node.right)]
            swapped = b"(" + right + b") @ (" + left + b")"
            out.append(("matmul", node.lineno, edit(begin(node), end(node), swapped)))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for k, cmp in enumerate(node.ops):
                if type(cmp) in CMP_FLIP:
                    op, new = CMP_FLIP[type(cmp)]
                    at = _find_op(src, end(operands[k]), begin(operands[k + 1]), op)
                    out.append(("cmp", operands[k].lineno, edit(at, at + len(op), new)))
    return sorted(out, key=lambda m: (m[1], m[0]))


def _run_tests(copy: Path, tests: list[str], timeout: float) -> bool:
    """True when the tests pass in ``copy``; a timeout counts as a failure."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    try:
        proc = subprocess.run(
            cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def _fresh_copy(work: Path) -> Path:
    """The repository's files, without git's and the caches, in a new directory
    under ``work``: some tests read the scripts, the benchmark and the README."""
    copy = Path(tempfile.mkdtemp(dir=work)) / "repo"
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
    shutil.copytree(ROOT, copy, ignore=ignore)
    return copy


def _line(src: bytes, lineno: int) -> str:
    return src.splitlines()[lineno - 1].decode().strip()


def probe(module: str, tests: list[str]) -> dict:
    path = (ROOT / module).resolve()
    rel = path.relative_to(ROOT)
    src = path.read_bytes()
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp)
        t0 = time.perf_counter()
        if not _run_tests(_fresh_copy(work), tests, timeout=3600):
            raise SystemExit(f"the tests fail on the unmutated {rel}; nothing to probe")
        timeout = max(60.0, 10 * (time.perf_counter() - t0))
        found = mutants(src)
        survivors = []
        for n, (op, lineno, mutated) in enumerate(found, 1):
            try:
                compile(mutated, str(rel), "exec")
            except SyntaxError as exc:
                raise SystemExit(f"{rel}:{lineno}: {op} mutant does not compile: {exc}")
            copy = _fresh_copy(work)
            (copy / rel).write_bytes(mutated)
            killed = not _run_tests(copy, tests, timeout)
            shutil.rmtree(copy)
            print(f"[{n}/{len(found)}] {rel}:{lineno} {op}: {'killed' if killed else 'SURVIVED'}", file=sys.stderr)
            if not killed:
                changed = [i for i, (a, b) in enumerate(zip(src.splitlines(), mutated.splitlines())) if a != b]
                survivors.append(
                    {
                        "line": lineno,
                        "operator": op,
                        "before": _line(src, changed[0] + 1),
                        "after": _line(mutated, changed[0] + 1),
                    }
                )
    return {"module": str(rel), "tests": tests, "mutants": len(found), "survivors": survivors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module to mutate, relative to the repository root")
    parser.add_argument("tests", nargs="+", help="test files to run against each mutant")
    parser.add_argument("--out", help="write the JSON report here instead of standard output")
    args = parser.parse_args(argv)
    report = json.dumps(probe(args.module, args.tests), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(report)
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
