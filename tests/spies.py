"""Spies on the package's own LAPACK entry points.

A decomposition is counted where the package makes it, at the entry point in
``ctrlchan.linalg`` (``_eigh``, ``_eigvalsh``, ``_solve``, ``_inv``,
``_cholesky_succeeds``), never at ``np.linalg``, which the package does not
call for these.  A module that imports an entry point holds its own binding,
so the spy replaces it in every module of the package that binds it, under
whatever name.
"""

import sys


def spied(fn, record):
    """``fn``, calling ``record(*args)`` first."""

    def call(*args, **kwargs):
        record(*args)
        return fn(*args, **kwargs)

    return call


def spy(monkeypatch, fn, record) -> None:
    """Call ``record(*args)`` before each call of ``fn`` made by the package."""
    wrapped = spied(fn, record)
    bound = 0
    for name, module in list(sys.modules.items()):
        if name != "ctrlchan" and not name.startswith("ctrlchan."):
            continue
        for attr, obj in list(vars(module).items()):
            if obj is fn:
                monkeypatch.setattr(module, attr, wrapped)
                bound += 1
    assert bound, f"no module of the package binds {fn.__name__}"


def shapes(monkeypatch, fn) -> list:
    """The shape of the first argument of each call of ``fn`` by the package."""
    calls = []
    spy(monkeypatch, fn, lambda a, *rest: calls.append(a.shape))
    return calls
