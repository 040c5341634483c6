"""Span tracer that wraps ctrlchan's layers from outside, for traced runs only.

``Tracer.install`` wraps every public function defined in a layer module,
plus the ``__post_init__`` validator of every dataclass defined there, and
rebinds each wrapped name in every ``ctrlchan`` module that holds it, so calls
between modules are seen too.  Map factories (``switch_map`` and friends)
return closures; those are wrapped as spans of the same layer.  Entry points
of ``numpy.linalg`` are counted as events, not timed.  Only names found by
introspection are wrapped, so removing a function from the program never
breaks the tracer; it just stops showing up.

Spans are kept in memory (name, layer, start, end, parent, op id) and written
with ``save`` when the run ends.  Nothing is recorded outside an ``op`` block.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from types import FunctionType

import numpy as np

LAYERS = ("linalg", "channels", "implementations", "control", "info", "discrimination")
EIG_CALLS = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
VALIDATIONS = ("linalg.validate_density_matrix", "linalg.is_hermitian")
CONSTRUCTION = "channels.Channel"
ENTROPY = "info.entropy"
OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.event_name = array("q")
        self.event_parent = array("q")
        self._stack = [-1]
        self._op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.op.append(self._op_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.end[idx] = time.perf_counter()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; layer calls are recorded only inside it."""
        self._op_id = op_id
        idx = self._open(self._intern(OP, OP))
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = -1

    def wrap(self, fn, name: str, layer: str):
        nid = self._intern(name, layer)

        @wraps(fn)
        def traced(*args, **kwargs):
            if self._op_id < 0:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if type(result) is FunctionType:
                return self.wrap(result, name + ":map", layer)
            return result

        return traced

    def count(self, fn, name: str):
        nid = self._intern(name, "lapack")

        @wraps(fn)
        def counted(*args, **kwargs):
            if self._op_id >= 0:
                self.event_name.append(nid)
                self.event_parent.append(self._stack[-1])
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layers of the imported ctrlchan package and numpy.linalg."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ctrlchan" or n.startswith("ctrlchan.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"ctrlchan.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{attr}", layer)
                elif isinstance(obj, type) and "__post_init__" in vars(obj):
                    post_init = vars(obj)["__post_init__"]
                    self._patch(obj, "__post_init__", self.wrap(post_init, f"{layer}.{attr}", layer))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for attr in np.linalg.__all__:
            obj = getattr(np.linalg, attr)
            if callable(obj) and not isinstance(obj, type):
                self._patch(np.linalg, attr, self.count(obj, f"numpy.linalg.{attr}"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        fields = ("start", "end", "parent", "name", "op", "event_name", "event_parent")
        return {f: np.array(getattr(self, f)) for f in fields}

    def save(self, path) -> None:
        """Write every span and event, with the name and layer tables."""
        np.savez(path, names=np.array(self.names), layers=np.array(self.layers), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time covered by its direct children."""
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
    return duration - children


def _under(span_ids: np.ndarray, parent: np.ndarray, name: np.ndarray, target: int) -> np.ndarray:
    """True where the span, or one of its ancestors, has name id ``target``."""
    found = np.zeros(span_ids.shape, dtype=bool)
    cur = span_ids.copy()
    while np.any(cur >= 0):
        live = cur >= 0
        found[live] |= name[cur[live]] == target
        cur[live] = parent[cur[live]]
    return found


def layer_table(tracer: Tracer) -> dict[str, float]:
    """Per-op layer metrics over every op recorded by ``tracer``."""
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    layer_of = np.array(tracer.layers)[a["name"]]
    own = self_times(a["start"], a["end"], a["parent"])
    is_op = a["name"] == ids.get(OP, -1)
    n_ops = int(is_op.sum())
    if n_ops == 0:
        raise ValueError("no op spans recorded")
    op_seconds = float((a["end"] - a["start"])[is_op].sum())

    def calls(*names: str) -> int:
        return int(sum(np.count_nonzero(a["name"] == ids[n]) for n in names if n in ids))

    table = {}
    for layer in LAYERS:
        mask = layer_of == layer
        seconds = float(own[mask].sum())
        table[f"{layer}.calls_per_op"] = int(mask.sum()) / n_ops
        table[f"{layer}.self_ms_per_op"] = seconds * 1e3 / n_ops
        table[f"{layer}.self_share"] = seconds / op_seconds
    eig_ids = [ids[n] for n in EIG_CALLS if n in ids]
    is_eig = np.isin(a["event_name"], eig_ids)
    table["lapack.eig_calls_per_op"] = int(is_eig.sum()) / n_ops
    table["lapack.calls_per_op"] = len(a["event_name"]) / n_ops
    entropies = calls(ENTROPY)
    table["info.eig_per_entropy"] = (
        int(_under(a["event_parent"][is_eig], a["parent"], a["name"], ids[ENTROPY]).sum()) / entropies
        if entropies else 0.0
    )
    table["linalg.validations_per_op"] = calls(*VALIDATIONS) / n_ops
    table["channels.constructions_per_op"] = calls(CONSTRUCTION) / n_ops
    return table

