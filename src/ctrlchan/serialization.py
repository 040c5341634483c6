"""JSON schemas shared by the CLI and external tooling.

A complex number is a two-element array ``[re, im]``; a matrix is a list of
rows of such pairs.  Documents:

* channel:  ``{"d": int, "kraus": [matrix, ...], "env": [[re, im], ...]?}``
  where each Kraus matrix is d x d and the optional ``env`` turns the
  channel into an implementation (one amplitude per Kraus operator);
* transformation matrix:  ``{"d": int, "t": matrix}``;
* state:  ``{"d": int, "rho": matrix}``;
* ensemble:  ``{"d": int, "items": [{"p": float, "rho": matrix}, ...]}``.

Semantic checks (trace preservation, admissibility, positivity) are left to
the constructors in the core modules; this layer reports structural problems
with the JSON path of the offending field.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .channels import Channel
from .implementations import ChannelImplementation
from .info import Ensemble


class SchemaError(ValueError):
    """Malformed document; ``field`` holds the path of the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require_keys(doc, keys, field: str):
    if not isinstance(doc, dict):
        raise SchemaError(field, f"expected an object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise SchemaError(f"{field}.{key}", "missing required field")


def _dimension(doc, field: str) -> int:
    d = doc.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise SchemaError(f"{field}.d", f"expected a positive integer, got {d!r}")
    return d


def _finite_number(x, field: str) -> float:
    """A JSON number as a float, refusing the NaN and infinities that
    ``json.loads`` reads and integers beyond the float range."""
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(field, f"expected a finite number, got {x!r}")
    return value


def complex_from_json(obj, field: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)
    ):
        raise SchemaError(field, f"expected a [re, im] pair, got {obj!r}")
    return complex(_finite_number(obj[0], field), _finite_number(obj[1], field))


def vector_from_json(obj, field: str, length: int | None = None) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(field, f"expected a list of [re, im] pairs, got {type(obj).__name__}")
    if length is not None and len(obj) != length:
        raise SchemaError(field, f"expected {length} entries, got {len(obj)}")
    return np.array(
        [complex_from_json(x, f"{field}[{i}]") for i, x in enumerate(obj)],
        dtype=complex,
    )


def matrix_from_json(obj, field: str, shape: tuple[int, int] | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(field, "expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise SchemaError(f"{field}[{i}]", "expected a list of [re, im] pairs")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{field}[{i}]", f"row length {len(row)} != {width}")
        rows.append(vector_from_json(row, f"{field}[{i}]"))
    m = np.array(rows, dtype=complex)
    if shape is not None and m.shape != shape:
        raise SchemaError(field, f"expected shape {shape}, got {m.shape}")
    return m


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def vector_to_json(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in v]


def parse_channel(doc, field: str = "channel") -> tuple[Channel, np.ndarray | None]:
    """Parse a channel document; returns the channel and the optional env vector."""
    _require_keys(doc, ("d", "kraus"), field)
    d = _dimension(doc, field)
    kraus_obj = doc["kraus"]
    if not isinstance(kraus_obj, list) or not kraus_obj:
        raise SchemaError(f"{field}.kraus", "expected a non-empty list of matrices")
    kraus = [
        matrix_from_json(k, f"{field}.kraus[{i}]", shape=(d, d))
        for i, k in enumerate(kraus_obj)
    ]
    env = None
    if "env" in doc and doc["env"] is not None:
        env = vector_from_json(doc["env"], f"{field}.env", length=len(kraus))
    return Channel(tuple(kraus)), env


def channel_from_json(doc, field: str = "channel") -> Channel:
    return parse_channel(doc, field)[0]


def implementation_from_json(doc, field: str = "channel") -> ChannelImplementation:
    ch, env = parse_channel(doc, field)
    if env is None:
        raise SchemaError(f"{field}.env", "missing environment vector")
    return ChannelImplementation(ch, env)


def channel_to_json(ch: Channel, env=None) -> dict:
    doc = {"d": ch.dim, "kraus": [matrix_to_json(k) for k in ch.kraus]}
    if env is not None:
        doc["env"] = vector_to_json(env)
    return doc


def tmatrix_from_json(doc, field: str = "t_matrix") -> np.ndarray:
    _require_keys(doc, ("d", "t"), field)
    d = _dimension(doc, field)
    return matrix_from_json(doc["t"], f"{field}.t", shape=(d, d))


def tmatrix_to_json(t) -> dict:
    t = np.asarray(t, dtype=complex)
    return {"d": t.shape[0], "t": matrix_to_json(t)}


def state_from_json(doc, field: str = "state") -> np.ndarray:
    _require_keys(doc, ("d", "rho"), field)
    d = _dimension(doc, field)
    return matrix_from_json(doc["rho"], f"{field}.rho", shape=(d, d))


def state_to_json(rho) -> dict:
    rho = np.asarray(rho, dtype=complex)
    return {"d": rho.shape[0], "rho": matrix_to_json(rho)}


def ensemble_from_json(doc, field: str = "ensemble") -> Ensemble:
    _require_keys(doc, ("d", "items"), field)
    d = _dimension(doc, field)
    items_obj = doc["items"]
    if not isinstance(items_obj, list) or not items_obj:
        raise SchemaError(f"{field}.items", "expected a non-empty list")
    items = []
    for i, item in enumerate(items_obj):
        _require_keys(item, ("p", "rho"), f"{field}.items[{i}]")
        p = item["p"]
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise SchemaError(f"{field}.items[{i}].p", f"expected a number, got {p!r}")
        p = _finite_number(p, f"{field}.items[{i}].p")
        rho = matrix_from_json(item["rho"], f"{field}.items[{i}].rho", shape=(d, d))
        items.append((p, rho))
    return Ensemble(tuple(items))


def load_json(path, field: str = "document") -> dict:
    """Read a JSON document, refusing a syntax error under ``field`` with the
    path, line and column."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            field, f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
