"""Quantum channels as stacked Kraus operators, with Choi-matrix machinery.

A channel here is always a completely positive trace-preserving map on a
d-dimensional system, carried as one read-only ``(k, d, d)`` array of Kraus
operators ``{K_i}`` with ``sum_i K_i^dag K_i = 1``.  The Choi matrix lives on
the input (x) output index space with the input factor on the slow index.

Every channel records its trace-preservation deviation max |sum K^dag K - 1|,
measured by the constructor, or bounded by :func:`remix` from its source's
and from the isometry check of ``u``, which then forms no sum K'^dag K'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    REMIX_ROUNDING,
    SIGMA_X,
    SIGMA_Z,
    _isometry_deviation,
    _overflows,
    as_matrix,
)

_EPS = 2.0**-52  # np.finfo(float).eps, without its lookup at import

STANDARD_KINDS = (
    "identity",
    "depolarising",
    "partial_depolarising",
    "phase_flip",
    "bit_flip",
)


@dataclass(frozen=True, eq=False)
class Channel:
    """A CPTP map given by a non-empty stack of equal-size Kraus operators.

    ``kraus`` may be passed as any sequence of d x d matrices or as a
    ``(k, d, d)`` array; it is stored as a read-only complex ``(k, d, d)``
    array, so ``len``, iteration and ``kraus[i]`` address single operators.
    Its deviation max |sum K^dag K - 1| is kept as ``_deviation``, and the
    first solve on it in :mod:`ctrlchan.implementations` keeps the factor of
    its Kraus matrix: ``_kraus_gram``, the Gram matrix G, until a second
    solve on the Gram route inverts it, then ``_kraus_factor``.
    """

    kraus: np.ndarray

    def __post_init__(self):
        try:
            ops = np.array(self.kraus, dtype=complex)
        except ValueError as exc:
            raise _unstackable(self.kraus) from exc
        if ops.shape[:1] == (0,):
            raise ValueError("a channel needs at least one Kraus operator")
        if ops.ndim != 3:
            raise ValueError(
                f"expected a stack of Kraus matrices, got an array of shape {ops.shape}"
            )
        if ops.shape[1] != ops.shape[2]:
            raise ValueError(f"kraus[0] is not square: shape {ops.shape[1:]}")
        d = ops.shape[1]
        if d == 0:
            raise ValueError("kraus operators must be at least 1 x 1, got shape (0, 0)")
        flat = ops.reshape(-1, d)
        # A NaN or infinite entry makes its column of sum K^dag K, and so dev,
        # non-finite; only then is the whole stack scanned, to name the entry.
        with np.errstate(invalid="ignore", over="ignore"):
            dev = float(np.max(np.abs(flat.conj().T @ flat - np.eye(d))))
        if not dev <= DEFAULT_TOL:
            if not np.isfinite(dev):
                _overflows(ops, "kraus", "a sum K^dag K")
            raise ValueError(
                f"kraus operators are not trace-preserving: "
                f"max |sum K^dag K - 1| = {dev:.3e}"
            )
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "_deviation", dev)

    @classmethod
    def _certified(cls, ops: np.ndarray, deviation: float) -> "Channel":
        """A channel on a fresh complex ``(k, d, d)`` stack whose deviation is
        bounded by ``deviation`` within ``DEFAULT_TOL``: frozen in place, with
        no copy and no sum K^dag K."""
        ops.setflags(write=False)
        ch = object.__new__(cls)
        object.__setattr__(ch, "kraus", ops)
        object.__setattr__(ch, "_deviation", deviation)
        return ch

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]


def _unstackable(kraus) -> ValueError:
    """Name the operator that keeps a ragged Kraus list from stacking."""
    shapes = [np.shape(k) for k in kraus]
    for idx, shape in enumerate(shapes):
        if len(shape) != 2 or shape[0] != shape[1]:
            return ValueError(f"kraus[{idx}] is not square: shape {shape}")
    for idx, shape in enumerate(shapes):
        if shape != shapes[0]:
            return ValueError(
                f"kraus[{idx}] has dimension {shape[0]}, expected {shapes[0][0]}"
            )
    return ValueError("kraus operators do not stack into one complex array")


def apply(ch: Channel, rho) -> np.ndarray:
    """The channel's linear map rho -> sum_i K_i rho K_i^dag.

    ``rho`` is one matrix ``(d, d)`` or a stack ``(..., d, d)``, mapped
    matrix by matrix in two products, and is used as-is: the map extends
    linearly to arbitrary matrices, such as operator blocks, so a caller
    that wants a state checked calls
    :func:`~ctrlchan.linalg.validate_density_matrix` first.  The first
    product, rho times the side-by-side adjoints [K_1^dag ... K_k^dag]
    (d x kd), makes every rho K_i^dag at once.  Read as a column of kd rows,
    its result holds row s of rho K_i^dag at row s k + i, so the second
    product takes it as it is, with the Kraus row ordered to match: entry
    (x, s k + i) is K_i[x, s].
    """
    rho = np.asarray(rho, dtype=complex)
    k, d, _ = ch.kraus.shape
    if rho.ndim < 2 or rho.shape[-2:] != (d, d):
        raise ValueError(f"state of shape {rho.shape} does not match dimension {d}")
    sides = rho @ ch.kraus.reshape(k * d, d).conj().T
    row = ch.kraus.transpose(1, 2, 0).reshape(d, d * k)
    return row @ sides.reshape(rho.shape[:-2] + (d * k, d))


def _choi_tensor(ch: Channel) -> np.ndarray:
    """G[a, b, c, e] = sum_i K_i[a, b] conj(K_i[c, e]), one Gram product of the
    flattened Kraus operators: the Choi matrix C[(b, a), (e, c)] of
    :func:`choi_of` with its indices in Kraus order.  It is the one product
    behind every Choi matrix and every switch map."""
    k, d, _ = ch.kraus.shape
    flat = ch.kraus.reshape(k, d * d)
    return (flat.T @ flat.conj()).reshape(d, d, d, d)


def choi_of(ch: Channel) -> np.ndarray:
    """Choi matrix C = sum_i |K_i>><<K_i| = V V^dag (positive semidefinite,
    d^2 x d^2), with V the d^2 x k matrix of vectorised Kraus operators: the
    Choi tensor of :func:`_choi_tensor` with each index pair swapped."""
    d = ch.dim
    return _choi_tensor(ch).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def remix(ch: Channel, u) -> Channel:
    """Rewrite the Kraus list as K'_i = sum_r u_{ir} K_r.

    ``u`` must have orthonormal columns: a unitary, or a taller rectangular
    isometry to grow the list.  If ``u`` has more columns than there are Kraus
    operators, the list is first padded with zero operators.  The represented
    CPTP map is unchanged.

    ``u`` is checked as an isometry; a NaN, infinite or overflowing entry is
    refused by name.  The new list is not checked again when the source's
    deviation and that of u^dag u bound its own within ``DEFAULT_TOL``, as
    derived at ``REMIX_ROUNDING`` in :mod:`ctrlchan.linalg`: it is then
    frozen as computed, with the bound as its deviation.  Otherwise it is
    checked as a new :class:`Channel`.  Either way it is accepted or refused
    as that check would, and holds the same numbers.
    """
    u = as_matrix(u)
    n, n_old = u.shape
    if n_old < len(ch.kraus):
        raise ValueError(
            f"remix matrix has {n_old} columns but the channel has "
            f"{len(ch.kraus)} Kraus operators"
        )
    mu = _isometry_deviation(u, "remix matrix")
    if not mu <= DEFAULT_TOL:
        raise ValueError("remix matrix must have orthonormal columns")
    # Columns past the Kraus count would multiply zero padding operators.
    # K' = u K is one product of u with the k x d^2 matrix of flattened K_r.
    k, d, _ = ch.kraus.shape
    ops = (u[:, :k] @ ch.kraus.reshape(k, d * d)).reshape(-1, d, d)
    # the bound and its rounding margin are derived at REMIX_ROUNDING
    delta = ch._deviation
    bound = delta + k * mu * (1.0 + delta) + REMIX_ROUNDING * (k + d) * n * _EPS
    if bound <= DEFAULT_TOL:
        return Channel._certified(ops, bound)
    return Channel(ops)


def weyl_basis(d: int) -> list[np.ndarray]:
    """The d^2 unitaries U_(a,b) = X^a Z^b, ordered by index i = a*d + b.

    X|k> = |k+1 mod d> and Z|k> = w^k |k> with w = exp(2 pi i / d); these
    satisfy Tr[U_i^dag U_j] = d delta_ij.  All d^2 are one array expression,
    (X^a Z^b)[r, c] = [r = c + a mod d] exp(2 pi i ((b c) mod d) / d), with
    the exponent reduced mod d so that every phase is within rounding of exact.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    a, b, r, c = np.ogrid[:d, :d, :d, :d]
    m = (b * c) % d
    # the quarter turns w^0, w^(d/4), w^(d/2), w^(3d/4) are exactly 1, i, -1, -i
    quarter = np.array([1.0, 1j, -1.0, -1j])[4 * m // d]
    phase = np.where(4 * m % d == 0, quarter, np.exp(2j * np.pi * m / d))
    return list(np.where(r == (c + a) % d, phase, 0.0).reshape(d * d, d, d))


def _check_mixing_param(p, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p


def standard_channel(kind: str, d: int = 2, param=None) -> Channel:
    """Build one of the named channel families, the kinds of ``STANDARD_KINDS``.

    kind:
        ``identity`` and ``depolarising`` (maps everything to 1/d, Kraus
        ``{U_i/d}`` over the Weyl basis) take no ``param``;
        ``partial_depolarising`` takes ``param=q``, the weight of the identity
        mixed into the depolarising channel; ``phase_flip`` and ``bit_flip``
        take ``param=p``, the flip probability, and ``d = 2`` only.
    """
    if d < 1:
        raise ValueError(f"dimension d must be at least 1, got {d}")
    if kind in ("identity", "depolarising") and param is not None:
        raise ValueError(f"{kind} channel takes no param")
    if kind == "identity":
        return Channel((np.eye(d, dtype=complex),))
    if kind == "depolarising":
        return Channel(tuple(u / d for u in weyl_basis(d)))
    if kind == "partial_depolarising":
        q = _check_mixing_param(param, "q")
        basis = weyl_basis(d)
        ops = [np.sqrt(d * d * q + 1.0 - q) / d * basis[0]]
        ops += [np.sqrt(1.0 - q) / d * u for u in basis[1:]]
        return Channel(tuple(ops))
    if kind in ("phase_flip", "bit_flip"):
        if d != 2:
            raise ValueError(f"{kind} channel is defined for qubits only")
        p = _check_mixing_param(param, "p")
        pauli = SIGMA_Z if kind == "phase_flip" else SIGMA_X
        return Channel((np.sqrt(1.0 - p) * np.eye(2, dtype=complex), np.sqrt(p) * pauli))
    raise ValueError(f"unknown channel kind '{kind}'; known kinds: {STANDARD_KINDS}")
