"""Quantum channels as stacked Kraus operators, with Choi-matrix machinery.

A channel here is always a completely positive trace-preserving map on a
d-dimensional system, carried as one read-only ``(k, d, d)`` array of Kraus
operators ``{K_i}`` with ``sum_i K_i^dag K_i = 1``.  The Choi matrix lives on
the input (x) output index space with the input factor on the slow index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    CONSTANT_CUTOFF,
    DEFAULT_TOL,
    SIGMA_X,
    SIGMA_Z,
    _checked_spectrum,
    _overflows,
    as_matrix,
    is_isometry,
    validate_density_matrix,
)

STANDARD_KINDS = (
    "identity",
    "depolarising",
    "partial_depolarising",
    "phase_flip",
    "bit_flip",
    "unitary",
    "constant",
)


@dataclass(frozen=True, eq=False)
class Channel:
    """A CPTP map given by a non-empty stack of equal-size Kraus operators.

    ``kraus`` may be passed as any sequence of d x d matrices or as a
    ``(k, d, d)`` array; it is stored as a read-only complex ``(k, d, d)``
    array, so ``len``, iteration and ``kraus[i]`` address single operators.
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


def apply(ch: Channel, rho, *, validate: bool = True) -> np.ndarray:
    """Send a state through the channel: rho -> sum_i K_i rho K_i^dag.

    ``rho`` is one matrix ``(d, d)`` or a stack ``(..., d, d)``, mapped
    matrix by matrix in two products.  The first, rho times the side-by-side
    adjoints [K_1^dag ... K_k^dag] (d x kd), makes every rho K_i^dag at once.
    Read as a column of kd rows, its result holds row s of rho K_i^dag at row
    s k + i, so the second product takes it as it is, with the Kraus row
    ordered to match: entry (x, s k + i) is K_i[x, s].  With
    ``validate=False`` the input is used as-is, which extends the map
    linearly to arbitrary matrices (useful when acting on operator blocks).
    """
    rho = np.asarray(rho, dtype=complex)
    k, d, _ = ch.kraus.shape
    if rho.ndim < 2 or rho.shape[-2:] != (d, d):
        raise ValueError(f"state of shape {rho.shape} does not match dimension {d}")
    if validate:
        _checked_spectrum(rho)
    sides = rho @ ch.kraus.reshape(k * d, d).conj().T
    row = ch.kraus.transpose(1, 2, 0).reshape(d, d * k)
    return row @ sides.reshape(rho.shape[:-2] + (d * k, d))


def choi_of(ch: Channel) -> np.ndarray:
    """Choi matrix C = sum_i |K_i>><<K_i| = V V^dag (positive semidefinite,
    d^2 x d^2), with V the d^2 x k matrix of vectorised Kraus operators."""
    k, d, _ = ch.kraus.shape
    v = ch.kraus.transpose(2, 1, 0).reshape(d * d, k)
    return v @ v.conj().T


def remix(ch: Channel, u) -> Channel:
    """Rewrite the Kraus list as K'_i = sum_r u_{ir} K_r.

    ``u`` must have orthonormal columns: a unitary, or a taller rectangular
    isometry to grow the list.  If ``u`` has more columns than there are Kraus
    operators, the list is first padded with zero operators.  The represented
    CPTP map is unchanged.
    """
    u = as_matrix(u)
    if not is_isometry(u):
        raise ValueError("remix matrix must have orthonormal columns")
    n_old = u.shape[1]
    if n_old < len(ch.kraus):
        raise ValueError(
            f"remix matrix has {n_old} columns but the channel has "
            f"{len(ch.kraus)} Kraus operators"
        )
    # Columns past the Kraus count would multiply zero padding operators.
    # K' = u K is one product of u with the k x d^2 matrix of flattened K_r.
    k, d, _ = ch.kraus.shape
    return Channel((u[:, :k] @ ch.kraus.reshape(k, d * d)).reshape(-1, d, d))


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
    phase = np.exp(2j * np.pi * ((b * c) % d) / d)
    return list(np.where(r == (c + a) % d, phase, 0.0).reshape(d * d, d, d))


def _check_mixing_param(p, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return p


def standard_channel(kind: str, d: int = 2, param=None) -> Channel:
    """Build one of the named channel families.

    kind:
        ``identity``; ``depolarising`` (maps everything to 1/d, Kraus
        ``{U_i/d}`` over the Weyl basis); ``partial_depolarising`` with
        ``param=q`` mixing identity (weight q) into the depolarising channel;
        ``phase_flip`` / ``bit_flip`` with ``param=p`` (qubit only);
        ``unitary`` with ``param`` the unitary matrix; ``constant`` with
        ``param`` the fixed output density matrix.
    """
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
    if kind == "unitary":
        u = as_matrix(param)
        if u.shape != (d, d) or not is_isometry(u):
            raise ValueError(f"parameter must be a {d} x {d} unitary matrix")
        return Channel((u,))
    if kind == "constant":
        sigma = validate_density_matrix(as_matrix(param))
        if sigma.shape != (d, d):
            raise ValueError(
                f"constant output of shape {sigma.shape} does not match dimension {d}"
            )
        w, v = np.linalg.eigh(sigma)
        ops = []
        for j in reversed(range(d)):
            if w[j] <= CONSTANT_CUTOFF:
                continue
            for m in range(d):
                k = np.zeros((d, d), dtype=complex)
                k[:, m] = np.sqrt(w[j]) * v[:, j]
                ops.append(k)
        return Channel(tuple(ops))
    raise ValueError(f"unknown channel kind '{kind}'; known kinds: {STANDARD_KINDS}")
