"""Dense complex linear algebra shared by every other module.

Operators are plain numpy arrays of dtype complex128.  Two conventions are
fixed here and relied on everywhere else:

* computational basis ``{|0>, ..., |d-1>}``, 0-indexed;
* tensor products put the first factor on the slowest index, so the first
  factor labels the blocks of the Kronecker product.
"""

from __future__ import annotations

import numpy as np

# Every tolerance of the package, each named once with its reason; cases.py
# states each reproduction case's own.
#
# Matrix comparisons: states, sum K^dag K = 1, isometries, normalisations.
DEFAULT_TOL = 1e-9
# Rounding in t alone moves the least-squares coefficients by about
# eps * kappa(V) relative, so the quadratic form of a T with ||env|| = 1 reads
# 1 + O(eps * kappa(V)): near 1e-11 at kappa(V) ~ 1e5, up to 3e-8 at ~3e7.
# 1e-8 keeps such T admissible up to kappa(V) ~ 1e7; range residuals of
# genuine T stay below 1e-14.  BOUND_TOL is also the allowance on ||env||^2
# in ChannelImplementation, so that realize can build every T that
# admissible accepts.
RANGE_TOL = 1e-8
BOUND_TOL = 1e-8
ENTROPY_CLAMP = 1e-12  # entropy: an eigenvalue in (-ENTROPY_CLAMP, 0) is rounding, set to 0
ORACLE_SKIP = 1e-12  # stinespring_oracle: input eigenvectors of smaller weight are skipped
CONSTANT_CUTOFF = 1e-14  # constant channel: no Kraus operators for smaller eigenvalues
AGREE_TOL = 1e-10  # output_distance: direct and closed-form values must agree
DEGENERACY_TOL = 1e-10  # optimal_input: relative gap within which eigenvalues tie at the top
COLUMN_WEIGHT = 1e-6  # optimal_input: least norm of a projected basis vector to take
DISTANCE_WINDOW = 1e-12  # success_probability: rounding allowed outside [0, 1]
SATURATION_TOL = 1e-10  # distinguish: distance this close to the diamond bound saturates it
PINV_RANK_TOL = 1e-12  # pseudoinverse: eigenvalues this small relative to the top are 0

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of ndim {arr.ndim}")
    return arr


def readonly(m) -> np.ndarray:
    """Copy to a complex array and mark it immutable."""
    arr = np.array(m, dtype=complex)
    arr.setflags(write=False)
    return arr


def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis vector |index> in dimension ``dim``."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def projector(vec) -> np.ndarray:
    """Rank-1 projector |v><v| for a state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def maximally_entangled(d: int) -> np.ndarray:
    """Density matrix of |Phi> = sum_i |i> (x) |i> / sqrt(d) on d x d."""
    return projector(np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d))


def dagger(m) -> np.ndarray:
    return as_matrix(m).conj().T


def tensor(a, b) -> np.ndarray:
    """Kronecker product; the first factor indexes the blocks."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m, dim_first: int, dim_second: int, keep: str = "first") -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``m`` must be square with side ``dim_first * dim_second``; ``keep``
    selects which factor survives.
    """
    m = as_matrix(m)
    n = dim_first * dim_second
    if m.shape != (n, n):
        raise ValueError(
            f"matrix of shape {m.shape} does not match dimensions "
            f"{dim_first} x {dim_second}"
        )
    blocks = m.reshape(dim_first, dim_second, dim_first, dim_second)
    if keep == "first":
        return np.einsum("abcb->ac", blocks)
    if keep == "second":
        return np.einsum("abad->bd", blocks)
    raise ValueError("keep must be 'first' or 'second'")


def choi_vec(t) -> np.ndarray:
    """Vectorize an operator as sum_m |m> (x) T|m>, input index slowest."""
    return as_matrix(t).T.flatten()


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_isometry(u) -> bool:
    """True when the columns of ``u`` are orthonormal within ``DEFAULT_TOL``."""
    u = as_matrix(u)
    if u.shape[0] < u.shape[1]:
        return False
    gram = u.conj().T @ u
    return bool(np.max(np.abs(gram - np.eye(u.shape[1]))) <= DEFAULT_TOL)


def pseudoinverse(m, rank_tol: float = PINV_RANK_TOL, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a Hermitian positive semidefinite matrix.

    Eigenvalues at or below ``rank_tol`` times the largest eigenvalue are
    treated as zero; a negative eigenvalue beyond ``tol`` is an error.
    """
    m = as_matrix(m)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    wmax = float(w[-1]) if w.size else 0.0
    if w.size and float(w[0]) < -tol * max(wmax, 1.0):
        raise ValueError(f"matrix has a negative eigenvalue {w[0]:.3e}")
    cutoff = rank_tol * max(wmax, 0.0)
    keep = w > cutoff
    if not np.any(keep):
        return np.zeros_like(m)
    vk = v[:, keep]
    return (vk / w[keep]) @ vk.conj().T


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.norm(as_matrix(m), "nuc"))


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(as_matrix(m), 2))


def hs_norm(m) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(as_matrix(m)))


def _one_plus(x) -> str:
    """``x`` written as 1 plus its deviation, ``1 + 4.000e-09``, so that a
    deviation far below the printed precision of ``x`` itself still shows."""
    x = complex(x)
    dev = x.real - 1.0
    text = f"1 {'-' if dev < 0.0 else '+'} {abs(dev):.3e}"
    if x.imag:
        text += f" {'-' if x.imag < 0.0 else '+'} {abs(x.imag):.3e}j"
    return text


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the coerced array."""
    rho = as_matrix(rho)
    _checked_spectrum(rho)
    return rho


def _checked_spectrum(rho) -> np.ndarray:
    """Ascending eigenvalues of a density matrix or of each matrix in a stack
    ``(..., n, n)``, from one ``eigvalsh`` over the whole input.

    Every matrix is checked first to be square, Hermitian and of unit trace
    within ``DEFAULT_TOL``, and then to have no eigenvalue below
    ``-DEFAULT_TOL``; an error quotes the value of the first matrix that
    fails.  Each check is one reduction over the whole stack, so a single
    matrix costs no more than a matrix-only check would.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2:
        raise ValueError(f"expected a matrix, got an array of ndim {rho.ndim}")
    if rho.shape[-2] != rho.shape[-1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.abs(rho - rho.swapaxes(-2, -1).conj()).max(initial=0.0) <= DEFAULT_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho, axis1=-2, axis2=-1)
    dev = abs(tr - 1.0)
    if dev.max(initial=0.0) > DEFAULT_TOL:
        bad = np.extract(dev > DEFAULT_TOL, tr)[0]
        raise ValueError(f"density matrix has trace {_one_plus(bad)}, expected 1")
    w = np.linalg.eigvalsh(rho)
    w0 = w[..., 0]
    if w0.min(initial=0.0) < -DEFAULT_TOL:
        low = np.extract(w0 < -DEFAULT_TOL, w0)[0]
        raise ValueError(f"density matrix has a negative eigenvalue {low:.3e}")
    return w
