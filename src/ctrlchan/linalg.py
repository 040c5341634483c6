"""Dense complex linear algebra shared by every other module.

Operators are plain numpy arrays of dtype complex128.  Two conventions are
fixed here and relied on everywhere else:

* computational basis ``{|0>, ..., |d-1>}``, 0-indexed;
* tensor products put the first factor on the slowest index, so the first
  factor labels the blocks of the Kronecker product.
"""

from __future__ import annotations

import cmath

import numpy as np

# Every tolerance of the package, each named once with its reason; cases.py
# states each reproduction case's own.
#
# Matrix comparisons: states, sum K^dag K = 1, isometries, normalisations.
# A state check shifts rho by DEFAULT_TOL / 2 before its Cholesky: the shift
# must stay below DEFAULT_TOL, so that success proves lambda_min > -DEFAULT_TOL,
# and far above the rounding of the factorization (a few n * eps), so that a
# singular state, such as a pure one, factors without a spectrum.
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
# implementations._factor keeps every singular value of V above the lstsq
# cutoff eps * max(d^2, k) * s_max.  It factors V by QR instead only when
# ||R||_F ||R^-1||_F, an upper bound on kappa(V), is QR_MARGIN times below
# 1 / cutoff: the computed R and the computed singular values each move by a
# few eps * s_max, a fraction of the cutoff well under 1 - 1 / QR_MARGIN, so
# no singular value an SVD would keep can lie at the cutoff.
QR_MARGIN = 10.0
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


def is_hermitian(m) -> bool:
    """True when ``m`` is square and equals its adjoint within ``DEFAULT_TOL``."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - m.conj().T)) <= DEFAULT_TOL)


def is_isometry(u) -> bool:
    """True when the columns of ``u`` are orthonormal within ``DEFAULT_TOL``."""
    u = as_matrix(u)
    if u.shape[0] < u.shape[1]:
        return False
    gram = u.conj().T @ u
    return bool(np.max(np.abs(gram - np.eye(u.shape[1]))) <= DEFAULT_TOL)


def pseudoinverse(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a Hermitian positive semidefinite matrix.

    Eigenvalues at or below ``PINV_RANK_TOL`` times the largest eigenvalue
    are treated as zero; a negative eigenvalue beyond ``DEFAULT_TOL`` is an
    error.
    """
    m = as_matrix(m)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    wmax = float(w[-1]) if w.size else 0.0
    if w.size and float(w[0]) < -DEFAULT_TOL * max(wmax, 1.0):
        raise ValueError(f"matrix has a negative eigenvalue {w[0]:.3e}")
    cutoff = PINV_RANK_TOL * max(wmax, 0.0)
    keep = w > cutoff
    if not np.any(keep):
        return np.zeros_like(m)
    vk = v[:, keep]
    return (vk / w[keep]) @ vk.conj().T


def trace_norm(m) -> float:
    """Sum of singular values, bitwise ``np.linalg.norm(m, "nuc")`` without
    its axis handling around the same SVD."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False).sum())


def spectral_norm(m) -> float:
    """Largest singular value, bitwise ``np.linalg.norm(m, 2)``."""
    return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])


def _finite(arr: np.ndarray, name: str) -> None:
    """Refuse a NaN or infinite entry, naming the field and the index of the
    first one.  Callers scan only once a norm or deviation they compute
    anyway has come out non-finite or out of bounds, which every such entry
    forces."""
    bad = ~np.isfinite(arr)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{name} has a non-finite entry {arr[idx]} at index {idx}")


def _overflows(arr: np.ndarray, name: str, what: str) -> None:
    """Refuse ``arr`` whose ``what``, computed from it, came out non-finite:
    by its first non-finite entry, or else as an overflow of finite entries."""
    _finite(arr, name)
    raise ValueError(f"{name} has {what} that overflows, though every entry is finite")


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
    """Check Hermiticity, unit trace and positivity; return the coerced array.

    The verdict and every message are those of :func:`_checked_spectrum`, but
    a valid state is accepted by :func:`_check_density` without the stack
    rules and without an eigendecomposition.
    """
    rho = as_matrix(rho)
    _check_density(rho)
    return rho


def _check_density(rho: np.ndarray) -> None:
    """Refuse one complex matrix that is not a density matrix, as
    :func:`_checked_spectrum` would, without its spectrum when it is one.

    A square matrix of nonzero side has its Hermitian deviation and trace
    compared here as :func:`_density_rules` compares them; only a matrix
    that fails a rule, or is not such a matrix, goes through those rules,
    which refuse it by name.  So a valid state is accepted without them.

    A Cholesky factor of ``rho + (DEFAULT_TOL / 2) 1`` exists only if no
    eigenvalue lies at or below ``-DEFAULT_TOL / 2``, up to rounding far
    below ``DEFAULT_TOL / 2``, so success accepts what the spectrum would.
    Only when it fails is the spectrum taken, to refuse with its lowest
    eigenvalue or to accept one in ``[-DEFAULT_TOL, -DEFAULT_TOL / 2]``.
    The Cholesky reads the lower triangle, as ``eigvalsh`` does, so both
    judge the same matrix.  Entries that overflow when squared give a NaN
    pivot without a failure, and a NaN pivot makes every later one NaN, so
    a factor counts as success only with a finite last pivot.
    """
    n = rho.shape[0]
    fits = False
    if n and rho.shape == (n, n):
        with np.errstate(invalid="ignore", over="ignore"):
            herm = np.abs(rho - rho.T.conj()).max()
            tr = rho.trace()
        fits = herm <= DEFAULT_TOL and abs(tr - 1.0) <= DEFAULT_TOL
    if fits:
        # the shift added in place on the diagonal of a copy; unlike rho + shift * 1
        # it keeps each -0.0 off the diagonal, a sign no pivot depends on
        shifted = rho.copy()
        shifted.reshape(-1)[:: n + 1] += DEFAULT_TOL / 2
    else:
        rho = _density_rules(rho)
        shifted = rho + (DEFAULT_TOL / 2) * np.eye(rho.shape[-1])
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        factor = None
    if factor is None or not cmath.isfinite(factor[-1, -1]):
        _refuse_negative(np.linalg.eigvalsh(rho))


def _checked_spectrum(rho) -> np.ndarray:
    """Ascending eigenvalues of a density matrix or of each matrix in a stack
    ``(..., n, n)``, from one ``eigvalsh`` over the whole input.

    Every matrix is checked first by :func:`_density_rules` and then by
    :func:`_refuse_negative`.  This is the reference check: the one-matrix
    :func:`_check_density` gives its verdicts and messages.
    """
    rho = _density_rules(rho)
    w = np.linalg.eigvalsh(rho)
    _refuse_negative(w)
    return w


def _density_rules(rho) -> np.ndarray:
    """Refuse a matrix, or a stack ``(..., n, n)`` holding one, that is not
    square, Hermitian and of unit trace within ``DEFAULT_TOL``; return the
    input as a complex array.  An error quotes the value of the first matrix
    that fails.  Each rule is one reduction over the whole stack, so a single
    matrix costs no more than a matrix-only check would.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2:
        raise ValueError(f"expected a matrix, got an array of ndim {rho.ndim}")
    if rho.shape[-2] != rho.shape[-1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    # A NaN or infinite entry makes the Hermitian deviation NaN or inf (inf - inf
    # on a mirrored pair, quietly); only then is the input scanned, to name it.
    # A finite matrix whose trace overflows reads trace 1 + inf, quietly too.
    with np.errstate(invalid="ignore", over="ignore"):
        herm = np.abs(rho - rho.swapaxes(-2, -1).conj()).max(initial=0.0)
        tr = np.trace(rho, axis1=-2, axis2=-1)
    if not herm <= DEFAULT_TOL:
        _finite(rho, "density matrix")
        raise ValueError("density matrix is not Hermitian within tolerance")
    dev = abs(tr - 1.0)
    if dev.max(initial=0.0) > DEFAULT_TOL:
        bad = np.extract(dev > DEFAULT_TOL, tr)[0]
        raise ValueError(f"density matrix has trace {_one_plus(bad)}, expected 1")
    return rho


def _refuse_negative(w: np.ndarray) -> None:
    """Refuse ascending spectra ``(..., n)`` whose lowest eigenvalue lies
    below ``-DEFAULT_TOL``, quoting the first such value."""
    w0 = w[..., 0]
    if w0.min(initial=0.0) < -DEFAULT_TOL:
        low = np.extract(w0 < -DEFAULT_TOL, w0)[0]
        raise ValueError(f"density matrix has a negative eigenvalue {low:.3e}")
