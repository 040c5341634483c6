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
from numpy.linalg._umath_linalg import (
    cholesky_lo as _cholesky_lo,
    eigh_lo as _eigh_lo,
    eigvalsh_lo as _eigvalsh_lo,
    inv as _inv_kernel,
    solve1 as _solve1,
)

# Every tolerance of the package, each named once with its reason; cases.py
# states each reproduction case's own.
#
# Matrix comparisons: states, sum K^dag K = 1, isometries, normalisations.
# A state check shifts rho by DEFAULT_TOL / 2 before its Cholesky: the shift
# must stay below DEFAULT_TOL, so that success proves lambda_min > -DEFAULT_TOL,
# and far above the rounding of the factorization (a few n * eps), so that a
# singular state, such as a pure one, factors without a spectrum.  It and the
# Gram certificate below share one success rule, _cholesky_succeeds.
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
# implementations._factor is the one factorization of the Kraus matrix V
# (d^2 x k) behind admissible, realize and the random draws, on one of two
# routes chosen by V alone.  Gram route: for k <= d^2, when a Cholesky of
# G - GRAM_FLOOR tr(G) 1, G = V^dag V, succeeds, the channel holds G after its
# first solve, which takes c by two LU solves with G, and G^-1 from its
# second, which inverts G once, or from a random draw, which inverts it at
# once; either is k x k, no larger than its Kraus stack, and V^dag t is
# formed from the stack.
# s_max^2 <= tr G, which is d for a channel (sum K^dag K = 1).  Success proves
# lambda_min(G) above GRAM_FLOOR tr(G) less the rounding of the Gram product
# and the Cholesky, a few k eps tr(G), five decades under it: so
# kappa(V)^2 < 1 / GRAM_FLOOR, kappa(V) < 1e4, and V has full column rank far
# inside the lstsq cutoff.  G^-1 V^dag t alone, by the solve or by the
# inverse, errs by about eps kappa(V)^2 relative; one refinement step from
# the residual on V takes that to about eps kappa(V).  SVD route: every
# other V (k > d^2, dependent Kraus sets, tiny Kraus weights) takes its
# economy SVD, kept to the singular values above the lstsq cutoff
# eps * max(d^2, k) * s_max.
GRAM_FLOOR = 1e-8
# channels.remix takes K'_i = sum_r u_ir K_r as trace-preserving, without
# forming sum K'^dag K', when
#     delta + k mu (1 + delta) + REMIX_ROUNDING (k + d) n eps <= DEFAULT_TOL,
# for k source operators on d dimensions, n rows of u, mu = max |u^dag u - 1|,
# delta the source's max |sum K^dag K - 1| and eps = 2.2e-16.  With
# P = u_k^dag u_k over the first k columns of u, sum K'^dag K' - 1 =
# (sum K^dag K - 1) + sum_rs (P - 1)_rs K_r^dag K_s.  Entry (a, b) of the last
# sum is sum_c x_ca^dag (P - 1) x_cb, with x_ca the vector of K_r[c, a] over r;
# by Cauchy-Schwarz it is at most ||P - 1||_2 times the square roots of
# (sum K^dag K)_aa and (sum K^dag K)_bb, so at most k mu (1 + delta).  Rounding,
# in units of eps, adds k n to k mu (the n-term sums of the Gram matrix), at
# most 2 k^3/2 <= 2 k n from the product u K, and k d and n d from the two
# Kraus checks: that of the source, behind delta, and the one the bound stands
# in for.  3 (k + d) n covers the sum, and REMIX_ROUNDING = 8 leaves a factor
# above 2 for the second-order terms; the margin is 1.2e-10 at d = 16,
# k = 256.  The bound is recorded as the new channel's delta, so a chain of
# remixes stays certified until its bounds add up to DEFAULT_TOL.
REMIX_ROUNDING = 8.0
ENTROPY_CLAMP = 1e-12  # entropy: an eigenvalue in (-ENTROPY_CLAMP, 0) is rounding, set to 0
# info.switch_holevo_qubit_gridsearch ranks its grid on the closed-form
# spectra of the two control-parity 2x2 sectors of each output and of each
# average p out0 + (1 - p) outk, and refuses the outputs unless the block
# between the sectors has Frobenius norm at most PARITY_RESIDUE in each: the
# block is linear in the matrix, so in every average it is at most that plus
# rounding, and by Weyl the sector spectra lie that close to the exact ones.
# The closed form, taken from sector numbers averaged like the matrices, and
# eigvalsh each round an eigenvalue of a trace-1 4x4 by a few eps, well under
# PARITY_RESIDUE, so the two differ by at most 2 PARITY_RESIDUE.  As
# |eta(x) - eta(y)| <= eta(|x - y|) for eta(x) = -x log2 x, four eigenvalues
# move an entropy by at most 4 eta(1e-14) < 1.9e-12.  A ranked value
# S(avg) - p S(out0) - (1 - p) S(outk) takes three such entropies with weights
# summing to 2, so it differs from its value on eigvalsh's spectra by at most
# 3.8e-12 plus rounding, and every maximum of those values lies within twice
# that, under LEADER_WINDOW, of the ranked maximum.
PARITY_RESIDUE = 5e-15
LEADER_WINDOW = 1e-11
# An entry of p a + (1 - p) b, for entries a and b of two states (so at most 1
# in modulus), is rounded by at most eps relative to p |a| + (1 - p) |b|, and
# np.trace adds three roundings of a sum near 1: an average's Hermitian
# deviation and trace error exceed the larger of its two outputs' by a few
# eps.  So outputs within DEFAULT_TOL - AVERAGE_ROUNDING give averages within
# DEFAULT_TOL, and the grid search checks the outputs' rules only.
AVERAGE_ROUNDING = 1e-14
ORACLE_SKIP = 1e-12  # stinespring_oracle: input eigenvectors of smaller weight are skipped
AGREE_TOL = 1e-10  # output_distance: direct and closed-form values must agree
DEGENERACY_TOL = 1e-10  # optimal_input: relative gap within which eigenvalues tie at the top
COLUMN_WEIGHT = 1e-6  # optimal_input: least norm of a projected basis vector to take
DISTANCE_WINDOW = 1e-12  # success_probability: rounding allowed outside [0, 1]
SATURATION_TOL = 1e-10  # distinguish: distance this close to the diamond bound saturates it

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


def _isometry_deviation(u: np.ndarray, name: str) -> float:
    """max |u^dag u - 1| of a complex matrix ``u``, whose columns are
    orthonormal within ``DEFAULT_TOL`` when it is at most that; inf when
    ``u`` has more columns than rows.  The Gram matrix has 1 taken off its
    diagonal in place, and is formed quietly: when it comes out non-finite,
    ``u`` is refused under ``name`` by its first non-finite entry, or else
    as an overflow."""
    if u.shape[0] < u.shape[1]:
        return np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        gram = u.conj().T @ u
        gram.reshape(-1)[:: gram.shape[0] + 1] -= 1.0
        dev = float(np.max(np.abs(gram)))
    if not np.isfinite(dev):
        _overflows(u, name, "a Gram matrix u^dag u")
    return dev


# Every LAPACK decomposition of the package but the SVD goes through one of
# the entry points below, or through _cholesky_succeeds, which calls
# cholesky_lo under its caller's errstate.  Each entry point calls the
# numpy.linalg._umath_linalg kernel that its numpy.linalg function calls on
# complex input, with the same signature and under the same errstate, so its
# results and its LinAlgError are bitwise numpy's; it skips the wrapper's
# type resolution, shape asserts and result cast, a few microseconds per
# call at these sides.  Each takes complex128 operands of the shapes the
# numpy function accepts (one matrix, or a stack for the eigen-solvers),
# which every caller has already checked.  The SVD stays on np.linalg.svd:
# its values-only kernel changed names between numpy 1.x and 2.


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _no_convergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _lapack(kernel, signature: str, failure, *operands):
    with np.errstate(call=failure, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return kernel(*operands, signature=signature)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a Hermitian matrix or
    stack, from its lower triangle: bitwise ``np.linalg.eigh(a)``."""
    return _lapack(_eigh_lo, "D->dD", _no_convergence, a)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or stack, from its lower
    triangle: bitwise ``np.linalg.eigvalsh(a)``."""
    return _lapack(_eigvalsh_lo, "D->d", _no_convergence, a)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, for a square ``a`` and a vector ``b``, by LU:
    bitwise ``np.linalg.solve(a, b)``."""
    return _lapack(_solve1, "DD->D", _singular, a, b)


def _inv(a: np.ndarray) -> np.ndarray:
    """The inverse of a square ``a``, by LU: bitwise ``np.linalg.inv(a)``."""
    return _lapack(_inv_kernel, "D->D", _singular, a)


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

    The verdict and every message are those of :func:`_checked_spectrum`,
    but a valid state is accepted without the stack rules and without an
    eigendecomposition.  A square matrix of nonzero side has its Hermitian
    deviation and trace, summed from the diagonal of its shifted copy,
    compared as :func:`_density_rules` compares them; any other matrix, and
    one that fails a rule, takes the reference check, whose rules refuse it.

    A matrix that passes both is factored under the same ``errstate``: a
    Cholesky factor of ``rho + (DEFAULT_TOL / 2) 1`` exists only if no
    eigenvalue lies at or below ``-DEFAULT_TOL / 2``, up to rounding far
    below it, so success (:func:`_cholesky_succeeds`) accepts what the
    spectrum would.  Only failure takes the spectrum, to refuse with its
    lowest eigenvalue or accept one in ``[-DEFAULT_TOL, -DEFAULT_TOL / 2]``.
    The Cholesky reads the lower triangle, as ``eigvalsh`` does.
    """
    rho = as_matrix(rho)
    n = rho.shape[0]
    fits = False
    if n and rho.shape == (n, n):
        # the shift added in place on the diagonal of a copy; unlike rho + shift * 1
        # it keeps each -0.0 off the diagonal, a sign no pivot depends on
        shifted = rho.copy()
        diag = shifted.reshape(-1)[:: n + 1]
        with np.errstate(invalid="ignore", over="ignore"):
            herm = np.abs(rho - rho.T.conj()).max()
            tr = diag.sum()
            diag += DEFAULT_TOL / 2
            fits = herm <= DEFAULT_TOL and abs(tr - 1.0) <= DEFAULT_TOL
            factors = fits and _cholesky_succeeds(shifted)
    if not fits:
        _checked_spectrum(rho)
    elif not factors:
        _refuse_negative(_eigvalsh(rho))
    return rho


def _cholesky_succeeds(m: np.ndarray) -> bool:
    """True when ``np.linalg.cholesky`` would factor the square ``m`` with
    a finite last pivot, decided by the LAPACK kernel that it calls.

    Call it under ``np.errstate(invalid="ignore", over="ignore")``: a failed
    factorization then returns NaNs, and entries whose squares overflow give
    a NaN pivot without failing; a NaN pivot makes every later one NaN, so a
    finite last pivot is the one success rule.
    """
    return cmath.isfinite(_cholesky_lo(m, signature="D->D")[-1, -1])


def _checked_spectrum(rho) -> np.ndarray:
    """Ascending eigenvalues of a density matrix or of each matrix in a stack
    ``(..., n, n)``, from one ``eigvalsh`` over the whole input.

    Every matrix is checked first by :func:`_density_rules` and then by
    :func:`_refuse_negative`.  This is the reference check: the one-matrix
    :func:`validate_density_matrix` gives its verdicts and messages.
    """
    rho = _density_rules(rho)
    w = _eigvalsh(rho)
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
