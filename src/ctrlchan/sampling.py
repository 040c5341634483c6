"""Seeded random generators for states, isometries, channels, environment
vectors and admissible interference matrices.

Used by the property-test suites and by the randomised reproduction cases of
the CLI; every function takes an explicit ``numpy.random.Generator``.
Admissible matrices are drawn on the factorization of the Kraus matrix that
``admissible`` and ``realize`` solve against (a QR when it provably has full
column rank, an SVD otherwise), so a draw and the solves that follow it on
one channel share one factorization.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel
from .implementations import ChannelImplementation, _factor


def _complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed isometry with orthonormal columns (rows >= cols)."""
    if rows < cols:
        raise ValueError(f"need rows >= cols, got {rows} x {cols}")
    g = _complex_gaussian((rows, cols), rng)
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    phases = np.where(np.abs(diag) > 0, diag / np.abs(diag), 1.0)
    return q * phases.conj()


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = _complex_gaussian(d, rng)
    return v / np.linalg.norm(v)


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank mixed state, G G^dag / Tr[G G^dag] for a d x d complex
    Gaussian G (the Hilbert-Schmidt measure)."""
    g = _complex_gaussian((d, d), rng)
    m = g @ g.conj().T
    return m / np.trace(m)


def random_channel(d: int, kraus_count: int, rng: np.random.Generator) -> Channel:
    """Uniform CPTP map: a Haar isometry d -> d*k sliced into k Kraus blocks."""
    v = haar_isometry(d * kraus_count, d, rng)
    return Channel(v.reshape(kraus_count, d, d))


def random_env(n: int, rng: np.random.Generator, norm: float | None = None) -> np.ndarray:
    """Random environment amplitude vector with <e|e> <= 1.

    ``norm`` pins the vector norm exactly; by default the squared norm is
    drawn uniformly from [0, 1).
    """
    v = _complex_gaussian(n, rng)
    v /= np.linalg.norm(v)
    if norm is None:
        norm = float(np.sqrt(rng.uniform(0.0, 1.0)))
    if not 0.0 <= norm <= 1.0:
        raise ValueError(f"norm must lie in [0, 1], got {norm}")
    return v * norm


def random_implementation(d: int, kraus_count: int, rng: np.random.Generator) -> ChannelImplementation:
    """:func:`random_channel` with a :func:`random_env` of uniform squared norm."""
    ch = random_channel(d, kraus_count, rng)
    return ChannelImplementation(ch, random_env(kraus_count, rng))


def random_admissible_t(ch: Channel, rng: np.random.Generator) -> np.ndarray:
    """Random interference matrix satisfying the dilation constraint.

    Draws Gaussian coefficients c on an orthonormal basis B of range(V), V
    the Kraus matrix, scales them so that the quadratic form
    ||V^+ |T>>||^2 = ||M c||^2 lands uniformly in [0, 1), and returns B c
    unvectorised row by row, as the columns of V are.  (B^dag, M) is the
    factorization :func:`~ctrlchan.implementations.admissible` and
    :func:`~ctrlchan.implementations.realize` solve against, V^+ = M B^dag:
    (Q, R^-1) of a QR when V provably has full column rank, (U_r,
    W_r diag(1/s_r)) of the SVD otherwise.  So draws and solves on one
    channel share it and agree on its range.  An isotropic complex Gaussian
    on range(V) does not depend on the basis, so the draws have one
    distribution on either route.
    """
    basis_dag, m = _factor(ch)
    coeff = _complex_gaussian(basis_dag.shape[0], rng)
    qform = float(np.sum(np.abs(m @ coeff) ** 2))
    target = rng.uniform(0.0, 1.0)
    coeff *= np.sqrt(target / qform)
    return (basis_dag.conj().T @ coeff).reshape(ch.dim, ch.dim)


def random_depolarising_t(
    d: int, rng: np.random.Generator, hs_norm_sq: float | None = None
) -> np.ndarray:
    """Random matrix with Tr[T^dag T] = hs_norm_sq (default uniform in (0, 1/d])."""
    g = _complex_gaussian((d, d), rng)
    g /= np.linalg.norm(g)
    if hs_norm_sq is None:
        hs_norm_sq = rng.uniform(0.0, 1.0 / d)
    return g * np.sqrt(hs_norm_sq)
