"""Seeded random generators for states, isometries, channels, environment
vectors and admissible interference matrices.

Used by the property-test suites and by the randomised reproduction cases of
the CLI; every function takes an explicit ``numpy.random.Generator``.
Admissible matrices are drawn by the solve that ``admissible`` and
``realize`` make, so a draw and the solves after it on one channel share one
factorization of its Kraus matrix.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel
from .implementations import ChannelImplementation, _solve


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


def random_env(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random environment amplitude vector with <e|e> <= 1: a uniformly
    random direction, with the squared norm drawn uniformly from [0, 1)."""
    v = _complex_gaussian(n, rng)
    v /= np.linalg.norm(v)
    return v * float(np.sqrt(rng.uniform(0.0, 1.0)))


def random_implementation(d: int, kraus_count: int, rng: np.random.Generator) -> ChannelImplementation:
    """:func:`random_channel` with a :func:`random_env` of uniform squared norm."""
    ch = random_channel(d, kraus_count, rng)
    return ChannelImplementation(ch, random_env(kraus_count, rng))


def random_admissible_t(ch: Channel, rng: np.random.Generator) -> np.ndarray:
    """Random interference matrix satisfying the dilation constraint.

    Draws a d x d complex Gaussian g, takes the minimum-norm coefficients
    c = V^+ g on the Kraus matrix V by the solve of
    :func:`~ctrlchan.implementations.admissible`, scales them so that the
    quadratic form ||c||^2 lands uniformly in [0, 1), and returns
    T = sum_i c_i K_i, that is V c unvectorised.  V c is the projection of g
    onto range(V), so the direction of T is isotropic on range(V), on either
    route of the solve.  A draw consumes d^2 complex normals and one uniform.
    """
    d = ch.dim
    coeff = _solve(ch, _complex_gaussian((d, d), rng))[1]
    coeff *= np.sqrt(rng.uniform(0.0, 1.0) / float(np.vdot(coeff, coeff).real))
    return np.tensordot(coeff, ch.kraus, axes=1)


def random_depolarising_t(
    d: int, rng: np.random.Generator, hs_norm_sq: float | None = None
) -> np.ndarray:
    """Random matrix with Tr[T^dag T] = hs_norm_sq (default uniform in (0, 1/d])."""
    g = _complex_gaussian((d, d), rng)
    g /= np.linalg.norm(g)
    if hs_norm_sq is None:
        hs_norm_sq = rng.uniform(0.0, 1.0 / d)
    return g * np.sqrt(hs_norm_sq)
