"""Channel implementations and their transformation matrices.

A bare CPTP map does not fix how a channel behaves inside an interferometer:
two dilations of the same map can act differently on the coherences between
the arm that traverses the channel and the arm that does not.  The missing
data is a single d x d "transformation matrix"

    T = sum_i <env|i> K_i,

where |env> is the initial environment state of the dilation and {|i>} the
orthonormal environment states attached to the Kraus operators.  This module
carries (channel, environment) pairs, decides which matrices T a given
channel can produce, and constructs an explicit dilation for any admissible T.

The admissibility criterion is stated on the d^2 x k matrix V whose columns
are the vectorised Kraus operators: T is reachable iff t = |T>> lies in
range(V) and ||V^+ t||^2 <= 1, with V^+ the Moore-Penrose pseudoinverse.
Because the Choi matrix is C = V V^dag, this is the same as the Choi form
|T>> in range(C) and <<T|C^+|T>> <= 1, but a solve on V decides it and
yields the environment amplitudes, and it is conditioned by sqrt(kappa(C))
rather than kappa(C).  There is one SVD per channel, shared by consecutive
solves and by random draws of admissible T, one entry kept: a factorization
held for each channel's lifetime raised the peak RSS of the ``dilation-d8``
benchmark, which keeps many channels alive, by 12 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .channels import Channel, standard_channel
from .linalg import BOUND_TOL, DEFAULT_TOL, RANGE_TOL, _one_plus, as_matrix, readonly

# Kept importable here for bench/test_bench.py::test_tracer_skips_names_that_no_longer_exist.
from .linalg import pseudoinverse  # noqa: F401


@dataclass(frozen=True, eq=False)
class ChannelImplementation:
    """A channel together with the environment amplitudes of one dilation.

    ``env[i]`` is the amplitude <i|env> of the initial environment state on
    the dilation basis state attached to ``channel.kraus[i]``.  The vector may
    be subnormalised: any remaining weight of |env> sits on environment
    directions the dilation never touches.
    """

    channel: Channel
    env: np.ndarray

    def __post_init__(self):
        env = np.asarray(self.env, dtype=complex).reshape(-1)
        if env.size != len(self.channel.kraus):
            raise ValueError(
                f"environment vector of length {env.size} does not match "
                f"{len(self.channel.kraus)} Kraus operators"
            )
        norm_sq = float(np.vdot(env, env).real)
        if norm_sq > 1.0 + BOUND_TOL:
            raise ValueError(
                f"environment vector has squared norm {_one_plus(norm_sq)}, "
                f"above 1 + {BOUND_TOL:.0e}"
            )
        object.__setattr__(self, "env", readonly(env))

    @property
    def dim(self) -> int:
        return self.channel.dim

    @cached_property
    def t(self) -> np.ndarray:
        """Transformation matrix T = sum_i <env|i> K_i, computed on first use
        and kept read-only; note <env|i> is the conjugate of env[i]."""
        t = np.tensordot(self.env.conj(), self.channel.kraus, 1)
        t.setflags(write=False)
        return t


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the membership test, with both diagnostic quantities.

    ``range_residual`` is the relative norm of the part of |T>> outside
    range(V); ``quadratic_form`` is ||V^+ |T>>||^2 = <<T|C^+|T>>.
    """

    admissible: bool
    range_residual: float
    quadratic_form: float


def transformation_matrix(impl: ChannelImplementation) -> np.ndarray:
    """T = sum_i <env|i> K_i, the read-only ``impl.t`` computed once per
    implementation."""
    return impl.t


def _kraus_matrix(ch: Channel) -> np.ndarray:
    """V, the d^2 x k matrix whose columns are the vectorised Kraus operators."""
    return ch.kraus.reshape(len(ch.kraus), -1).T


@lru_cache(maxsize=1)
def _factor(ch: Channel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (U_r^dag, 1/s_r, W_r) of the economy SVD V = U s W^dag, kept
    to the singular values above the cutoff ``lstsq(rcond=None)`` uses,
    eps * max(d^2, k) * s_max, so that V^+ = W_r diag(1/s_r) U_r^dag.

    This is the one factorization of a channel's range: solves here and
    draws in :func:`ctrlchan.sampling.random_admissible_t` both use it.  One
    entry is kept, keyed by the channel object: consecutive draws and solves
    on a channel share it, and a call on another channel replaces it.
    """
    v = _kraus_matrix(ch)
    u, s, wh = np.linalg.svd(v, full_matrices=False)
    keep = s > np.finfo(float).eps * max(v.shape) * s[0]
    factors = (u[:, keep].conj().T, 1.0 / s[keep], wh[keep].conj().T)
    for f in factors:
        f.setflags(write=False)
    return factors


def _solve(ch: Channel, t, range_tol: float, bound_tol: float):
    """Minimum-norm coefficients c = V^+ t, and the admissibility report they
    give.

    V^+ comes from one SVD per channel, shared by consecutive solves, one
    entry kept (see :func:`_factor`; one per channel for its lifetime raised
    peak RSS by 12 %), so a solve is two small products.  The range residual
    ||t - V c|| / ||t|| is computed from V itself, not from the factors.
    """
    t = as_matrix(t)
    if t.shape != (ch.dim, ch.dim):
        raise ValueError(
            f"matrix of shape {t.shape} does not match channel dimension {ch.dim}"
        )
    v = _kraus_matrix(ch)
    tvec = t.reshape(-1)
    tnorm = float(np.linalg.norm(tvec))
    if tnorm == 0.0:
        return AdmissibilityReport(True, 0.0, 0.0), np.zeros(v.shape[1], dtype=complex)
    u_dag, inv_s, w = _factor(ch)
    coeff = w @ (inv_s * (u_dag @ tvec))
    residual = float(np.linalg.norm(tvec - v @ coeff)) / tnorm
    qform = float(np.vdot(coeff, coeff).real)
    ok = residual <= range_tol and qform <= 1.0 + bound_tol
    return AdmissibilityReport(ok, residual, qform), coeff


def admissible(
    ch: Channel,
    t,
    *,
    range_tol: float = RANGE_TOL,
    bound_tol: float = BOUND_TOL,
) -> AdmissibilityReport:
    """Decide whether ``t`` is the transformation matrix of some dilation of ``ch``."""
    return _solve(ch, t, range_tol, bound_tol)[0]


def realize(ch: Channel, t) -> ChannelImplementation:
    """Construct a dilation of ``ch`` whose transformation matrix is ``t``.

    The implementation uses the caller's own Kraus operators, with
    environment amplitudes env = conj(V^+ t), the minimum-norm choice.
    Raises if ``t`` is not admissible at ``RANGE_TOL`` and ``BOUND_TOL``.
    These are fixed, not keywords as in :func:`admissible`: a wider range
    tolerance would return a dilation whose T is only the part of ``t``
    inside range(V), and no environment vector holds a quadratic form above
    1 + ``BOUND_TOL``.
    """
    report, coeff = _solve(ch, t, RANGE_TOL, BOUND_TOL)
    if not report.admissible:
        raise ValueError(
            "matrix is not admissible for this channel "
            f"(range residual {report.range_residual:.3e}, "
            f"quadratic form {_one_plus(report.quadratic_form)}; no dilation "
            f"holds a quadratic form above 1 + {BOUND_TOL:.0e})"
        )
    return ChannelImplementation(ch, coeff.conj())


def standard_implementation(
    kind: str,
    *,
    d: int = 2,
    alpha: complex | None = None,
    beta: complex | None = None,
    p: float | None = None,
    q: float | None = None,
    t=None,
) -> ChannelImplementation:
    """Dilations for the worked channel families.

    kind:
        ``identity``: transformation matrix alpha * 1 with |alpha| <= 1.
        ``depolarising``: target ``t``; ``partial_depolarising``: mixing
        weight ``q`` and target ``t``.  Both are :func:`realize` on
        ``standard_channel(kind, d, q)`` with d the side of ``t``, so they
        accept exactly the T that :func:`admissible` accepts; for
        ``depolarising`` that is Tr[T^dag T] <= 1/d.  The Weyl columns of V
        are orthogonal, so the amplitudes are the overlaps
        <env|i> = Tr[U_i^dag T], divided for ``partial_depolarising`` by the
        square roots of the Kraus weights, (d^2 q + 1 - q) and (1 - q).
        ``phase_flip`` / ``bit_flip``: flip probability ``p`` and amplitudes
        (alpha, beta) on the (identity, Pauli) Kraus pair, giving
        T = alpha sqrt(1-p) 1 + beta sqrt(p) sigma.
    """
    if kind == "identity":
        if alpha is None:
            raise ValueError("identity implementation needs alpha")
        if abs(alpha) > 1.0 + DEFAULT_TOL:
            raise ValueError(f"|alpha| = {_one_plus(abs(alpha))} exceeds 1")
        ch = standard_channel("identity", d)
        return ChannelImplementation(ch, np.array([np.conj(alpha)]))

    if kind in ("depolarising", "partial_depolarising"):
        if t is None or (kind == "partial_depolarising" and q is None):
            needs = "t" if kind == "depolarising" else "q and t"
            raise ValueError(f"{kind} implementation needs {needs}")
        t = as_matrix(t)
        return realize(standard_channel(kind, t.shape[0], q), t)

    if kind in ("phase_flip", "bit_flip"):
        if p is None or alpha is None or beta is None:
            raise ValueError(f"{kind} implementation needs p, alpha and beta")
        weight = abs(alpha) ** 2 + abs(beta) ** 2
        if weight > 1.0 + DEFAULT_TOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {_one_plus(weight)} exceeds 1")
        ch = standard_channel(kind, 2, p)
        return ChannelImplementation(ch, np.array([np.conj(alpha), np.conj(beta)]))

    raise ValueError(f"unknown implementation kind '{kind}'")
