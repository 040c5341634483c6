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

The admissibility criterion is stated on the Choi matrix C of the channel:
T is reachable iff |T>> lies in range(C) and <<T|C^+|T>> <= 1, with C^+ the
Moore-Penrose pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel, choi_of, standard_channel, weyl_basis
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    choi_vec,
    hermitian_eig,
    pseudoinverse,
    readonly,
    unvec,
)

# The pseudoinverse amplifies noise near rank boundaries, so membership
# checks run at a looser tolerance than plain matrix comparisons.
RANGE_TOL = 1e-8
BOUND_TOL = 1e-8
RANK_TOL = 1e-12


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
        norm_sq = float(np.sum(np.abs(env) ** 2))
        if norm_sq > 1.0 + DEFAULT_TOL:
            raise ValueError(
                f"environment vector has squared norm {norm_sq:.6g} > 1"
            )
        object.__setattr__(self, "env", readonly(env))

    @property
    def dim(self) -> int:
        return self.channel.dim


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the membership test, with both diagnostic quantities.

    ``range_residual`` is the relative norm of the part of |T>> outside
    range(C); ``quadratic_form`` is <<T|C^+|T>>.
    """

    admissible: bool
    range_residual: float
    quadratic_form: float


def transformation_matrix(impl: ChannelImplementation) -> np.ndarray:
    """T = sum_i <env|i> K_i; note <env|i> is the conjugate of env[i]."""
    return np.tensordot(impl.env.conj(), impl.channel.kraus, 1)


def admissible(
    ch: Channel,
    t,
    *,
    range_tol: float = RANGE_TOL,
    bound_tol: float = BOUND_TOL,
    rank_tol: float = RANK_TOL,
) -> AdmissibilityReport:
    """Decide whether ``t`` is the transformation matrix of some dilation of ``ch``."""
    t = as_matrix(t)
    if t.shape != (ch.dim, ch.dim):
        raise ValueError(
            f"matrix of shape {t.shape} does not match channel dimension {ch.dim}"
        )
    c = choi_of(ch)
    c_pinv = pseudoinverse(c, rank_tol=rank_tol)
    tvec = choi_vec(t)
    tnorm = float(np.linalg.norm(tvec))
    if tnorm == 0.0:
        return AdmissibilityReport(True, 0.0, 0.0)
    projected = c @ (c_pinv @ tvec)
    residual = float(np.linalg.norm(tvec - projected)) / tnorm
    qform = float(np.real(tvec.conj() @ (c_pinv @ tvec)))
    ok = residual <= range_tol and qform <= 1.0 + bound_tol
    return AdmissibilityReport(ok, residual, qform)


def realize(
    ch: Channel,
    t,
    *,
    range_tol: float = RANGE_TOL,
    bound_tol: float = BOUND_TOL,
    rank_tol: float = RANK_TOL,
) -> ChannelImplementation:
    """Construct a dilation of ``ch`` whose transformation matrix is ``t``.

    The implementation is built over the canonical Kraus operators (Choi
    eigenvectors) with environment amplitudes read off from the overlaps of
    |T>> with those eigenvectors.  Raises if ``t`` is not admissible.
    """
    t = as_matrix(t)
    report = admissible(ch, t, range_tol=range_tol, bound_tol=bound_tol, rank_tol=rank_tol)
    if not report.admissible:
        raise ValueError(
            "matrix is not admissible for this channel "
            f"(range residual {report.range_residual:.3e}, "
            f"quadratic form {report.quadratic_form:.6f})"
        )
    c = choi_of(ch)
    w, v = hermitian_eig(c)
    cutoff = rank_tol * max(float(w[0]), 0.0)
    tvec = choi_vec(t)
    d = ch.dim
    kraus = []
    env = []
    for k in range(w.size):
        lam = float(w[k])
        if lam <= cutoff:
            continue
        vec = v[:, k]
        kraus.append(unvec(np.sqrt(lam) * vec, d, d))
        overlap = complex(vec.conj() @ tvec) / np.sqrt(lam)
        env.append(np.conj(overlap))
    return ChannelImplementation(Channel(tuple(kraus)), np.asarray(env))


def standard_implementation(
    kind: str,
    *,
    d: int = 2,
    alpha: complex | None = None,
    beta: complex | None = None,
    p: float | None = None,
    q: float | None = None,
    t=None,
    tol: float = DEFAULT_TOL,
) -> ChannelImplementation:
    """Closed-form dilations for the worked channel families.

    kind:
        ``identity``: transformation matrix alpha * 1 with |alpha| <= 1.
        ``depolarising``: any target ``t`` with Tr[T^dag T] <= 1/d, realised
        over the Weyl Kraus set with amplitudes <env|i> = Tr[U_i^dag T].
        ``partial_depolarising``: mixing weight ``q`` and target ``t``.
        ``phase_flip`` / ``bit_flip``: flip probability ``p`` and amplitudes
        (alpha, beta) on the (identity, Pauli) Kraus pair, giving
        T = alpha sqrt(1-p) 1 + beta sqrt(p) sigma.
    """
    if kind == "identity":
        if alpha is None:
            raise ValueError("identity implementation needs alpha")
        if abs(alpha) > 1.0 + tol:
            raise ValueError(f"|alpha| = {abs(alpha):.6g} exceeds 1")
        ch = standard_channel("identity", d)
        return ChannelImplementation(ch, np.array([np.conj(alpha)]))

    if kind == "depolarising":
        t = as_matrix(t)
        d = t.shape[0]
        hs_sq = float(np.real(np.trace(t.conj().T @ t)))
        if hs_sq > 1.0 / d + tol:
            raise ValueError(
                f"Tr[T^dag T] = {hs_sq:.6g} exceeds the depolarising bound {1.0 / d:.6g}"
            )
        overlaps = np.array([np.trace(u.conj().T @ t) for u in weyl_basis(d)])
        ch = standard_channel("depolarising", d)
        return ChannelImplementation(ch, overlaps.conj())

    if kind == "partial_depolarising":
        if q is None:
            raise ValueError("partial_depolarising implementation needs q")
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q}")
        t = as_matrix(t)
        d = t.shape[0]
        basis = weyl_basis(d)
        head = np.trace(t) / np.sqrt(d * d * q + 1.0 - q)
        tail = np.array([np.trace(u.conj().T @ t) for u in basis[1:]])
        if q == 1.0:
            # Range collapses to multiples of the identity.
            if float(np.max(np.abs(tail))) > tol:
                raise ValueError(
                    "target matrix is outside the range of the q = 1 channel"
                )
            tail = np.zeros_like(tail)
        else:
            tail = tail / np.sqrt(1.0 - q)
        overlaps = np.concatenate(([head], tail))
        weight = float(np.sum(np.abs(overlaps) ** 2))
        if weight > 1.0 + tol:
            raise ValueError(
                f"target matrix violates the admissibility constraint "
                f"(amplitude weight {weight:.6g} > 1)"
            )
        ch = standard_channel("partial_depolarising", d, q)
        return ChannelImplementation(ch, overlaps.conj())

    if kind in ("phase_flip", "bit_flip"):
        if p is None or alpha is None or beta is None:
            raise ValueError(f"{kind} implementation needs p, alpha and beta")
        weight = abs(alpha) ** 2 + abs(beta) ** 2
        if weight > 1.0 + tol:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {weight:.6g} exceeds 1")
        ch = standard_channel(kind, 2, p)
        return ChannelImplementation(ch, np.array([np.conj(alpha), np.conj(beta)]))

    raise ValueError(f"unknown implementation kind '{kind}'")
