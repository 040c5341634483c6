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
are the Kraus operators flattened row-major (output index slow): T, flattened
the same way to t, is reachable iff t lies in range(V) and ||V^+ t||^2 <= 1,
with V^+ the Moore-Penrose pseudoinverse.  ``choi_of`` puts the input index
slow; that permutes the d^2 coordinates of t and of every column of V alike,
leaving both tests unchanged.  So, with C the Choi matrix, this is the same
as |T>> in range(C) and <<T|C^+|T>> <= 1, but a solve on V decides it and
yields the environment amplitudes, and it is conditioned by sqrt(kappa(C))
rather than kappa(C).  Every solve and every random draw of an admissible T
(:func:`ctrlchan.sampling.random_admissible_t`) goes through one
factorization of V, on one of the two routes of the tolerance table in
``linalg``: the Gram matrix G = V^dag V where a shifted Cholesky certifies
it, an SVD of V otherwise.  The first draw or solve on a channel makes it,
and the channel holds it, so it is shared by every later draw and solve on
that channel, in any order, and freed with the channel.  The Gram route
holds G after a channel's first solve and G^-1 from its second: a channel
solved on once, as most are in ``admissible`` calls, takes c from G by two
LU solves and forms no inverse, while one solved on again inverts G once,
holds G^-1 in its place and multiplies by it from then on (:func:`_factor`).
Either is one k x k array, never larger than the Kraus stack, and V^dag t is
formed from the stack.  The ``dilation-d8`` benchmark keeps 64 drawn-on
channels alive: holding V^dag as well raised its peak RSS by 11 to 13 %,
and G^-1 alone by 4 to 5 % (``BENCH_26.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .channels import Channel, standard_channel
from .linalg import (
    BOUND_TOL,
    DEFAULT_TOL,
    GRAM_FLOOR,
    RANGE_TOL,
    _cholesky_succeeds,
    _one_plus,
    _overflows,
    as_matrix,
    readonly,
)


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
        if not norm_sq <= 1.0 + BOUND_TOL:
            if not np.isfinite(norm_sq):
                _overflows(env, "env", "a squared norm")
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
        k, d, _ = self.channel.kraus.shape
        t = (self.env.conj() @ self.channel.kraus.reshape(k, d * d)).reshape(d, d)
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
    """``impl.t``, T = sum_i <env|i> K_i.  The package reads ``impl.t``
    itself; this function is kept for ``bench/`` only."""
    # Kept for bench/workloads.py; it goes with the bench-side change of ROADMAP item 1.
    return impl.t


def _kraus_matrix(ch: Channel) -> np.ndarray:
    """V, the d^2 x k matrix whose columns are the vectorised Kraus operators."""
    return ch.kraus.reshape(len(ch.kraus), -1).T


def _factor(ch: Channel) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The factor of the Kraus matrix V of ``ch`` that repeated solves apply
    V^+ by, read-only, on the route the tolerance table in ``linalg`` sets
    out: G^-1 on the Gram route, (U_r^dag, W_r diag(1/s_r)) from the
    economy SVD V = U s W^dag on the SVD route.

    It is made on the first call for a channel and kept on the channel, as
    ``_kraus_factor``, beside its ``_deviation``: every later call on that
    channel returns it, and it is freed with the channel.  A channel that
    holds G from its first solve (:func:`_solve`) has G inverted here, and
    holds G^-1 in its place, so the channel holds one k x k array either way.
    """
    factor = ch.__dict__.get("_kraus_factor")
    if factor is None:
        factor = ch.__dict__.pop("_kraus_gram", None)
        if factor is None:
            factor = _factorize(_kraus_matrix(ch))
        if not isinstance(factor, tuple):
            factor = _frozen(np.linalg.inv(factor))[0]
        object.__setattr__(ch, "_kraus_factor", factor)
    return factor


def _factorize(v: np.ndarray) -> np.ndarray | tuple[np.ndarray, ...]:
    """G = V^dag V, read-only, where the shifted Cholesky certifies it;
    otherwise the SVD factor pair of :func:`_factor`."""
    rows, k = v.shape
    if k <= rows:
        gram = v.conj().T @ v
        shifted = gram.copy()
        shifted.reshape(-1)[:: k + 1] -= GRAM_FLOOR * gram.trace().real
        if _cholesky_succeeds(shifted):
            return _frozen(gram)[0]
    u, s, wh = np.linalg.svd(v, full_matrices=False)
    keep = s > np.finfo(float).eps * max(rows, k) * s[0]
    return _frozen(u[:, keep].conj().T, wh[keep].conj().T / s[keep])


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _pinv(ch: Channel) -> Callable[[np.ndarray], np.ndarray]:
    """x -> V^+ x for one solve on ``ch``.

    A channel's first solve factors V.  On the Gram route it holds G, as
    ``_kraus_gram``, and takes V^+ x = G^-1 V^dag x by ``np.linalg.solve``,
    since an inverse would cost more than the solve it serves; every later
    solve applies the factor of :func:`_factor`, whose first call inverts
    the held G.  V^dag x is formed as conj(F conj(x)) from the k x d^2 stack
    F of flattened Kraus operators, whose conjugate is V^dag: bitwise the
    product with V^dag, since conjugation flips signs only.
    """
    flat = ch.kraus.reshape(len(ch.kraus), -1)
    if "_kraus_factor" not in ch.__dict__ and "_kraus_gram" not in ch.__dict__:
        made = _factorize(_kraus_matrix(ch))
        if not isinstance(made, tuple):
            object.__setattr__(ch, "_kraus_gram", made)
            return lambda x: np.linalg.solve(made, (flat @ x.conj()).conj())
        object.__setattr__(ch, "_kraus_factor", made)
    factor = _factor(ch)
    if isinstance(factor, tuple):
        basis_dag, m = factor
        return lambda x: m @ (basis_dag @ x)
    return lambda x: factor @ (flat @ x.conj()).conj()


def _solve(ch: Channel, t):
    """Minimum-norm coefficients c = V^+ t, and the admissibility report
    they give.

    c = V^+ t by :func:`_pinv`, refined once by c += V^+ (t - V c), on
    either route: on the Gram route by two LU solves with G on a channel's
    first solve, by two products with G^-1 from its second.  On the Gram
    route the certificate makes c the one minimum-norm solution, which
    lstsq gives too.  The range residual ||t - V c|| / ||t|| is computed
    from V itself.
    """
    t = as_matrix(t)
    if t.shape != (ch.dim, ch.dim):
        raise ValueError(
            f"matrix of shape {t.shape} does not match channel dimension {ch.dim}"
        )
    v = _kraus_matrix(ch)
    tvec = t.reshape(-1)
    # norms are taken by BLAS vdot, which raises no floating-point warning: a
    # finite t whose norm overflows reads inf, a non-finite one inf or nan,
    # and both are refused by name
    tnorm = math.sqrt(np.vdot(tvec, tvec).real)
    if not math.isfinite(tnorm):
        _overflows(t, "t", "a norm")
    if tnorm == 0.0:
        return AdmissibilityReport(True, 0.0, 0.0), np.zeros(v.shape[1], dtype=complex)
    pinv = _pinv(ch)
    coeff = pinv(tvec)
    coeff += pinv(tvec - v @ coeff)
    rest = tvec - v @ coeff
    residual = math.sqrt(np.vdot(rest, rest).real) / tnorm
    qform = float(np.vdot(coeff, coeff).real)
    ok = residual <= RANGE_TOL and qform <= 1.0 + BOUND_TOL
    return AdmissibilityReport(ok, residual, qform), coeff


def admissible(ch: Channel, t) -> AdmissibilityReport:
    """Decide whether ``t`` is the transformation matrix of some dilation of ``ch``:
    range residual at most ``RANGE_TOL`` and quadratic form at most
    1 + ``BOUND_TOL``, the verdict :func:`realize` acts on.

    Rounding in ``t`` moves the quadratic form by about eps * kappa(V), with V
    the matrix of vectorised Kraus operators, so a genuine T, one whose
    dilation has ||env|| = 1, is refused once eps * kappa(V) nears
    ``BOUND_TOL``.  For the phase flip at p = 1e-28 (kappa(V) = 1e14) the T of
    the dilation with env = (0.6, 0.8j) reads quadratic form 1 + 1.5e-5, on
    the SVD route that such a V takes.
    """
    return _solve(ch, t)[0]


def realize(ch: Channel, t) -> ChannelImplementation:
    """Construct a dilation of ``ch`` whose transformation matrix is ``t``.

    The implementation uses the caller's own Kraus operators, with
    environment amplitudes env = conj(V^+ t), the minimum-norm choice.
    Raises, naming the failed condition, where :func:`admissible` refuses
    ``t``.
    """
    report, coeff = _solve(ch, t)
    if report.range_residual > RANGE_TOL:
        raise ValueError(
            "matrix is not admissible for this channel: range residual "
            f"{report.range_residual:.3e}, above RANGE_TOL = {RANGE_TOL:.0e}; "
            "part of it lies outside the span of the Kraus operators"
        )
    if not report.admissible:
        raise ValueError(
            "matrix is not admissible for this channel: quadratic form "
            f"{_one_plus(report.quadratic_form)}, above 1 + {BOUND_TOL:.0e} "
            "= 1 + BOUND_TOL; no dilation holds it"
        )
    return ChannelImplementation(ch, coeff.conj())


_KEYWORDS = {
    "identity": ("d", "alpha"),
    "depolarising": ("t",),
    "partial_depolarising": ("q", "t"),
    "phase_flip": ("p", "alpha", "beta"),
    "bit_flip": ("p", "alpha", "beta"),
}


def standard_implementation(
    kind: str,
    *,
    d: int | None = None,
    alpha: complex | None = None,
    beta: complex | None = None,
    p: float | None = None,
    q: float | None = None,
    t=None,
) -> ChannelImplementation:
    """Dilations for the worked channel families.

    kind:
        ``identity``: transformation matrix ``alpha`` * 1 with |alpha| <= 1,
        in dimension ``d`` (default 2).
        ``depolarising``: target ``t``; ``partial_depolarising``: mixing
        weight ``q`` and target ``t``.  Both are :func:`realize` on
        ``standard_channel(kind, d, q)`` with d the side of ``t``, so they
        accept exactly the T that :func:`admissible` accepts; for
        ``depolarising`` that is Tr[T^dag T] <= 1/d.  The Weyl columns of V
        are orthogonal, so the amplitudes are the overlaps
        <env|i> = Tr[U_i^dag T], divided for ``partial_depolarising`` by the
        square roots of the Kraus weights, (d^2 q + 1 - q) and (1 - q).
        ``phase_flip`` / ``bit_flip``: flip probability ``p`` and amplitudes
        ``alpha``, ``beta`` on the (identity, Pauli) Kraus pair, giving
        T = alpha sqrt(1-p) 1 + beta sqrt(p) sigma; qubits only.

    Each kind takes exactly the keywords named here; any other is refused.
    """
    if kind not in _KEYWORDS:
        raise ValueError(f"unknown implementation kind '{kind}'")
    given = {"d": d, "alpha": alpha, "beta": beta, "p": p, "q": q, "t": t}
    unused = [k for k, v in given.items() if v is not None and k not in _KEYWORDS[kind]]
    if unused:
        raise ValueError(f"{kind} implementation takes no {' or '.join(unused)}")

    if kind == "identity":
        if alpha is None:
            raise ValueError("identity implementation needs alpha")
        if abs(alpha) > 1.0 + DEFAULT_TOL:
            raise ValueError(f"|alpha| = {_one_plus(abs(alpha))} exceeds 1")
        ch = standard_channel("identity", 2 if d is None else d)
        return ChannelImplementation(ch, np.array([np.conj(alpha)]))

    if kind in ("depolarising", "partial_depolarising"):
        if t is None or (kind == "partial_depolarising" and q is None):
            needs = "t" if kind == "depolarising" else "q and t"
            raise ValueError(f"{kind} implementation needs {needs}")
        t = as_matrix(t)
        return realize(standard_channel(kind, t.shape[0], q), t)

    if p is None or alpha is None or beta is None:
        raise ValueError(f"{kind} implementation needs p, alpha and beta")
    # a product, not a float power, so that an overflow reads inf
    weight = abs(alpha) * abs(alpha) + abs(beta) * abs(beta)
    if weight > 1.0 + DEFAULT_TOL:
        raise ValueError(f"|alpha|^2 + |beta|^2 = {_one_plus(weight)} exceeds 1")
    ch = standard_channel(kind, 2, p)
    return ChannelImplementation(ch, np.array([np.conj(alpha), np.conj(beta)]))
