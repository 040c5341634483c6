"""Distinguishing two implementations of the same channel.

One interferometer arm carries a fixed implementation; the other carries one
of two dilations of the *same* CPTP map that differ in their transformation
matrices T and T'.  The resulting joint outputs differ only in their
interference blocks, which makes the distance between them computable in
closed form and bounded by the spectral norm of tau = T - T'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import choi_of
from .control import ControlledOutput, ControlState, _diagonal, _joint, _map_input, _weights
from .implementations import ChannelImplementation
from .linalg import (
    AGREE_TOL,
    COLUMN_WEIGHT,
    DEFAULT_TOL,
    DEGENERACY_TOL,
    DISTANCE_WINDOW,
    as_matrix,
    dagger,
    spectral_norm,
    trace_norm,
    validate_density_matrix,
)


@dataclass(frozen=True, eq=False)
class DiscriminationInstance:
    """A fixed reference arm and two candidate dilations of one channel."""

    fixed: ChannelImplementation
    candidate_a: ChannelImplementation
    candidate_b: ChannelImplementation

    def __post_init__(self):
        d = self.fixed.dim
        if self.candidate_a.dim != d or self.candidate_b.dim != d:
            raise ValueError("all implementations must share the target dimension")
        if self.candidate_a.channel is self.candidate_b.channel:
            return  # one Channel object: the Choi deviation is exactly 0
        dev = float(np.max(np.abs(
            choi_of(self.candidate_a.channel) - choi_of(self.candidate_b.channel)
        )))
        if dev > DEFAULT_TOL:
            raise ValueError(
                f"candidates implement different channels: Choi deviation {dev:.3e}"
            )


def trace_distance(rho, sigma) -> float:
    """(1/2) || rho - sigma ||_1 between two density matrices."""
    rho = validate_density_matrix(rho)
    sigma = validate_density_matrix(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {sigma.shape}")
    return 0.5 * trace_norm(rho - sigma)


def output_distance(
    inst: DiscriminationInstance, control: ControlState | np.ndarray, rho
) -> float:
    """Trace distance between the two joint outputs on input ``rho``.

    Computed twice: directly on the two controlled outputs, and through the
    closed form |a b| * || tau rho T0^dag ||_1, |rho_c[0, 1]| in place of
    |a b| for a control density matrix, with tau the difference of the
    candidate transformation matrices.  The two routes must agree within
    ``AGREE_TOL``; the direct value is returned.  ``rho`` is validated once,
    and each joint output is checked as a :class:`ControlledOutput`.

    The two outputs share the block 00, the fixed arm's channel output, which
    is computed once.  They share the block 11 too when both candidates hold
    one ``Channel`` object, and then it is computed once; otherwise each
    candidate's is computed.  Each output has its own interference blocks,
    from its own T, so the direct route does not rest on tau.
    """
    rho = _map_input(validate_density_matrix(rho), inst.fixed.dim)
    w0, w1, cross = _weights(control)
    t0, ta, tb = inst.fixed.t, inst.candidate_a.t, inst.candidate_b.t
    diag0 = _diagonal(inst.fixed, w0, rho)
    diag_a = _diagonal(inst.candidate_a, w1, rho)
    if inst.candidate_a.channel is inst.candidate_b.channel:
        diag_b = diag_a
    else:
        diag_b = _diagonal(inst.candidate_b, w1, rho)
    out_a = ControlledOutput(_joint(diag0, diag_a, cross, t0, ta, rho))
    out_b = ControlledOutput(_joint(diag0, diag_b, cross, t0, tb, rho))
    direct = 0.5 * trace_norm(out_a.matrix - out_b.matrix)

    tau = ta - tb
    closed = abs(cross) * trace_norm(tau @ rho @ dagger(t0))
    if abs(direct - closed) > AGREE_TOL:
        raise ValueError(
            f"closed form {closed:.12g} and direct distance {direct:.12g} disagree"
        )
    return direct


def _difference(t1, t1p) -> np.ndarray:
    """tau = T - T' of two transformation matrices of one shape, not empty."""
    t1 = as_matrix(t1)
    t1p = as_matrix(t1p)
    if t1.shape != t1p.shape:
        raise ValueError(f"shape mismatch: {t1.shape} vs {t1p.shape}")
    if t1.size == 0:
        raise ValueError(f"t1 and t1p are empty: shape {t1.shape}")
    return t1 - t1p


def diamond_bound(t1, t1p) -> float:
    """(1/2) || T - T' ||_2, an upper bound on the distance between the two
    global channels in the worst case over inputs and reference systems."""
    return 0.5 * spectral_norm(_difference(t1, t1p))


def optimal_input(t1, t1p) -> np.ndarray:
    """Pure input maximising <psi| tau^dag tau |psi> with tau = T - T'.

    With a transparent reference arm (identity channel, T0 = 1) this input
    saturates :func:`diamond_bound`.  When the top eigenvalue is degenerate
    the result is made deterministic: project the lowest-index basis vector
    with nonzero overlap onto the top eigenspace, which also fixes the phase
    (that component comes out real positive).
    """
    tau = _difference(t1, t1p)
    if float(np.max(np.abs(tau))) == 0.0:
        raise ValueError("transformation matrices are identical")
    gram = dagger(tau) @ tau
    w, v = np.linalg.eigh(gram)
    top = w >= w[-1] - DEGENERACY_TOL * max(float(w[-1]), 1.0)
    vtop = v[:, top]
    proj = vtop @ vtop.conj().T
    for k in range(proj.shape[0]):
        column = proj[:, k]
        weight = math.sqrt(np.vdot(column, column).real)
        if weight > COLUMN_WEIGHT:
            return column / weight
    raise RuntimeError("projector onto the top eigenspace is numerically zero")


def success_probability(distance: float) -> float:
    """Best probability of telling two equiprobable outputs apart: (1 + D)/2."""
    distance = float(distance)
    if not -DISTANCE_WINDOW <= distance <= 1.0 + DISTANCE_WINDOW:  # also refuses NaN
        raise ValueError(f"distance must lie in [0, 1], got {distance}")
    return 0.5 * (1.0 + min(max(distance, 0.0), 1.0))
