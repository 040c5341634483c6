"""Entropies and the communication figures of merit.

All entropies are in bits.  The two map-based quantities take the global map
as a plain linear function (see :func:`ctrlchan.control.controlled_map` and
friends), so they work uniformly for controlled pairs, the switch, the
classical baseline, or any bare channel.  A map takes a ``(..., d, d)`` stack
and maps it matrix by matrix, as the maps from ``control`` and
:func:`ctrlchan.channels.apply` do; each quantity calls it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import standard_channel
from .control import ControlState, switch_map
from .linalg import (
    DEFAULT_TOL,
    ENTROPY_CLAMP,
    LEADER_WINDOW,
    PARITY_RESIDUE,
    _checked_spectrum,
    _density_rules,
    _one_plus,
    partial_trace,
    readonly,
    validate_density_matrix,
)


def shannon_entropy(probs) -> float:
    """-sum p log2 p with 0 log 0 = 0."""
    p = np.asarray(probs, dtype=float)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def entropy(rho):
    """Von Neumann entropy in bits of a density matrix or of a stack of them.

    ``rho`` is one matrix ``(n, n)``, giving a float, or a stack
    ``(..., n, n)``, giving an array of shape ``rho.shape[:-2]``.  Every
    matrix is checked as by :func:`ctrlchan.linalg.validate_density_matrix`
    (square, Hermitian, unit trace, no eigenvalue below ``-DEFAULT_TOL``),
    and one ``eigvalsh`` over the whole input gives both the check and the
    spectrum.  Eigenvalues in (-ENTROPY_CLAMP, 0) are clamped to zero;
    anything more negative is rejected as an invalid state.
    """
    w = _checked_spectrum(rho)
    w0 = w[..., 0]
    if w0.min(initial=0.0) < -ENTROPY_CLAMP:
        low = np.extract(w0 < -ENTROPY_CLAMP, w0)[0]
        raise ValueError(f"eigenvalue {low:.3e} below the clamping window")
    w = np.maximum(w, 0.0)
    bits = -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=-1)
    return float(bits) if bits.ndim == 0 else bits


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2 (1-p) on [0, 1]."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return shannon_entropy([p, 1.0 - p])


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted list of input states: probabilities and density matrices."""

    items: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        if not self.items:
            raise ValueError("ensemble must contain at least one state")
        frozen = []
        total = 0.0
        dim = None
        for idx, (p, rho) in enumerate(self.items):
            p = float(p)
            if not math.isfinite(p):
                raise ValueError(f"items[{idx}] has non-finite probability {p}")
            if p < -DEFAULT_TOL:
                raise ValueError(f"items[{idx}] has negative probability {p}")
            rho = validate_density_matrix(rho)
            if dim is None:
                dim = rho.shape[0]
            elif rho.shape[0] != dim:
                raise ValueError(
                    f"items[{idx}] has dimension {rho.shape[0]}, expected {dim}"
                )
            total += p
            frozen.append((p, readonly(rho)))
        if abs(total - 1.0) > DEFAULT_TOL:
            raise ValueError(f"probabilities sum to {_one_plus(total)}, expected 1")
        object.__setattr__(self, "items", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.items[0][1].shape[0]


def holevo_lower_bound(output_map: Callable[[np.ndarray], np.ndarray], ensemble: Ensemble) -> float:
    """Mutual information of the flagged ensemble-output state.

    On the classical-quantum state sum_a p_a |a><a| (x) M(rho_a) the mutual
    information between flag and output reduces to the ensemble quantity
    S(sum_a p_a M(rho_a)) - sum_a p_a S(M(rho_a)), which is computed blockwise
    here, with every entropy from one stacked :func:`entropy` call.  It
    lower-bounds the Holevo information of the map.  ``output_map`` is called
    once, on the stack of all ensemble states.
    """
    probs = np.array([p for p, _ in ensemble.items])
    outputs = output_map(np.stack([rho for _, rho in ensemble.items]))
    average = (probs @ outputs.reshape(probs.size, -1)).reshape(outputs.shape[1:])
    used = probs > 0.0
    # one entropy call: the outputs of positive weight, then the average
    entropies = entropy(np.concatenate((outputs[used], average[None])))
    return float(entropies[-1] - probs[used] @ entropies[:-1])


def coherent_info_bound(output_map: Callable[[np.ndarray], np.ndarray], input_bipartite) -> float:
    """H(B) - H(AB) for the state (Id (x) M)(input), a quantum-capacity bound.

    The input must be a density matrix on reference (x) target with the two
    factors of equal dimension; the map is applied to the target factor block
    by block (it must be linear), in one call on the stack of all d^2 blocks.
    The result may be negative.
    """
    nu0 = validate_density_matrix(input_bipartite)
    n = nu0.shape[0]
    d = math.isqrt(n)
    if d * d != n:
        raise ValueError(
            f"bipartite input of side {n} does not split into equal factors"
        )
    # blocks[m, k] is <m| nu0 |k> on the target, for reference indices m, k
    mapped = output_map(nu0.reshape(d, d, d, d).transpose(0, 2, 1, 3))
    d_out = mapped.shape[-1]
    nu = mapped.transpose(0, 2, 1, 3).reshape(d * d_out, d * d_out)
    h_joint = entropy(nu)
    h_out = entropy(partial_trace(nu, d, d_out, keep="second"))
    return h_out - h_joint


def switch_holevo_qubit() -> float:
    """Exact ensemble information of the maximally noisy qubit pair in an
    order superposition with a balanced control: -3/8 - (5/8) log2(5/8)."""
    return -3.0 / 8.0 - (5.0 / 8.0) * np.log2(5.0 / 8.0)


def cc_dephasing_bound(p: float) -> float:
    """Closed-form coherent-information bound p - H2(p) + H2((1-p)/2).

    This is the value reached by the coherently controlled phase-flip and
    bit-flip pair with transformation matrices sqrt(p) sigma_z and
    sqrt(p) sigma_x on a maximally entangled input; it is positive for all p.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return p - binary_entropy(p) + binary_entropy((1.0 - p) / 2.0)


# The depolarising qubit pair in the switch under a |+> control: a constant of
# switch_holevo_qubit_gridsearch, built once per process, at import.
_DEPOLARISING_QUBIT = standard_channel("depolarising", 2)
_QUBIT_SWITCH = switch_map(_DEPOLARISING_QUBIT, _DEPOLARISING_QUBIT, ControlState.plus())


# Positions 4 i + j in a flattened 4x4 of the lower-triangle entries (i, j)
# that _parity_entropies reads: (0, 0), (1, 1), (2, 2), (3, 3), (1, 0),
# (3, 2), (2, 0), (3, 1), (3, 0) and (2, 1).
_LOWER = [0, 5, 10, 15, 4, 14, 8, 13, 12, 9]


def _parity_entropies(avg: np.ndarray) -> np.ndarray | None:
    """Entropies of a stack ``(..., 4, 4)`` of joint qubit states from the
    spectra of their control-parity blocks, or None where those cannot be
    trusted to rank the states.

    Every matrix is checked by :func:`ctrlchan.linalg._density_rules`.  In
    the |+>, |-> control basis a matrix [[A, B], [C, D]] has the diagonal
    blocks (A + D) / 2 +- (B + C) / 2 and between them the block
    E = (A - D) / 2 + (C - B) / 2, which is zero when the matrix commutes
    with X (x) 1.  The blocks are read from the lower triangle, as
    ``eigvalsh`` reads the matrix, with B = C^dag, and each 2x2 spectrum is
    taken in closed form.  The result is None unless every ||E||_F is at
    most ``PARITY_RESIDUE`` and every lowest eigenvalue, less ||E||_F and
    ``PARITY_RESIDUE``, is at least ``-ENTROPY_CLAMP``: then, by Weyl, no
    ``eigvalsh`` eigenvalue lies below the clamping window, so
    :func:`entropy` accepts every matrix, and each entropy here is within
    ``LEADER_WINDOW / 2`` of its value (see the tolerance table).
    """
    _density_rules(avg)
    # the ten lower-triangle entries the blocks need, each as one row over the stack
    m00, m11, m22, m33, m10, m32, m20, m31, m30, m21 = avg.reshape(-1, 16).T[_LOWER]
    # (A +- D) / 2, and the Hermitian and anti-Hermitian parts of C
    mid_low, half_low = (m10 + m32) / 2.0, (m10 - m32) / 2.0
    c_herm, c_anti = (m30 + m21.conj()) / 2.0, (m30 - m21.conj()) / 2.0
    # E has the diagonal (A - D) / 2 + i Im diag(C) and the off-diagonal
    # entries half_low + c_anti and the conjugate of half_low - c_anti
    residue = np.sqrt(
        ((m00.real - m22.real) / 2.0) ** 2 + m20.imag**2
        + ((m11.real - m33.real) / 2.0) ** 2 + m31.imag**2
        + np.abs(half_low + c_anti) ** 2 + np.abs(half_low - c_anti) ** 2
    ).max(initial=0.0)
    # the |+> block adds the Hermitian part of C to (A + D) / 2, the |-> block
    # subtracts it; a 2x2 block has the eigenvalues mean -+ radius
    mean = (m00.real + m11.real + m22.real + m33.real) / 4.0
    gap = (m00.real + m22.real - m11.real - m33.real) / 4.0
    c_mean, c_gap = (m20.real + m31.real) / 2.0, (m20.real - m31.real) / 2.0
    plus = np.hypot(gap + c_gap, np.abs(mid_low + c_herm))
    minus = np.hypot(gap - c_gap, np.abs(mid_low - c_herm))
    w = np.stack((mean + c_mean - plus, mean + c_mean + plus, mean - c_mean - minus, mean - c_mean + minus))
    if not residue <= PARITY_RESIDUE or w.min() - residue - PARITY_RESIDUE < -ENTROPY_CLAMP:
        return None
    w = np.maximum(w, 0.0)
    bits = -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=0)
    return bits.reshape(avg.shape[:-2])


def switch_holevo_qubit_gridsearch(
    angle_step: float = np.pi / 60.0,
    prob_step: float = 0.05,
) -> tuple[float, tuple[float, float, float]]:
    """Coarse maximisation of the two-state ensemble information through the
    depolarising qubit switch.

    Candidate states are restricted to the x-z plane of the Bloch sphere:
    the switch map commutes with any joint unitary rotation of the ensemble,
    and two pure qubit states can always be rotated into that plane, so the
    restriction loses nothing.  For the same reason theta0 is fixed at 0: a
    joint rotation about y takes (theta0, theta1) to (0, theta1 - theta0)
    and keeps the value, and every difference of two grid angles is itself a
    grid angle, so the pairs (0, theta) already carry every value of the full
    (theta0, theta1) grid.  The switch map does not depend on the grid, so it
    is built once per process, at import, and each call evaluates it once, on
    the stack of all grid states.  Returns (best value, (0.0, theta1, p0)).

    The two channels under the switch are one and the same, so swapping the
    two orders maps every output to itself: each output, and each average
    of two, commutes with X (x) 1 on control (x) target and splits into two
    2x2 blocks in the |+>, |-> control basis.  The grid is ranked on the
    closed-form spectra of those blocks (:func:`_parity_entropies`), which
    differ from the ``eigvalsh`` spectra by rounding.  Every point whose
    ranked value lies within ``LEADER_WINDOW`` of the ranked maximum, a
    window wider than twice the largest difference a ranked value can have
    from its exact one, is then scored again with :func:`entropy`, in the
    operand order of the literal loop.  Every exact maximum is among these
    leaders, so the first of them in (theta1, p0) order is the point, and its
    value the value, that scoring the whole grid exactly gives, bit for bit.
    Where the blocks cannot be trusted (an average that is not
    X (x) 1-symmetric within ``PARITY_RESIDUE``, or an eigenvalue near the
    clamping window), every point is scored exactly, as are its errors.
    """
    for name, step in (("angle_step", angle_step), ("prob_step", prob_step)):
        if not 0.0 < step < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {step}")
    thetas = np.arange(0.0, np.pi + angle_step / 2.0, angle_step)
    states = np.stack((np.cos(thetas / 2.0), np.sin(thetas / 2.0)), axis=-1).astype(complex)
    outputs = _QUBIT_SWITCH(states[:, :, None] * states[:, None, :].conj())
    entropies = entropy(outputs)
    probs = np.arange(prob_step, 1.0, prob_step)
    if probs.size == 0:
        raise ValueError(f"prob_step {prob_step} leaves no probability in (0, 1)")

    # Rows are theta1, columns p0, and the leaders keep that order, so argmax
    # finds the first maximum in (theta1, p0) order.  The operands keep the
    # order of the literal (theta0, theta1, p0) loop, so each value is bitwise
    # the one that loop computes at theta0 = 0.
    p0 = probs[:, None, None]
    avg = p0 * outputs[0] + (1.0 - p0) * outputs[:, None]
    ranked = _parity_entropies(avg)
    if ranked is None:
        k, j = np.indices(avg.shape[:2]).reshape(2, -1)
    else:
        ranked = ranked - probs * entropies[0] - (1.0 - probs) * entropies[:, None]
        k, j = np.nonzero(ranked >= ranked.max() - LEADER_WINDOW)
    values = entropy(avg[k, j]) - probs[j] * entropies[0] - (1.0 - probs[j]) * entropies[k]
    best = np.argmax(values)
    return float(values[best]), (0.0, float(thetas[k[best]]), float(probs[j[best]]))
