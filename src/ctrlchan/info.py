"""Entropies and the communication figures of merit.

All entropies are in bits.  The two map-based quantities take the global map
as a plain linear function (see :func:`ctrlchan.control.controlled_map` and
friends), so they work uniformly for controlled pairs, the switch, the
classical baseline, or any bare channel.  A map takes a ``(..., d, d)`` stack
and maps it matrix by matrix, as the maps from ``control`` and
:func:`ctrlchan.channels.apply` do; each quantity calls it once.

The qubit switch grid search applies the depolarising qubit switch as one
product with its matrix, tabulated at import.  It ranks its grid on
closed-form spectra of the control-parity sectors of each output, averaged
with the grid's weights, and scores only its leaders, in one ``eigvalsh``
call, so it returns bit for bit what scoring every point with
:func:`entropy` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channels import standard_channel
from .control import ControlState, switch_map
from .linalg import (
    AVERAGE_ROUNDING,
    DEFAULT_TOL,
    ENTROPY_CLAMP,
    LEADER_WINDOW,
    PARITY_RESIDUE,
    _checked_spectrum,
    _eigvalsh,
    _one_plus,
    partial_trace,
    readonly,
    validate_density_matrix,
)


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
    bits = _spectrum_bits(w)
    return float(bits) if bits.ndim == 0 else bits


def _spectrum_bits(w: np.ndarray) -> np.ndarray:
    """-sum w log2 w over the last axis of spectra ``(..., n)``, with each
    negative eigenvalue set to zero."""
    w = np.maximum(w, 0.0)
    return -(w * np.log2(np.where(w > 0.0, w, 1.0))).sum(axis=-1)


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2 (1-p) on [0, 1], with 0 log 0 = 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return float(_spectrum_bits(np.array([p, 1.0 - p])))


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Weighted list of input states: probabilities and density matrices.

    The checked ensemble is held as two read-only arrays, ``weights`` ``(n,)``
    and ``states`` ``(n, d, d)``; ``items`` pairs each weight, as a float,
    with its state, a view into ``states``.
    """

    items: tuple[tuple[float, np.ndarray], ...]
    weights: np.ndarray = field(init=False, repr=False)
    states: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.items:
            raise ValueError("ensemble must contain at least one state")
        probs = []
        rhos = []
        total = 0.0
        for idx, (p, rho) in enumerate(self.items):
            p = float(p)
            if not math.isfinite(p):
                raise ValueError(f"items[{idx}] has non-finite probability {p}")
            if p < -DEFAULT_TOL:
                raise ValueError(f"items[{idx}] has negative probability {p}")
            rho = validate_density_matrix(rho)
            if rhos and rho.shape != rhos[0].shape:
                raise ValueError(
                    f"items[{idx}] has dimension {rho.shape[0]}, expected {rhos[0].shape[0]}"
                )
            total += p
            probs.append(p)
            rhos.append(rho)
        if abs(total - 1.0) > DEFAULT_TOL:
            raise ValueError(f"probabilities sum to {_one_plus(total)}, expected 1")
        weights, states = np.array(probs), np.stack(rhos)
        weights.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "items", tuple(zip(probs, states)))

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def holevo_lower_bound(output_map: Callable[[np.ndarray], np.ndarray], ensemble: Ensemble) -> float:
    """Mutual information of the flagged ensemble-output state.

    On the classical-quantum state sum_a p_a |a><a| (x) M(rho_a) the mutual
    information between flag and output reduces to the ensemble quantity
    S(sum_a p_a M(rho_a)) - sum_a p_a S(M(rho_a)), which is computed blockwise
    here, with every entropy from one stacked :func:`entropy` call.  It
    lower-bounds the Holevo information of the map.  ``output_map`` is called
    once, on the stack of all ensemble states.
    """
    probs = ensemble.weights
    outputs = output_map(ensemble.states)
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
    return p - binary_entropy(p) + binary_entropy((1.0 - p) / 2.0)


# The depolarising qubit pair in the switch under a |+> control: a constant of
# switch_holevo_qubit_gridsearch.  The map is evaluated once per process, at
# import, on the four 2x2 matrix units, and held as the read-only (4, 16)
# matrix whose row k is its output on the k-th unit of a row-major rho.
_DEPOLARISING_QUBIT = standard_channel("depolarising", 2)
_QUBIT_SWITCH_MATRIX = readonly(
    switch_map(_DEPOLARISING_QUBIT, _DEPOLARISING_QUBIT, ControlState.plus())(
        np.eye(4, dtype=complex).reshape(4, 2, 2)
    ).reshape(4, 16)
)


def _QUBIT_SWITCH(rho: np.ndarray) -> np.ndarray:
    """The held switch on a qubit state ``(2, 2)`` or a stack ``(..., 2, 2)``,
    giving ``(..., 4, 4)``: one product with the held matrix."""
    lead = rho.shape[:-2]
    return (rho.reshape(lead + (4,)) @ _QUBIT_SWITCH_MATRIX).reshape(lead + (4, 4))


def _parity_numbers(m: np.ndarray) -> np.ndarray:
    """The numbers the parity ranking reads from a stack ``(..., 4, 4)`` of
    joint qubit operators, each read as ``eigvalsh`` reads it: its lower
    triangle and the real part of its diagonal.

    In the |+>, |-> control basis such a matrix has the 2x2 sectors
    [[a, conj(b)], [b, c]] on its diagonal and the block E below them, which
    is zero when the matrix commutes with X (x) 1.  Returns ``(..., 16)``:
    the rows (a + c) / 2, (a - c) / 2, Re b and Im b, one column per sector,
    then the real and the imaginary parts of the four entries of E.  Each
    number is real-linear in the matrix.
    """
    lower = np.tril(m, -1)
    h = lower + lower.conj().swapaxes(-2, -1) + m.diagonal(0, -2, -1).real[..., None] * np.eye(4)
    # H (x) 1 without its 1 / sqrt(2): r is h in the |+>, |-> control basis, |+> first
    signs = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]), np.eye(2))
    r = signs @ h @ signs / 2.0
    a, c, b = r[..., [0, 2], [0, 2]].real, r[..., [1, 3], [1, 3]].real, r[..., [1, 3], [0, 2]]
    e = r[..., 2:, :2].reshape(r.shape[:-2] + (4,))
    sectors = np.stack(((a + c) / 2.0, (a - c) / 2.0, b.real, b.imag), axis=-2)
    return np.concatenate((sectors.reshape(r.shape[:-2] + (8,)), e.real, e.imag), axis=-1)


# _parity_numbers of the 32 real basis matrices: a real 32 x 16 table of
# exact multiples of 1/4, so that the numbers of a contiguous stack of
# complex 4x4 matrices, read as 32 reals each, are one product with it.
_PARITY_TABLE = _parity_numbers(np.eye(32).view(complex).reshape(32, 4, 4))


def _parity_entropies(outputs: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies of the grid search's outputs ``(n, 4, 4)`` and of the
    averages p out[0] + (1 - p) out[k] for p in ``probs``, of shapes
    ``(n,)`` and ``(n, P)``, from closed-form sector spectra.

    Each output's sector numbers (:func:`_parity_numbers`) are averaged with
    the weights of the matrices, so no average is built; weight 0 gives the
    output itself.  The averages are laid out [number, sector, output,
    weight], so the weighting and each sector's radius, the hypotenuse of its
    three other numbers, run on whole rows; the four eigenvalues of each
    matrix are then stacked last, in the order in which the entropy sums
    them.  Three rules are checked, and the first that fails raises a
    ``RuntimeError`` naming it and its measured value.  Every output's
    Hermitian deviation and trace error is at most
    ``DEFAULT_TOL - AVERAGE_ROUNDING``, so every average passes
    :func:`ctrlchan.linalg._density_rules` too.  Every output's ||E||_F is
    at most ``PARITY_RESIDUE``, so every average's is too, up to rounding.
    Every lowest sector eigenvalue, less the largest ||E||_F and
    ``PARITY_RESIDUE``, is at least ``-ENTROPY_CLAMP``.  Then, by Weyl, no
    ``eigvalsh`` eigenvalue lies below the clamping window, so
    :func:`entropy` accepts every output and every average, and each entropy
    here is within ``LEADER_WINDOW / 5`` of its value (see the tolerance
    table).
    """
    n = outputs.shape[0]
    p = np.concatenate(([0.0], probs))
    # an entry that is not finite, or whose square is not, fails a rule below,
    # each written so that a NaN fails it
    with np.errstate(invalid="ignore", over="ignore"):
        herm = np.abs(outputs - outputs.swapaxes(-2, -1).conj()).max(initial=0.0)
        trace = np.abs(np.trace(outputs, axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
        numbers = np.ascontiguousarray(outputs).view(float).reshape(n, 32) @ _PARITY_TABLE
        residue = np.sqrt((numbers[:, 8:] ** 2).sum(axis=-1)).max()
        # laid out [number, sector, output, weight], so each step runs on whole rows
        sectors = numbers[:, :8].T.reshape(4, 2, n, 1)
        mean, s1, s2, s3 = p * sectors[:, :, :1] + (1.0 - p) * sectors
        # a sector's eigenvalues are its mean -+ the hypotenuse of the rest of its column
        radius = np.sqrt(s1**2 + s2**2 + s3**2)
        lo, hi = mean - radius, mean + radius
        # [output, weight, eigenvalue], as _spectrum_bits sums each spectrum
        w = np.stack((lo[0], lo[1], hi[0], hi[1]), axis=-1)
        low = w.min()
        # by Weyl, no eigvalsh eigenvalue of these matrices lies below this
        floor = low - residue - PARITY_RESIDUE
    limit = DEFAULT_TOL - AVERAGE_ROUNDING
    for rule, value, holds, bound in (
        ("Hermitian deviation", herm, herm <= limit, "above DEFAULT_TOL - AVERAGE_ROUNDING"),
        ("trace error", trace, trace <= limit, "above DEFAULT_TOL - AVERAGE_ROUNDING"),
        ("parity residue", residue, residue <= PARITY_RESIDUE, "above PARITY_RESIDUE"),
        ("lowest sector eigenvalue", low, floor >= -ENTROPY_CLAMP,
         "within the residue and PARITY_RESIDUE of the clamping window"),
    ):
        if not holds:
            raise RuntimeError(f"the parity ranking refuses the outputs: {rule} {value:.3e} {bound}")
    bits = _spectrum_bits(w)
    return bits[:, 0], bits[:, 1:]


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
    is tabulated once per process, at import, as its (4, 16) matrix on the
    four 2x2 matrix units, and each call applies it once, as one product
    with the stack of all grid states.  Returns (best value, (0.0, theta1,
    p0)).  Both steps are checked, and a probability grid left empty is
    refused, before the map is applied.

    The two channels under the switch are one and the same, so swapping the
    two orders maps every output to itself: each output, and each average
    of two, commutes with X (x) 1 on control (x) target and splits into two
    2x2 sectors in the |+>, |-> control basis.  The grid is ranked on the
    closed-form spectra of those sectors (:func:`_parity_entropies`): each
    output's sector numbers are taken once, in one product with a table, and
    averaged with the grid's weights, and the entropies they give differ
    from the ``eigvalsh`` ones by rounding.  Every point whose ranked value
    lies within ``LEADER_WINDOW`` of the ranked maximum, a window wider than
    twice the largest difference a ranked value can have from its exact one,
    is then scored again: the output at theta1 = 0, each leader's output and
    each leader's average, built in the operand order of the literal loop,
    go through one ``eigvalsh``, unchecked: the ranking has already proved
    what :func:`entropy` would check, so the bits are its bits.  Every exact
    maximum is among these leaders, so the first of them in (theta1, p0)
    order is the point, and its value the value, that scoring the whole
    grid with :func:`entropy` gives, bit for bit.  Outputs the ranking
    cannot vouch for (near the edge of the state rules, not X (x)
    1-symmetric within ``PARITY_RESIDUE``, or with an eigenvalue near the
    clamping window) are refused with :func:`_parity_entropies`'s
    ``RuntimeError``; the held map gives none.
    """
    for name, step in (("angle_step", angle_step), ("prob_step", prob_step)):
        if not 0.0 < step < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {step}")
    probs = np.arange(prob_step, 1.0, prob_step)
    if probs.size == 0:
        raise ValueError(f"prob_step {prob_step} leaves no probability in (0, 1)")
    thetas = np.arange(0.0, np.pi + angle_step / 2.0, angle_step)
    states = np.stack((np.cos(thetas / 2.0), np.sin(thetas / 2.0)), axis=-1).astype(complex)
    outputs = _QUBIT_SWITCH(states[:, :, None] * states[:, None, :].conj())
    out_bits, avg_bits = _parity_entropies(outputs, probs)
    # rows are theta1 and columns p0, and the leaders keep that order
    scores = avg_bits - probs * out_bits[0] - (1.0 - probs) * out_bits[:, None]
    k, j = np.nonzero(scores >= scores.max() - LEADER_WINDOW)
    # The operands keep the order of the literal (theta0, theta1, p0) loop, so
    # each value is bitwise the one that loop computes at theta0 = 0, and
    # argmax finds the first maximum in (theta1, p0) order.
    p0 = probs[j, None, None]
    avg = p0 * outputs[0] + (1.0 - p0) * outputs[k]
    # _parity_entropies has proved the state rules and the clamp gate for
    # every one of these, so their spectra need no check
    bits = _spectrum_bits(_eigvalsh(np.concatenate((outputs[:1], outputs[k], avg))))
    first, rows, avg_bits = bits[0], bits[1:k.size + 1], bits[k.size + 1:]
    values = avg_bits - probs[j] * first - (1.0 - probs[j]) * rows
    best = np.argmax(values)
    return float(values[best]), (0.0, float(thetas[k[best]]), float(probs[j[best]]))
