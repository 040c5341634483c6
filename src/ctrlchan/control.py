"""Joint control-target outputs for channel pairs under a quantum control.

Three global maps are provided, all returning the (2d x 2d) joint state of
the control qubit and the target in 2 x 2 block form.  Each comes as a map
factory (:func:`controlled_map`, :func:`classical_map`, :func:`switch_map`)
whose map takes one d x d matrix or a ``(..., d, d)`` stack, writing the four
blocks of each output into one preallocated array (:mod:`ctrlchan.info` maps
whole stacks in one call), and as a function that validates one density
matrix and wraps the output:

* :func:`controlled_output` routes the target through one of two channel
  boxes in superposition.  The diagonal blocks are the individual channel
  outputs; the off-diagonal (interference) blocks are governed by the
  transformation matrices of the two implementations, so the result depends
  on *how* each channel is realised, not just on the CPTP maps.
* :func:`classical_control` is the decohered baseline: a statistical mixture
  of the two arms, with no interference blocks.
* :func:`switch_output` applies the two channels in an order entangled with
  the control.  Its output depends only on the CPTP maps; remixing the Kraus
  lists leaves it invariant.

:func:`stinespring_oracle` recomputes the controlled output by brute force,
evolving an explicit control x target x environments pure state and tracing
the environments out.  It exists to cross-check the closed-form blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import Channel, apply
from .implementations import ChannelImplementation, transformation_matrix
from .linalg import (
    DEFAULT_TOL,
    ORACLE_SKIP,
    _checked_spectrum,
    _finite,
    _one_plus,
    as_matrix,
    dagger,
    readonly,
    validate_density_matrix,
)


@dataclass(frozen=True)
class ControlState:
    """Pure control-qubit state a|0> + b|1>, normalised within tolerance."""

    a: complex
    b: complex

    def __post_init__(self):
        a = complex(self.a)
        b = complex(self.b)
        norm_sq = abs(a) ** 2 + abs(b) ** 2
        if not abs(norm_sq - 1.0) <= DEFAULT_TOL:  # also fails on NaN
            _finite(np.array([a, b]), "control state (a, b)")
            raise ValueError(f"control amplitudes have squared norm {_one_plus(norm_sq)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def plus(cls) -> "ControlState":
        return cls(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))

    @classmethod
    def basis(cls, index: int) -> "ControlState":
        if index not in (0, 1):
            raise ValueError(f"control basis index must be 0 or 1, got {index}")
        return cls(1.0 - index, index)


@dataclass(frozen=True, eq=False)
class ControlledOutput:
    """Joint control-target density matrix with named d x d block views."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise ValueError(f"joint output must be square with even side, got {m.shape}")
        _checked_spectrum(m)
        object.__setattr__(self, "matrix", readonly(m))

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def diag0(self) -> np.ndarray:
        d = self.target_dim
        return self.matrix[:d, :d]

    @property
    def diag1(self) -> np.ndarray:
        d = self.target_dim
        return self.matrix[d:, d:]

    @property
    def offdiag01(self) -> np.ndarray:
        d = self.target_dim
        return self.matrix[:d, d:]

    @property
    def offdiag10(self) -> np.ndarray:
        d = self.target_dim
        return self.matrix[d:, :d]


def _common_dim(i0: ChannelImplementation, i1: ChannelImplementation) -> int:
    if i0.dim != i1.dim:
        raise ValueError(
            f"implementations act on different dimensions: {i0.dim} vs {i1.dim}"
        )
    return i0.dim


def _map_input(rho, d: int) -> np.ndarray:
    """Coerce a map input, one matrix or a ``(..., d, d)`` stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (d, d):
        raise ValueError(f"input of shape {rho.shape} does not match dimension {d}")
    return rho


def controlled_map(
    i0: ChannelImplementation,
    i1: ChannelImplementation,
    control: ControlState,
) -> Callable[[np.ndarray], np.ndarray]:
    """Linear map rho -> joint output matrix, as a plain function.

    The returned function evaluates the block form

        [[ |a|^2 C0(rho),        a b* T0 rho T1^dag ],
         [ a* b T1 rho T0^dag,   |b|^2 C1(rho)      ]]

    and accepts arbitrary square matrices: it is linear in rho, so it can be
    applied to operator blocks as well as to density matrices.  A stack
    ``(..., d, d)`` is mapped matrix by matrix into ``(..., 2d, 2d)``.
    """
    d = _common_dim(i0, i1)
    t0 = transformation_matrix(i0)
    t1 = transformation_matrix(i1)
    t1_dag = dagger(t1)
    t0_dag = dagger(t0)
    a, b = control.a, control.b
    w0 = abs(a) ** 2
    w1 = abs(b) ** 2
    cross = a * np.conj(b)

    def output(rho) -> np.ndarray:
        rho = _map_input(rho, d)
        out = np.empty(rho.shape[:-2] + (2 * d, 2 * d), dtype=complex)
        out[..., :d, :d] = w0 * apply(i0.channel, rho, validate=False)
        out[..., :d, d:] = cross * (t0 @ rho @ t1_dag)
        out[..., d:, :d] = np.conj(cross) * (t1 @ rho @ t0_dag)
        out[..., d:, d:] = w1 * apply(i1.channel, rho, validate=False)
        return out

    return output


def controlled_output(
    i0: ChannelImplementation,
    i1: ChannelImplementation,
    control: ControlState,
    rho,
) -> ControlledOutput:
    """Coherently control between two channel implementations on input ``rho``."""
    rho = validate_density_matrix(rho)
    return ControlledOutput(controlled_map(i0, i1, control)(rho))


def _embedded_env(env: np.ndarray) -> np.ndarray:
    """Environment state on a register one slot larger than the dilation basis.

    Slot 0 carries the part of the initial state outside the span of the
    dilation basis states, so subnormalised amplitude vectors embed exactly.
    """
    weight = float(np.sum(np.abs(env) ** 2))
    rest = np.sqrt(max(1.0 - weight, 0.0))
    return np.concatenate(([rest], env))


def stinespring_oracle(
    i0: ChannelImplementation,
    i1: ChannelImplementation,
    control: ControlState,
    rho,
) -> ControlledOutput:
    """Reference computation of the controlled output via explicit dilation.

    For each eigenvector of ``rho``, the joint pure state over
    control x target x env0 x env1 is built directly: the |0> branch applies
    the Kraus operators of the first channel while the second environment
    stays in its initial state, and vice versa.  Each branch is one array
    expression over all Kraus operators at once.  Both environments are then
    traced out and the results mixed with the eigenvalues of ``rho``.
    """
    d = _common_dim(i0, i1)
    rho = validate_density_matrix(rho)
    if rho.shape != (d, d):
        raise ValueError(f"input of shape {rho.shape} does not match dimension {d}")
    kraus0 = i0.channel.kraus
    kraus1 = i1.channel.kraus
    e0 = _embedded_env(i0.env)
    e1 = _embedded_env(i1.env)
    w, vecs = np.linalg.eigh(rho)
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    # amp[c, x, m, n]: control c, target x, env0 slot m, env1 slot n; the
    # slots a branch never writes stay zero for every eigenvector
    amp = np.zeros((2, d, e0.size, e1.size), dtype=complex)
    for lam, psi in zip(w, vecs.T):
        if lam < ORACLE_SKIP:
            continue
        # |0> branch: K_i psi with env0 in slot i + 1 and env1 untouched
        amp[0, :, 1:, :] = control.a * (kraus0 @ psi).T[:, :, None] * e1
        # |1> branch: L_j psi with env1 in slot j + 1 and env0 untouched
        amp[1, :, :, 1:] = control.b * (kraus1 @ psi).T[:, None, :] * e0[:, None]
        joint = amp.reshape(2 * d, -1)
        out += lam * (joint @ joint.conj().T)
    return ControlledOutput(out)


def classical_map(
    i0: ChannelImplementation,
    i1: ChannelImplementation,
    weights: tuple[float, float],
) -> Callable[[np.ndarray], np.ndarray]:
    """Linear map for the decohered-control mixture of the two arms; like
    :func:`controlled_map`, it takes one matrix or a ``(..., d, d)`` stack."""
    d = _common_dim(i0, i1)
    w0, w1 = float(weights[0]), float(weights[1])
    if not (w0 >= -DEFAULT_TOL and w1 >= -DEFAULT_TOL and abs(w0 + w1 - 1.0) <= DEFAULT_TOL):
        _finite(np.array([w0, w1]), "weight pair (w0, w1)")
        raise ValueError(f"weights must be nonnegative and sum to 1, got {weights}")

    def output(rho) -> np.ndarray:
        rho = _map_input(rho, d)
        out = np.zeros(rho.shape[:-2] + (2 * d, 2 * d), dtype=complex)
        out[..., :d, :d] = w0 * apply(i0.channel, rho, validate=False)
        out[..., d:, d:] = w1 * apply(i1.channel, rho, validate=False)
        return out

    return output


def classical_control(
    i0: ChannelImplementation,
    i1: ChannelImplementation,
    weights: tuple[float, float],
    rho,
) -> ControlledOutput:
    """Classically control between the two arms: w0 |0><0| (x) C0(rho) + w1 |1><1| (x) C1(rho).

    Equivalently, the coherently controlled output with the interference
    blocks zeroed; no implementation dependence survives.
    """
    rho = validate_density_matrix(rho)
    return ControlledOutput(classical_map(i0, i1, weights)(rho))


def _transfer_matrix(ch: Channel) -> np.ndarray:
    """R = sum_i K_i^T (x) K_i^dag, so that vec(C(X)) = vec(X) R with vec the
    row-major flattening; R is the transpose of the superoperator."""
    k, d, _ = ch.kraus.shape
    flat = ch.kraus.reshape(k, d * d)
    r = (flat.T @ flat.conj()).reshape(d, d, d, d)
    return r.transpose(1, 3, 0, 2).reshape(d * d, d * d)


def switch_map(
    ch0: Channel,
    ch1: Channel,
    control: ControlState,
) -> Callable[[np.ndarray], np.ndarray]:
    """Linear map for the order superposition of two channels.

    Blocks, with {K_i} and {L_j} the Kraus operators of the two channels:

        diag:      |a|^2 C1(C0(rho))            |b|^2 C0(C1(rho))
        offdiag:   a b* sum_ij L_j K_i rho L_j^dag K_i^dag    (and h.c.)

    The off-diagonal sums are invariant under remixing either Kraus list, so
    the map depends only on the two CPTP maps.  They are evaluated through
    the superoperators S0 = sum_i K_i (x) conj(K_i) and S1 = sum_j L_j (x)
    conj(L_j), built once per map, using

        sum_ij L_j K_i rho L_j^dag K_i^dag = sum_j L_j C0(rho L_j^dag)
        sum_ij K_i L_j rho K_i^dag L_j^dag = sum_i K_i C1(rho K_i^dag)

    with the inner channel applied to all k operators in one matrix product;
    the diagonal blocks are S1 S0 vec(rho) and S0 S1 vec(rho).  Building the
    map costs O((k0 + k1) d^4) and so does each evaluation, against
    O(k0 k1 d^3) for the double sum over Kraus pairs.  Like the other maps,
    it takes one matrix or a stack ``(..., d, d)``, mapped matrix by matrix.
    """
    if ch0.dim != ch1.dim:
        raise ValueError(f"channels act on different dimensions: {ch0.dim} vs {ch1.dim}")
    d = ch0.dim
    a, b = control.a, control.b
    w0 = abs(a) ** 2
    w1 = abs(b) ** 2
    cross = a * np.conj(b)
    r0 = _transfer_matrix(ch0)
    r1 = _transfer_matrix(ch1)
    # sum_j M_j X_j = [M_1 ... M_k] [X_1; ...; X_k] for the interference sums,
    # and rho [M_1^dag ... M_k^dag] holds every rho M_j^dag side by side
    row0 = ch0.kraus.transpose(1, 0, 2).reshape(d, -1)
    row1 = ch1.kraus.transpose(1, 0, 2).reshape(d, -1)
    side0 = ch0.kraus.conj().transpose(2, 0, 1).reshape(d, -1)
    side1 = ch1.kraus.conj().transpose(2, 0, 1).reshape(d, -1)

    def rows(rho, side, lead):
        """vec(rho M_j^dag) as one row per Kraus operator."""
        blocks = (rho @ side).reshape(lead + (d, -1, d))
        return np.swapaxes(blocks, -3, -2).reshape(lead + (-1, d * d))

    def output(rho) -> np.ndarray:
        rho = _map_input(rho, d)
        lead = rho.shape[:-2]
        vec = rho.reshape(lead + (d * d,))
        off01 = row1 @ (rows(rho, side1, lead) @ r0).reshape(lead + (-1, d))
        off10 = row0 @ (rows(rho, side0, lead) @ r1).reshape(lead + (-1, d))
        out = np.empty(lead + (2 * d, 2 * d), dtype=complex)
        out[..., :d, :d] = w0 * (vec @ r0 @ r1).reshape(lead + (d, d))
        out[..., d:, d:] = w1 * (vec @ r1 @ r0).reshape(lead + (d, d))
        out[..., :d, d:] = cross * off01
        out[..., d:, :d] = np.conj(cross) * off10
        return out

    return output


def switch_output(ch0: Channel, ch1: Channel, control: ControlState, rho) -> ControlledOutput:
    """Send ``rho`` through the two channels in a controlled order superposition."""
    rho = validate_density_matrix(rho)
    return ControlledOutput(switch_map(ch0, ch1, control)(rho))
