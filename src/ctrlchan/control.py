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
  lists leaves it invariant.  So :func:`switch_map` reads each channel through
  its Choi tensor, made once per map, and contracts the interference blocks
  in the cheaper of two orders, chosen once per map from (d, k0, k1): the two
  Choi tensors with the input, 2 d^5 multiply-adds per contraction, when
  min(k0, k1) >= 2d, and otherwise the channel with fewer Kraus operators
  around the other's transfer matrix, min(k0, k1) (d^4 + 2 d^3).  An input
  that equals its adjoint exactly, as a density matrix does, takes one
  contraction for both interference blocks; any other input takes two.

:func:`stinespring_oracle` recomputes the controlled output by brute force,
evolving an explicit control x target x environments pure state and tracing
the environments out.  It exists to cross-check the closed-form blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import Channel, apply
from .implementations import ChannelImplementation
from .linalg import (
    DEFAULT_TOL,
    ORACLE_SKIP,
    _check_density,
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
        # a product, not a float power, so that an overflow reads inf
        norm_sq = abs(a) * abs(a) + abs(b) * abs(b)
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
    """Joint control-target density matrix with named d x d block views.

    The matrix is checked once, on construction, as a density matrix
    (:func:`ctrlchan.linalg._check_density`): a valid one is accepted by its
    Hermitian deviation, its trace and one shifted Cholesky, without the
    stack rules, and only a matrix the Cholesky fails on pays for a
    spectrum, which refuses it or accepts it as the spectrum check would.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise ValueError(f"joint output must be square with even side, got {m.shape}")
        _check_density(m)
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
    t0, t1 = i0.t, i1.t
    w0, w1, cross = _weights(control)

    def output(rho) -> np.ndarray:
        rho = _map_input(rho, d)
        return _joint(_diagonal(i0, w0, rho), _diagonal(i1, w1, rho), cross, t0, t1, rho)

    return output


def _weights(control: ControlState) -> tuple[float, float, complex]:
    """The weights |a|^2 and |b|^2 of the diagonal blocks and the factor a b*
    of the block 01."""
    a, b = control.a, control.b
    return abs(a) ** 2, abs(b) ** 2, a * np.conj(b)


def _diagonal(impl: ChannelImplementation, weight: float, rho: np.ndarray) -> np.ndarray:
    """The diagonal block weight * C(rho) of one arm, for one matrix or a stack."""
    return weight * apply(impl.channel, rho, validate=False)


def _joint(diag0, diag1, cross: complex, t0, t1, rho: np.ndarray) -> np.ndarray:
    """Joint outputs with the given diagonal blocks and the interference blocks
    cross T0 rho T1^dag and cross* T1 rho T0^dag, for one matrix or a stack."""
    off01 = cross * (t0 @ rho @ dagger(t1))
    off10 = np.conj(cross) * (t1 @ rho @ dagger(t0))
    return _blocks(diag0, off01, off10, diag1)


def _blocks(b00, b01, b10, b11) -> np.ndarray:
    """The joint matrix [[b00, b01], [b10, b11]], control on the slow index,
    from four d x d blocks or four ``(..., d, d)`` stacks.  ``b00`` sets the
    shape; any other block may be a scalar, written into every entry."""
    d = b00.shape[-1]
    out = np.empty(b00.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    out[..., :d, :d] = b00
    out[..., :d, d:] = b01
    out[..., d:, :d] = b10
    out[..., d:, d:] = b11
    return out


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
    stays in its initial state, and vice versa.  Each branch is one product
    over all Kraus operators at once, written straight into the joint state.
    Both environments are then traced out and the results mixed with the
    eigenvalues of ``rho``.
    """
    d = _common_dim(i0, i1)
    rho = _map_input(validate_density_matrix(rho), d)
    kraus0 = i0.channel.kraus
    kraus1 = i1.channel.kraus
    e0 = _embedded_env(i0.env)
    e1 = _embedded_env(i1.env)
    w, vecs = np.linalg.eigh(rho)
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    # amp[c, x, m, n]: control c, target x, env0 slot m, env1 slot n; the
    # slots a branch never writes stay zero for every eigenvector; a branch
    # is multiplied into its slots, with no joint-sized temporary
    amp = np.zeros((2, d, e0.size, e1.size), dtype=complex)
    for lam, psi in zip(w, vecs.T):
        if lam < ORACLE_SKIP:
            continue
        # |0> branch: K_i psi with env0 in slot i + 1 and env1 untouched
        np.multiply(control.a * (kraus0 @ psi).T[:, :, None], e1, out=amp[0, :, 1:, :])
        # |1> branch: L_j psi with env1 in slot j + 1 and env0 untouched
        np.multiply(control.b * (kraus1 @ psi).T[:, None, :], e0[:, None], out=amp[1, :, :, 1:])
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
        return _blocks(_diagonal(i0, w0, rho), 0.0, 0.0, _diagonal(i1, w1, rho))

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


def _choi_tensor(ch: Channel) -> np.ndarray:
    """G[a, b, c, e] = sum_i K_i[a, b] conj(K_i[c, e]), one Gram product of the
    flattened Kraus operators: the Choi matrix C[(b, a), (e, c)] of
    :func:`~ctrlchan.channels.choi_of` with its indices in Kraus order."""
    k, d, _ = ch.kraus.shape
    flat = ch.kraus.reshape(k, d * d)
    return (flat.T @ flat.conj()).reshape(d, d, d, d)


def _transfer_matrix(g: np.ndarray) -> np.ndarray:
    """R = sum_i K_i^T (x) K_i^dag from the Choi tensor, so that vec(C(X)) =
    vec(X) R with vec the row-major flattening; R is the transpose of the
    superoperator."""
    d = g.shape[0]
    return g.transpose(1, 3, 0, 2).reshape(d * d, d * d)


def _choi_order(g_inner: np.ndarray, g_outer: np.ndarray):
    """The block X -> sum_ij M_j K_i X M_j^dag K_i^dag from the Choi tensors of
    the channel applied first ({K_i}) and second ({M_j}), for one matrix or a
    ``(..., d, d)`` stack:

        [x, y] = sum_pqrs g_outer[x, p, s, r] X[q, r] g_inner[p, q, y, s]

    The sum over r, then the one over (p, s, q), are one matrix product of
    d^5 multiply-adds each, whatever the Kraus counts.
    """
    d = g_inner.shape[0]
    rows = g_outer.reshape(d**3, d)
    cols = g_inner.transpose(0, 3, 1, 2).reshape(d**3, d)

    def block(x):
        partial = rows @ np.swapaxes(x, -1, -2)
        return partial.reshape(x.shape[:-2] + (d, d**3)) @ cols

    return block


def _sandwich_order(outer: np.ndarray, r_inner: np.ndarray):
    """The same block as sum_j M_j C_inner(X M_j^dag), with the Kraus operators
    {M_j} of the channel applied second around the transfer matrix of the
    one applied first: k (d^4 + 2 d^3) multiply-adds for k operators M_j."""
    d = outer.shape[1]
    # sum_j M_j X_j = [M_1 ... M_k] [X_1; ...; X_k], and
    # X [M_1^dag ... M_k^dag] holds every X M_j^dag side by side
    row = outer.transpose(1, 0, 2).reshape(d, -1)
    side = outer.conj().transpose(2, 0, 1).reshape(d, -1)

    def block(x):
        lead = x.shape[:-2]
        blocks = (x @ side).reshape(lead + (d, -1, d))
        vecs = np.swapaxes(blocks, -3, -2).reshape(lead + (-1, d * d))
        return row @ (vecs @ r_inner).reshape(lead + (-1, d))

    return block


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
    the map depends only on the two CPTP maps, that is on their Choi
    matrices.  Each channel's Choi tensor is one Gram product, made once per
    map; the diagonal blocks are S1 S0 vec(rho) and S0 S1 vec(rho), with the
    transfer matrices a rearrangement of it.  The block 10 at rho is the
    adjoint of the block 01 at rho^dag,

        sum_ij K_i L_j rho K_i^dag L_j^dag
            = (sum_ij L_j K_i rho^dag L_j^dag K_i^dag)^dag,

    so one contraction, of rho and rho^dag together, gives both, and when
    rho equals rho^dag bit for bit, as a density matrix does, the contraction
    of rho alone does.

    Cost per input matrix, in multiply-adds, with k_min = min(k0, k1); the
    contraction order is chosen once per map from (d, k0, k1):

    * Choi order, when k_min >= 2d: the two Choi tensors contracted with rho
      in two matrix products, 2 d^5 per block contraction;
    * sandwich order, otherwise: the channel with fewer Kraus operators
      around the other's transfer matrix, k_min (d^4 + 2 d^3) per block
      contraction.

    An exactly Hermitian input, or a stack of them, costs one block
    contraction per matrix; any other input costs two.

    Either is at most the (k0 + k1)(d^4 + 2 d^3) of a sandwich around each
    channel in turn, and the crossover 2d sits a little above the flop
    balance 2 d^2 / (d + 2).  The diagonal blocks add 4 d^4, and building the
    map (k0 + k1) d^4 for the two Choi tensors, against k0 k1 d^3 per input
    for the double sum over Kraus pairs.  Like the other maps, it takes one
    matrix or a stack ``(..., d, d)``, mapped matrix by matrix.
    """
    if ch0.dim != ch1.dim:
        raise ValueError(f"channels act on different dimensions: {ch0.dim} vs {ch1.dim}")
    d = ch0.dim
    w0, w1, cross = _weights(control)
    k0, k1 = len(ch0.kraus), len(ch1.kraus)
    # block gives the block 01 (ch0 first, then ch1), or the block 10 when
    # the sandwich order puts ch0 outside because it has fewer Kraus operators
    if min(k0, k1) >= 2 * d:
        swap = False
        g0 = _choi_tensor(ch0)
        g1 = _choi_tensor(ch1)
        block = _choi_order(g0, g1)
        r0 = _transfer_matrix(g0)
        r1 = _transfer_matrix(g1)
    else:
        swap = k0 < k1
        # no Choi tensor outlives its transfer matrix, as the d^4 temporaries
        # set the build time at d = 16
        r0 = _transfer_matrix(_choi_tensor(ch0))
        r1 = _transfer_matrix(_choi_tensor(ch1))
        block = _sandwich_order(ch0.kraus, r1) if swap else _sandwich_order(ch1.kraus, r0)

    def output(rho) -> np.ndarray:
        rho = _map_input(rho, d)
        lead = rho.shape[:-2]
        vec = rho.reshape(lead + (d * d,))
        adjoint = rho.conj().swapaxes(-1, -2)
        if np.array_equal(rho, adjoint):
            # block(rho^dag) would repeat block(rho) on the same numbers
            direct = block(rho)
            mirrored = direct.conj().swapaxes(-1, -2)
        else:
            both = block(np.array((rho, adjoint)))
            direct, mirrored = both[0], both[1].conj().swapaxes(-1, -2)
        off01, off10 = (mirrored, direct) if swap else (direct, mirrored)
        return _blocks(
            w0 * (vec @ r0 @ r1).reshape(lead + (d, d)),
            cross * off01,
            np.conj(cross) * off10,
            w1 * (vec @ r1 @ r0).reshape(lead + (d, d)),
        )

    return output


def switch_output(ch0: Channel, ch1: Channel, control: ControlState, rho) -> ControlledOutput:
    """Send ``rho`` through the two channels in a controlled order superposition."""
    rho = validate_density_matrix(rho)
    return ControlledOutput(switch_map(ch0, ch1, control)(rho))
