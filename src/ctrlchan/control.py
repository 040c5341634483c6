"""Joint control-target outputs for channel pairs under a quantum control.

The control is a pure :class:`ControlState` a|0> + b|1> or a 2 x 2 density
matrix rho_c, checked once when a map is built: its diagonal weights the two
arms, its coherence (a b* or rho_c[0, 1]) the interference blocks.  Classical
control is the control with no coherence, diag(w0, w1), whose interference
blocks are exact +0.0, made without the T products.

Two global maps are provided, both returning the (2d x 2d) joint state of
the control qubit and the target in 2 x 2 block form.  Each comes as a map
factory (:func:`controlled_map`, :func:`switch_map`) whose map takes one
d x d matrix or a ``(..., d, d)`` stack, writing the four blocks of each
output into one preallocated array (:mod:`ctrlchan.info` maps whole stacks
in one call), and as a function that validates one density matrix and wraps
the output:

* :func:`controlled_output` routes the target through one of two channel
  boxes in superposition.  The diagonal blocks are the individual channel
  outputs; the off-diagonal (interference) blocks are governed by the
  transformation matrices of the two implementations, so the result depends
  on *how* each channel is realised, not just on the CPTP maps.
* :func:`switch_output` applies the two channels in an order entangled with
  the control.  Its output depends only on the CPTP maps; remixing the Kraus
  lists leaves it invariant.  So :func:`switch_map` reads each channel through
  its Choi tensor, made once per map, and contracts the two Choi tensors with
  the input, 2 d^5 multiply-adds per contraction whatever the Kraus counts.
  An input that equals its adjoint exactly, as a density matrix does, takes
  one contraction for both interference blocks; any other input takes two.

:func:`stinespring_oracle` recomputes the controlled output by brute force,
evolving an explicit control x target x environments pure state and tracing
the environments out, so it takes a pure control only.  It exists to
cross-check the closed-form blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channels import Channel, _choi_tensor, apply
from .implementations import ChannelImplementation
from .linalg import (
    DEFAULT_TOL,
    ORACLE_SKIP,
    _density_rules,
    _eigh,
    _finite,
    _one_plus,
    _refuse_negative,
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

    The matrix is copied once, to a read-only complex array, and the copy is
    checked once as a density matrix (:func:`ctrlchan.linalg.validate_density_matrix`):
    a valid one is accepted by its Hermitian deviation, its trace and one
    shifted Cholesky, and only a matrix the Cholesky fails on pays for a
    spectrum, which refuses it or accepts it as the spectrum check would.
    The outputs the library builds are checked alike and frozen in place,
    uncopied, since no caller holds them.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _joint_output(readonly(self.matrix)))

    @classmethod
    def _adopt(cls, m: np.ndarray) -> "ControlledOutput":
        """The output on a fresh complex matrix that no caller holds, as the
        library's maps build them: checked as the constructor checks its
        copy, then frozen in place, with no copy."""
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", _joint_output(m))
        m.setflags(write=False)
        return out

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


def _joint_output(m: np.ndarray) -> np.ndarray:
    """Refuse a complex array that is not a square matrix of even side or
    not a density matrix; return it."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
        raise ValueError(f"joint output must be square with even side, got {m.shape}")
    return validate_density_matrix(m)


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
    control: ControlState | np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Linear map rho -> joint output matrix, as a plain function.

    The returned function evaluates the block form

        [[ |a|^2 C0(rho),        a b* T0 rho T1^dag ],
         [ a* b T1 rho T0^dag,   |b|^2 C1(rho)      ]]

    and accepts arbitrary square matrices: it is linear in rho, so it can be
    applied to operator blocks as well as to density matrices.  A stack
    ``(..., d, d)`` is mapped matrix by matrix into ``(..., 2d, 2d)``.  A
    control density matrix puts rho_c[0, 0], rho_c[1, 1] and rho_c[0, 1] in
    place of |a|^2, |b|^2 and a b*.
    """
    d = _common_dim(i0, i1)
    t0, t1 = i0.t, i1.t
    w0, w1, cross = _weights(control)

    def output(rho) -> np.ndarray:
        rho = _map_input(rho, d)
        return _joint(_diagonal(i0, w0, rho), _diagonal(i1, w1, rho), cross, t0, t1, rho)

    return output


def _weights(control: ControlState | np.ndarray) -> tuple[float, float, complex]:
    """The one reader of a control: the weights of the diagonal blocks and the
    coherence, the factor of the block 01; |a|^2, |b|^2 and a b* of a pure
    control, or rho_c[0, 0], rho_c[1, 1] and rho_c[0, 1], checked here."""
    if isinstance(control, ControlState):
        a, b = control.a, control.b
        return abs(a) ** 2, abs(b) ** 2, a * np.conj(b)
    try:
        rho_c = validate_density_matrix(control)
    except ValueError as exc:
        raise ValueError(f"control {exc}") from exc
    if rho_c.shape != (2, 2):
        raise ValueError(f"control density matrix must be 2 x 2, got shape {rho_c.shape}")
    return rho_c[0, 0].real, rho_c[1, 1].real, rho_c[0, 1]


def _diagonal(impl: ChannelImplementation, weight: float, rho: np.ndarray) -> np.ndarray:
    """The diagonal block weight * C(rho) of one arm, for one matrix or a stack."""
    return weight * apply(impl.channel, rho)


def _joint(diag0, diag1, cross: complex, t0, t1, rho: np.ndarray) -> np.ndarray:
    """Joint outputs with the given diagonal blocks and the interference blocks
    cross T0 rho T1^dag and cross* T1 rho T0^dag, for one matrix or a stack;
    with no coherence, cross = 0, they are exact +0.0, without the T products."""
    if cross == 0:
        return _blocks(diag0, 0.0, 0.0, diag1)
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
    control: ControlState | np.ndarray,
    rho,
) -> ControlledOutput:
    """Coherently control between two channel implementations on input ``rho``."""
    rho = validate_density_matrix(rho)
    return ControlledOutput._adopt(controlled_map(i0, i1, control)(rho))


def _embedded_env(env: np.ndarray) -> np.ndarray:
    """Environment state on a register one slot larger than the dilation basis.

    Slot 0 carries the part of the initial state outside the span of the
    dilation basis states, so subnormalised amplitude vectors embed exactly.
    """
    weight = float(np.vdot(env, env).real)
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
    eigenvalues of ``rho``.  That eigendecomposition checks ``rho`` too: it
    refuses, with the same messages, every matrix that
    :func:`ctrlchan.linalg.validate_density_matrix` refuses.
    """
    if not isinstance(control, ControlState):
        raise ValueError("stinespring_oracle needs a pure ControlState control")
    d = _common_dim(i0, i1)
    # rho is checked on the eigendecomposition the dilation needs anyway: the
    # rules of validate_density_matrix, with its messages, then the spectrum
    rho = _density_rules(as_matrix(rho))
    w, vecs = _eigh(rho)
    _refuse_negative(w)
    _map_input(rho, d)
    kraus0 = i0.channel.kraus
    kraus1 = i1.channel.kraus
    e0 = _embedded_env(i0.env)
    e1 = _embedded_env(i1.env)
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    # amp[c, x, m, n]: control c, target x, env0 slot m, env1 slot n; a
    # branch is multiplied into its slots, with no joint-sized temporary, and
    # the two planes no branch writes, env0 slot 0 of |0> and env1 slot 0 of
    # |1>, are zeroed once and stay zero for every eigenvector
    amp = np.empty((2, d, e0.size, e1.size), dtype=complex)
    amp[0, :, 0, :] = 0.0
    amp[1, :, :, 0] = 0.0
    for lam, psi in zip(w, vecs.T):
        if lam < ORACLE_SKIP:
            continue
        # |0> branch: K_i psi with env0 in slot i + 1 and env1 untouched
        np.multiply(control.a * (kraus0 @ psi).T[:, :, None], e1, out=amp[0, :, 1:, :])
        # |1> branch: L_j psi with env1 in slot j + 1 and env0 untouched
        np.multiply(control.b * (kraus1 @ psi).T[:, None, :], e0[:, None], out=amp[1, :, :, 1:])
        joint = amp.reshape(2 * d, -1)
        out += lam * (joint @ joint.conj().T)
    return ControlledOutput._adopt(out)


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


def switch_map(
    ch0: Channel,
    ch1: Channel,
    control: ControlState | np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Linear map for the order superposition of two channels.

    Blocks, with {K_i} and {L_j} the Kraus operators of the two channels:

        diag:      |a|^2 C1(C0(rho))            |b|^2 C0(C1(rho))
        offdiag:   a b* sum_ij L_j K_i rho L_j^dag K_i^dag    (and h.c.)

    with a control density matrix read as in :func:`controlled_map`.

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

    Cost per input matrix, in multiply-adds: the two Choi tensors contracted
    with rho in two matrix products, 2 d^5 per block contraction, one for an
    exactly Hermitian input, or a stack of them, and two for any other.  The
    diagonal blocks add 4 d^4, and building the map (k0 + k1) d^4 for the two
    Choi tensors, against k0 k1 d^3 per input for the double sum over Kraus
    pairs.  Like the other maps, it takes one matrix or a stack
    ``(..., d, d)``, mapped matrix by matrix.
    """
    if ch0.dim != ch1.dim:
        raise ValueError(f"channels act on different dimensions: {ch0.dim} vs {ch1.dim}")
    d = ch0.dim
    w0, w1, cross = _weights(control)
    g0, g1 = _choi_tensor(ch0), _choi_tensor(ch1)
    block = _choi_order(g0, g1)
    r0, r1 = _transfer_matrix(g0), _transfer_matrix(g1)

    def output(rho) -> np.ndarray:
        rho = _map_input(rho, d)
        lead = rho.shape[:-2]
        vec = rho.reshape(lead + (d * d,))
        diag0 = w0 * (vec @ r0 @ r1).reshape(lead + (d, d))
        diag1 = w1 * (vec @ r1 @ r0).reshape(lead + (d, d))
        if cross == 0:
            return _blocks(diag0, 0.0, 0.0, diag1)
        adjoint = rho.conj().swapaxes(-1, -2)
        if not (rho != adjoint).any():
            # block(rho^dag) would repeat block(rho) on the same numbers
            direct = block(rho)
            mirrored = direct.conj().swapaxes(-1, -2)
        else:
            both = block(np.array((rho, adjoint)))
            direct, mirrored = both[0], both[1].conj().swapaxes(-1, -2)
        return _blocks(diag0, cross * direct, np.conj(cross) * mirrored, diag1)

    return output


def switch_output(
    ch0: Channel, ch1: Channel, control: ControlState | np.ndarray, rho
) -> ControlledOutput:
    """Send ``rho`` through the two channels in a controlled order superposition."""
    rho = validate_density_matrix(rho)
    return ControlledOutput._adopt(switch_map(ch0, ch1, control)(rho))
