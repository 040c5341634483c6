"""Tests for coherent control, the dilation oracle, the classical-control
baseline and the order-superposing switch."""

import numpy as np
import pytest

from ctrlchan.channels import Channel, remix, standard_channel
from ctrlchan.control import (
    ControlState,
    ControlledOutput,
    _blocks,
    classical_control,
    classical_map,
    controlled_map,
    controlled_output,
    stinespring_oracle,
    switch_map,
    switch_output,
)
from ctrlchan.implementations import ChannelImplementation, standard_implementation
from ctrlchan.linalg import (
    SIGMA_X,
    dagger,
    ket,
    partial_trace,
    projector,
)
from ctrlchan.sampling import (
    haar_isometry,
    random_channel,
    random_density_matrix,
    random_depolarising_t,
    random_env,
    random_implementation,
    random_pure_state,
)

PLUS = ControlState.plus()


def plus_state():
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


class TestControlState:
    def test_plus(self):
        c = ControlState.plus()
        assert abs(c.a - 1 / np.sqrt(2)) < 1e-14 and abs(c.b - 1 / np.sqrt(2)) < 1e-14

    def test_basis(self):
        assert ControlState.basis(0).a == 1 and ControlState.basis(0).b == 0
        assert ControlState.basis(1).a == 0 and ControlState.basis(1).b == 1

    def test_unnormalised_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            ControlState(1.0, 1.0)

    def test_bad_basis_index(self):
        with pytest.raises(ValueError):
            ControlState.basis(2)

    def test_excess_over_one_is_printed(self):
        with pytest.raises(ValueError, match=r"squared norm 1 \+ 2\.000e-09"):
            ControlState(1.0, np.sqrt(2e-9))

    @pytest.mark.parametrize(
        "a, b", [(1e200, 0.0), (0.0, 1e200j), (1e155, 1e155)], ids=["a", "b", "sum"]
    )
    def test_overflowing_amplitude_refused_by_name(self, a, b):
        # a finite amplitude whose square overflows reads inf, not OverflowError
        with pytest.raises(ValueError, match=r"^control amplitudes have squared norm 1 \+ inf$"):
            ControlState(a, b)

    @pytest.mark.parametrize(
        "a, b, index",
        [(np.nan, 1.0, 0), (1.0, np.inf, 1), (complex(0.0, np.nan), 0.0, 0), (np.inf, np.nan, 0)],
        ids=["nan-a", "inf-b", "nan-imag", "both"],
    )
    def test_non_finite_amplitude_rejected(self, a, b, index):
        with pytest.raises(
            ValueError, match=rf"^control state \(a, b\) has a non-finite entry .* at index \({index},\)$"
        ):
            ControlState(a, b)


class TestControlledOutputType:
    def test_blocks(self):
        m = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
        out = ControlledOutput(m)
        assert out.target_dim == 2
        assert np.allclose(out.diag0, np.diag([0.4, 0.1]))
        assert np.allclose(out.diag1, np.diag([0.3, 0.2]))
        assert np.allclose(out.offdiag01, np.zeros((2, 2)))
        assert np.allclose(out.offdiag10, dagger(out.offdiag01))

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            ControlledOutput(np.eye(4))

    def test_trace_excess_is_printed(self):
        m = np.diag([0.5 + 2e-9, 0.5 + 2e-9, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"trace 1 \+ 4\.000e-09, expected 1"):
            ControlledOutput(m)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            ControlledOutput(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_rejects_non_hermitian(self):
        m = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
        m[0, 2] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            ControlledOutput(m)

    def test_rejects_odd_side(self):
        with pytest.raises(ValueError, match="even side"):
            ControlledOutput(np.eye(3) / 3)


class TestControlledOutput:
    def test_transparent_arms(self):
        i0 = standard_implementation("identity", d=2, alpha=1.0)
        rho = projector(random_pure_state(2, np.random.default_rng(0)))
        out = controlled_output(i0, i0, PLUS, rho)
        expected = np.kron(projector(plus_state()), rho)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_depolarising_pair_block_form(self):
        rng = np.random.default_rng(1)
        t = random_depolarising_t(2, rng)
        impl = standard_implementation("depolarising", t=t)
        rho = random_density_matrix(2, rng)
        out = controlled_output(impl, impl, PLUS, rho)
        expected = np.kron(np.eye(2) / 2, np.eye(2) / 2) + 0.5 * np.kron(
            SIGMA_X, t @ rho @ dagger(t)
        )
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_control_in_basis_state(self):
        rng = np.random.default_rng(2)
        i0 = random_implementation(2, 2, rng)
        i1 = random_implementation(2, 3, rng)
        rho = random_density_matrix(2, rng)
        out = controlled_output(i0, i1, ControlState.basis(0), rho)
        from ctrlchan.channels import apply
        assert np.max(np.abs(out.diag0 - apply(i0.channel, rho))) <= 1e-12
        assert np.max(np.abs(out.offdiag01)) == 0.0
        assert np.max(np.abs(out.diag1)) == 0.0

    def test_output_is_valid_state(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            i0 = random_implementation(2, 3, rng)
            i1 = random_implementation(2, 2, rng)
            rho = random_density_matrix(2, rng)
            out = controlled_output(i0, i1, PLUS, rho)
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-10

    def test_dimension_mismatch(self):
        i0 = standard_implementation("identity", d=2, alpha=1.0)
        i1 = standard_implementation("identity", d=3, alpha=1.0)
        with pytest.raises(ValueError, match="dimension"):
            controlled_output(i0, i1, PLUS, np.eye(2) / 2)

    def test_map_is_linear(self):
        rng = np.random.default_rng(4)
        i0 = random_implementation(2, 2, rng)
        i1 = random_implementation(2, 2, rng)
        f = controlled_map(i0, i1, PLUS)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.allclose(f(a + 2.0j * b), f(a) + 2.0j * f(b), atol=1e-12)


def _oracle_per_kraus(i0, i1, control, rho):
    """The dilation oracle filled one Kraus operator at a time: for each
    eigenvector of rho, an explicit control x target x env0 x env1 amplitude
    tensor, with env slot 0 holding the weight outside the dilation basis."""
    d = i0.dim

    def embedded(env):
        return np.concatenate(([np.sqrt(max(1.0 - float(np.sum(np.abs(env) ** 2)), 0.0))], env))

    e0, e1 = embedded(i0.env), embedded(i1.env)
    w, vecs = np.linalg.eigh(rho)
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    for lam, psi in zip(w, vecs.T):
        if lam < 1e-12:
            continue
        amp = np.zeros((2, d, e0.size, e1.size), dtype=complex)
        for i, k in enumerate(i0.channel.kraus):
            amp[0, :, i + 1, :] += control.a * np.outer(k @ psi, e1)
        for j, l in enumerate(i1.channel.kraus):
            amp[1, :, :, j + 1] += control.b * np.outer(l @ psi, e0)
        joint = amp.reshape(2 * d, -1)
        out += lam * (joint @ joint.conj().T)
    return out


class TestStinespringOracle:
    def test_matches_closed_form_qubit(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            i0 = random_implementation(2, int(rng.integers(1, 5)), rng)
            i1 = random_implementation(2, int(rng.integers(1, 5)), rng)
            amps = random_pure_state(2, rng)
            c = ControlState(amps[0], amps[1])
            rho = projector(random_pure_state(2, rng))
            closed = controlled_output(i0, i1, c, rho)
            oracle = stinespring_oracle(i0, i1, c, rho)
            assert np.max(np.abs(closed.matrix - oracle.matrix)) <= 1e-10

    def test_matches_closed_form_qutrit(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            i0 = random_implementation(3, 3, rng)
            i1 = random_implementation(3, 3, rng)
            rho = random_density_matrix(3, rng)
            closed = controlled_output(i0, i1, PLUS, rho)
            oracle = stinespring_oracle(i0, i1, PLUS, rho)
            assert np.max(np.abs(closed.matrix - oracle.matrix)) <= 1e-10

    def test_basis_control_gives_channel_output(self):
        rng = np.random.default_rng(7)
        i0 = random_implementation(2, 3, rng)
        i1 = random_implementation(2, 2, rng)
        rho = random_density_matrix(2, rng)
        out = stinespring_oracle(i0, i1, ControlState.basis(0), rho)
        from ctrlchan.channels import apply
        target = partial_trace(out.matrix, 2, 2, keep="second")
        assert np.max(np.abs(target - apply(i0.channel, rho))) <= 1e-10

    def test_subnormalised_env_embedding(self):
        # the untouched arm keeps its environment weight outside the dilation basis
        rng = np.random.default_rng(8)
        ch = random_channel(2, 2, rng)
        i0 = ChannelImplementation(ch, random_env(2, rng, norm=0.3))
        i1 = ChannelImplementation(ch, random_env(2, rng, norm=1.0))
        rho = random_density_matrix(2, rng)
        closed = controlled_output(i0, i1, PLUS, rho)
        oracle = stinespring_oracle(i0, i1, PLUS, rho)
        assert np.max(np.abs(closed.matrix - oracle.matrix)) <= 1e-10

    @pytest.mark.parametrize("k0, k1", [(1, 64), (64, 1), (64, 64)])
    def test_matches_closed_form_d8(self, k0, k1):
        # a full-rank input, so no eigenvector is skipped: the branches are
        # written into the same joint state 8 times, with unequal Kraus counts
        rng = np.random.default_rng(300 + k0 + k1)
        i0 = random_implementation(8, k0, rng)
        i1 = random_implementation(8, k1, rng)
        amps = random_pure_state(2, rng)
        c = ControlState(amps[0], amps[1])
        rho = random_density_matrix(8, rng)
        assert np.linalg.eigvalsh(rho)[0] > 1e-6
        closed = controlled_output(i0, i1, c, rho)
        oracle = stinespring_oracle(i0, i1, c, rho)
        assert np.max(np.abs(closed.matrix - oracle.matrix)) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_per_kraus_loop(self, d):
        rng = np.random.default_rng(200 + d)
        # one Kraus operator, d^2 of them, and a dependent set: two operators
        # remixed into d + 3 by a taller isometry
        channels = [
            random_channel(d, 1, rng),
            random_channel(d, d * d, rng),
            remix(random_channel(d, 2, rng), haar_isometry(d + 3, 2, rng)),
        ]
        impls = [
            ChannelImplementation(ch, random_env(len(ch.kraus), rng, norm=norm))
            for ch in channels
            for norm in (0.0, 0.6, 1.0)
        ]
        amp = random_pure_state(2, rng)
        controls = [ControlState.basis(0), ControlState.basis(1), ControlState(amp[0], amp[1])]
        # rank d - 1 (pure for a qubit) with d - 1 equal nonzero eigenvalues
        frame = haar_isometry(d, d, rng)[:, : max(d - 1, 1)]
        degenerate = frame @ frame.conj().T / frame.shape[1]
        states = [random_density_matrix(d, rng), projector(random_pure_state(d, rng)), degenerate]
        for i0, i1 in zip(impls, impls[1:] + impls[:1]):
            for control in controls:
                for rho in states:
                    got = stinespring_oracle(i0, i1, control, rho).matrix
                    ref = _oracle_per_kraus(i0, i1, control, rho)
                    assert np.max(np.abs(got - ref)) <= 1e-12


class TestClassicalControl:
    def test_depolarising_pair_is_input_independent(self):
        rng = np.random.default_rng(9)
        depol = standard_channel("depolarising", 2)
        i0 = ChannelImplementation(depol, random_env(4, rng))
        i1 = ChannelImplementation(depol, random_env(4, rng))
        ref = classical_control(i0, i1, (0.25, 0.75), random_density_matrix(2, rng))
        for _ in range(10):
            out = classical_control(i0, i1, (0.25, 0.75), random_density_matrix(2, rng))
            assert np.max(np.abs(out.matrix - ref.matrix)) <= 1e-12

    def test_degenerate_weights(self):
        rng = np.random.default_rng(10)
        i0 = random_implementation(2, 2, rng)
        i1 = random_implementation(2, 2, rng)
        rho = random_density_matrix(2, rng)
        out = classical_control(i0, i1, (1.0, 0.0), rho)
        from ctrlchan.channels import apply
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = apply(i0.channel, rho)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_equals_decohered_controlled_output(self):
        rng = np.random.default_rng(11)
        i0 = random_implementation(2, 3, rng)
        i1 = random_implementation(2, 2, rng)
        rho = random_density_matrix(2, rng)
        w0 = rng.uniform(0.1, 0.9)
        c = ControlState(np.sqrt(w0), np.sqrt(1 - w0))
        coherent = controlled_output(i0, i1, c, rho).matrix.copy()
        coherent[:2, 2:] = 0.0
        coherent[2:, :2] = 0.0
        mixed = classical_control(i0, i1, (w0, 1 - w0), rho)
        assert np.max(np.abs(mixed.matrix - coherent)) <= 1e-12

    def test_interference_blocks_are_positive_zeros(self):
        # every entry off the diagonal blocks is +0.0 + 0.0j, for one matrix and a stack
        rng = np.random.default_rng(12)
        d = 3
        i0, i1 = random_implementation(d, 2, rng), random_implementation(d, 4, rng)
        out_map = classical_map(i0, i1, (0.4, 0.6))
        for rho in (_random_block(d, rng), np.stack([_random_block(d, rng) for _ in range(2)])):
            out = out_map(rho)
            off = np.stack([out[..., :d, d:], out[..., d:, :d]]).view(float)
            assert not off.any() and not np.signbit(off).any()

    def test_invalid_weights(self):
        i0 = standard_implementation("identity", d=2, alpha=1.0)
        with pytest.raises(ValueError, match="weights"):
            classical_control(i0, i0, (0.5, 0.6), np.eye(2) / 2)

    @pytest.mark.parametrize(
        "weights, index",
        [((np.nan, 1.0), 0), ((1.0, np.nan), 1), ((np.inf, 0.0), 0), ((0.5, -np.inf), 1)],
        ids=["nan-w0", "nan-w1", "inf-w0", "-inf-w1"],
    )
    def test_non_finite_weights_rejected(self, weights, index):
        i0 = standard_implementation("identity", d=2, alpha=1.0)
        with pytest.raises(
            ValueError, match=rf"^weight pair \(w0, w1\) has a non-finite entry .* at index \({index},\)$"
        ):
            classical_map(i0, i0, weights)


def _random_block(d, rng):
    """A non-Hermitian d x d operator block."""
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _switch_double_sum(ch0, ch1, joint_in):
    p0 = projector(ket(0, 2))
    p1 = projector(ket(1, 2))
    out = np.zeros_like(joint_in)
    for k in ch0.kraus:
        for l in ch1.kraus:
            w = np.kron(p0, l @ k) + np.kron(p1, k @ l)
            out += w @ joint_in @ dagger(w)
    return out


def _switch_dilation(ch0, ch1, joint_in):
    d = ch0.dim
    k0, k1 = len(ch0.kraus), len(ch1.kraus)
    # isometry (control x target) -> (control x target x env0 x env1)
    v = np.zeros((2 * d * k0 * k1, 2 * d), dtype=complex)
    for i, k in enumerate(ch0.kraus):
        for j, l in enumerate(ch1.kraus):
            env = np.kron(ket(i, k0)[:, None], ket(j, k1)[:, None])
            v += np.kron(np.kron(projector(ket(0, 2)), l @ k), env)
            v += np.kron(np.kron(projector(ket(1, 2)), k @ l), env)
    # trace out both environments without forming the full joint matrix
    blocks = v.reshape(2 * d, k0 * k1, 2 * d)
    return np.einsum("aeb,bc,dec->ad", blocks, joint_in, blocks.conj())


class TestSwitch:
    def test_depolarising_pair_structure(self):
        # fully noisy arms still pass the input through the interference block
        rng = np.random.default_rng(12)
        depol = standard_channel("depolarising", 2)
        rho = random_density_matrix(2, rng)
        out = switch_output(depol, depol, PLUS, rho)
        expected = np.kron(np.eye(2) / 2, np.eye(2) / 2) + 0.5 * np.kron(SIGMA_X, rho / 4)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_identity_arms(self):
        rho = projector(random_pure_state(2, np.random.default_rng(13)))
        ident = standard_channel("identity", 2)
        out = switch_output(ident, ident, PLUS, rho)
        assert np.max(np.abs(out.matrix - np.kron(projector(plus_state()), rho))) <= 1e-12

    def test_one_identity_arm_composes(self):
        rng = np.random.default_rng(14)
        ch = random_channel(2, 3, rng)
        ident = standard_channel("identity", 2)
        rho = random_density_matrix(2, rng)
        out = switch_output(ch, ident, PLUS, rho)
        from ctrlchan.channels import apply
        assert np.max(np.abs(out.diag0 - 0.5 * apply(ch, rho))) <= 1e-12
        assert np.max(np.abs(out.diag1 - 0.5 * apply(ch, rho))) <= 1e-12
        # off-diagonal reduces to (1/2) sum_i K_i rho K_i^dag as well
        assert np.max(np.abs(out.offdiag01 - 0.5 * apply(ch, rho))) <= 1e-12

    def test_remix_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            k0 = int(rng.integers(1, 5))
            k1 = int(rng.integers(1, 5))
            ch0 = random_channel(2, k0, rng)
            ch1 = random_channel(2, k1, rng)
            u0 = haar_isometry(k0 + 1, k0, rng)
            u1 = haar_isometry(k1, k1, rng)
            rho = random_density_matrix(2, rng)
            a = switch_output(ch0, ch1, PLUS, rho)
            b = switch_output(remix(ch0, u0), remix(ch1, u1), PLUS, rho)
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-10

    def test_coherent_control_is_implementation_sensitive(self):
        # two dilations of the same noisy channel produce visibly different
        # joint outputs, while the switch cannot tell the dilations apart
        depol = standard_channel("depolarising", 2)
        uniform = ChannelImplementation(depol, np.full(4, 0.5, dtype=complex))
        concentrated = ChannelImplementation(
            depol, np.array([1.0, 0, 0, 0], dtype=complex)
        )
        rho = projector(ket(0, 2))
        out_u = controlled_output(uniform, uniform, PLUS, rho)
        out_c = controlled_output(concentrated, concentrated, PLUS, rho)
        from ctrlchan.discrimination import trace_distance
        assert trace_distance(out_u.matrix, out_c.matrix) >= 0.1
        # the switch sees only the CPTP maps: any Kraus representation of the
        # same channel gives the same output
        rng = np.random.default_rng(18)
        remixed = remix(depol, haar_isometry(4, 4, rng))
        a = switch_output(depol, depol, PLUS, rho)
        b = switch_output(remixed, remixed, PLUS, rho)
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_double_sum_and_dilation(self, d):
        # two references that share nothing with switch_map: the switch Kraus
        # operators W_ij = |0><0| (x) L_j K_i + |1><1| (x) K_i L_j summed
        # literally, and an explicit isometry into control x target x env0 x
        # env1 whose environments are traced out afterwards
        rng = np.random.default_rng(100 + d)
        controls = [ControlState.basis(0), ControlState.basis(1)]
        for _ in range(2):
            amp = random_pure_state(2, rng)
            controls.append(ControlState(amp[0], amp[1]))
        k_pairs = [(1, d * d), (d * d, 2), (2, 3), (d + 1, d)]
        for (k0, k1), control in zip(k_pairs, controls):
            ch0 = random_channel(d, k0, rng)
            ch1 = random_channel(d, k1, rng)
            out_map = switch_map(ch0, ch1, control)
            c = np.array([control.a, control.b])
            for x in (random_density_matrix(d, rng), _random_block(d, rng)):
                joint_in = np.kron(np.outer(c, c.conj()), x)
                got = out_map(x)
                assert np.max(np.abs(got - _switch_double_sum(ch0, ch1, joint_in))) <= 1e-12
                assert np.max(np.abs(got - _switch_dilation(ch0, ch1, joint_in))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            switch_output(
                standard_channel("identity", 2),
                standard_channel("identity", 3),
                PLUS,
                np.eye(2) / 2,
            )


def _switch_reference(ch0, ch1, control, x):
    c = np.array([control.a, control.b])
    return _switch_double_sum(ch0, ch1, np.kron(np.outer(c, c.conj()), x))


def _with_faint_operator(ch, rng, weight=1e-8):
    """``ch`` scaled by 1 - weight, plus one unitary Kraus operator of ``weight``."""
    faint = np.sqrt(weight) * haar_isometry(ch.dim, ch.dim, rng)
    return Channel(np.concatenate((np.sqrt(1.0 - weight) * ch.kraus, faint[None])))


class TestSwitchContraction:
    # switch_map contracts its interference blocks in the Choi order when
    # min(k0, k1) >= 2d and in the sandwich order otherwise; each case is
    # checked against the literal double sum over Kraus pairs.
    @pytest.mark.parametrize(
        "d, k0, k1",
        [(8, 15, 64), (8, 16, 64), (8, 64, 15), (16, 1, 256), (16, 256, 1), (16, 17, 16)],
    )
    def test_matches_double_sum_across_the_crossover(self, d, k0, k1):
        rng = np.random.default_rng(1000 * d + k0 + k1)
        ch0 = random_channel(d, k0, rng)
        ch1 = random_channel(d, k1, rng)
        amp = random_pure_state(2, rng)
        control = ControlState(amp[0], amp[1])
        out_map = switch_map(ch0, ch1, control)
        for x in (random_density_matrix(d, rng), _random_block(d, rng)):
            ref = _switch_reference(ch0, ch1, control, x)
            assert np.max(np.abs(out_map(x) - ref)) <= 1e-12

    def test_choi_tensor_is_the_choi_matrix(self):
        # G[a, b, c, e] = C[(b, a), (e, c)]: the numbers choi_of returns
        from ctrlchan.channels import choi_of
        from ctrlchan.control import _choi_tensor

        rng = np.random.default_rng(1050)
        for d, k in ((2, 1), (3, 5), (4, 16)):
            ch = random_channel(d, k, rng)
            choi = choi_of(ch).reshape(d, d, d, d).transpose(1, 0, 3, 2)
            assert np.max(np.abs(_choi_tensor(ch) - choi)) <= 1e-15

    @pytest.mark.parametrize("k0, k1", [(2, 16), (16, 2), (8, 16), (16, 8)])
    @pytest.mark.parametrize("index", [0, 1])
    def test_basis_control_leaves_one_exact_diagonal_block(self, k0, k1, index):
        d = 4
        rng = np.random.default_rng(1100 + 10 * k0 + k1 + index)
        ch0 = random_channel(d, k0, rng)
        ch1 = random_channel(d, k1, rng)
        control = ControlState.basis(index)
        out_map = switch_map(ch0, ch1, control)
        for x in (random_density_matrix(d, rng), _random_block(d, rng)):
            got = out_map(x)
            assert np.max(np.abs(got - _switch_reference(ch0, ch1, control, x))) <= 1e-12
            keep = slice(index * d, (index + 1) * d)
            zeroed = got.copy()
            zeroed[keep, keep] = 0.0
            assert np.all(zeroed == 0.0)

    @pytest.mark.parametrize("k0, k1", [(3, 16), (16, 3), (8, 16), (16, 9)])
    def test_stack_matches_each_member(self, k0, k1):
        d = 4
        rng = np.random.default_rng(1200 + 10 * k0 + k1)
        amp = random_pure_state(2, rng)
        out_map = switch_map(
            random_channel(d, k0, rng), random_channel(d, k1, rng), ControlState(amp[0], amp[1])
        )
        mixed = np.array(
            [[random_density_matrix(d, rng), _random_block(d, rng), _random_block(d, rng)]
             for _ in range(2)]
        )
        states = np.array([[random_density_matrix(d, rng) for _ in range(3)] for _ in range(2)])
        for stack in (mixed, states):
            got = out_map(stack)
            assert got.shape == (2, 3, 2 * d, 2 * d)
            for idx in np.ndindex(2, 3):
                assert np.max(np.abs(got[idx] - out_map(stack[idx]))) <= 1e-13

    @pytest.fixture
    def contractions(self, monkeypatch):
        """Shapes of the arguments the switch map's block closure receives."""
        import ctrlchan.control as control

        shapes = []

        def recording(order):
            def make(*args):
                block = order(*args)

                def counted(x):
                    shapes.append(np.shape(x))
                    return block(x)

                return counted

            return make

        for name in ("_choi_order", "_sandwich_order"):
            monkeypatch.setattr(control, name, recording(getattr(control, name)))
        return shapes

    @pytest.mark.parametrize("k0, k1", [(8, 16), (3, 16), (16, 3)], ids=["choi", "sandwich-swap", "sandwich"])
    def test_exactly_hermitian_input_is_contracted_once(self, contractions, k0, k1):
        d = 4
        rng = np.random.default_rng(1250 + 10 * k0 + k1)
        ch0, ch1 = random_channel(d, k0, rng), random_channel(d, k1, rng)
        out_map = switch_map(ch0, ch1, PLUS)
        state = random_density_matrix(d, rng)
        states = np.array([random_density_matrix(d, rng) for _ in range(3)])
        block = _random_block(d, rng)
        mixed = np.array([state, block, state])
        cases = [
            (state, (d, d)),
            (states, (3, d, d)),
            (block, (2, d, d)),
            (mixed, (2, 3, d, d)),
        ]
        for x, shape in cases:
            contractions.clear()
            got = out_map(x)
            assert contractions == [shape]
            for idx in np.ndindex(x.shape[:-2]):
                ref = _switch_reference(ch0, ch1, PLUS, x[idx])
                assert np.max(np.abs(got[idx] - ref)) <= 1e-12

    @pytest.mark.parametrize("k0, k1", [(2, 16), (16, 2), (9, 16), (16, 9)])
    def test_faint_kraus_operator(self, k0, k1):
        # one Kraus operator of weight 1e-8 in the channel with fewer of them,
        # which the sandwich order puts outside
        d = 4
        rng = np.random.default_rng(1300 + 10 * k0 + k1)
        faint0 = k0 < k1
        ch0 = _with_faint_operator(random_channel(d, k0 - 1, rng), rng) if faint0 else random_channel(d, k0, rng)
        ch1 = random_channel(d, k1, rng) if faint0 else _with_faint_operator(random_channel(d, k1 - 1, rng), rng)
        out_map = switch_map(ch0, ch1, PLUS)
        for x in (random_density_matrix(d, rng), _random_block(d, rng)):
            ref = _switch_reference(ch0, ch1, PLUS, x)
            assert np.max(np.abs(out_map(x) - ref)) <= 1e-12


class TestControlMarginal:
    def test_depolarising_marginal_formula(self):
        # tracing out the target leaves (1/2)(1 + Tr[T rho T^dag] sigma_x)
        rng = np.random.default_rng(16)
        for _ in range(10):
            t = random_depolarising_t(2, rng)
            impl = standard_implementation("depolarising", t=t)
            rho = random_density_matrix(2, rng)
            out = controlled_output(impl, impl, PLUS, rho)
            marginal = partial_trace(out.matrix, 2, 2, keep="first")
            overlap = float(np.real(np.trace(t @ rho @ dagger(t))))
            expected = 0.5 * (np.eye(2) + overlap * SIGMA_X)
            assert np.max(np.abs(marginal - expected)) <= 1e-10

    def test_target_marginal_is_maximally_mixed(self):
        rng = np.random.default_rng(17)
        t = random_depolarising_t(2, rng)
        impl = standard_implementation("depolarising", t=t)
        rho = random_density_matrix(2, rng)
        out = controlled_output(impl, impl, PLUS, rho)
        target = partial_trace(out.matrix, 2, 2, keep="second")
        assert np.max(np.abs(target - np.eye(2) / 2)) <= 1e-12


class TestBlockLayout:
    """control._blocks places [[b00, b01], [b10, b11]] with the control on the
    slow index; the ControlledOutput views read the same blocks back."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_index_oracle(self, d):
        rng = np.random.default_rng(400 + d)
        blocks = [[_random_block(d, rng) for _ in range(2)] for _ in range(2)]
        got = _blocks(blocks[0][0], blocks[0][1], blocks[1][0], blocks[1][1])
        assert got.shape == (2 * d, 2 * d)
        for c in range(2):
            for k in range(2):
                for i in range(d):
                    for j in range(d):
                        assert got[c * d + i, k * d + j] == blocks[c][k][i, j]

    def test_stack_matches_each_member(self):
        rng = np.random.default_rng(410)
        d = 3
        stacks = [np.stack([_random_block(d, rng) for _ in range(6)]).reshape(2, 3, d, d) for _ in range(4)]
        got = _blocks(*stacks)
        assert got.shape == (2, 3, 2 * d, 2 * d)
        for lead in np.ndindex(2, 3):
            assert np.array_equal(got[lead], _blocks(*(s[lead] for s in stacks)))

    def test_views_read_back_the_layout(self):
        rng = np.random.default_rng(420)
        i0, i1 = random_implementation(3, 2, rng), random_implementation(3, 4, rng)
        out = controlled_output(i0, i1, PLUS, random_density_matrix(3, rng))
        rebuilt = _blocks(out.diag0, out.offdiag01, out.offdiag10, out.diag1)
        assert np.array_equal(rebuilt, out.matrix)


class TestMapStacks:
    @staticmethod
    def _maps(d, rng):
        i0 = random_implementation(d, 3, rng)
        i1 = random_implementation(d, d * d, rng)
        amp = random_pure_state(2, rng)
        control = ControlState(amp[0], amp[1])
        return {
            "controlled": controlled_map(i0, i1, control),
            "classical": classical_map(i0, i1, (0.3, 0.7)),
            "switch": switch_map(i0.channel, i1.channel, control),
        }

    @pytest.mark.parametrize("kind", ["controlled", "classical", "switch"])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_stack_matches_each_matrix(self, kind, d):
        rng = np.random.default_rng(300 + d)
        out_map = self._maps(d, rng)[kind]
        blocks = np.stack(
            [random_density_matrix(d, rng) for _ in range(3)]
            + [_random_block(d, rng) for _ in range(3)]
        )
        one_at_a_time = np.stack([out_map(m) for m in blocks])
        for lead in ((6,), (2, 3)):
            got = out_map(blocks.reshape(lead + (d, d)))
            assert got.shape == lead + (2 * d, 2 * d)
            assert np.max(np.abs(got.reshape(one_at_a_time.shape) - one_at_a_time)) <= 1e-13

    @pytest.mark.parametrize("kind", ["controlled", "classical", "switch"])
    def test_wrong_trailing_shape_rejected(self, kind):
        out_map = self._maps(2, np.random.default_rng(310))[kind]
        for bad in (np.eye(3) / 3, np.zeros((4, 3, 3)), np.zeros((4, 2, 3))):
            with pytest.raises(ValueError, match="does not match dimension"):
                out_map(bad)
