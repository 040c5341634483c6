"""Tests for coherent control, the dilation oracle, the classical-control
baseline and the order-superposing switch."""

import numpy as np
import pytest

from ctrlchan import linalg
from ctrlchan.channels import Channel, remix, standard_channel
from ctrlchan.control import (
    ControlState,
    ControlledOutput,
    _blocks,
    controlled_map,
    controlled_output,
    stinespring_oracle,
    switch_map,
    switch_output,
)
from ctrlchan.implementations import (
    ChannelImplementation,
    admissible,
    realize,
    standard_implementation,
)
from ctrlchan.linalg import (
    SIGMA_X,
    SIGMA_Z,
    dagger,
    ket,
    partial_trace,
    projector,
    validate_density_matrix,
)
from ctrlchan.sampling import (
    haar_isometry,
    random_admissible_t,
    random_channel,
    random_density_matrix,
    random_depolarising_t,
    random_env,
    random_implementation,
    random_pure_state,
)

import spies
from reference import _oracle_per_kraus, _switch_dilation, _switch_double_sum

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

    def test_caller_matrix_is_copied(self):
        m = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
        out = ControlledOutput(m)
        m[0, 0] = 0.9
        m[1:, 1:] = 7.0
        assert np.array_equal(out.matrix, np.diag([0.4, 0.1, 0.3, 0.2]))
        assert not out.matrix.flags.writeable and m.flags.writeable
        assert not np.shares_memory(out.matrix, m)

    def test_library_outputs_are_frozen_in_place(self):
        m = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
        out = ControlledOutput._adopt(m)
        assert out.matrix is m and not m.flags.writeable
        for bad, message in ((np.eye(3, dtype=complex) / 3, "even side"),
                             (np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), "negative")):
            with pytest.raises(ValueError, match=message):
                ControlledOutput._adopt(bad)

    def test_library_outputs_are_checked_and_read_only(self, monkeypatch):
        # each output the library builds is checked once and held read-only;
        # the 6 x 6 checks are the joint outputs', told apart from the inputs'
        import ctrlchan.control as control
        from ctrlchan.discrimination import DiscriminationInstance, output_distance

        calls = []
        check = control.validate_density_matrix

        def recording(m):
            calls.append(m)
            return check(m)

        monkeypatch.setattr(control, "validate_density_matrix", recording)

        def checked():
            return [m for m in calls if np.shape(m) == (6, 6)]

        rng = np.random.default_rng(430)
        i0, i1 = random_implementation(3, 2, rng), random_implementation(3, 4, rng)
        rho = random_density_matrix(3, rng)
        outputs = [
            controlled_output(i0, i1, PLUS, rho),
            stinespring_oracle(i0, i1, PLUS, rho),
            controlled_output(i0, i1, np.diag([0.3, 0.7]), rho),
            switch_output(i0.channel, i1.channel, PLUS, rho),
        ]
        assert len(checked()) == 4
        ch = random_channel(3, 3, rng)
        inst = DiscriminationInstance(i0, realize(ch, np.zeros((3, 3))), realize(ch, 0.5 * ch.kraus[0]))
        output_distance(inst, PLUS, rho)
        assert len(checked()) == 6
        for o in outputs:
            assert o.matrix.shape == (6, 6) and not o.matrix.flags.writeable
            with pytest.raises(ValueError):
                o.matrix[0, 0] = 0.0


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


def refused_inputs(d, rng):
    """Inputs of side d that validate_density_matrix refuses, one per rule."""
    rho = random_density_matrix(d, rng)
    skew, nan = rho.copy(), rho.copy()
    skew[1, 0] += 0.1
    nan[0, 1] = np.nan
    u = haar_isometry(d, d, rng)
    negative = (u * np.r_[1.2, -0.2, np.zeros(d - 2)]) @ u.conj().T
    return {
        "stack": np.array([rho, rho]),
        "non-square": rho[:, :-1],
        "non-hermitian": skew,
        "trace": 1.5 * rho,
        "negative eigenvalue": (negative + negative.conj().T) / 2,
        "nan": nan,
    }


class TestStinespringOracle:
    def test_one_eigh_and_no_cholesky_of_the_input(self, monkeypatch):
        # rho is checked on the eigendecomposition the dilation takes; the one
        # Cholesky is the joint output's own check
        rng = np.random.default_rng(440)
        i0, i1 = random_implementation(3, 2, rng), random_implementation(3, 5, rng)
        rho = random_density_matrix(3, rng)
        eighs = spies.shapes(monkeypatch, linalg._eigh)
        choleskys = spies.shapes(monkeypatch, linalg._cholesky_succeeds)
        stinespring_oracle(i0, i1, PLUS, rho)
        assert eighs == [(3, 3)]
        assert choleskys == [(6, 6)]

    @pytest.mark.parametrize("rule", refused_inputs(3, np.random.default_rng(0)))
    def test_refuses_as_validate_density_matrix(self, rule):
        rng = np.random.default_rng(441)
        i0, i1 = random_implementation(3, 2, rng), random_implementation(3, 4, rng)
        rho = refused_inputs(3, rng)[rule]
        with pytest.raises(ValueError) as expected:
            validate_density_matrix(rho)
        with pytest.raises(ValueError) as got:
            stinespring_oracle(i0, i1, PLUS, rho)
        assert str(got.value) == str(expected.value)

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
        i0 = ChannelImplementation(ch, 0.3 * random_pure_state(2, rng))
        i1 = ChannelImplementation(ch, random_pure_state(2, rng))
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
            ChannelImplementation(ch, norm * random_pure_state(len(ch.kraus), rng))
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_reads_no_initial_buffer_contents(self, monkeypatch, d):
        # every fresh buffer starts as NaN, so an entry the oracle reads
        # without having written it shows in the output
        rng = np.random.default_rng(210 + d)
        empty = np.empty

        def nan_filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            out.fill(np.nan)
            return out

        impls = [random_implementation(d, k, rng) for k in (1, d * d)]
        amp = random_pure_state(2, rng)
        # b = 0, a = 0, and both nonzero
        controls = [ControlState.basis(0), ControlState.basis(1), ControlState(amp[0], amp[1])]
        rho = random_density_matrix(d, rng)
        for i0 in impls:
            for i1 in impls:
                for control in controls:
                    ref = _oracle_per_kraus(i0, i1, control, rho)
                    with monkeypatch.context() as patch:
                        patch.setattr(np, "empty", nan_filled)
                        got = stinespring_oracle(i0, i1, control, rho).matrix
                    assert np.max(np.abs(got - ref)) <= 1e-12


class TestJointOutputAtTheAdmissibilityAllowance:
    @pytest.mark.xfail(
        strict=True, raises=ValueError,
        reason="ROADMAP item 7: tolerance policy at the joint output",
    )
    @pytest.mark.parametrize("joint", [controlled_output, stinespring_oracle])
    def test_realized_arm_gives_a_joint_output(self, joint):
        # realize builds ||env||^2 = 1 + 5e-9, inside the BOUND_TOL allowance,
        # but the joint output is checked at DEFAULT_TOL: controlled_output
        # refuses it with "negative eigenvalue -1.250e-09", stinespring_oracle
        # with "trace 1 + 5.000e-09"
        i = realize(standard_channel("identity", 2), np.sqrt(1.0 + 5e-9) * np.eye(2))
        joint(i, i, PLUS, np.eye(2) / 2)


class TestClassicalControl:
    def test_depolarising_pair_is_input_independent(self):
        rng = np.random.default_rng(9)
        depol = standard_channel("depolarising", 2)
        i0 = ChannelImplementation(depol, random_env(4, rng))
        i1 = ChannelImplementation(depol, random_env(4, rng))
        classical = np.diag([0.25, 0.75])
        ref = controlled_output(i0, i1, classical, random_density_matrix(2, rng))
        for _ in range(10):
            out = controlled_output(i0, i1, classical, random_density_matrix(2, rng))
            assert np.max(np.abs(out.matrix - ref.matrix)) <= 1e-12

    def test_degenerate_weights(self):
        rng = np.random.default_rng(10)
        i0 = random_implementation(2, 2, rng)
        i1 = random_implementation(2, 2, rng)
        rho = random_density_matrix(2, rng)
        out = controlled_output(i0, i1, np.diag([1.0, 0.0]), rho)
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
        mixed = controlled_output(i0, i1, np.diag([w0, 1 - w0]), rho)
        assert np.max(np.abs(mixed.matrix - coherent)) <= 1e-12

    def test_interference_blocks_are_positive_zeros(self):
        # every entry off the diagonal blocks is +0.0 + 0.0j, for one matrix and a stack
        rng = np.random.default_rng(12)
        d = 3
        i0, i1 = random_implementation(d, 2, rng), random_implementation(d, 4, rng)
        out_map = controlled_map(i0, i1, np.diag([0.4, 0.6]))
        for rho in (_random_block(d, rng), np.stack([_random_block(d, rng) for _ in range(2)])):
            out = out_map(rho)
            off = np.stack([out[..., :d, d:], out[..., d:, :d]]).view(float)
            assert not off.any() and not np.signbit(off).any()

    def test_invalid_weights(self):
        i0 = standard_implementation("identity", d=2, alpha=1.0)
        with pytest.raises(
            ValueError, match=r"^control density matrix has trace 1 \+ 1\.000e-01, expected 1$"
        ):
            controlled_output(i0, i0, np.diag([0.5, 0.6]), np.eye(2) / 2)

    @pytest.mark.parametrize(
        "weights, index",
        [((np.nan, 1.0), 0), ((1.0, np.nan), 1), ((np.inf, 0.0), 0), ((0.5, -np.inf), 1)],
        ids=["nan-w0", "nan-w1", "inf-w0", "-inf-w1"],
    )
    def test_non_finite_weights_rejected(self, weights, index):
        i0 = standard_implementation("identity", d=2, alpha=1.0)
        with pytest.raises(
            ValueError,
            match=rf"^control density matrix has a non-finite entry .* at index \({index}, {index}\)$",
        ):
            controlled_map(i0, i0, np.diag(weights))


class TestControlDensityMatrix:
    """One control model: a pure ControlState or a 2 x 2 control density
    matrix, whose diagonal weights the arms and whose coherence weights the
    interference blocks."""

    @pytest.mark.parametrize("kind", ["controlled", "switch"])
    def test_pure_density_matrix_gives_the_control_state_map(self, kind):
        rng = np.random.default_rng(2800)
        d = 3
        i0, i1 = random_implementation(d, 2, rng), random_implementation(d, 5, rng)
        amp = random_pure_state(2, rng)
        control = ControlState(amp[0], amp[1])
        rho_c = np.outer(amp, amp.conj())
        if kind == "controlled":
            pure, mixed = controlled_map(i0, i1, control), controlled_map(i0, i1, rho_c)
        else:
            pure = switch_map(i0.channel, i1.channel, control)
            mixed = switch_map(i0.channel, i1.channel, rho_c)
        x = np.stack([random_density_matrix(d, rng), _random_block(d, rng)])
        # |a|^2 and a a* round differently, by an ulp
        assert np.max(np.abs(mixed(x) - pure(x))) <= 1e-14

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("kind", ["controlled", "switch"])
    def test_basis_control_has_positive_zero_interference(self, kind, index):
        rng = np.random.default_rng(2810)
        d = 3
        i0, i1 = random_implementation(d, 2, rng), random_implementation(d, 4, rng)
        control = ControlState.basis(index)
        if kind == "controlled":
            out_map = controlled_map(i0, i1, control)
        else:
            out_map = switch_map(i0.channel, i1.channel, control)
        out = out_map(np.stack([_random_block(d, rng) for _ in range(2)]))
        off = np.stack([out[..., :d, d:], out[..., d:, :d]]).view(float)
        assert not off.any() and not np.signbit(off).any()

    def test_dephasing_scales_the_interference(self):
        rng = np.random.default_rng(2820)
        i0, i1 = random_implementation(2, 3, rng), random_implementation(2, 2, rng)
        rho = random_density_matrix(2, rng)
        coherent = controlled_output(i0, i1, np.full((2, 2), 0.5), rho).matrix
        for lam in (0.25, 0.5, 1.0):
            c = (1.0 - lam) / 2.0
            out = controlled_output(i0, i1, np.array([[0.5, c], [c, 0.5]]), rho).matrix
            assert np.array_equal(out[:2, :2], coherent[:2, :2])
            assert np.max(np.abs(out[:2, 2:] - (1.0 - lam) * coherent[:2, 2:])) <= 1e-16

    @pytest.mark.parametrize(
        "rho_c, message",
        [
            (np.eye(3) / 3, r"^control density matrix must be 2 x 2, got shape \(3, 3\)$"),
            ([[0.5, 0.6], [0.6, 0.5]], r"^control density matrix has a negative eigenvalue -1\.000e-01$"),
            ([[0.5, 0.5j], [0.5j, 0.5]], r"^control density matrix is not Hermitian within tolerance$"),
        ],
        ids=["3x3", "negative", "not-hermitian"],
    )
    def test_bad_control_refused_when_the_map_is_built(self, rho_c, message):
        i0 = standard_implementation("identity", d=2, alpha=1.0)
        with pytest.raises(ValueError, match=message):
            controlled_map(i0, i0, rho_c)
        with pytest.raises(ValueError, match=message):
            switch_map(i0.channel, i0.channel, rho_c)

    def test_oracle_refuses_a_control_density_matrix(self):
        i0 = standard_implementation("identity", d=2, alpha=1.0)
        with pytest.raises(ValueError, match="^stinespring_oracle needs a pure ControlState control$"):
            stinespring_oracle(i0, i0, np.full((2, 2), 0.5), np.eye(2) / 2)

    def test_output_distance_reads_the_coherence(self):
        from ctrlchan.discrimination import DiscriminationInstance, output_distance

        rng = np.random.default_rng(2830)
        ch = random_channel(2, 3, rng)
        fixed = random_implementation(2, 2, rng)
        inst = DiscriminationInstance(
            fixed, realize(ch, random_admissible_t(ch, rng)), realize(ch, random_admissible_t(ch, rng))
        )
        rho = random_density_matrix(2, rng)
        plus = output_distance(inst, PLUS, rho)
        assert abs(output_distance(inst, np.full((2, 2), 0.5), rho) - plus) <= 1e-15
        half = np.array([[0.5, 0.25], [0.25, 0.5]])
        assert abs(output_distance(inst, half, rho) - plus / 2.0) <= 1e-12
        assert output_distance(inst, np.diag([0.5, 0.5]), rho) <= 1e-12


def _random_block(d, rng):
    """A non-Hermitian d x d operator block."""
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


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
            for x in (random_density_matrix(d, rng), _random_block(d, rng)):
                got = out_map(x)
                assert np.max(np.abs(got - _switch_double_sum(ch0, ch1, control, x))) <= 1e-12
                assert np.max(np.abs(got - _switch_dilation(ch0, ch1, control, x))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            switch_output(
                standard_channel("identity", 2),
                standard_channel("identity", 3),
                PLUS,
                np.eye(2) / 2,
            )


def _with_faint_operator(ch, rng, weight=1e-8):
    """``ch`` scaled by 1 - weight, plus one unitary Kraus operator of ``weight``."""
    faint = np.sqrt(weight) * haar_isometry(ch.dim, ch.dim, rng)
    return Channel(np.concatenate((np.sqrt(1.0 - weight) * ch.kraus, faint[None])))


class TestSwitchContraction:
    # switch_map contracts its interference blocks in the Choi order at every
    # Kraus count; each case is checked against the literal double sum over
    # Kraus pairs.
    @pytest.mark.parametrize(
        "d, k0, k1",
        [(8, 1, 64), (8, 15, 64), (8, 16, 64), (8, 64, 15), (16, 1, 256), (16, 256, 1), (16, 17, 16)],
    )
    def test_matches_double_sum_at_every_kraus_count(self, d, k0, k1):
        rng = np.random.default_rng(1000 * d + k0 + k1)
        ch0 = random_channel(d, k0, rng)
        ch1 = random_channel(d, k1, rng)
        amp = random_pure_state(2, rng)
        control = ControlState(amp[0], amp[1])
        out_map = switch_map(ch0, ch1, control)
        for x in (random_density_matrix(d, rng), _random_block(d, rng)):
            ref = _switch_double_sum(ch0, ch1, control, x)
            assert np.max(np.abs(out_map(x) - ref)) <= 1e-12

    def test_choi_tensor_is_the_choi_matrix(self):
        # G[a, b, c, e] = C[(b, a), (e, c)]: the numbers choi_of returns
        from ctrlchan.channels import _choi_tensor, choi_of

        rng = np.random.default_rng(1050)
        for d, k in ((2, 1), (3, 5), (4, 16)):
            ch = random_channel(d, k, rng)
            choi = choi_of(ch).reshape(d, d, d, d).transpose(1, 0, 3, 2)
            assert np.max(np.abs(_choi_tensor(ch) - choi)) <= 1e-15

    def test_switch_and_choi_share_one_gram_product(self):
        from ctrlchan import channels, control

        assert control._choi_tensor is channels._choi_tensor

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
            assert np.max(np.abs(got - _switch_double_sum(ch0, ch1, control, x))) <= 1e-12
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

        monkeypatch.setattr(control, "_choi_order", recording(control._choi_order))
        return shapes

    @pytest.mark.parametrize("k0, k1", [(8, 16), (3, 16), (16, 3)])
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
                ref = _switch_double_sum(ch0, ch1, PLUS, x[idx])
                assert np.max(np.abs(got[idx] - ref)) <= 1e-12

    @pytest.mark.parametrize("k0, k1", [(2, 16), (16, 2), (9, 16), (16, 9)])
    def test_faint_kraus_operator(self, k0, k1):
        # one Kraus operator of weight 1e-8 in the channel with fewer of them,
        # whose share of order 1e-8 the Choi tensor must keep to 1e-12
        d = 4
        rng = np.random.default_rng(1300 + 10 * k0 + k1)
        faint0 = k0 < k1
        ch0 = _with_faint_operator(random_channel(d, k0 - 1, rng), rng) if faint0 else random_channel(d, k0, rng)
        ch1 = random_channel(d, k1, rng) if faint0 else _with_faint_operator(random_channel(d, k1 - 1, rng), rng)
        out_map = switch_map(ch0, ch1, PLUS)
        for x in (random_density_matrix(d, rng), _random_block(d, rng)):
            ref = _switch_double_sum(ch0, ch1, PLUS, x)
            assert np.max(np.abs(out_map(x) - ref)) <= 1e-12


def _seeded_controls(rng, n):
    controls = [PLUS, ControlState.basis(0)]
    for _ in range(n):
        amp = random_pure_state(2, rng)
        controls.append(ControlState(amp[0], amp[1]))
    return controls


def _largest_gap(map_pairs, d, rng, states=5):
    gap = 0.0
    for first, second in map_pairs:
        for _ in range(states):
            rho = random_density_matrix(d, rng)
            gap = max(gap, float(np.max(np.abs(first(rho) - second(rho)))))
    return gap


class TestDepolarisingSwitchIsCoherentControl:
    """The switch of two completely depolarising channels is coherent control
    of one dilation of each, the one with T = 1/d: both outputs are
    [[|a|^2 1/d, a b* rho/d^2], [a* b rho/d^2, |b|^2 1/d]] for every control
    and every d.  A Pauli qubit channel has no such T."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_switch_equals_controlled_map(self, d):
        rng = np.random.default_rng(470 + d)
        depol = standard_channel("depolarising", d)
        impl = standard_implementation("depolarising", t=np.eye(d) / d)
        pairs = [
            (switch_map(depol, depol, c), controlled_map(impl, impl, c))
            for c in _seeded_controls(rng, 5)
        ]
        assert _largest_gap(pairs, d, rng) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_t_sits_on_the_admissible_boundary(self, d):
        depol = standard_channel("depolarising", d)
        rep = admissible(depol, np.eye(d) / d)
        assert rep.admissible
        assert abs(rep.quadratic_form - 1.0) <= 1e-12

    @pytest.mark.parametrize("c", [0.0, 0.15, 0.3, 0.45, 0.6])
    def test_pauli_channel_is_not_coherent_control_of_a_scalar_t(self, c):
        # weights (0.4, 0.2, 0.2, 0.2): T = c 1 is admissible for |c|^2 <= 0.4
        weights = (0.4, 0.2, 0.2, 0.2)
        paulis = (np.eye(2), SIGMA_X, np.array([[0, -1j], [1j, 0]]), SIGMA_Z)
        pauli = Channel([np.sqrt(w) * s for w, s in zip(weights, paulis)])
        impl = realize(pauli, c * np.eye(2))
        rng = np.random.default_rng(480)
        pairs = [
            (switch_map(pauli, pauli, ctrl), controlled_map(impl, impl, ctrl))
            for ctrl in _seeded_controls(rng, 5)
        ]
        assert _largest_gap(pairs, 2, rng) >= 0.05


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
            "classical": controlled_map(i0, i1, np.diag([0.3, 0.7])),
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
