"""Tests for implementation discrimination: distances, bounds, saturation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlchan import control, discrimination, linalg
from ctrlchan.channels import Channel, choi_of, remix, standard_channel
from ctrlchan.control import ControlledOutput, ControlState, controlled_output
from ctrlchan.discrimination import (
    DiscriminationInstance,
    diamond_bound,
    optimal_input,
    output_distance,
    success_probability,
    trace_distance,
)
from ctrlchan.implementations import realize, standard_implementation
from ctrlchan.linalg import SIGMA_X, ket, projector, trace_norm
from ctrlchan.sampling import (
    haar_isometry,
    random_admissible_t,
    random_channel,
    random_density_matrix,
    random_depolarising_t,
    random_implementation,
    random_pure_state,
)

PLUS = ControlState.plus()


def spike(d):
    t = np.zeros((d, d), dtype=complex)
    t[0, 0] = 1.0 / np.sqrt(d)
    return t


def depolarising_instance(d):
    fixed = standard_implementation("identity", d=d, alpha=1.0)
    t = spike(d)
    return DiscriminationInstance(
        fixed,
        standard_implementation("depolarising", t=t),
        standard_implementation("depolarising", t=-t),
    ), t


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_density_matrix(3, np.random.default_rng(0))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(projector(ket(0, 2)), projector(ket(1, 2))) - 1.0) <= 1e-12

    def test_zero_vs_plus(self):
        plus = projector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        # eigenvalues of the difference are +/- 1/sqrt(2)
        assert abs(trace_distance(projector(ket(0, 2)), plus) - 1.0 / np.sqrt(2.0)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)


class TestDiscriminationInstance:
    def test_rejects_different_channels(self):
        fixed = standard_implementation("identity", d=2, alpha=1.0)
        a = standard_implementation("depolarising", t=spike(2))
        b = standard_implementation("phase_flip", p=0.5, alpha=0.0, beta=1.0)
        with pytest.raises(
            ValueError, match=r"candidates implement different channels: Choi deviation \d"
        ):
            DiscriminationInstance(fixed, a, b)

    def test_same_channel_object_makes_no_choi(self, monkeypatch):
        calls = []

        def counting(ch):
            calls.append(ch)
            return choi_of(ch)

        monkeypatch.setattr(discrimination, "choi_of", counting)
        rng = np.random.default_rng(21)
        fixed = standard_implementation("identity", d=3, alpha=1.0)
        ch = random_channel(3, 5, rng)
        a = realize(ch, random_admissible_t(ch, rng))
        b = realize(ch, random_admissible_t(ch, rng))
        DiscriminationInstance(fixed, a, b)
        assert calls == []

    def test_remixed_candidate_accepted(self):
        # a different Channel object for the same map still takes the Choi route
        rng = np.random.default_rng(22)
        fixed = standard_implementation("identity", d=3, alpha=1.0)
        ch = random_channel(3, 4, rng)
        other = remix(ch, haar_isometry(6, 4, rng))
        t1, t1p = random_admissible_t(ch, rng), random_admissible_t(ch, rng)
        inst = DiscriminationInstance(fixed, realize(ch, t1), realize(other, t1p))
        rho = projector(optimal_input(t1, t1p))
        assert abs(output_distance(inst, PLUS, rho) - diamond_bound(t1, t1p)) <= 1e-10


class TestOutputDistance:
    def test_equal_candidates_give_zero(self):
        fixed = standard_implementation("identity", d=2, alpha=1.0)
        a = standard_implementation("depolarising", t=spike(2))
        inst = DiscriminationInstance(fixed, a, a)
        assert output_distance(inst, PLUS, projector(ket(0, 2))) <= 1e-14

    def test_plus_minus_identity_perfectly_distinguishable(self):
        fixed = standard_implementation("identity", d=2, alpha=1.0)
        inst = DiscriminationInstance(
            fixed,
            standard_implementation("identity", d=2, alpha=1.0),
            standard_implementation("identity", d=2, alpha=-1.0),
        )
        rho = projector(random_pure_state(2, np.random.default_rng(1)))
        assert abs(output_distance(inst, PLUS, rho) - 1.0) <= 1e-12

    def test_depolarising_spike_pair(self):
        inst, _ = depolarising_instance(2)
        value = output_distance(inst, PLUS, projector(ket(0, 2)))
        assert abs(value - 1.0 / np.sqrt(2.0)) <= 1e-10

    def test_difference_is_purely_offdiagonal(self):
        # the channel blocks cancel; only interference blocks survive
        rng = np.random.default_rng(2)
        inst, _ = depolarising_instance(2)
        rho = random_density_matrix(2, rng)
        out_a = controlled_output(inst.fixed, inst.candidate_a, PLUS, rho)
        out_b = controlled_output(inst.fixed, inst.candidate_b, PLUS, rho)
        delta = out_a.matrix - out_b.matrix
        assert np.max(np.abs(delta[:2, :2])) <= 1e-12
        assert np.max(np.abs(delta[2:, 2:])) <= 1e-12
        assert np.max(np.abs(delta[:2, 2:])) > 1e-3


    def test_validates_rho_once_and_checks_each_output(self, monkeypatch):
        validations = []
        outputs = []
        post_init = ControlledOutput.__post_init__

        def counting(rho, *args, **kwargs):
            validations.append(rho)
            return linalg.validate_density_matrix(rho, *args, **kwargs)

        def checked(self):
            outputs.append(self)
            post_init(self)

        for module in (control, discrimination):
            monkeypatch.setattr(module, "validate_density_matrix", counting)
        monkeypatch.setattr(ControlledOutput, "__post_init__", checked)
        inst, _ = depolarising_instance(2)
        value = output_distance(inst, PLUS, projector(ket(0, 2)))
        assert abs(value - 1.0 / np.sqrt(2.0)) <= 1e-10
        assert len(validations) == 1
        assert len(outputs) == 2

    @pytest.mark.parametrize("d", [2, 8])
    @pytest.mark.parametrize("amplitudes", [None, (0.6, 0.8j)], ids=["plus", "0.6,0.8i"])
    @pytest.mark.parametrize("reference", ["transparent", "random"])
    def test_each_shared_arm_applied_once(self, monkeypatch, d, amplitudes, reference):
        # the fixed arm's block is shared by both outputs, and the candidates'
        # when they hold one Channel object; the distance is still the
        # trace distance of two full controlled outputs, bit for bit
        rng = np.random.default_rng(40 + d)
        ctrl = PLUS if amplitudes is None else ControlState(*amplitudes)
        if reference == "transparent":
            fixed = standard_implementation("identity", d=d, alpha=1.0)
        else:
            fixed = random_implementation(d, 3, rng)
        ch = random_channel(d, 5, rng)
        twin = Channel(ch.kraus)
        t1, t1p = random_admissible_t(ch, rng), random_admissible_t(ch, rng)
        rho = projector(random_pure_state(d, rng))
        calls = []
        apply = control.apply

        def counting(channel, *args, **kwargs):
            calls.append(channel)
            return apply(channel, *args, **kwargs)

        monkeypatch.setattr(control, "apply", counting)
        for other, expected_calls in ((ch, 2), (twin, 3)):
            inst = DiscriminationInstance(fixed, realize(ch, t1), realize(other, t1p))
            a = controlled_output(inst.fixed, inst.candidate_a, ctrl, rho).matrix
            b = controlled_output(inst.fixed, inst.candidate_b, ctrl, rho).matrix
            calls.clear()
            value = output_distance(inst, ctrl, rho)
            assert len(calls) == expected_calls
            assert value == 0.5 * trace_norm(a - b)

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.diag([1.5, -0.5]), r"density matrix has a negative eigenvalue -5\.000e-01"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "density matrix is not Hermitian"),
            (np.eye(2), r"density matrix has trace 1 \+ 1\.000e\+00, expected 1"),
        ],
    )
    def test_rejects_non_density_input(self, rho, message):
        inst, _ = depolarising_instance(2)
        with pytest.raises(ValueError, match=message):
            output_distance(inst, PLUS, rho)


class TestDiamondBound:
    def test_plus_minus_identity(self):
        assert abs(diamond_bound(np.eye(2), -np.eye(2)) - 1.0) <= 1e-14

    def test_depolarising_spikes(self):
        for d in (2, 3):
            assert abs(diamond_bound(spike(d), -spike(d)) - 1.0 / np.sqrt(d)) <= 1e-12

    def test_dominates_output_distance(self):
        rng = np.random.default_rng(3)
        depol = standard_channel("depolarising", 2)
        for _ in range(30):
            fixed = random_implementation(2, int(rng.integers(1, 5)), rng)
            t1 = random_depolarising_t(2, rng)
            t1p = random_depolarising_t(2, rng)
            inst = DiscriminationInstance(fixed, realize(depol, t1), realize(depol, t1p))
            rho = random_density_matrix(2, rng)
            assert output_distance(inst, PLUS, rho) <= diamond_bound(t1, t1p) + 1e-10


class TestOptimalInput:
    def test_dominant_direction(self):
        assert np.allclose(optimal_input(np.diag([2.0, 1.0]), np.zeros((2, 2))), ket(0, 2))

    def test_depolarising_spikes(self):
        assert np.allclose(optimal_input(spike(3), -spike(3)), ket(0, 3))

    def test_degenerate_top_eigenspace_deterministic(self):
        # tau^dag tau proportional to the identity: lowest-index convention
        v = optimal_input(SIGMA_X, -SIGMA_X)
        assert np.allclose(v, ket(0, 2))

    def test_zero_difference_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            optimal_input(np.eye(2), np.eye(2))

    def test_saturates_bound_with_transparent_reference(self):
        rng = np.random.default_rng(4)
        fixed = standard_implementation("identity", d=2, alpha=1.0)
        depol = standard_channel("depolarising", 2)
        for _ in range(25):
            t1 = random_depolarising_t(2, rng)
            t1p = random_depolarising_t(2, rng)
            inst = DiscriminationInstance(fixed, realize(depol, t1), realize(depol, t1p))
            rho = projector(optimal_input(t1, t1p))
            value = output_distance(inst, PLUS, rho)
            assert abs(value - diamond_bound(t1, t1p)) <= 1e-10


class TestSuccessProbability:
    def test_reference_values(self):
        assert abs(success_probability(1.0 / np.sqrt(2.0)) - 0.8535533905932738) <= 1e-9
        assert success_probability(0.0) == 0.5
        assert success_probability(1.0) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            success_probability(1.5)
        with pytest.raises(ValueError):
            success_probability(-0.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="distance must lie in"):
            success_probability(bad)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert success_probability(lo) <= success_probability(hi)


class TestMaxDepolarisingDistance:
    """Both T satisfy Tr[T^dag T] <= 1/d and the Hilbert-Schmidt norm dominates
    the spectral norm, so no admissible pair exceeds 1/sqrt(d); the pair
    +/- (1/sqrt(d)) |0><0| attains it."""

    def test_random_pairs_never_exceed(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            ceiling = 1.0 / np.sqrt(d)
            for _ in range(250):
                t1 = random_depolarising_t(d, rng)
                t1p = random_depolarising_t(d, rng)
                assert diamond_bound(t1, t1p) <= ceiling + 1e-10

    def test_spike_pair_attains_maximum(self):
        for d in (2, 3):
            assert abs(diamond_bound(spike(d), -spike(d)) - 1.0 / np.sqrt(d)) <= 1e-12
