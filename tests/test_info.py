"""Tests for entropies, the ensemble information bound and the coherent
information bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlchan.channels import apply, standard_channel
from ctrlchan.control import ControlState, classical_map, controlled_map, switch_map
from ctrlchan.implementations import ChannelImplementation, standard_implementation
from ctrlchan.info import (
    Ensemble,
    binary_entropy,
    cc_dephasing_bound,
    coherent_info_bound,
    entropy,
    holevo_lower_bound,
    shannon_entropy,
    switch_holevo_qubit,
    switch_holevo_qubit_gridsearch,
)
from ctrlchan.linalg import ket, maximally_entangled, partial_trace, projector
from ctrlchan.sampling import random_density_matrix, random_env, random_pure_state

PLUS = ControlState.plus()

H2_QUARTER = 0.8112781244591328  # -(1/4) log2(1/4) - (3/4) log2(3/4)


class TestEntropy:
    def test_pure_state(self):
        rho = projector(random_pure_state(3, np.random.default_rng(0)))
        assert abs(entropy(rho)) <= 1e-10

    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            assert abs(entropy(np.eye(d) / d) - np.log2(d)) <= 1e-12

    def test_diagonal_binary(self):
        assert abs(entropy(np.diag([0.75, 0.25])) - H2_QUARTER) <= 1e-12

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            entropy(np.eye(2))

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 5):
            stack = np.array([[random_density_matrix(d, rng) for _ in range(4)] for _ in range(3)])
            values = entropy(stack)
            assert values.shape == (3, 4)
            for i in range(3):
                for j in range(4):
                    assert abs(values[i, j] - entropy(stack[i, j])) <= 1e-12

    def test_matrix_gives_float(self):
        assert type(entropy(np.eye(2) / 2)) is float

    @pytest.mark.parametrize(
        "member, message",
        [
            (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
            (np.eye(2) / 3, "trace"),
            (np.diag([1.0 + 1e-6, -1e-6]), "negative eigenvalue -1.000e-06"),
            (np.diag([1.0 + 1e-10, -1e-10]), "eigenvalue -1.000e-10 below the clamping window"),
        ],
        ids=["non-hermitian", "trace", "negative", "clamp-window"],
    )
    def test_stack_checks_every_member(self, member, message):
        stack = np.array([np.eye(2) / 2, np.diag([0.25, 0.75]), member, np.eye(2) / 2])
        with pytest.raises(ValueError, match=message):
            entropy(member)
        with pytest.raises(ValueError, match=message):
            entropy(stack)

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        entropy(np.eye(3) / 3)
        assert calls == [(3, 3)]
        entropy(np.broadcast_to(np.eye(2) / 2, (5, 2, 2)))
        assert calls == [(3, 3), (5, 2, 2)]


class TestBinaryEntropy:
    def test_reference_points(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert abs(binary_entropy(0.25) - H2_QUARTER) <= 1e-15

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_bounds(self, p):
        value = binary_entropy(p)
        assert 0.0 <= value <= 1.0
        assert abs(value - binary_entropy(1.0 - p)) <= 1e-12

    def test_shannon_matches(self):
        assert abs(shannon_entropy([0.25, 0.75]) - H2_QUARTER) <= 1e-15


class TestEnsemble:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum"):
            Ensemble(((0.5, np.eye(2) / 2), (0.4, np.eye(2) / 2)))
        with pytest.raises(ValueError, match="dimension"):
            Ensemble(((0.5, np.eye(2) / 2), (0.5, np.eye(3) / 3)))
        with pytest.raises(ValueError, match="at least one"):
            Ensemble(())

    def test_dim(self):
        ens = Ensemble(((1.0, np.eye(3) / 3),))
        assert ens.dim == 3

    def test_excess_over_one_is_printed(self):
        with pytest.raises(ValueError, match=r"probabilities sum to 1 \+ 2\.000e-09, expected 1"):
            Ensemble(((0.5, np.eye(2) / 2), (0.5 + 2e-9, np.eye(2) / 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^items\[1\] has non-finite probability"):
            Ensemble(((1.0, np.eye(2) / 2), (bad, np.eye(2) / 2)))


class TestHolevoLowerBound:
    def test_cc_depolarising_reference_value(self):
        t = np.zeros((2, 2), dtype=complex)
        t[0, 0] = 1.0 / np.sqrt(2.0)
        impl = standard_implementation("depolarising", t=t)
        ens = Ensemble(((0.6, projector(ket(0, 2))), (0.4, projector(ket(1, 2)))))
        value = holevo_lower_bound(controlled_map(impl, impl, PLUS), ens)
        assert abs(value - 0.5 * np.log2(1.25)) <= 1e-9

    def test_constant_map_gives_zero(self):
        rng = np.random.default_rng(1)
        sigma = random_density_matrix(2, rng)
        ch = standard_channel("constant", 2, sigma)
        ens = Ensemble(((0.5, projector(ket(0, 2))), (0.5, projector(ket(1, 2)))))
        value = holevo_lower_bound(lambda rho: apply(ch, rho), ens)
        assert abs(value) <= 1e-10

    def test_classical_control_of_noisy_pair_gives_zero(self):
        rng = np.random.default_rng(2)
        depol = standard_channel("depolarising", 2)
        i0 = ChannelImplementation(depol, random_env(4, rng))
        i1 = ChannelImplementation(depol, random_env(4, rng))
        ens = Ensemble((
            (0.3, projector(ket(0, 2))),
            (0.3, projector(ket(1, 2))),
            (0.4, random_density_matrix(2, rng)),
        ))
        value = holevo_lower_bound(classical_map(i0, i1, (0.5, 0.5)), ens)
        assert abs(value) <= 1e-10

    def test_bounded_by_log_ensemble_size(self):
        rng = np.random.default_rng(3)
        i0 = standard_implementation("identity", d=2, alpha=1.0)
        ens = Ensemble(((0.5, projector(ket(0, 2))), (0.5, projector(ket(1, 2)))))
        value = holevo_lower_bound(controlled_map(i0, i0, PLUS), ens)
        assert -1e-10 <= value <= np.log2(2) + 1e-10

    def test_range_on_random_instances(self):
        from ctrlchan.sampling import random_implementation

        rng = np.random.default_rng(5)
        for _ in range(10):
            i0 = random_implementation(2, int(rng.integers(1, 5)), rng)
            i1 = random_implementation(2, int(rng.integers(1, 5)), rng)
            n = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(n))
            ens = Ensemble(tuple(
                (float(p), random_density_matrix(2, rng)) for p in probs
            ))
            value = holevo_lower_bound(controlled_map(i0, i1, PLUS), ens)
            assert -1e-10 <= value <= np.log2(n) + 1e-10

    def test_one_map_evaluation(self):
        impl = standard_implementation("identity", d=2, alpha=1.0)
        out_map = controlled_map(impl, impl, PLUS)
        shapes = []

        def counted(rho):
            shapes.append(np.shape(rho))
            return out_map(rho)

        ens = Ensemble((
            (0.5, projector(ket(0, 2))),
            (0.0, projector(ket(1, 2))),
            (0.5, np.eye(2) / 2),
        ))
        value = holevo_lower_bound(counted, ens)
        assert shapes == [(3, 2, 2)]
        # transparent arms: S(3/4, 1/4) of the average minus half a bit
        assert abs(value - (H2_QUARTER - 0.5)) <= 1e-12


class TestCoherentInfoBound:
    def test_identity_map_on_entangled_input(self):
        value = coherent_info_bound(lambda m: m, maximally_entangled(2))
        assert abs(value - 1.0) <= 1e-10

    def test_entanglement_entropy_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            psi = random_pure_state(9, rng)
            nu0 = projector(psi)
            value = coherent_info_bound(lambda m: m, nu0)
            marginal = partial_trace(nu0, 3, 3, keep="first")
            assert abs(value - entropy(marginal)) <= 1e-9

    def test_dephasing_pair_reference_value(self):
        zp = standard_implementation("phase_flip", p=0.5, alpha=0.0, beta=1.0)
        xp = standard_implementation("bit_flip", p=0.5, alpha=0.0, beta=1.0)
        value = coherent_info_bound(controlled_map(zp, xp, PLUS), maximally_entangled(2))
        assert abs(value - (-0.75 * np.log2(0.75))) <= 1e-9

    def test_formula_matches_direct_over_sweep(self):
        nu0 = maximally_entangled(2)
        for p in np.arange(0.0, 1.0 + 1e-9, 0.1):
            zp = standard_implementation("phase_flip", p=p, alpha=0.0, beta=1.0)
            xp = standard_implementation("bit_flip", p=p, alpha=0.0, beta=1.0)
            direct = coherent_info_bound(controlled_map(zp, xp, PLUS), nu0)
            assert abs(direct - cc_dephasing_bound(p)) <= 1e-9

    def test_p_zero_transmits_perfectly(self):
        zp = standard_implementation("phase_flip", p=0.0, alpha=0.0, beta=1.0)
        xp = standard_implementation("bit_flip", p=0.0, alpha=0.0, beta=1.0)
        value = coherent_info_bound(controlled_map(zp, xp, PLUS), maximally_entangled(2))
        assert abs(value - 1.0) <= 1e-9
        assert abs(cc_dephasing_bound(0.0) - 1.0) <= 1e-15

    def test_non_square_input_rejected(self):
        with pytest.raises(ValueError, match="split"):
            coherent_info_bound(lambda m: m, np.eye(6) / 6)

    def test_one_map_evaluation(self):
        zp = standard_implementation("phase_flip", p=0.3, alpha=0.0, beta=1.0)
        xp = standard_implementation("bit_flip", p=0.3, alpha=0.0, beta=1.0)
        out_map = controlled_map(zp, xp, PLUS)
        shapes = []

        def counted(block):
            shapes.append(np.shape(block))
            return out_map(block)

        value = coherent_info_bound(counted, maximally_entangled(2))
        assert shapes == [(2, 2, 2, 2)]
        assert abs(value - cc_dephasing_bound(0.3)) <= 1e-9


class TestAnalyticBounds:
    def test_switch_value(self):
        expected = -3.0 / 8.0 - (5.0 / 8.0) * np.log2(5.0 / 8.0)
        assert abs(switch_holevo_qubit() - expected) <= 1e-15

    def test_dephasing_bound_reference_points(self):
        assert abs(cc_dephasing_bound(0.5) - 0.311278124459) <= 1e-9
        assert abs(cc_dephasing_bound(0.0) - 1.0) <= 1e-15
        assert abs(cc_dephasing_bound(1.0) - 1.0) <= 1e-15

    def test_dephasing_bound_positive_scan(self):
        for p in np.arange(0.01, 1.0, 0.01):
            assert cc_dephasing_bound(p) > 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cc_dephasing_bound(-0.1)

    def test_bottleneck_violation(self):
        # the controlled pair beats the single phase-flip channel's own
        # coherent information 1 - H2(p), both evaluated with the same code
        nu0 = maximally_entangled(2)
        for p in np.arange(0.05, 1.0, 0.05):
            ch = standard_channel("phase_flip", 2, p)
            single = coherent_info_bound(lambda m: apply(ch, m, validate=False), nu0)
            assert abs(single - (1.0 - binary_entropy(p))) <= 1e-9
            assert cc_dephasing_bound(p) > single


def literal_gridsearch(angle_step, prob_step):
    """The grid search as a literal triple loop, with numpy's own spectra."""

    def bits(rho):
        w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        w = w[w > 0.0]
        return float(-(w * np.log2(w)).sum())

    ch = standard_channel("depolarising", 2)
    out_map = switch_map(ch, ch, PLUS)
    thetas = np.arange(0.0, np.pi + angle_step / 2.0, angle_step)
    states = [np.array([np.cos(th / 2.0), np.sin(th / 2.0)], dtype=complex) for th in thetas]
    outputs = [out_map(np.outer(s, s.conj())) for s in states]
    entropies = [bits(out) for out in outputs]
    best, best_point = -np.inf, None
    for idx0 in range(len(thetas)):
        for idx1 in range(idx0, len(thetas)):
            for p0 in np.arange(prob_step, 1.0, prob_step):
                avg = p0 * outputs[idx0] + (1.0 - p0) * outputs[idx1]
                value = bits(avg) - p0 * entropies[idx0] - (1.0 - p0) * entropies[idx1]
                if value > best:
                    best = value
                    best_point = (float(thetas[idx0]), float(thetas[idx1]), float(p0))
    return best, best_point


class TestSwitchGridSearch:
    # 0.3 and 0.77 do not divide pi and 3.5 leaves the single angle 0; the
    # probability steps 0.2 and 0.3 leave out 1/2, and 0.2 ties p with 1 - p.
    @pytest.mark.parametrize(
        "angle_step",
        [np.pi / 6, np.pi / 7, np.pi / 13, np.pi / 60, 0.3, 0.77, 3.5],
        ids=["pi/6", "pi/7", "pi/13", "pi/60", "0.3", "0.77", "3.5"],
    )
    @pytest.mark.parametrize("prob_step", [0.25, 0.1, 0.05, 0.2, 0.3],
                             ids=["1/4", "1/10", "1/20", "0.2", "0.3"])
    def test_matches_literal_loop(self, angle_step, prob_step):
        value, point = switch_holevo_qubit_gridsearch(angle_step, prob_step)
        ref_value, ref_point = literal_gridsearch(angle_step, prob_step)
        assert abs(value - ref_value) <= 1e-12
        assert point == ref_point

    def test_value_depends_on_relative_angle_only(self):
        # The switch map commutes with joint target rotations, so rotating an
        # ensemble of x-z plane states about y leaves its information unchanged.
        def plane_state(theta):
            return projector(np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)]))

        depol = standard_channel("depolarising", 2)
        out_map = switch_map(depol, depol, PLUS)
        rng = np.random.default_rng(31)
        for _ in range(20):
            th0, th1 = rng.uniform(0.0, 2.0 * np.pi, size=2)
            p = rng.uniform(0.0, 1.0)
            value = holevo_lower_bound(
                out_map, Ensemble(((p, plane_state(th0)), (1.0 - p, plane_state(th1))))
            )
            relative = holevo_lower_bound(
                out_map, Ensemble(((p, plane_state(0.0)), (1.0 - p, plane_state(th1 - th0))))
            )
            assert abs(value - relative) <= 1e-12

    def test_default_grid_optimum(self):
        value, point = switch_holevo_qubit_gridsearch()
        assert point == (0.0, np.pi, 0.5)
        assert abs(value - switch_holevo_qubit()) <= 1e-9

    def test_one_map_evaluation(self, monkeypatch):
        import ctrlchan.info

        held = ctrlchan.info._QUBIT_SWITCH
        shapes = []

        def counted(rho):
            shapes.append(np.shape(rho))
            return held(rho)

        monkeypatch.setattr(ctrlchan.info, "_QUBIT_SWITCH", counted)
        switch_holevo_qubit_gridsearch(np.pi / 6, 0.25)
        assert shapes == [(7, 2, 2)]

    def test_map_is_built_once_per_process(self, monkeypatch):
        import ctrlchan.info

        def refuse(*args, **kwargs):
            raise AssertionError("the grid search rebuilt its map")

        monkeypatch.setattr(ctrlchan.info, "standard_channel", refuse)
        monkeypatch.setattr(ctrlchan.info, "switch_map", refuse)
        value, point = switch_holevo_qubit_gridsearch()
        assert point == (0.0, np.pi, 0.5)
        assert abs(value - switch_holevo_qubit()) <= 1e-9

    def test_held_map_is_the_depolarising_qubit_switch(self):
        import ctrlchan.info

        depol = standard_channel("depolarising", 2)
        fresh = switch_map(depol, depol, PLUS)
        rng = np.random.default_rng(41)
        rho = np.array([random_density_matrix(2, rng) for _ in range(5)])
        assert np.array_equal(ctrlchan.info._QUBIT_SWITCH(rho), fresh(rho))

    def test_bench_grids_match_the_kraus_pair_sum(self, monkeypatch):
        # Every (n, m) grid of the holevo-grid-qubit workload, angle step
        # pi / n and probability step 1 / (2m), searched through the held map
        # and through the literal sum over the 16 switch Kraus operators
        # W_ij = |0><0| (x) L_j K_i + |1><1| (x) K_i L_j, which shares no
        # code with switch_map.  The held map, contracted in the Choi order,
        # must find the same point on every grid, at a value within rounding.
        import ctrlchan.info

        depol = standard_channel("depolarising", 2)
        switch_kraus = np.array([
            np.kron(projector(ket(0, 2)), l @ k) + np.kron(projector(ket(1, 2)), k @ l)
            for k in depol.kraus
            for l in depol.kraus
        ])
        control = np.full((2, 2), 0.5)

        def kraus_pair_sum(rho):
            joint = np.einsum("ab,...cd->...acbd", control, rho).reshape(rho.shape[:-2] + (4, 4))
            out = np.zeros_like(joint)
            for w in switch_kraus:
                out += w @ joint @ w.conj().T
            return out

        grids = [(n, m) for n in range(6, 31) for m in range(2, 12)]
        held = [switch_holevo_qubit_gridsearch(np.pi / n, 1.0 / (2 * m)) for n, m in grids]
        monkeypatch.setattr(ctrlchan.info, "_QUBIT_SWITCH", kraus_pair_sum)
        for (n, m), (value, point) in zip(grids, held):
            ref_value, ref_point = switch_holevo_qubit_gridsearch(np.pi / n, 1.0 / (2 * m))
            assert point == ref_point, (n, m)
            assert abs(value - ref_value) <= 1e-15, (n, m)

    def test_empty_probability_grid_rejected(self):
        with pytest.raises(ValueError, match="no probability"):
            switch_holevo_qubit_gridsearch(np.pi / 6, 1.0)

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan")], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("name", ["angle_step", "prob_step"])
    def test_non_positive_step_rejected_by_name(self, name, step):
        with pytest.raises(ValueError, match=name):
            switch_holevo_qubit_gridsearch(**{name: step})
