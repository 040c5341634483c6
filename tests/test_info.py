"""Tests for entropies, the ensemble information bound and the coherent
information bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlchan.channels import Channel, apply, standard_channel
from ctrlchan.control import ControlState, controlled_map, switch_map
from ctrlchan.implementations import ChannelImplementation, standard_implementation
from ctrlchan.info import (
    Ensemble,
    binary_entropy,
    cc_dephasing_bound,
    coherent_info_bound,
    entropy,
    holevo_lower_bound,
    switch_holevo_qubit,
    switch_holevo_qubit_gridsearch,
    _PARITY_TABLE,
    _QUBIT_SWITCH,
    _parity_entropies,
    _parity_numbers,
    _spectrum_bits,
)
from ctrlchan.linalg import (
    AVERAGE_ROUNDING,
    DEFAULT_TOL,
    ENTROPY_CLAMP,
    LEADER_WINDOW,
    PARITY_RESIDUE,
    ket,
    maximally_entangled,
    partial_trace,
    projector,
)
from ctrlchan.sampling import random_density_matrix, random_env, random_pure_state

from reference import literal_gridsearch

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

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="must lie in"):
            binary_entropy(float("nan"))

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_bounds(self, p):
        value = binary_entropy(p)
        assert 0.0 <= value <= 1.0
        assert abs(value - binary_entropy(1.0 - p)) <= 1e-12

    def test_bitwise_the_shannon_sum(self):
        # -(p log2 p + q log2 q) with its zero terms dropped, and the bound
        # built on it, bit for bit (a sign of zero included) on a dense grid
        def shannon(probs):
            nz = probs[probs > 0.0]
            return float(-(nz * np.log2(nz)).sum())

        grid = np.concatenate((np.linspace(0.0, 1.0, 20001), [5e-324, 1e-300, 1.0 - 2.0**-53]))
        got, want = [], []
        for p in grid:
            q = (1.0 - p) / 2.0
            got += [binary_entropy(p), cc_dephasing_bound(p)]
            h_p, h_q = shannon(np.array([p, 1.0 - p])), shannon(np.array([q, 1.0 - q]))
            want += [h_p, p - h_p + h_q]
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


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

    def test_dephased_control_gives_less(self):
        # the plus control dephased by lam keeps (1 - lam) of its coherence;
        # dephasing is a channel on the control, so by data processing the
        # bound does not increase with lam, and at lam = 1 the control is the
        # classical diag(1/2, 1/2)
        t = np.zeros((2, 2), dtype=complex)
        t[0, 0] = 1.0 / np.sqrt(2.0)
        impl = standard_implementation("depolarising", t=t)
        ens = Ensemble(((0.6, projector(ket(0, 2))), (0.4, projector(ket(1, 2)))))

        def value(lam):
            c = (1.0 - lam) / 2.0
            return holevo_lower_bound(controlled_map(impl, impl, np.array([[0.5, c], [c, 0.5]])), ens)

        pinned = [value(lam) for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert np.abs(np.array(pinned) - [0.160964, 0.061205, 0.023651, 0.005524, 0.0]).max() <= 1e-6
        assert pinned[-1] == holevo_lower_bound(controlled_map(impl, impl, np.diag([0.5, 0.5])), ens)
        values = [value(lam) for lam in np.linspace(0.0, 1.0, 41)]
        assert all(np.diff(values) <= 0.0)

    def test_constant_map_gives_zero(self):
        # sqrt(w_j) |j><m| sends every state to sigma = diag(0.3, 0.7)
        weights = (0.3, 0.7)
        ch = Channel([
            np.sqrt(w) * np.outer(ket(j, 2), ket(m, 2))
            for j, w in enumerate(weights)
            for m in range(2)
        ])
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
        value = holevo_lower_bound(controlled_map(i0, i1, np.diag([0.5, 0.5])), ens)
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
            single = coherent_info_bound(lambda m: apply(ch, m), nu0)
            assert abs(single - (1.0 - binary_entropy(p))) <= 1e-9
            assert cc_dephasing_bound(p) > single


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
        # through the held switch, so that an exact tie is broken on the same outputs
        ref_value, ref_point = literal_gridsearch(angle_step, prob_step, _QUBIT_SWITCH)
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
        # The held map is the product with the fresh map's outputs on the four
        # matrix units, bit for bit, and agrees with the fresh map itself up
        # to rounding.  The product rounds each entry, the four-term sum
        # sum_k rho_k M_kj, within gamma_4 sum_k |rho_k| max|M|.  The bound
        # allows the fresh map's own evaluations, on the units for the rows
        # M_k and again at rho, three times as much between them: 4 gamma_4
        # sum_k |rho_k| max|M| in all, about 30 times the largest gap seen.
        import ctrlchan.info

        depol = standard_channel("depolarising", 2)
        fresh = switch_map(depol, depol, PLUS)
        table = fresh(np.eye(4, dtype=complex).reshape(4, 2, 2)).reshape(4, 16)
        rng = np.random.default_rng(41)
        thetas = np.arange(0.0, np.pi + np.pi / 120.0, np.pi / 60.0)
        plane = np.stack((np.cos(thetas / 2.0), np.sin(thetas / 2.0)), axis=-1).astype(complex)
        rho = np.concatenate((
            np.array([random_density_matrix(2, rng) for _ in range(200)]),
            plane[:, :, None] * plane[:, None, :].conj(),
        ))
        held = ctrlchan.info._QUBIT_SWITCH(rho)
        assert np.array_equal(held, (rho.reshape(-1, 4) @ table).reshape(-1, 4, 4))
        eps = np.finfo(float).eps
        gamma4 = 4.0 * eps / (1.0 - 4.0 * eps)
        bound = 4.0 * gamma4 * np.abs(rho).sum(axis=(-2, -1)) * np.abs(table).max()
        assert (np.abs(held - fresh(rho)).max(axis=(-2, -1)) <= bound).all()
        # one matrix maps as a stack of one does
        assert np.array_equal(ctrlchan.info._QUBIT_SWITCH(rho[3]), held[3])

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


# Every (n, m) grid of the holevo-grid-qubit workload: angle step pi / n,
# probability step 1 / (2m).
BENCH_GRIDS = [(np.pi / n, 1.0 / (2 * m)) for n in range(6, 31) for m in range(2, 12)]
# The grids of TestSwitchGridSearch.test_matches_literal_loop.
LITERAL_GRIDS = [
    (a, p)
    for a in (np.pi / 6, np.pi / 7, np.pi / 13, np.pi / 60, 0.3, 0.77, 3.5)
    for p in (0.25, 0.1, 0.05, 0.2, 0.3)
]
# 0.77 and 0.2: p0 = 0.4 and p0 = 0.6 tie at theta1 = 3.08, and the first, 0.4,
# is the point.
TIE_GRID = (0.77, 0.2)


def _exact_only(monkeypatch):
    """Turn the parity ranking off, so that the grid search scores every
    point with ``entropy``."""
    import ctrlchan.info

    monkeypatch.setattr(ctrlchan.info, "_parity_entropies", lambda outputs, probs: None)


def _symmetric_state(w):
    """The X (x) 1-symmetric joint state with |+> block diag(w[0], w[1]) and
    |-> block diag(w[2], w[3]), written in the computational control basis."""
    even, odd = np.diag(w[:2]).astype(complex), np.diag(w[2:]).astype(complex)
    a, b = (even + odd) / 2.0, (even - odd) / 2.0
    return np.block([[a, b], [b, a]])


def _recorded_verdicts(monkeypatch):
    """Record every result of the parity ranking, in a list returned here."""
    import ctrlchan.info

    held = ctrlchan.info._parity_entropies
    verdicts = []
    monkeypatch.setattr(
        ctrlchan.info,
        "_parity_entropies",
        lambda outputs, probs: verdicts.append(held(outputs, probs)) or verdicts[-1],
    )
    return verdicts


def _outcome(grid):
    """What the grid search gives on ``grid``: its result, or its error message."""
    try:
        return switch_holevo_qubit_gridsearch(*grid)
    except ValueError as exc:
        return str(exc)


def _parity_entropies_reference(outputs, probs):
    """``_parity_entropies`` in its earlier [output, weight, number, sector]
    layout, with the radius a reduction over the number axis."""
    n = outputs.shape[0]
    p = np.concatenate(([0.0], probs))[:, None, None]
    with np.errstate(invalid="ignore", over="ignore"):
        herm = np.abs(outputs - outputs.swapaxes(-2, -1).conj()).max(initial=0.0)
        trace = np.abs(np.trace(outputs, axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
        numbers = np.ascontiguousarray(outputs).view(float).reshape(n, 32) @ _PARITY_TABLE
        residue = np.sqrt((numbers[:, 8:] ** 2).sum(axis=-1)).max()
        sectors = numbers[:, :8].reshape(n, 4, 2)
        sectors = p * sectors[0] + (1.0 - p) * sectors[:, None]
        mean, radius = sectors[..., 0, :], np.sqrt((sectors[..., 1:, :] ** 2).sum(axis=-2))
        w = np.concatenate((mean - radius, mean + radius), axis=-1)
    limit = DEFAULT_TOL - AVERAGE_ROUNDING
    if not (
        herm <= limit
        and trace <= limit
        and residue <= PARITY_RESIDUE
        and w.min() - residue - PARITY_RESIDUE >= -ENTROPY_CLAMP
    ):
        return None
    bits = _spectrum_bits(w)
    return bits[:, 0], bits[:, 1:]


class TestParityRanking:
    """The grid search ranks on the control-parity blocks and scores its
    leaders with ``entropy``; it must return bit for bit what scoring every
    point with ``entropy`` returns."""

    def test_bitwise_the_exact_path(self, monkeypatch):
        rng = np.random.default_rng(2020)
        drawn = [
            (float(rng.uniform(0.05, 3.5)), float(rng.uniform(0.02, 0.6))) for _ in range(200)
        ]
        grids = BENCH_GRIDS + LITERAL_GRIDS + [(np.pi / 60.0, 0.05)] + drawn
        ranked = [switch_holevo_qubit_gridsearch(a, p) for a, p in grids]
        _exact_only(monkeypatch)
        for (a, p), (value, point) in zip(grids, ranked):
            ref_value, ref_point = switch_holevo_qubit_gridsearch(a, p)
            assert value.hex() == ref_value.hex(), (a, p)
            assert [x.hex() for x in point] == [x.hex() for x in ref_point], (a, p)

    def test_tie_takes_the_first_probability(self, monkeypatch):
        # Both tied points are leaders, and the exact scores keep the first;
        # the ranked values alone put p0 = 0.6000000000000001 first.  The one
        # eigvalsh call scores the output at theta1 = 0 and each leader's
        # output and average.
        held = np.linalg.eigvalsh
        scored = []

        def counted(rho):
            scored.append(np.shape(rho))
            return held(rho)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        value, point = switch_holevo_qubit_gridsearch(*TIE_GRID)
        assert point == (0.0, 3.08, 0.4)
        assert scored == [(5, 4, 4)]
        _exact_only(monkeypatch)
        assert switch_holevo_qubit_gridsearch(*TIE_GRID) == (value, point)

    def test_few_exact_spectra(self, monkeypatch):
        sides = []
        held = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            a = np.asarray(a)
            sides.extend([a.shape[-1]] * int(np.prod(a.shape[:-2])))
            return held(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        for a, p in BENCH_GRIDS:
            sides.clear()
            switch_holevo_qubit_gridsearch(a, p)
            # the output at theta1 = 0, and the output and the average of the
            # one leader, (pi, 1/2), against (n + 1)(P + 1) when every output
            # and every average is scored with entropy
            assert sides == [4, 4, 4], (a, p)

    @pytest.mark.parametrize("eps", [0.05, 1e-13], ids=["broken", "barely-broken"])
    @pytest.mark.parametrize("grid", [(np.pi / 6, 0.25), TIE_GRID, (0.3, 0.1)],
                             ids=["pi/6,1/4", "0.77,0.2", "0.3,0.1"])
    def test_asymmetric_map_scored_exactly(self, monkeypatch, eps, grid):
        # Adding eps Z (x) 1 keeps the map covariant under target rotations,
        # so the literal loop still finds its maximum at theta0 = 0, but it
        # breaks the X (x) 1 symmetry: in the |+>, |-> basis it lies between
        # the blocks, so every average has ||E||_F = sqrt(2) eps.
        import ctrlchan.info

        held = ctrlchan.info._QUBIT_SWITCH
        tilt = eps * np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)

        def tilted(rho):
            return held(rho) + np.trace(rho, axis1=-2, axis2=-1)[..., None, None] * tilt

        monkeypatch.setattr(ctrlchan.info, "_QUBIT_SWITCH", tilted)
        verdicts = _recorded_verdicts(monkeypatch)
        value, point = switch_holevo_qubit_gridsearch(*grid)
        assert verdicts == [None]
        ref_value, ref_point = literal_gridsearch(*grid, tilted)
        assert abs(value - ref_value) <= 1e-12
        assert point == ref_point

    @pytest.mark.parametrize(
        "bad, message",
        [
            (_symmetric_state([-1e-6, 0.5, 0.25, 0.25 + 1e-6]),
             r"^density matrix has a negative eigenvalue -1\.000e-06$"),
            (_symmetric_state([-1e-11, 0.5, 0.25, 0.25 + 1e-11]),
             r"^eigenvalue -1\.000e-11 below the clamping window$"),
            (_symmetric_state([0.25] * 4) * 1.1,
             r"^density matrix has trace 1 \+ 1\.000e-01, expected 1$"),
        ],
        ids=["negative", "below-clamp", "trace"],
    )
    def test_invalid_output_refused_as_before(self, monkeypatch, bad, message):
        import ctrlchan.info

        def invalid(rho):
            return np.broadcast_to(bad, rho.shape[:-2] + (4, 4)).copy()

        monkeypatch.setattr(ctrlchan.info, "_QUBIT_SWITCH", invalid)
        with pytest.raises(ValueError, match=message):
            switch_holevo_qubit_gridsearch(np.pi / 6, 0.25)
        _exact_only(monkeypatch)
        with pytest.raises(ValueError, match=message):
            switch_holevo_qubit_gridsearch(np.pi / 6, 0.25)

    @pytest.mark.parametrize(
        "entry, excess, verdict",
        [
            ((1, 0), DEFAULT_TOL - AVERAGE_ROUNDING / 2.0, None),
            ((0, 0), DEFAULT_TOL - AVERAGE_ROUNDING / 2.0, None),
            # every output passes the rules, but rounding takes some averages
            # just past DEFAULT_TOL, and the exact rules refuse them
            ((1, 0), DEFAULT_TOL, "density matrix is not Hermitian within tolerance"),
        ],
        ids=["hermitian-band", "trace-band", "hermitian-edge"],
    )
    def test_margin_band_takes_the_exact_rules(self, monkeypatch, entry, excess, verdict):
        # An output whose Hermitian deviation (entry (1, 0)) or trace error
        # (entry (0, 0)) lies within AVERAGE_ROUNDING of DEFAULT_TOL is not
        # ranked, so the rules run over every average, as scoring every point
        # exactly runs them, and the grid search gives that path's verdict.
        import ctrlchan.info

        edge = _symmetric_state([0.25] * 4)
        edge[entry] += excess

        def at_the_edge(rho):
            return np.broadcast_to(edge, rho.shape[:-2] + (4, 4)).copy()

        monkeypatch.setattr(ctrlchan.info, "_QUBIT_SWITCH", at_the_edge)
        verdicts = _recorded_verdicts(monkeypatch)
        outcome = _outcome((np.pi / 6, 0.1))
        assert verdicts == [None]
        if verdict is None:
            assert isinstance(outcome, tuple)
        else:
            assert outcome == verdict
        _exact_only(monkeypatch)
        assert _outcome((np.pi / 6, 0.1)) == outcome


class TestRankedPathChecks:
    def test_ranked_path_rechecks_no_state(self, monkeypatch):
        # _parity_entropies has proved the state rules and the clamp gate for
        # every matrix the leaders are scored on, so the ranked path runs no
        # _density_rules; the exact path checks the outputs, then the averages
        import ctrlchan.linalg

        held = ctrlchan.linalg._density_rules
        checked = []

        def counted(rho):
            checked.append(np.shape(rho))
            return held(rho)

        monkeypatch.setattr(ctrlchan.linalg, "_density_rules", counted)
        value, point = switch_holevo_qubit_gridsearch(*TIE_GRID)
        assert checked == []
        _exact_only(monkeypatch)
        assert switch_holevo_qubit_gridsearch(*TIE_GRID) == (value, point)
        assert checked == [(5, 4, 4), (20, 4, 4)]


class TestParityEntropies:
    def test_table_gives_the_parity_numbers(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((20, 4, 4)) + 1j * rng.standard_normal((20, 4, 4))
        numbers = m.view(float).reshape(20, 32) @ _PARITY_TABLE
        assert np.abs(numbers - _parity_numbers(m)).max() <= 1e-15
        # exact multiples of 1/4, so the product rounds like the sums it replaces
        assert np.array_equal(4.0 * _PARITY_TABLE, np.round(4.0 * _PARITY_TABLE))

    def test_numbers_read_what_eigvalsh_reads(self):
        # the lower triangle and the real part of the diagonal, nothing else
        rng = np.random.default_rng(9)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        moved = m + np.triu(rng.standard_normal((4, 4)), 1) + 1j * np.diag(rng.standard_normal(4))
        assert np.array_equal(_parity_numbers(moved), _parity_numbers(m))
        herm = np.tril(m, -1) + np.tril(m, -1).conj().T + np.diag(m.diagonal().real)
        # the sector numbers give the spectrum of the Hermitian matrix they come from
        # when E vanishes, so check them on its X (x) 1-symmetric part
        swap = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        sym = (herm + swap @ herm @ swap) / 2.0
        numbers = _parity_numbers(sym)
        assert np.abs(numbers[8:]).max() <= 1e-15
        mean, rest = numbers[:8].reshape(4, 2)[0], numbers[:8].reshape(4, 2)[1:]
        radius = np.sqrt((rest**2).sum(axis=0))
        spectrum = np.sort(np.concatenate((mean - radius, mean + radius)))
        assert np.abs(spectrum - np.linalg.eigvalsh(sym)).max() <= 1e-14

    def test_symmetric_outputs_within_the_window(self):
        rng = np.random.default_rng(7)
        states = []
        for _ in range(50):
            w = rng.dirichlet(np.ones(4))
            # a random unitary on the target, the same in both control blocks,
            # keeps the X (x) 1 symmetry
            u = np.kron(np.eye(2), np.linalg.qr(rng.standard_normal((2, 2))
                                                + 1j * rng.standard_normal((2, 2)))[0])
            states.append(u @ _symmetric_state(w) @ u.conj().T)
        outputs = np.array(states)
        probs = np.array([0.1, 0.5, 0.75])
        out_bits, avg_bits = _parity_entropies(outputs, probs)
        assert out_bits.shape == (50,) and avg_bits.shape == (50, 3)
        p0 = probs[:, None, None]
        averages = p0 * outputs[0] + (1.0 - p0) * outputs[:, None]
        # each entropy within a fifth of the window, as the tolerance table states
        assert np.abs(out_bits - entropy(outputs)).max() <= LEADER_WINDOW / 5.0
        assert np.abs(avg_bits - entropy(averages)).max() <= LEADER_WINDOW / 5.0

    def test_bitwise_the_earlier_layout(self):
        # On the workload's grids and the literal loop's, through the held
        # map and a fresh switch_map, and on states off the x-z plane through
        # the held map, the [number, sector, output, weight] layout gives the
        # earlier layout's entropies bit for bit.
        import ctrlchan.info

        depol = standard_channel("depolarising", 2)
        maps = [ctrlchan.info._QUBIT_SWITCH, switch_map(depol, depol, PLUS)]
        for angle_step, prob_step in BENCH_GRIDS + LITERAL_GRIDS:
            thetas = np.arange(0.0, np.pi + angle_step / 2.0, angle_step)
            states = np.stack((np.cos(thetas / 2.0), np.sin(thetas / 2.0)), axis=-1).astype(complex)
            probs = np.arange(prob_step, 1.0, prob_step)
            for out_map in maps:
                outputs = out_map(states[:, :, None] * states[:, None, :].conj())
                out_bits, avg_bits = _parity_entropies(outputs, probs)
                ref_bits, ref_avg = _parity_entropies_reference(outputs, probs)
                assert out_bits.tobytes() == ref_bits.tobytes(), (angle_step, prob_step)
                assert avg_bits.tobytes() == ref_avg.tobytes(), (angle_step, prob_step)
        # states off the x-z plane, (cos theta/2, e^(i phi) sin theta/2): their
        # third sector number is not negligible, so the order of the radius sum
        # s1^2 + s2^2 + s3^2 shows in the bits (s3^2 + s2^2 + s1^2 moves about
        # one radius in eight here)
        rng = np.random.default_rng(66)
        theta, phi = rng.uniform(0.0, np.pi, 200), rng.uniform(0.0, 2.0 * np.pi, 200)
        states = np.stack((np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)), axis=-1)
        outputs = maps[0](states[:, :, None] * states[:, None, :].conj())
        probs = np.arange(0.05, 1.0, 0.05)
        out_bits, avg_bits = _parity_entropies(outputs, probs)
        ref_bits, ref_avg = _parity_entropies_reference(outputs, probs)
        assert out_bits.tobytes() == ref_bits.tobytes()
        assert avg_bits.tobytes() == ref_avg.tobytes()

    @pytest.mark.parametrize("low", [-1e-6, -ENTROPY_CLAMP + PARITY_RESIDUE / 2.0])
    def test_no_ranking_near_the_clamping_window(self, low):
        outputs = np.array([_symmetric_state([0.25] * 4), _symmetric_state([low, 0.5, 0.25, 0.25 - low])])
        assert _parity_entropies(outputs, np.array([0.5])) is None

    def test_inside_the_clamping_window_ranked(self):
        outputs = np.array([_symmetric_state([-1e-13, 0.5, 0.25, 0.25 + 1e-13])])
        out_bits, avg_bits = _parity_entropies(outputs, np.array([0.5]))
        assert abs(out_bits[0] - entropy(outputs)[0]) <= 1e-11
        assert abs(avg_bits[0, 0] - entropy(outputs)[0]) <= 1e-11

    def test_rules_beyond_the_margin_not_ranked(self):
        # the grid search then refuses the output by the exact rules, as
        # test_invalid_output_refused_as_before checks
        bad = _symmetric_state([0.25] * 4) * 1.1
        assert _parity_entropies(np.array([bad]), np.array([0.5])) is None

    @pytest.mark.parametrize("step", [0.0, -0.1, float("nan")], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("name", ["angle_step", "prob_step"])
    def test_non_positive_step_rejected_by_name(self, name, step):
        with pytest.raises(ValueError, match=name):
            switch_holevo_qubit_gridsearch(**{name: step})
