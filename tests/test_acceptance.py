"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import time

import numpy as np

from ctrlchan.channels import remix, standard_channel
from ctrlchan.control import (
    ControlState,
    controlled_output,
    stinespring_oracle,
    switch_output,
)
from ctrlchan.control import controlled_map
from ctrlchan.discrimination import (
    DiscriminationInstance,
    diamond_bound,
    output_distance,
    success_probability,
    trace_distance,
)
from ctrlchan.implementations import (
    ChannelImplementation,
    admissible,
    realize,
    standard_implementation,
    transformation_matrix,
)
from ctrlchan.info import (
    Ensemble,
    cc_dephasing_bound,
    coherent_info_bound,
    holevo_lower_bound,
    switch_holevo_qubit,
    switch_holevo_qubit_gridsearch,
)
from ctrlchan.linalg import ket, maximally_entangled, projector
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

PLUS = ControlState.plus()


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def spike(d):
    t = np.zeros((d, d), dtype=complex)
    t[0, 0] = 1.0 / np.sqrt(d)
    return t


def test_criterion_1_cc_depolarising_holevo():
    start = time.monotonic()
    impl = standard_implementation("depolarising", t=spike(2))
    ens = Ensemble(((0.6, projector(ket(0, 2))), (0.4, projector(ket(1, 2)))))
    computed = holevo_lower_bound(controlled_map(impl, impl, PLUS), ens)
    expected = 0.5 * np.log2(5.0 / 4.0)
    err = abs(computed - expected)
    elapsed = time.monotonic() - start
    report(
        "criterion 1 (controlled depolarising ensemble information)",
        err <= 1e-9 and elapsed < 1.0,
        f"computed {computed:.9f}, expected {expected:.9f}, err {err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_switch_holevo_qubit():
    start = time.monotonic()
    exact = -3.0 / 8.0 - (5.0 / 8.0) * np.log2(5.0 / 8.0)
    formula = switch_holevo_qubit()
    formula_err = abs(formula - exact)
    grid, _ = switch_holevo_qubit_gridsearch()
    from_below = exact - grid
    elapsed = time.monotonic() - start
    ok = formula_err <= 1e-12 and from_below <= 5e-3 and grid <= exact + 1e-9 and elapsed < 30.0
    report(
        "criterion 2 (depolarising-switch ensemble information)",
        ok,
        f"formula {formula:.9f} (err {formula_err:.2e}), grid search {grid:.9f} "
        f"(gap {from_below:.2e}), {elapsed:.1f}s",
    )


def test_criterion_3_dephasing_coherent_info():
    start = time.monotonic()
    nu0 = maximally_entangled(2)

    def direct(p):
        zp = standard_implementation("phase_flip", p=p, alpha=0.0, beta=1.0)
        xp = standard_implementation("bit_flip", p=p, alpha=0.0, beta=1.0)
        return coherent_info_bound(controlled_map(zp, xp, PLUS), nu0)

    at_half = direct(0.5)
    expected_half = -0.75 * np.log2(0.75)
    err_half = abs(at_half - expected_half)
    sweep_err = 0.0
    all_positive = True
    for p in np.arange(0.0, 1.0 + 1e-9, 0.1):
        value = direct(p)
        sweep_err = max(sweep_err, abs(value - cc_dephasing_bound(p)))
        all_positive = all_positive and value > 0.0
    elapsed = time.monotonic() - start
    ok = err_half <= 1e-9 and sweep_err <= 1e-9 and all_positive and elapsed < 1.0
    report(
        "criterion 3 (controlled dephasing coherent information)",
        ok,
        f"p=1/2 value {at_half:.9f} (err {err_half:.2e}), sweep deviation "
        f"{sweep_err:.2e}, positive everywhere: {all_positive}, {elapsed:.2f}s",
    )


def test_criterion_4_depolarising_discrimination():
    fixed = standard_implementation("identity", d=2, alpha=1.0)
    t = spike(2)
    inst = DiscriminationInstance(
        fixed,
        standard_implementation("depolarising", t=t),
        standard_implementation("depolarising", t=-t),
    )
    distance = output_distance(inst, PLUS, projector(ket(0, 2)))
    bound = diamond_bound(t, -t)
    expected = 1.0 / np.sqrt(2.0)
    success = success_probability(distance)
    expected_success = 0.5 * (1.0 + expected)
    ok = (
        abs(distance - expected) <= 1e-10
        and abs(bound - expected) <= 1e-10
        and abs(success - expected_success) <= 1e-9
    )
    report(
        "criterion 4 (depolarising implementation discrimination)",
        ok,
        f"distance {distance:.12f}, bound {bound:.12f}, success {success:.9f}",
    )


def test_criterion_5_closed_form_vs_dilation_oracle():
    start = time.monotonic()
    worst = 0.0
    for d, trials in ((2, 100), (3, 50)):
        for trial in range(trials):
            rng = np.random.default_rng([5, d, trial])
            kmax = d * d if d == 2 else 3
            i0 = random_implementation(d, int(rng.integers(1, kmax + 1)), rng)
            i1 = random_implementation(d, int(rng.integers(1, kmax + 1)), rng)
            amps = random_pure_state(2, rng)
            c = ControlState(amps[0], amps[1])
            rho = projector(random_pure_state(d, rng))
            closed = controlled_output(i0, i1, c, rho)
            oracle = stinespring_oracle(i0, i1, c, rho)
            worst = max(worst, float(np.max(np.abs(closed.matrix - oracle.matrix))))
    elapsed = time.monotonic() - start
    report(
        "criterion 5 (closed form vs dilation oracle)",
        worst <= 1e-10 and elapsed < 20.0,
        f"max entrywise deviation {worst:.2e} over 100 (d=2) + 50 (d=3) trials, {elapsed:.1f}s",
    )


def test_criterion_6_switch_invariance_vs_control_sensitivity():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng([6, trial])
        k0 = int(rng.integers(1, 5))
        k1 = int(rng.integers(1, 5))
        ch0 = random_channel(2, k0, rng)
        ch1 = random_channel(2, k1, rng)
        u0 = haar_isometry(k0 + int(rng.integers(0, 2)), k0, rng)
        u1 = haar_isometry(k1 + int(rng.integers(0, 2)), k1, rng)
        rho = random_density_matrix(2, rng)
        base = switch_output(ch0, ch1, PLUS, rho)
        remixed = switch_output(remix(ch0, u0), remix(ch1, u1), PLUS, rho)
        worst = max(worst, float(np.max(np.abs(base.matrix - remixed.matrix))))

    depol = standard_channel("depolarising", 2)
    uniform = ChannelImplementation(depol, np.full(4, 0.5, dtype=complex))
    concentrated = ChannelImplementation(depol, np.array([1.0, 0, 0, 0], dtype=complex))
    rho0 = projector(ket(0, 2))
    sensitivity = trace_distance(
        controlled_output(uniform, uniform, PLUS, rho0).matrix,
        controlled_output(concentrated, concentrated, PLUS, rho0).matrix,
    )
    ok = worst <= 1e-10 and sensitivity >= 0.1
    report(
        "criterion 6 (switch invariance vs control sensitivity)",
        ok,
        f"switch remix deviation {worst:.2e}; controlled-output distance between "
        f"dilations {sensitivity:.4f}",
    )


def test_criterion_7_transformation_matrix_characterisation():
    forward_ok = True
    for trial in range(100):
        rng = np.random.default_rng([7, 1, trial])
        d = 2 if trial % 2 == 0 else 3
        impl = random_implementation(d, int(rng.integers(1, d * d + 1)), rng)
        forward_ok = forward_ok and admissible(
            impl.channel, transformation_matrix(impl)
        ).admissible

    roundtrip_worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng([7, 2, trial])
        d = 2 if trial % 2 == 0 else 3
        ch = random_channel(d, int(rng.integers(1, d * d + 1)), rng)
        t = random_admissible_t(ch, rng)
        rebuilt = transformation_matrix(realize(ch, t))
        roundtrip_worst = max(roundtrip_worst, float(np.max(np.abs(rebuilt - t))))

    depol = standard_channel("depolarising", 2)
    membership_ok = True
    for trial in range(100):
        rng = np.random.default_rng([7, 3, trial])
        target = rng.uniform(0.0, 1.0)
        while abs(target - 0.5) < 1e-4:
            target = rng.uniform(0.0, 1.0)
        t = random_depolarising_t(2, rng, hs_norm_sq=target)
        membership_ok = membership_ok and (
            admissible(depol, t).admissible == (target <= 0.5)
        )

    ok = forward_ok and roundtrip_worst <= 1e-10 and membership_ok
    report(
        "criterion 7 (transformation-matrix characterisation)",
        ok,
        f"forward samples pass: {forward_ok}; realize roundtrip max error "
        f"{roundtrip_worst:.2e}; depolarising membership agreement: {membership_ok}",
    )


def test_criterion_8_classical_control_null():
    rng = np.random.default_rng([8, 0])
    depol = standard_channel("depolarising", 2)
    i0 = ChannelImplementation(depol, random_env(4, rng))
    i1 = ChannelImplementation(depol, random_env(4, rng))
    classical = np.diag([0.3, 0.7])
    reference = controlled_output(i0, i1, classical, projector(ket(0, 2))).matrix
    worst = 0.0
    for trial in range(50):
        trial_rng = np.random.default_rng([8, trial + 1])
        rho = random_density_matrix(2, trial_rng)
        out = controlled_output(i0, i1, classical, rho).matrix
        worst = max(worst, float(np.max(np.abs(out - reference))))
    report(
        "criterion 8 (classical control transmits nothing)",
        worst <= 1e-12,
        f"max output deviation across 50 random inputs {worst:.2e}",
    )
