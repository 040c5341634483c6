"""Registered reproduction cases for the command-line interface.

Each case checks one quantitative claim end to end and returns a
:class:`CaseReport`.  Randomised suites derive every draw from the seed and
the trial index, so reports are reproducible and independent of trial order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sampling
from .channels import remix, standard_channel
from .control import (
    ControlState,
    controlled_map,
    controlled_output,
    stinespring_oracle,
    switch_map,
    switch_output,
)
from .discrimination import (
    DiscriminationInstance,
    diamond_bound,
    optimal_input,
    output_distance,
    success_probability,
    trace_distance,
)
from .implementations import (
    ChannelImplementation,
    admissible,
    realize,
    standard_implementation,
)
from .info import (
    Ensemble,
    cc_dephasing_bound,
    coherent_info_bound,
    holevo_lower_bound,
    switch_holevo_qubit,
    switch_holevo_qubit_gridsearch,
)
from .linalg import ket, maximally_entangled, projector


@dataclass(frozen=True)
class CaseOptions:
    """Options shared by all cases; per-case trial counts apply when
    ``trials`` is left unset."""

    d: int = 2
    seed: int = 0
    trials: int | None = None


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    computed: float
    expected: float | None
    abs_error: float | None
    tolerance: float
    passed: bool
    runtime_ms: int
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "computed": self.computed,
            "expected": self.expected if self.expected is not None else "n/a",
            "abs_error": self.abs_error if self.abs_error is not None else "n/a",
            "tolerance": self.tolerance,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class _Result:
    computed: float
    expected: float | None
    tolerance: float
    passed: bool | None = None  # default: abs error against tolerance
    detail: str = ""


_REGISTRY: dict[str, Callable[[CaseOptions], _Result]] = {}


def case(case_id: str):
    def register(fn):
        _REGISTRY[case_id] = fn
        return fn
    return register


def case_ids() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def run_case(case_id: str, options: CaseOptions | None = None) -> CaseReport:
    """Run one registered case and assemble its report."""
    if options is None:
        options = CaseOptions()
    if case_id not in _REGISTRY:
        known = ", ".join(_REGISTRY)
        raise ValueError(f"unknown case '{case_id}'; registered cases: {known}")
    start = time.perf_counter()
    result = _REGISTRY[case_id](options)
    runtime_ms = int(round((time.perf_counter() - start) * 1000.0))
    abs_error = None
    if result.expected is not None:
        abs_error = abs(result.computed - result.expected)
    passed = result.passed
    if passed is None:
        passed = abs_error is not None and abs_error <= result.tolerance
    return CaseReport(
        case_id=case_id,
        computed=float(result.computed),
        expected=result.expected,
        abs_error=abs_error,
        tolerance=result.tolerance,
        passed=bool(passed),
        runtime_ms=runtime_ms,
        detail=result.detail,
    )


def run_cases(case_list, options: CaseOptions | None = None) -> list[CaseReport]:
    return [run_case(cid, options) for cid in case_list]


def _trial_rng(options: CaseOptions, trial: int) -> np.random.Generator:
    return np.random.default_rng([options.seed, trial])


def _spike_t(d: int) -> np.ndarray:
    """The rank-one depolarising-admissible matrix (1/sqrt(d)) |0><0|."""
    t = np.zeros((d, d), dtype=complex)
    t[0, 0] = 1.0 / np.sqrt(d)
    return t


@case("cc-depolarising-holevo")
def _cc_depolarising_holevo(options: CaseOptions) -> _Result:
    d = options.d
    impl = standard_implementation("depolarising", t=_spike_t(d))
    ens = Ensemble(((0.6, projector(ket(0, d))), (0.4, projector(ket(1, d)))))
    computed = holevo_lower_bound(controlled_map(impl, impl, ControlState.plus()), ens)
    expected = float(np.log2(5.0 / 4.0) / d)
    return _Result(computed, expected, 1e-9)


@case("switch-holevo-qubit-analytic")
def _switch_holevo_analytic(options: CaseOptions) -> _Result:
    ch = standard_channel("depolarising", 2)
    ens = Ensemble(((0.5, projector(ket(0, 2))), (0.5, projector(ket(1, 2)))))
    computed = holevo_lower_bound(switch_map(ch, ch, ControlState.plus()), ens)
    return _Result(computed, float(switch_holevo_qubit()), 1e-12)


@case("switch-holevo-qubit-gridsearch")
def _switch_holevo_gridsearch(options: CaseOptions) -> _Result:
    computed, (th0, th1, p0) = switch_holevo_qubit_gridsearch()
    expected = float(switch_holevo_qubit())
    passed = (expected - computed <= 5e-3) and (computed <= expected + 1e-9)
    detail = f"argmax theta0={th0:.4f} theta1={th1:.4f} p0={p0:.2f}"
    return _Result(computed, expected, 5e-3, passed=passed, detail=detail)


@case("dephasing-coherent-info")
def _dephasing_coherent_info(options: CaseOptions) -> _Result:
    nu0 = maximally_entangled(2)
    deviations = []
    minimum = np.inf
    for p in np.arange(0.0, 1.0 + 1e-9, 0.1):
        zp = standard_implementation("phase_flip", p=p, alpha=0.0, beta=1.0)
        xp = standard_implementation("bit_flip", p=p, alpha=0.0, beta=1.0)
        direct = coherent_info_bound(controlled_map(zp, xp, ControlState.plus()), nu0)
        formula = cc_dephasing_bound(p)
        deviations.append(abs(direct - formula))
        minimum = min(minimum, formula)
    computed = float(max(deviations))
    passed = computed <= 1e-9 and minimum > 0.0
    return _Result(
        computed, 0.0, 1e-9, passed=passed,
        detail=f"min bound over sweep = {minimum:.6f}",
    )


@case("depolarising-discrimination")
def _depolarising_discrimination(options: CaseOptions) -> _Result:
    d = options.d
    fixed = standard_implementation("identity", d=d, alpha=1.0)
    t = _spike_t(d)
    inst = DiscriminationInstance(
        fixed,
        standard_implementation("depolarising", t=t),
        standard_implementation("depolarising", t=-t),
    )
    distance = output_distance(inst, ControlState.plus(), projector(ket(0, d)))
    computed = success_probability(distance)
    expected = 0.5 * (1.0 + 1.0 / np.sqrt(d))
    return _Result(computed, expected, 1e-9)


@case("eq5-vs-stinespring")
def _closed_form_vs_oracle(options: CaseOptions) -> _Result:
    d = options.d
    trials = options.trials if options.trials is not None else (100 if d == 2 else 50)

    def one(trial: int) -> float:
        rng = _trial_rng(options, trial)
        i0 = sampling.random_implementation(d, int(rng.integers(1, d * d + 1)), rng)
        i1 = sampling.random_implementation(d, int(rng.integers(1, d * d + 1)), rng)
        a = sampling.random_pure_state(2, rng)
        c = ControlState(a[0], a[1])
        rho = projector(sampling.random_pure_state(d, rng))
        closed = controlled_output(i0, i1, c, rho)
        oracle = stinespring_oracle(i0, i1, c, rho)
        return float(np.max(np.abs(closed.matrix - oracle.matrix)))

    computed = max(one(i) for i in range(trials))
    return _Result(computed, 0.0, 1e-10, detail=f"{trials} trials at d={d}")


@case("switch-remix-invariance")
def _switch_remix_invariance(options: CaseOptions) -> _Result:
    d = options.d
    trials = options.trials if options.trials is not None else 100

    def one(trial: int) -> float:
        rng = _trial_rng(options, trial)
        k0 = int(rng.integers(1, d * d + 1))
        k1 = int(rng.integers(1, d * d + 1))
        ch0 = sampling.random_channel(d, k0, rng)
        ch1 = sampling.random_channel(d, k1, rng)
        u0 = sampling.haar_isometry(k0 + int(rng.integers(0, 2)), k0, rng)
        u1 = sampling.haar_isometry(k1 + int(rng.integers(0, 2)), k1, rng)
        c = ControlState.plus()
        rho = sampling.random_density_matrix(d, rng)
        base = switch_output(ch0, ch1, c, rho)
        remixed = switch_output(remix(ch0, u0), remix(ch1, u1), c, rho)
        return float(np.max(np.abs(base.matrix - remixed.matrix)))

    computed = max(one(i) for i in range(trials))
    return _Result(computed, 0.0, 1e-10, detail=f"{trials} trials at d={d}")


def _weyl_uniform_implementation(d: int) -> ChannelImplementation:
    ch = standard_channel("depolarising", d)
    env = np.full(d * d, 1.0 / d, dtype=complex)
    return ChannelImplementation(ch, env)


def _identity_kraus_implementation(d: int) -> ChannelImplementation:
    ch = standard_channel("depolarising", d)
    env = np.zeros(d * d, dtype=complex)
    env[0] = 1.0
    return ChannelImplementation(ch, env)


@case("cc-remix-sensitivity")
def _cc_remix_sensitivity(options: CaseOptions) -> _Result:
    d = 2
    rho = projector(ket(0, d))
    c = ControlState.plus()
    weyl = _weyl_uniform_implementation(d)
    concentrated = _identity_kraus_implementation(d)
    out_a = controlled_output(weyl, weyl, c, rho)
    out_b = controlled_output(concentrated, concentrated, c, rho)
    computed = trace_distance(out_a.matrix, out_b.matrix)
    passed = computed >= 0.1
    return _Result(
        computed, None, 0.1, passed=passed,
        detail="trace distance between Weyl-uniform and identity-Kraus dilations",
    )


@case("classical-control-null")
def _classical_control_null(options: CaseOptions) -> _Result:
    d = options.d
    trials = options.trials if options.trials is not None else 50
    rng = _trial_rng(options, 0)
    i0 = ChannelImplementation(
        standard_channel("depolarising", d), sampling.random_env(d * d, rng)
    )
    i1 = ChannelImplementation(
        standard_channel("depolarising", d), sampling.random_env(d * d, rng)
    )
    classical = np.diag([0.3, 0.7])
    reference = controlled_output(i0, i1, classical, projector(ket(0, d))).matrix

    def one(trial: int) -> float:
        trial_rng = _trial_rng(options, trial + 1)
        rho = sampling.random_density_matrix(d, trial_rng)
        out = controlled_output(i0, i1, classical, rho).matrix
        return float(np.max(np.abs(out - reference)))

    computed = max(one(i) for i in range(trials))
    return _Result(computed, 0.0, 1e-12, detail=f"{trials} random inputs at d={d}")


@case("tmat-membership-sweep")
def _tmat_membership_sweep(options: CaseOptions) -> _Result:
    d = options.d
    trials = options.trials if options.trials is not None else 100
    depol = standard_channel("depolarising", d)

    def forward(trial: int) -> bool:
        rng = _trial_rng(options, trial)
        impl = sampling.random_implementation(d, int(rng.integers(1, d * d + 1)), rng)
        return admissible(impl.channel, impl.t).admissible

    def roundtrip(trial: int) -> float:
        rng = _trial_rng(options, 10_000 + trial)
        ch = sampling.random_channel(d, int(rng.integers(1, d * d + 1)), rng)
        t = sampling.random_admissible_t(ch, rng)
        rebuilt = realize(ch, t).t
        return float(np.max(np.abs(rebuilt - t)))

    def membership(trial: int) -> bool:
        rng = _trial_rng(options, 20_000 + trial)
        target = rng.uniform(0.0, 2.0 / d)
        while abs(target - 1.0 / d) < 1e-4:
            target = rng.uniform(0.0, 2.0 / d)
        t = sampling.random_depolarising_t(d, rng, hs_norm_sq=target)
        verdict = admissible(depol, t).admissible
        return verdict == (target <= 1.0 / d)

    forward_ok = all(forward(i) for i in range(trials))
    roundtrip_err = max(roundtrip(i) for i in range(trials))
    membership_ok = all(membership(i) for i in range(trials))
    passed = forward_ok and membership_ok and roundtrip_err <= 1e-10
    detail = (
        f"forward pass: {forward_ok}; membership agreement: {membership_ok}; "
        f"{trials} trials each at d={d}"
    )
    return _Result(roundtrip_err, 0.0, 1e-10, passed=passed, detail=detail)


@case("diamond-saturation")
def _diamond_saturation(options: CaseOptions) -> _Result:
    d = options.d
    trials = options.trials if options.trials is not None else 50
    fixed = standard_implementation("identity", d=d, alpha=1.0)
    depol = standard_channel("depolarising", d)

    def one(trial: int) -> float:
        rng = _trial_rng(options, trial)
        t1 = sampling.random_depolarising_t(d, rng)
        t1p = sampling.random_depolarising_t(d, rng)
        inst = DiscriminationInstance(fixed, realize(depol, t1), realize(depol, t1p))
        rho = projector(optimal_input(t1, t1p))
        distance = output_distance(inst, ControlState.plus(), rho)
        return abs(distance - diamond_bound(t1, t1p))

    computed = max(one(i) for i in range(trials))
    return _Result(computed, 0.0, 1e-10, detail=f"{trials} trials at d={d}")
