"""Differential property test: the global maps and every quantity read from
their joint outputs agree with the independent references of
``tests/reference.py`` on drawn channels, implementations, controls and
inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlchan.control import ControlState, controlled_map, stinespring_oracle, switch_map
from ctrlchan.discrimination import DiscriminationInstance, output_distance
from ctrlchan.implementations import ChannelImplementation, admissible
from ctrlchan.info import Ensemble, coherent_info_bound, holevo_lower_bound
from ctrlchan.linalg import BOUND_TOL, RANGE_TOL, projector
from ctrlchan.sampling import (
    random_density_matrix,
    random_env,
    random_implementation,
    random_pure_state,
)

import reference

TOL = 1e-10  # every comparison with a reference


@st.composite
def problems(draw):
    d = draw(st.integers(2, 4))
    return (
        d,
        draw(st.integers(1, d * d)),
        draw(st.integers(1, d * d)),
        draw(st.sampled_from(["pure", "mixed", "diagonal"])),
        draw(st.sampled_from(["state", "block"])),
        draw(st.integers(0, 2**32 - 1)),
    )


def _control(kind, rng):
    if kind == "pure":
        amp = random_pure_state(2, rng)
        return ControlState(amp[0], amp[1])
    if kind == "mixed":
        return random_density_matrix(2, rng)
    w = rng.uniform(0.0, 1.0)
    return np.diag([w, 1.0 - w])


def _holevo(ref_map, ensemble):
    outputs = [ref_map(rho) for _, rho in ensemble]
    average = sum(p * out for (p, _), out in zip(ensemble, outputs))
    return reference.entropy(average) - sum(
        p * reference.entropy(out) for (p, _), out in zip(ensemble, outputs)
    )


def _coherent_info(ref_map, nu, d):
    # nu on reference x target: block (m, k) on the target is nu[m, :, k, :]
    blocks = nu.reshape(d, d, d, d)
    joint = np.block([[ref_map(blocks[m, :, k, :]) for k in range(d)] for m in range(d)])
    return reference.entropy(reference.trace_out_first(joint, d, 2 * d)) - reference.entropy(joint)


@given(problems())
@settings(deadline=None, derandomize=True)
def test_maps_and_quantities_match_the_references(problem):
    d, k0, k1, control_kind, input_kind, seed = problem
    rng = np.random.default_rng(seed)
    i0, i1 = random_implementation(d, k0, rng), random_implementation(d, k1, rng)
    ch0, ch1 = i0.channel, i1.channel
    control = _control(control_kind, rng)
    rho = random_density_matrix(d, rng)
    x = rho if input_kind == "state" else rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    ensemble = ((0.3, rho), (0.7, projector(random_pure_state(d, rng))))
    nu = random_density_matrix(d * d, rng)

    maps = [
        (controlled_map(i0, i1, control), lambda y: reference._oracle_per_kraus(i0, i1, control, y)),
        (switch_map(ch0, ch1, control), lambda y: reference._switch_double_sum(ch0, ch1, control, y)),
    ]
    for out_map, ref_map in maps:
        assert np.max(np.abs(out_map(x) - ref_map(x))) <= TOL
        assert abs(holevo_lower_bound(out_map, Ensemble(ensemble)) - _holevo(ref_map, ensemble)) <= TOL
        assert abs(coherent_info_bound(out_map, nu) - _coherent_info(ref_map, nu, d)) <= TOL

    if isinstance(control, ControlState):
        oracle = stinespring_oracle(i0, i1, control, rho).matrix
        assert np.max(np.abs(oracle - reference._oracle_per_kraus(i0, i1, control, rho))) <= TOL

    other = ChannelImplementation(ch1, random_env(k1, rng))
    outputs = [reference._oracle_per_kraus(i0, i, control, rho) for i in (i1, other)]
    distance = output_distance(DiscriminationInstance(i0, i1, other), control, rho)
    assert abs(distance - 0.5 * reference.trace_norm(outputs[0] - outputs[1])) <= TOL

    gaussian = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for t in (i1.t, 1.5 * i1.t, gaussian):
        rep = admissible(ch1, t)
        residual, qform = reference.choi_route(ch1, t)
        assert rep.admissible == (residual <= RANGE_TOL and qform <= 1.0 + BOUND_TOL)
        if residual <= RANGE_TOL:
            # ||V^+ t||^2 grows as ||t||^2, and its rounding with it
            assert abs(rep.quadratic_form - qform) <= TOL * max(qform, 1.0)
