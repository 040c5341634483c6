"""The three benchmark workloads: seeded inputs, one op each, and its check.

Every input is drawn from ``--seed`` with ``ctrlchan.sampling`` before the op
that uses it starts, so the program sees only generated inputs and input
generation never falls inside an op's timed region.  Inputs come in blocks:
the first block is part of set-up, later blocks are drawn between ops.

Ops call the program through attribute lookups on the ``ctrlchan`` package,
so the tracer in ``spans.py`` can rebind those names from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Iterator

import numpy as np

import ctrlchan
from ctrlchan import sampling

D = 8
MAX_KRAUS = D * D
BLOCK = 64

# Tolerances of the matching ``ctrlchan reproduce`` cases; never looser.
TOL_MATRIX = 1e-10
TOL_HOLEVO = 1e-9

# Holevo grids: angle step pi/n and probability step 1/(2m).  Each such grid
# contains the optimum (theta0, theta1, p0) = (0, pi, 1/2).
GRID_N = range(6, 31)
GRID_M = range(2, 12)
GRID_STRATA = 10

# Closed form of the switch value, written out here rather than taken from
# ctrlchan.switch_holevo_qubit so that the check is independent of the program.
SWITCH_HOLEVO = -3.0 / 8.0 - (5.0 / 8.0) * math.log2(5.0 / 8.0)


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: Callable[[int], Iterator[list]]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    size: int | None  # number of distinct inputs, None when unbounded


def _op_rng(seed: int, block: int, pos: int) -> np.random.Generator:
    return np.random.default_rng([seed, block, pos])


def _entropy_bits(rho: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _over(label: str, err: float, tol: float) -> list[str]:
    return [] if err <= tol else [f"{label}: {err:.3e} > {tol:.0e}"]


# switch-remix-d8 ----------------------------------------------------------

def _switch_blocks(seed: int) -> Iterator[list]:
    """Blocks of 64 ops over an 8 x 8 grid of Kraus-count strata.

    Each block visits every (k0 stratum, k1 stratum) cell once, in seeded
    order, with k drawn uniformly inside its stratum.  k0 and k1 are still
    uniform on [1, 64], but every run sees the whole k0 * k1 range in equal
    measure, which keeps run-to-run spread low.
    """
    for block in count():
        plan = np.random.default_rng([seed, block])
        cells = plan.permutation(BLOCK)
        inputs = []
        for pos, cell in enumerate(cells):
            rng = _op_rng(seed, block, pos)
            k0 = 8 * int(cell // 8) + int(rng.integers(1, 9))
            k1 = 8 * int(cell % 8) + int(rng.integers(1, 9))
            ch0 = sampling.random_channel(D, k0, rng)
            ch1 = sampling.random_channel(D, k1, rng)
            u0 = sampling.haar_isometry(k0 + int(rng.integers(0, 2)), k0, rng)
            u1 = sampling.haar_isometry(k1 + int(rng.integers(0, 2)), k1, rng)
            rho = sampling.random_density_matrix(D, rng)
            inputs.append((ch0, ch1, u0, u1, rho))
        yield inputs


def _switch_op(inputs):
    ch0, ch1, u0, u1, rho = inputs
    control = ctrlchan.ControlState.plus()
    base = ctrlchan.switch_output(ch0, ch1, control, rho)
    remixed = ctrlchan.switch_output(
        ctrlchan.remix(ch0, u0), ctrlchan.remix(ch1, u1), control, rho
    )
    return base.matrix, remixed.matrix


def _switch_check(inputs, result) -> list[str]:
    base, remixed = result
    return _over("remix invariance", _max_abs(base, remixed), TOL_MATRIX)


# dilation-d8 --------------------------------------------------------------

def _dilation_blocks(seed: int) -> Iterator[list]:
    """Blocks of 64 ops in which k0, k1 and k2 each run through a seeded
    permutation of 1..64 (a Latin hypercube over the three Kraus counts)."""
    reference = ctrlchan.standard_implementation("identity", d=D, alpha=1.0)
    for block in count():
        plan = np.random.default_rng([seed, block])
        ks = [plan.permutation(MAX_KRAUS) + 1 for _ in range(3)]
        inputs = []
        for pos in range(BLOCK):
            rng = _op_rng(seed, block, pos)
            k0, k1, k2 = (int(k[pos]) for k in ks)
            i0 = sampling.random_implementation(D, k0, rng)
            i1 = sampling.random_implementation(D, k1, rng)
            amp = sampling.random_pure_state(2, rng)
            control = ctrlchan.ControlState(amp[0], amp[1])
            rho = ctrlchan.projector(sampling.random_pure_state(D, rng))
            ch2 = sampling.random_channel(D, k2, rng)
            t1 = sampling.random_admissible_t(ch2, rng)
            t1p = sampling.random_admissible_t(ch2, rng)
            p = float(rng.uniform(0.1, 0.9))
            states = [ctrlchan.projector(sampling.random_pure_state(D, rng)) for _ in range(2)]
            ensemble = ctrlchan.Ensemble(((p, states[0]), (1.0 - p, states[1])))
            inputs.append((i0, i1, control, rho, ch2, t1, t1p, reference, ensemble))
        yield inputs


def _dilation_op(inputs):
    i0, i1, control, rho, ch2, t1, t1p, reference, ensemble = inputs
    closed = ctrlchan.controlled_output(i0, i1, control, rho)
    oracle = ctrlchan.stinespring_oracle(i0, i1, control, rho)
    report = ctrlchan.admissible(i0.channel, ctrlchan.transformation_matrix(i0))
    impl_a = ctrlchan.realize(ch2, t1)
    impl_b = ctrlchan.realize(ch2, t1p)
    ta = ctrlchan.transformation_matrix(impl_a)
    tb = ctrlchan.transformation_matrix(impl_b)
    inst = ctrlchan.DiscriminationInstance(reference, impl_a, impl_b)
    psi = ctrlchan.optimal_input(t1, t1p)
    distance = ctrlchan.output_distance(
        inst, ctrlchan.ControlState.plus(), ctrlchan.projector(psi)
    )
    bound = ctrlchan.diamond_bound(t1, t1p)
    chi = ctrlchan.holevo_lower_bound(ctrlchan.controlled_map(i0, i1, control), ensemble)
    return (closed.matrix, oracle.matrix, report.admissible, ta, tb, distance, bound, chi)


def _dilation_check(inputs, result) -> list[str]:
    i0, i1, control, _, _, t1, t1p, _, ensemble = inputs
    closed, oracle, admitted, ta, tb, distance, bound, chi = result
    # Holevo reference: explicit dilation outputs and numpy's own spectra,
    # sharing neither the block formula nor ctrlchan.entropy with the op.
    outs = [ctrlchan.stinespring_oracle(i0, i1, control, s).matrix for _, s in ensemble.items]
    probs = [p for p, _ in ensemble.items]
    average = sum(p * out for p, out in zip(probs, outs))
    chi_ref = _entropy_bits(average) - sum(p * _entropy_bits(out) for p, out in zip(probs, outs))
    failures = [] if admitted else ["genuine T rejected by admissible"]
    failures += _over("controlled vs oracle", _max_abs(closed, oracle), TOL_MATRIX)
    failures += _over("realize round-trip", max(_max_abs(ta, t1), _max_abs(tb, t1p)), TOL_MATRIX)
    failures += _over("diamond saturation", abs(distance - bound), TOL_MATRIX)
    failures += _over("holevo vs oracle", abs(chi - chi_ref), TOL_HOLEVO)
    return failures


# holevo-grid-qubit --------------------------------------------------------

def grid_cost(grid: tuple[int, int]) -> int:
    """Entropy evaluations in one grid search: state pairs times probabilities."""
    n, m = grid
    return (n + 1) * (n + 2) // 2 * (2 * m - 1)


def grid_order(seed: int) -> list[tuple[int, int]]:
    """Every (n, m) grid once, in a seeded stratified order.

    Grids are split by cost into equal strata; each round takes one unused
    grid from every stratum in seeded order, so any prefix of a run holds
    cheap and costly grids in the same proportion as the whole set.
    """
    rng = np.random.default_rng(seed)
    grids = sorted(((n, m) for n in GRID_N for m in GRID_M), key=lambda g: (grid_cost(g), g))
    strata = [grids[i * len(grids) // GRID_STRATA:(i + 1) * len(grids) // GRID_STRATA]
              for i in range(GRID_STRATA)]
    strata = [[s[j] for j in rng.permutation(len(s))] for s in strata]
    order = []
    for r in range(max(len(s) for s in strata)):
        for i in rng.permutation(GRID_STRATA):
            if r < len(strata[i]):
                order.append(strata[i][r])
    return order


def _grid_blocks(seed: int) -> Iterator[list]:
    yield grid_order(seed)


def _grid_op(grid):
    n, m = grid
    return ctrlchan.switch_holevo_qubit_gridsearch(angle_step=np.pi / n, prob_step=1.0 / (2 * m))


def _grid_check(grid, result) -> list[str]:
    value, _ = result
    return _over("grid optimum vs closed form", abs(value - SWITCH_HOLEVO), TOL_HOLEVO)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("switch-remix-d8", _switch_blocks, _switch_op, _switch_check, None),
        Workload("dilation-d8", _dilation_blocks, _dilation_op, _dilation_check, None),
        Workload("holevo-grid-qubit", _grid_blocks, _grid_op, _grid_check,
                 len(GRID_N) * len(GRID_M)),
    )
}
