"""Command-line interface.

Verbs:
    reproduce     run registered reproduction cases and report pass/fail
    simulate      joint control-target output for a channel pair and input
    validate-t    test a transformation matrix against a channel
    info          communication figures of merit for a controlled pair
    distinguish   discriminate two dilations of one channel

All randomness is derived from ``--seed``; under one BLAS build and thread
count, identical inputs and seed produce byte-identical JSON reports (see
``reproduce --help`` for what holds across them).  Exit code is 0 iff every
executed check passed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cases import CaseOptions, case_ids, run_cases
from .control import (
    ControlledOutput,
    ControlState,
    controlled_map,
    controlled_output,
    switch_output,
)
from .discrimination import (
    DiscriminationInstance,
    diamond_bound,
    optimal_input,
    output_distance,
    success_probability,
)
from .implementations import admissible, realize, standard_implementation
from .info import Ensemble, coherent_info_bound, holevo_lower_bound
from .linalg import (
    SATURATION_TOL,
    _eigvalsh,
    ket,
    maximally_entangled,
    projector,
    validate_density_matrix,
)
from .serialization import (
    SchemaError,
    channel_from_json,
    ensemble_from_json,
    implementation_from_json,
    load_json,
    matrix_to_json,
    state_from_json,
    tmatrix_from_json,
    vector_to_json,
)


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


_CONTROL_HELP = (
    "'plus' (default), 'zero', 'one', the amplitudes aRe,aIm,bRe,bIm of a|0> + b|1>, "
    "or the weights w0,w1 of classical control, the control diag(w0, w1)"
)


def _named(flag: str, fn, *args):
    """``fn(*args)``, with a ``ValueError`` or ``OSError`` named by ``flag``;
    a ``SchemaError`` already names its field and passes unchanged."""
    try:
        return fn(*args)
    except SchemaError:
        raise
    except (ValueError, OSError) as exc:
        raise SchemaError(flag, str(exc)) from exc


def _parse_control(text: str) -> ControlState | np.ndarray:
    """The control a ``--control`` value names; every refusal is named by the flag."""
    named = {
        "plus": ControlState.plus(),
        "zero": ControlState.basis(0),
        "one": ControlState.basis(1),
    }
    if text in named:
        return named[text]
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) not in (2, 4):
        raise SchemaError("--control", "expected 'plus', 'zero', 'one', two comma-separated "
                          f"floats w0,w1 or four aRe,aIm,bRe,bIm, got {text!r}")
    if len(values) == 2:
        return _named("--control", validate_density_matrix, np.diag(values))
    a, b = complex(values[0], values[1]), complex(values[2], values[3])
    return _named("--control", ControlState, a, b)


def _read(reader, path: str, flag: str):
    """The document at ``path`` as ``reader`` reads it; every refusal is named by ``flag``."""
    return _named(flag, lambda: reader(load_json(path, flag), flag))


def _density_from_json(doc, field: str) -> np.ndarray:
    """A state document, refused unless it holds a density matrix."""
    return validate_density_matrix(state_from_json(doc, field))


def _matrix_report(out: ControlledOutput) -> dict:
    matrix = out.matrix
    w = _eigvalsh(matrix)
    return {
        "matrix": matrix_to_json(matrix),
        "blocks": {
            "diag0": matrix_to_json(out.diag0),
            "diag1": matrix_to_json(out.diag1),
            "offdiag01": matrix_to_json(out.offdiag01),
            "offdiag10": matrix_to_json(out.offdiag10),
        },
        "diagnostics": {
            "trace": float(np.real(np.trace(matrix))),
            "hermiticity_deviation": float(np.max(np.abs(matrix - matrix.conj().T))),
            "min_eigenvalue": float(w[0]),
        },
    }


def _same_dimension(flag: str, kind: str, dim: int, d: int, owner: str) -> None:
    """Refuse, under ``flag``, a ``kind`` document of dimension ``dim`` where
    ``owner`` sets the dimension ``d``."""
    if dim != d:
        raise SchemaError(flag, f"{kind} of dimension {dim} does not match {owner} dimension {d}")


def _cmd_reproduce(args) -> int:
    selected = args.case if args.case else list(case_ids())
    options = CaseOptions(d=args.d, seed=args.seed, trials=args.trials)
    reports = run_cases(selected, options)
    if args.format == "json":
        doc = {
            "cases": [r.to_dict() for r in reports],
            "all_passed": all(r.passed for r in reports),
        }
        print(_json_dumps(doc))
    else:
        width = max(len(cid) for cid in selected)
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            expected = "n/a" if r.expected is None else f"{r.expected:.9g}"
            err = "n/a" if r.abs_error is None else f"{r.abs_error:.3e}"
            line = (
                f"{r.case_id:<{width}}  computed={r.computed:.9g}  "
                f"expected={expected}  err={err}  [{status}]  ({r.runtime_ms} ms)"
            )
            if r.detail:
                line += f"  {r.detail}"
            print(line)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_simulate(args) -> int:
    control = _parse_control(args.control)
    if args.mode == "switch":
        kind, reader, build = "channel", channel_from_json, switch_output
    else:
        kind, reader, build = "implementation", implementation_from_json, controlled_output
    arm0 = _read(reader, args.channel0, "--channel0")
    arm1 = _read(reader, args.channel1, "--channel1")
    d = arm0.dim
    _same_dimension("--channel1", kind, arm1.dim, d, "--channel0's")
    rho = _read(_density_from_json, args.input, "--input") if args.input else projector(ket(0, d))
    _same_dimension("--input", "state", rho.shape[0], d, "the channels'")
    out = build(arm0, arm1, control, rho)
    doc = {"mode": args.mode, **_matrix_report(out)}
    if args.format == "json":
        print(_json_dumps(doc))
    else:
        diag = doc["diagnostics"]
        print(f"mode: {args.mode}")
        with np.printoptions(precision=6, suppress=True):
            print(np.asarray(out.matrix))
        print(
            f"trace={diag['trace']:.9g}  "
            f"hermiticity deviation={diag['hermiticity_deviation']:.3e}  "
            f"min eigenvalue={diag['min_eigenvalue']:.3e}"
        )
    return 0


def _cmd_validate_t(args) -> int:
    ch = _read(channel_from_json, args.channel, "--channel")
    t = _read(tmatrix_from_json, args.t, "--t")
    _same_dimension("--t", "matrix", t.shape[0], ch.dim, "the channel's")
    report = _named("--t", admissible, ch, t)
    doc = {
        "admissible": report.admissible,
        "range_residual": report.range_residual,
        "quadratic_form": report.quadratic_form,
    }
    impl = None
    if args.realize:
        doc["env"] = doc["roundtrip_error"] = None
        if report.admissible:
            impl = realize(ch, t)
            doc["env"] = vector_to_json(impl.env)
            doc["roundtrip_error"] = float(np.max(np.abs(impl.t - t)))
    if args.format == "json":
        print(_json_dumps(doc))
    else:
        verdict = "admissible" if report.admissible else "NOT admissible"
        print(
            f"range residual = {report.range_residual:.3e}, "
            f"quadratic form = {report.quadratic_form:.9g} -> {verdict}"
        )
        if impl is not None:
            print(f"environment amplitudes: {np.asarray(impl.env)}")
            print(f"roundtrip error: {doc['roundtrip_error']:.3e}")
    return 0 if report.admissible else 1


def _default_ensemble(d: int) -> Ensemble:
    return Ensemble(tuple((1.0 / d, projector(ket(i, d))) for i in range(d)))


def _cmd_info(args) -> int:
    i0 = _read(implementation_from_json, args.channel0, "--channel0")
    i1 = _read(implementation_from_json, args.channel1, "--channel1")
    d = i0.dim
    _same_dimension("--channel1", "implementation", i1.dim, d, "--channel0's")
    control = _parse_control(args.control)
    output_map = controlled_map(i0, i1, control)
    doc = {}
    if args.metric in ("holevo", "both"):
        if args.ensemble:
            ens = _read(ensemble_from_json, args.ensemble, "--ensemble")
            _same_dimension("--ensemble", "ensemble", ens.dim, d, "the channels'")
        else:
            ens = _default_ensemble(d)
        doc["holevo_lower_bound"] = holevo_lower_bound(output_map, ens)
    if args.metric in ("coherent", "both"):
        if args.input:
            nu0 = _read(_density_from_json, args.input, "--input")
            if nu0.shape != (d * d, d * d):
                raise SchemaError(
                    "--input",
                    f"state of shape {nu0.shape} does not match the channels' dimension {d}: "
                    f"a reference and target state has shape {(d * d, d * d)}",
                )
        else:
            nu0 = maximally_entangled(d)
        doc["coherent_info_bound"] = coherent_info_bound(output_map, nu0)
    if args.format == "json":
        print(_json_dumps(doc))
    else:
        for key, value in doc.items():
            print(f"{key} = {value:.9g} bits")
    return 0


def _cmd_distinguish(args) -> int:
    ch = _read(channel_from_json, args.channel, "--channel")
    t_a = _read(tmatrix_from_json, args.t_a, "--t-a")
    t_b = _read(tmatrix_from_json, args.t_b, "--t-b")
    _same_dimension("--t-a", "matrix", t_a.shape[0], ch.dim, "the channel's")
    _same_dimension("--t-b", "matrix", t_b.shape[0], ch.dim, "the channel's")
    if args.fixed:
        fixed = _read(implementation_from_json, args.fixed, "--fixed")
        _same_dimension("--fixed", "implementation", fixed.dim, ch.dim, "the channel's")
    else:
        fixed = standard_implementation("identity", d=ch.dim, alpha=1.0)
    inst = DiscriminationInstance(
        fixed, _named("--t-a", realize, ch, t_a), _named("--t-b", realize, ch, t_b)
    )
    best_input = optimal_input(t_a, t_b)
    if args.input:
        rho = _read(_density_from_json, args.input, "--input")
        _same_dimension("--input", "state", rho.shape[0], ch.dim, "the channel's")
    else:
        rho = projector(best_input)
    control = _parse_control(args.control)
    distance = output_distance(inst, control, rho)
    bound = diamond_bound(t_a, t_b)
    doc = {
        "output_distance": distance,
        "diamond_bound": bound,
        "success_probability": success_probability(distance),
        "optimal_input": vector_to_json(best_input),
        "saturates_bound": bool(abs(distance - bound) <= SATURATION_TOL),
    }
    if args.format == "json":
        print(_json_dumps(doc))
    else:
        print(
            f"output distance = {distance:.9g}, diamond bound = {bound:.9g}, "
            f"success probability = {doc['success_probability']:.9g}"
        )
        print(f"optimal input: {best_input}")
    return 0


def _int_at_least(low: int):
    """Argparse type: an integer of at least ``low``."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrlchan",
        description="Coherently controlled quantum channels: reproduction and analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("reproduce", help="run registered reproduction cases", description=(
        "Run registered reproduction cases. For one --seed, the JSON fields case_id, "
        "expected, tolerance, passed, detail and all_passed are byte-identical on every "
        "machine; computed and abs_error are byte-identical only for one BLAS build and "
        "thread count."))
    rep.add_argument("--case", action="append", choices=sorted(case_ids()), metavar="CASE",
                     help="case id (repeatable; default: all). Known: " + ", ".join(case_ids()))
    rep.add_argument("--d", type=_int_at_least(2), default=2, help="target dimension, at least 2")
    rep.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for randomised suites")
    rep.add_argument("--trials", type=_int_at_least(1), help="override per-case trial count")
    rep.add_argument("--format", choices=("pretty", "json"), default="pretty")
    rep.set_defaults(func=_cmd_reproduce)

    sim = sub.add_parser("simulate", help="joint control-target output for a channel pair")
    sim.add_argument("--channel0", required=True, help="channel JSON for the |0> arm")
    sim.add_argument("--channel1", required=True, help="channel JSON for the |1> arm")
    sim.add_argument("--control", default="plus", help=_CONTROL_HELP)
    sim.add_argument("--input", default=None, help="state JSON (default |0><0|)")
    sim.add_argument("--mode", choices=("control", "switch"), default="control")
    sim.add_argument("--format", choices=("pretty", "json"), default="pretty")
    sim.set_defaults(func=_cmd_simulate)

    val = sub.add_parser("validate-t", help="test a transformation matrix against a channel")
    val.add_argument("--channel", required=True, help="channel JSON")
    val.add_argument("--t", required=True, help="transformation-matrix JSON")
    val.add_argument("--realize", action="store_true",
                     help="also construct the dilation and report the roundtrip error")
    val.add_argument("--format", choices=("pretty", "json"), default="pretty")
    val.set_defaults(func=_cmd_validate_t)

    inf = sub.add_parser("info", help="communication figures of merit for a controlled pair")
    inf.add_argument("--channel0", required=True, help="implementation JSON for the |0> arm")
    inf.add_argument("--channel1", required=True, help="implementation JSON for the |1> arm")
    inf.add_argument("--control", default="plus", help=_CONTROL_HELP)
    inf.add_argument("--metric", choices=("holevo", "coherent", "both"), default="both")
    inf.add_argument("--ensemble", default=None,
                     help="ensemble JSON (default: uniform computational-basis ensemble)")
    inf.add_argument("--input", default=None,
                     help="bipartite state JSON for the coherent-information bound "
                          "(default: maximally entangled)")
    inf.add_argument("--format", choices=("pretty", "json"), default="pretty")
    inf.set_defaults(func=_cmd_info)

    dis = sub.add_parser("distinguish", help="discriminate two dilations of one channel")
    dis.add_argument("--channel", required=True, help="shared channel JSON of the two candidates")
    dis.add_argument("--t-a", required=True, dest="t_a", help="first transformation-matrix JSON")
    dis.add_argument("--t-b", required=True, dest="t_b", help="second transformation-matrix JSON")
    dis.add_argument("--fixed", default=None,
                     help="implementation JSON for the reference arm "
                          "(default: transparent identity arm)")
    dis.add_argument("--input", default=None, help="state JSON (default: the optimal input)")
    dis.add_argument("--control", default="plus", help=_CONTROL_HELP)
    dis.add_argument("--format", choices=("pretty", "json"), default="pretty")
    dis.set_defaults(func=_cmd_distinguish)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
