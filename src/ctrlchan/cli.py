"""Command-line interface.

Verbs:
    reproduce     run registered reproduction cases and report pass/fail
    simulate      joint control-target output for a channel pair and input
    validate-t    test a transformation matrix against a channel
    info          communication figures of merit for a controlled pair
    distinguish   discriminate two dilations of one channel

All randomness is derived from ``--seed``; identical inputs and seed produce
byte-identical JSON reports.  Exit code is 0 iff every executed check passed.
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
    classical_control,
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
from .linalg import SATURATION_TOL, ket, maximally_entangled, projector
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


def _parse_control(text: str) -> ControlState:
    named = {
        "plus": ControlState.plus(),
        "zero": ControlState.basis(0),
        "one": ControlState.basis(1),
    }
    if text in named:
        return named[text]
    parts = text.split(",")
    if len(parts) != 4:
        raise SchemaError(
            "control",
            f"expected 'plus', 'zero', 'one' or four comma-separated floats, got {text!r}",
        )
    try:
        values = [float(x) for x in parts]
    except ValueError as exc:
        raise SchemaError("control", f"non-numeric amplitude in {text!r}") from exc
    return ControlState(complex(values[0], values[1]), complex(values[2], values[3]))


def _matrix_report(out: ControlledOutput) -> dict:
    matrix = out.matrix
    w = np.linalg.eigvalsh(matrix)
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
    elif args.format == "csv":
        print("case_id,computed,expected,abs_error,tolerance,passed")
        for r in reports:
            expected = "n/a" if r.expected is None else repr(r.expected)
            err = "n/a" if r.abs_error is None else repr(r.abs_error)
            print(f"{r.case_id},{r.computed!r},{expected},{err},{r.tolerance!r},{r.passed}")
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
    # a flag the mode does not use is refused rather than ignored
    if args.mode == "classical" and args.control is not None:
        raise SchemaError("--control", "--mode classical takes no control state")
    if args.mode != "classical" and args.weights is not None:
        raise SchemaError("--weights", f"--mode {args.mode} takes no mixture weights")
    control = _parse_control("plus" if args.control is None else args.control)
    rho = state_from_json(load_json(args.input)) if args.input else None
    if args.mode == "switch":
        kind = "channel"
        arm0 = channel_from_json(load_json(args.channel0))
        arm1 = channel_from_json(load_json(args.channel1))
    else:
        kind = "implementation"
        arm0 = implementation_from_json(load_json(args.channel0), "channel0")
        arm1 = implementation_from_json(load_json(args.channel1), "channel1")
    d = arm0.dim
    _same_dimension("--channel1", kind, arm1.dim, d, "--channel0's")
    if rho is None:
        rho = projector(ket(0, d))
    _same_dimension("--input", "state", rho.shape[0], d, "the channels'")
    if args.mode == "switch":
        out = switch_output(arm0, arm1, control, rho)
    elif args.mode == "classical":
        weights = "0.5,0.5" if args.weights is None else args.weights
        try:
            w0, w1 = (float(x) for x in weights.split(","))
        except ValueError as exc:
            raise SchemaError(
                "weights", f"expected two comma-separated floats, got {weights!r}"
            ) from exc
        out = classical_control(arm0, arm1, (w0, w1), rho)
    else:
        out = controlled_output(arm0, arm1, control, rho)
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
    ch = channel_from_json(load_json(args.channel))
    t = tmatrix_from_json(load_json(args.t))
    _same_dimension("--t", "matrix", t.shape[0], ch.dim, "the channel's")
    report = admissible(ch, t)
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
    i0 = implementation_from_json(load_json(args.channel0), "channel0")
    i1 = implementation_from_json(load_json(args.channel1), "channel1")
    d = i0.dim
    _same_dimension("--channel1", "implementation", i1.dim, d, "--channel0's")
    control = _parse_control(args.control)
    output_map = controlled_map(i0, i1, control)
    doc = {}
    if args.metric in ("holevo", "both"):
        if args.ensemble:
            ens = ensemble_from_json(load_json(args.ensemble))
            _same_dimension("--ensemble", "ensemble", ens.dim, d, "the channels'")
        else:
            ens = _default_ensemble(d)
        doc["holevo_lower_bound"] = holevo_lower_bound(output_map, ens)
    if args.metric in ("coherent", "both"):
        if args.input:
            nu0 = state_from_json(load_json(args.input))
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


def _realize(ch, t, field: str):
    """:func:`realize`, with a refusal prefixed by the field of ``t``."""
    try:
        return realize(ch, t)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from exc


def _cmd_distinguish(args) -> int:
    ch = channel_from_json(load_json(args.channel))
    t_a = tmatrix_from_json(load_json(args.t_a), "t_a")
    t_b = tmatrix_from_json(load_json(args.t_b), "t_b")
    _same_dimension("--t-a", "matrix", t_a.shape[0], ch.dim, "the channel's")
    _same_dimension("--t-b", "matrix", t_b.shape[0], ch.dim, "the channel's")
    if args.fixed:
        fixed = implementation_from_json(load_json(args.fixed), "fixed")
        _same_dimension("--fixed", "implementation", fixed.dim, ch.dim, "the channel's")
    else:
        fixed = standard_implementation("identity", d=ch.dim, alpha=1.0)
    inst = DiscriminationInstance(fixed, _realize(ch, t_a, "t_a"), _realize(ch, t_b, "t_b"))
    best_input = optimal_input(t_a, t_b)
    if args.input:
        rho = state_from_json(load_json(args.input))
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

    rep = sub.add_parser("reproduce", help="run registered reproduction cases")
    rep.add_argument("--case", action="append", choices=sorted(case_ids()), metavar="CASE",
                     help="case id (repeatable; default: all). Known: " + ", ".join(case_ids()))
    rep.add_argument("--d", type=_int_at_least(2), default=2, help="target dimension, at least 2")
    rep.add_argument("--seed", type=_int_at_least(0), default=0, help="seed for randomised suites")
    rep.add_argument("--trials", type=_int_at_least(1), help="override per-case trial count")
    rep.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    rep.set_defaults(func=_cmd_reproduce)

    sim = sub.add_parser("simulate", help="joint control-target output for a channel pair")
    sim.add_argument("--channel0", required=True, help="channel JSON for the |0> arm")
    sim.add_argument("--channel1", required=True, help="channel JSON for the |1> arm")
    sim.add_argument("--control", default=None,
                     help="'plus' (default), 'zero', 'one', or aRe,aIm,bRe,bIm; "
                          "not with --mode classical")
    sim.add_argument("--input", default=None, help="state JSON (default |0><0|)")
    sim.add_argument("--mode", choices=("control", "switch", "classical"), default="control")
    sim.add_argument("--weights", default=None,
                     help="mixture weights for --mode classical (default 0.5,0.5)")
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
    inf.add_argument("--control", default="plus")
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
    dis.add_argument("--control", default="plus")
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
