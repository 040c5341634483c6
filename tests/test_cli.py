"""End-to-end tests of the command-line interface."""

import json
import re

import numpy as np
import pytest

from ctrlchan.cases import CaseOptions, case_ids, run_case
from ctrlchan.channels import standard_channel
from ctrlchan.cli import main
from ctrlchan.linalg import maximally_entangled
from ctrlchan.serialization import channel_to_json, matrix_to_json, state_to_json, tmatrix_to_json


@pytest.fixture
def files(tmp_path):
    depol = standard_channel("depolarising", 2)
    paths = {}

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths[name] = str(path)

    t = np.zeros((2, 2), dtype=complex)
    t[0, 0] = 1.0 / np.sqrt(2.0)
    write("depol.json", channel_to_json(depol))
    write("depol_impl.json", channel_to_json(depol, np.full(4, 0.5)))
    write("ident_impl.json", channel_to_json(standard_channel("identity", 2), np.array([1.0])))
    write("t.json", tmatrix_to_json(t))
    write("t_neg.json", tmatrix_to_json(-t))
    write("rho0.json", state_to_json(np.diag([1.0, 0.0]).astype(complex)))
    return paths


class TestReproduce:
    def test_single_case_passes(self, capsys):
        code = main(["reproduce", "--case", "cc-depolarising-holevo", "--d", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "0.160964" in out

    def test_registry_holds_eleven_cases(self):
        assert len(case_ids()) == 11

    @pytest.mark.parametrize("case_id", case_ids())
    @pytest.mark.parametrize("d", [2, 3])
    def test_registered_case_passes_quickly(self, d, case_id):
        report = run_case(case_id, CaseOptions(d=d))
        assert report.passed, report
        assert report.runtime_ms < 10_000, report

    def test_json_reports_are_byte_identical(self, capsys):
        args = [
            "reproduce", "--case", "eq5-vs-stinespring", "--trials", "5",
            "--seed", "7", "--format", "json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["all_passed"] is True
        assert "runtime_ms" not in doc["cases"][0]

    def test_seed_changes_draws_not_verdict(self, capsys, monkeypatch):
        # Compare the first channel each seed draws: the maxima of the case's
        # rounding errors may tie between seeds, the draws themselves do not.
        from ctrlchan import sampling

        drawn = []
        draw = sampling.random_channel

        def recording(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        monkeypatch.setattr(sampling, "random_channel", recording)
        args = ["reproduce", "--case", "switch-remix-invariance", "--trials", "5", "--format", "json"]
        assert main(args + ["--seed", "1"]) == 0
        first = json.loads(capsys.readouterr().out)
        first_draw = drawn[0].kraus
        drawn.clear()
        assert main(args + ["--seed", "2"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["all_passed"] and second["all_passed"]
        assert not np.array_equal(first_draw, drawn[0].kraus)

    def test_csv_format_refused(self, capsys):
        # pretty and json are the two report formats
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--case", "depolarising-discrimination", "--format", "csv"])
        assert exc.value.code == 2
        assert "argument --format: invalid choice" in capsys.readouterr().err

    def test_unknown_case_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "--case", "no-such-case"])

    @pytest.mark.parametrize("option, value", [
        ("--trials", "0"), ("--trials", "-3"), ("--d", "0"), ("--d", "1"), ("--seed", "-1"),
    ])
    def test_bad_count_rejected_by_name(self, option, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--case", "eq5-vs-stinespring", option, value])
        assert exc.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    def test_tol_option_refused(self, capsys):
        # Five cases decide their own verdict, so one override could only
        # report a tolerance that was not used; there is no such option.
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--case", "depolarising-discrimination", "--tol", "1e-20"])
        assert exc.value.code == 2


class TestSimulate:
    def test_identity_pair(self, files, capsys):
        code = main([
            "simulate", "--channel0", files["ident_impl.json"],
            "--channel1", files["ident_impl.json"],
            "--input", files["rho0.json"], "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        got = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 2] = expected[2, 0] = expected[2, 2] = 0.5
        assert np.allclose(got, expected, atol=1e-12)
        assert abs(doc["diagnostics"]["trace"] - 1.0) <= 1e-12

    def test_switch_mode(self, files, capsys):
        code = main([
            "simulate", "--mode", "switch",
            "--channel0", files["depol.json"], "--channel1", files["depol.json"],
            "--input", files["rho0.json"], "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        got = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        expected = np.eye(4) / 4
        expected[0, 2] = expected[2, 0] = 0.125
        assert np.allclose(got, expected, atol=1e-12)

    def test_classical_control_blocks(self, files, capsys):
        code = main([
            "simulate", "--control", "0.25,0.75",
            "--channel0", files["depol_impl.json"], "--channel1", files["depol_impl.json"],
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        off = np.array([[complex(re, im) for re, im in row] for row in doc["blocks"]["offdiag01"]])
        assert np.max(np.abs(off)) == 0.0

    @pytest.mark.parametrize(
        "rho, message",
        [
            ([[0.5, 1e200 * (1 + 1j)], [1e200 * (1 - 1j), 0.5]], "negative eigenvalue -1.414e+200"),
            ([[1e308, 0.0], [0.0, 1e308]], "trace 1 + inf"),
        ],
        ids=["squares-overflow", "trace-overflows"],
    )
    def test_switch_refuses_an_input_that_overflows(self, files, tmp_path, capsys, rho, message):
        state = tmp_path / "rho_huge.json"
        state.write_text(json.dumps(state_to_json(np.array(rho, dtype=complex))))
        code = main([
            "simulate", "--mode", "switch",
            "--channel0", files["depol.json"], "--channel1", files["depol.json"],
            "--input", str(state),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --input: density matrix has ")
        assert message in captured.err

    @pytest.mark.parametrize("weights", ["a,b", "0.5", "0.2,0.3,0.5"])
    def test_bad_weights_named(self, files, capsys, weights):
        code = main([
            "simulate", "--control", weights,
            "--channel0", files["depol_impl.json"], "--channel1", files["depol_impl.json"],
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --control: expected 'plus', 'zero', 'one', two comma-separated floats "
            f"w0,w1 or four aRe,aIm,bRe,bIm, got {weights!r}\n"
        )

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--control", "0.5,0.6"], "trace 1 + 1.000e-01"),
            (["--control=-0.2,1.2"], "negative eigenvalue"),
            (["--control", "nan,0.5"], "non-finite"),
        ],
        ids=["trace", "negative", "nan"],
    )
    def test_weights_that_make_no_control_refused_under_the_flag(
        self, files, capsys, flag, message
    ):
        code = main([
            "simulate", *flag,
            "--channel0", files["depol_impl.json"], "--channel1", files["depol_impl.json"],
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --control: ")
        assert message in captured.err

    def test_classical_control_refuses_a_bad_input_under_its_own_message(
        self, files, tmp_path, capsys
    ):
        state = tmp_path / "rho_trace2.json"
        state.write_text(json.dumps(state_to_json(np.eye(2, dtype=complex))))
        code = main([
            "simulate", "--control", "0.5,0.5", "--input", str(state),
            "--channel0", files["depol_impl.json"], "--channel1", files["depol_impl.json"],
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --input: density matrix has trace ")

    def test_malformed_file_reports_error(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main([
            "simulate", "--channel0", str(bad), "--channel1", files["depol_impl.json"],
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestValidateT:
    def test_admissible_with_realize(self, files, capsys):
        code = main([
            "validate-t", "--channel", files["depol.json"], "--t", files["t.json"],
            "--realize", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["admissible"] is True
        assert abs(doc["quadratic_form"] - 1.0) <= 1e-9
        assert doc["roundtrip_error"] <= 1e-10
        assert len(doc["env"]) == 4

    def test_inadmissible_exits_nonzero(self, files, tmp_path, capsys):
        ident = tmp_path / "ident.json"
        ident.write_text(json.dumps(channel_to_json(standard_channel("identity", 2))))
        sx = tmp_path / "sx.json"
        sx.write_text(json.dumps(tmatrix_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))))
        code = main(["validate-t", "--channel", str(ident), "--t", str(sx), "--format", "json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["admissible"] is False
        assert doc["range_residual"] > 0.5


    def test_tol_option_refused(self, files, capsys):
        # admissible and realize decide at RANGE_TOL and BOUND_TOL alone, so
        # the report cannot admit a T that --realize then refuses.
        with pytest.raises(SystemExit) as exc:
            main([
                "validate-t", "--channel", files["depol.json"], "--t", files["t.json"],
                "--tol", "1e-6",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_t_whose_norm_overflows_exits_with_one_error_line(self, files, tmp_path, capsys):
        t = tmp_path / "t_huge.json"
        t.write_text(json.dumps(tmatrix_to_json(np.array([[1e200, 0.0], [0.0, 0.0]]))))
        code = main(["validate-t", "--channel", files["depol.json"], "--t", str(t), "--realize"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: --t: t has a norm that overflows, though every entry is finite\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_realize_beyond_the_dilation_cap_reports_not_admissible(self, tmp_path, capsys, fmt):
        ident = tmp_path / "ident.json"
        ident.write_text(json.dumps(channel_to_json(standard_channel("identity", 2))))
        t = tmp_path / "t.json"
        t.write_text(json.dumps(tmatrix_to_json(np.sqrt(1.0 + 5e-7) * np.eye(2))))
        code = main([
            "validate-t", "--channel", str(ident), "--t", str(t),
            "--realize", "--format", fmt,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        if fmt == "json":
            doc = json.loads(captured.out)
            assert doc["admissible"] is False
            assert abs(doc["quadratic_form"] - (1.0 + 5e-7)) <= 1e-12
            assert doc["env"] is None and doc["roundtrip_error"] is None
        else:
            assert "quadratic form = 1.0000005 -> NOT admissible" in captured.out
            assert "environment amplitudes" not in captured.out


class TestInfo:
    def test_metrics_for_transparent_pair(self, files, capsys):
        code = main([
            "info", "--channel0", files["ident_impl.json"],
            "--channel1", files["ident_impl.json"], "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["holevo_lower_bound"] - 1.0) <= 1e-9
        assert abs(doc["coherent_info_bound"] - 1.0) <= 1e-9

    def test_ensemble_file(self, files, tmp_path, capsys):
        from ctrlchan.serialization import matrix_to_json

        ens = tmp_path / "ens.json"
        ens.write_text(json.dumps({
            "d": 2,
            "items": [
                {"p": 0.6, "rho": matrix_to_json(np.diag([1.0, 0.0]))},
                {"p": 0.4, "rho": matrix_to_json(np.diag([0.0, 1.0]))},
            ],
        }))
        code = main([
            "info", "--metric", "holevo", "--ensemble", str(ens),
            "--channel0", files["depol_impl.json"], "--channel1", files["depol_impl.json"],
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "holevo_lower_bound" in doc and "coherent_info_bound" not in doc


class TestDistinguish:
    def test_depolarising_pair(self, files, capsys):
        code = main([
            "distinguish", "--channel", files["depol.json"],
            "--t-a", files["t.json"], "--t-b", files["t_neg.json"],
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["output_distance"] - 1.0 / np.sqrt(2.0)) <= 1e-9
        assert abs(doc["diamond_bound"] - 1.0 / np.sqrt(2.0)) <= 1e-9
        assert abs(doc["success_probability"] - 0.8535533905932738) <= 1e-9
        assert doc["saturates_bound"] is True

    def test_explicit_input(self, files, capsys):
        code = main([
            "distinguish", "--channel", files["depol.json"],
            "--t-a", files["t.json"], "--t-b", files["t_neg.json"],
            "--input", files["rho0.json"], "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["output_distance"] - 1.0 / np.sqrt(2.0)) <= 1e-9

    @pytest.mark.parametrize("flag", ["--t-a", "--t-b"])
    def test_refusal_names_its_flag(self, tmp_path, capsys, flag):
        depol = tmp_path / "depol3.json"
        depol.write_text(json.dumps(channel_to_json(standard_channel("depolarising", 3))))
        # the qutrit depolarising channel admits T iff Tr[T^dag T] <= 1/3
        p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        args = ["distinguish", "--channel", str(depol)]
        for name in ("--t-a", "--t-b"):
            t = p0 if name == flag else p0 / np.sqrt(3.0)
            path = tmp_path / f"{name.strip('-')}.json"
            path.write_text(json.dumps(tmatrix_to_json(t)))
            args += [name, str(path)]
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag}: matrix is not admissible for this channel: quadratic form "
            "1 + 2.000e+00, above 1 + 1e-08 = 1 + BOUND_TOL; no dilation holds it\n"
        )


class TestControlFlag:
    """``--control`` is read by one parser in every subcommand that takes it:
    a named state, a pair of weights or four amplitudes."""

    @staticmethod
    def argv(files, command):
        if command == "distinguish":
            return ["distinguish", "--channel", files["depol.json"],
                    "--t-a", files["t.json"], "--t-b", files["t_neg.json"]]
        return [command, "--channel0", files["depol_impl.json"],
                "--channel1", files["depol_impl.json"]]

    @pytest.mark.parametrize("value", [
        "foo", "1,2,3", "a,b", "0.5,0.6", "-0.2,1.2", "nan,0.5", "1,0,1,0",
    ])
    @pytest.mark.parametrize("command", ["simulate", "info", "distinguish"])
    def test_refused_under_the_flag(self, files, capsys, command, value):
        code = main(self.argv(files, command) + [f"--control={value}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --control: ")
        assert captured.err.count("\n") == 1

    def test_classical_control_carries_no_information(self, files, capsys):
        # two depolarising arms carry information only through the coherence
        # of the control, as in the classical-control-null case
        holevo = {}
        for control in ("plus", "0.5,0.5"):
            assert main(self.argv(files, "info") + ["--control", control, "--format", "json"]) == 0
            holevo[control] = json.loads(capsys.readouterr().out)["holevo_lower_bound"]
        assert abs(holevo["0.5,0.5"]) <= 1e-12
        assert holevo["plus"] > 0.15

    @pytest.mark.parametrize("control, distance", [
        ("plus", 1.0 / np.sqrt(2.0)), ("0.5,0.5", 0.0),
    ])
    def test_classical_control_cannot_tell_dilations_apart(self, files, capsys, control, distance):
        code = main(self.argv(files, "distinguish") + ["--control", control, "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["output_distance"] - distance) <= 1e-12
        assert abs(doc["success_probability"] - (1.0 + distance) / 2.0) <= 1e-12


def _documents(d: int) -> dict:
    """One well-formed document of each kind in dimension ``d``."""
    depol = standard_channel("depolarising", d)
    t = np.zeros((d, d), dtype=complex)
    t[0, 0] = 1.0 / np.sqrt(d)
    basis = [np.diag(np.eye(d)[i]).astype(complex) for i in range(2)]
    return {
        "channel": channel_to_json(depol),
        "implementation": channel_to_json(depol, np.full(d * d, 1.0 / d)),
        "t": tmatrix_to_json(t),
        "-t": tmatrix_to_json(-t),
        "state": state_to_json(basis[0]),
        "bipartite": state_to_json(maximally_entangled(d)),
        "ensemble": {"d": d, "items": [
            {"p": 0.6, "rho": matrix_to_json(basis[0])},
            {"p": 0.4, "rho": matrix_to_json(basis[1])},
        ]},
    }


# Where each kind keeps its first matrix: the object holding the matrix
# field, the field, and the index of the matrix in it, if the field is a list.
_MATRIX_PATH = {
    "channel": ((), "kraus", 0),
    "implementation": ((), "kraus", 0),
    "t": ((), "t", None),
    "-t": ((), "t", None),
    "state": ((), "rho", None),
    "bipartite": ((), "rho", None),
    "ensemble": (("items", 0), "rho", None),
}


def _malformed(kind: str, fault: str):
    """The qubit document of ``kind`` with one ``fault``; a string is written as
    it is, None not at all, anything else as JSON."""
    if fault == "absent":
        return None
    if fault == "syntax":
        return "{not json"
    if fault == "foreign d":
        return _documents(3)[kind]
    doc = _documents(2)[kind]
    steps, field, index = _MATRIX_PATH[kind]
    holder = doc
    for step in steps:
        holder = holder[step]
    if fault == "missing key":
        del holder[field]
    elif fault == "wrong d":
        doc["d"] += 1
    else:
        if index is not None:
            holder, field = holder[field], index
        if fault == "wrong type":
            holder[field] = {"re": 1.0}
        elif fault == "non-finite":
            holder[field][0][0][0] = float("nan")
        elif fault == "doubled":
            holder[field] = [[[2 * re, 2 * im] for re, im in row] for row in holder[field]]
        else:  # ragged rows
            holder[field][0].pop()
    return doc


# Each subcommand's fixed arguments, and the kind of document each file flag reads.
_COMMANDS = {
    "simulate-control": (["simulate"], {
        "--channel0": "implementation", "--channel1": "implementation", "--input": "state",
    }),
    "simulate-switch": (["simulate", "--mode", "switch"], {
        "--channel0": "channel", "--channel1": "channel", "--input": "state",
    }),
    "simulate-classical": (["simulate", "--control", "0.5,0.5"], {
        "--channel0": "implementation", "--channel1": "implementation", "--input": "state",
    }),
    "validate-t": (["validate-t", "--realize"], {"--channel": "channel", "--t": "t"}),
    "info": (["info"], {
        "--channel0": "implementation", "--channel1": "implementation",
        "--ensemble": "ensemble", "--input": "bipartite",
    }),
    "distinguish": (["distinguish"], {
        "--channel": "channel", "--t-a": "t", "--t-b": "-t",
        "--fixed": "implementation", "--input": "state",
    }),
}
_FAULTS = ["absent", "syntax", "wrong type", "missing key", "non-finite", "ragged rows", "wrong d", "foreign d"]

# Each file flag given a qutrit document among qubit ones, and the refusal.  It
# names a flag and the dimension a document gives, not a stack of mapped
# inputs: the flag of the foreign document or, where that document sets the
# dimension (--channel0, --channel), the first flag that disagrees with it.
_ARMS = "--channel1: implementation of dimension {} does not match --channel0's dimension {}"
_CHANNELS = "--channel1: channel of dimension {} does not match --channel0's dimension {}"
_TARGET = "--input: state of dimension 3 does not match the {} dimension 2"
_T = "{}: matrix of dimension {} does not match the channel's dimension {}"
_FOREIGN_DIMENSION = [
    ("simulate-control", "--channel0", _ARMS.format(2, 3)),
    ("simulate-control", "--channel1", _ARMS.format(3, 2)),
    ("simulate-control", "--input", _TARGET.format("channels'")),
    ("simulate-switch", "--channel0", _CHANNELS.format(2, 3)),
    ("simulate-switch", "--channel1", _CHANNELS.format(3, 2)),
    ("simulate-switch", "--input", _TARGET.format("channels'")),
    ("simulate-classical", "--channel0", _ARMS.format(2, 3)),
    ("simulate-classical", "--channel1", _ARMS.format(3, 2)),
    ("simulate-classical", "--input", _TARGET.format("channels'")),
    ("validate-t", "--channel", _T.format("--t", 2, 3)),
    ("validate-t", "--t", _T.format("--t", 3, 2)),
    ("info", "--channel0", _ARMS.format(2, 3)),
    ("info", "--channel1", _ARMS.format(3, 2)),
    ("info", "--ensemble", "--ensemble: ensemble of dimension 3 does not match the channels' "
                           "dimension 2"),
    ("info", "--input", "--input: state of shape (9, 9) does not match the channels' "
                        "dimension 2: a reference and target state has shape (4, 4)"),
    ("distinguish", "--channel", _T.format("--t-a", 2, 3)),
    ("distinguish", "--t-a", _T.format("--t-a", 3, 2)),
    ("distinguish", "--t-b", _T.format("--t-b", 3, 2)),
    ("distinguish", "--fixed", "--fixed: implementation of dimension 3 does not match the "
                               "channel's dimension 2"),
    ("distinguish", "--input", _TARGET.format("channel's")),
]


class TestNoTraceback:
    """Every file flag of every subcommand that reads one (``reproduce`` reads
    none), given a malformed document: the run exits 2 with one ``error:``
    line on stderr, and no exception escapes ``main``."""

    @staticmethod
    def run(tmp_path, command, flag=None, fault=None):
        argv, flags = _COMMANDS[command]
        valid = _documents(2)
        args = list(argv)
        for name, kind in flags.items():
            doc = _malformed(kind, fault) if name == flag else valid[kind]
            path = tmp_path / f"{name.strip('-')}.json"
            if doc is not None:
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            args += [name, str(path)]
        return main(args)

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_well_formed_documents_run(self, tmp_path, capsys, command):
        assert self.run(tmp_path, command) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fault", _FAULTS)
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in _COMMANDS.items() for flag in flags
    ])
    def test_one_error_line(self, tmp_path, capsys, command, flag, fault):
        code = self.run(tmp_path, command, flag, fault)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("fault", [fault for fault in _FAULTS if fault != "foreign d"])
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in _COMMANDS.items() for flag in flags
    ])
    def test_refusal_names_the_flag(self, tmp_path, capsys, command, flag, fault):
        # a foreign dimension may be refused under another flag; see below
        assert self.run(tmp_path, command, flag, fault) == 2
        assert re.match(rf"error: {flag}[.:\[]", capsys.readouterr().err)

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in _COMMANDS.items()
        for flag, kind in flags.items() if kind not in ("t", "-t")
    ])
    def test_document_its_constructor_refuses_names_the_flag(self, tmp_path, capsys, command, flag):
        # the document parses, and the channel, ensemble or state built from it
        # is refused: every matrix doubled, a trace of 2
        assert self.run(tmp_path, command, flag, "doubled") == 2
        assert re.match(
            rf"error: {flag}: (kraus operators are not trace-preserving|density matrix has trace)",
            capsys.readouterr().err,
        )

    @pytest.mark.parametrize("command, flag, message", _FOREIGN_DIMENSION)
    def test_foreign_dimension_names_the_flag(self, tmp_path, capsys, command, flag, message):
        assert self.run(tmp_path, command, flag, "foreign d") == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_foreign_dimension_covers_every_file_flag(self):
        named = [(command, flag) for command, flag, _ in _FOREIGN_DIMENSION]
        expected = [(command, flag) for command, (_, flags) in _COMMANDS.items() for flag in flags]
        assert named == expected

    def test_target_state_as_bipartite_input_names_the_flag(self, tmp_path, capsys):
        impl = tmp_path / "impl.json"
        impl.write_text(json.dumps(_documents(2)["implementation"]))
        state = tmp_path / "state.json"
        state.write_text(json.dumps(_documents(2)["state"]))
        code = main(["info", "--metric", "coherent", "--channel0", str(impl),
                     "--channel1", str(impl), "--input", str(state)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --input: state of shape (2, 2) does not match the channels' dimension 2: "
            "a reference and target state has shape (4, 4)\n"
        )
