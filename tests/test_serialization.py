"""Tests for the JSON document schemas."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlchan.channels import standard_channel
from ctrlchan.implementations import ChannelImplementation, admissible, realize
from ctrlchan.linalg import validate_density_matrix
from ctrlchan.sampling import (
    random_admissible_t,
    random_channel,
    random_density_matrix,
    random_env,
    random_implementation,
)
from ctrlchan.serialization import (
    SchemaError,
    channel_from_json,
    channel_to_json,
    ensemble_from_json,
    implementation_from_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    parse_channel,
    state_from_json,
    state_to_json,
    tmatrix_from_json,
    tmatrix_to_json,
)


class TestMatrixRoundtrip:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(matrix_from_json(matrix_to_json(m), "m"), m)

    def test_jagged_rows_rejected(self):
        doc = [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]
        with pytest.raises(SchemaError, match=r"m\[1\]"):
            matrix_from_json(doc, "m")

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "10**400"]
    )
    @pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
    def test_non_finite_number_rejected(self, bad, part):
        pair = [0.5, 0.0]
        pair[part] = bad
        doc = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], pair]]
        with pytest.raises(SchemaError, match=r"^m\[1\]\[1\]: expected a finite number"):
            matrix_from_json(doc, "m")

    def test_bad_pair_rejected(self):
        doc = [[[1.0, 0.0], [0.0, "x"]]]
        with pytest.raises(SchemaError, match=r"m\[0\]\[1\]"):
            matrix_from_json(doc, "m")


class TestChannelSchema:
    def test_roundtrip_without_env(self):
        ch = random_channel(2, 3, np.random.default_rng(1))
        doc = channel_to_json(ch)
        rebuilt = channel_from_json(doc)
        assert all(np.array_equal(a, b) for a, b in zip(rebuilt.kraus, ch.kraus))
        _, env = parse_channel(doc)
        assert env is None

    def test_roundtrip_with_env(self):
        rng = np.random.default_rng(2)
        impl = ChannelImplementation(random_channel(2, 2, rng), random_env(2, rng))
        rebuilt = implementation_from_json(channel_to_json(impl.channel, impl.env))
        assert np.array_equal(rebuilt.env, impl.env)

    def test_missing_env_rejected_for_implementation(self):
        doc = channel_to_json(standard_channel("identity", 2))
        with pytest.raises(SchemaError, match="env"):
            implementation_from_json(doc)

    def test_env_length_mismatch(self):
        doc = channel_to_json(standard_channel("identity", 2))
        doc["env"] = [[1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(SchemaError, match="env"):
            implementation_from_json(doc)

    def test_wrong_kraus_shape(self):
        doc = {"d": 2, "kraus": [matrix_to_json(np.eye(3))]}
        with pytest.raises(SchemaError, match=r"kraus\[0\]"):
            channel_from_json(doc)

    def test_missing_field(self):
        with pytest.raises(SchemaError, match="kraus"):
            channel_from_json({"d": 2})

    def test_semantic_errors_surface_from_constructor(self):
        doc = {"d": 2, "kraus": [matrix_to_json(np.eye(2) * 2.0)]}
        with pytest.raises(ValueError, match="trace-preserving"):
            channel_from_json(doc)

    @pytest.mark.parametrize("entry", [[1e155, 1e155], [1e155, 0.0], [-1e200, 1e-300]])
    def test_env_whose_norm_overflows_refused_by_name(self, entry):
        # every entry is finite; the squared norm overflows to inf or NaN
        doc = {"d": 2, "kraus": [matrix_to_json(np.eye(2))], "env": [entry]}
        message = refusal(implementation_from_json, doc)
        assert message == "env has a squared norm that overflows, though every entry is finite"

    @pytest.mark.parametrize("entry", [[1e155, 1e155], [1e155, 0.0], [-1e200, 1e-300]])
    def test_kraus_whose_gram_overflows_refused_by_name(self, entry):
        kraus = matrix_to_json(np.eye(2))
        kraus[0][0] = entry
        message = refusal(channel_from_json, {"d": 2, "kraus": [kraus]})
        assert message == "kraus has a sum K^dag K that overflows, though every entry is finite"


class TestOtherSchemas:
    def test_tmatrix_roundtrip(self):
        t = np.array([[0.0, 0.5j], [0.25, 0.0]], dtype=complex)
        assert np.array_equal(tmatrix_from_json(tmatrix_to_json(t)), t)

    def test_state_roundtrip(self):
        rho = np.eye(2, dtype=complex) / 2
        assert np.array_equal(state_from_json(state_to_json(rho)), rho)

    def test_ensemble(self):
        doc = {
            "d": 2,
            "items": [
                {"p": 0.6, "rho": matrix_to_json(np.diag([1.0, 0.0]))},
                {"p": 0.4, "rho": matrix_to_json(np.diag([0.0, 1.0]))},
            ],
        }
        ens = ensemble_from_json(doc)
        assert len(ens.items) == 2 and ens.dim == 2

    def test_ensemble_bad_probability(self):
        doc = {"d": 2, "items": [{"p": "heavy", "rho": matrix_to_json(np.eye(2) / 2)}]}
        with pytest.raises(SchemaError, match=r"items\[0\]\.p"):
            ensemble_from_json(doc)

    def test_dimension_field_validation(self):
        with pytest.raises(SchemaError, match=r"\.d"):
            tmatrix_from_json({"d": -1, "t": matrix_to_json(np.eye(2))})


# Entries of fuzzed matrices: zero, or a sign times a magnitude in [1e-300, 1e308].
ENTRY = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, x: sign * x, st.sampled_from((-1.0, 1.0)), st.floats(1e-300, 1e308)),
)
# A refusal names the document field, or the density matrix it checks.
NAMED = re.compile(r"^(state\.rho|ensemble\.items|items\[\d+\] |probabilities )|density matrix")


@st.composite
def density_candidates(draw, d):
    """A side-d matrix of fuzzed entries, Hermitian or not, added to a random
    density matrix or standing alone."""
    flat = np.array(draw(st.lists(ENTRY, min_size=2 * d * d, max_size=2 * d * d)))
    m = flat.view(complex).reshape(d, d)
    if draw(st.booleans()):
        m = np.triu(m, 1) + np.triu(m, 1).conj().T + np.diag(m.diagonal().real)
    if draw(st.booleans()):
        m = m + random_density_matrix(d, np.random.default_rng(draw(st.integers(0, 99))))
    return m


@st.composite
def state_documents(draw):
    d = draw(st.integers(1, 4))
    return {"d": d, "rho": matrix_to_json(draw(density_candidates(d)))}


@st.composite
def ensemble_documents(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    probs = draw(st.lists(st.floats(-1e-3, 1.0), min_size=n, max_size=n))
    if draw(st.booleans()) and sum(probs) > 0.0:
        probs = [p / sum(probs) for p in probs]
    rhos = [draw(density_candidates(d)) for _ in range(n)]
    return {"d": d, "items": [{"p": p, "rho": matrix_to_json(r)} for p, r in zip(probs, rhos)]}


def refusal(parse, doc):
    """The message ``parse`` refuses the JSON text of ``doc`` with, or None;
    a numpy warning fails the test as an error."""
    return outcome(parse, json.loads(json.dumps(doc)))[1]


def outcome(call, *args):
    """``(call(*args), None)``, or ``(None, message)`` when it raises a
    ValueError other than LinAlgError; a numpy warning fails the test as an
    error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call(*args), None
        except ValueError as exc:
            assert not isinstance(exc, np.linalg.LinAlgError), repr(exc)
            return None, str(exc)


class TestDensityDocumentFuzz:
    """State and ensemble documents of sides 1-4 with entries from 1e-300 to
    1e308 are accepted, or refused by a ValueError naming the field or the
    density matrix, never by a LinAlgError or a numpy warning."""

    @given(state_documents())
    @settings(max_examples=50, deadline=None)
    def test_state_documents(self, doc):
        message = refusal(lambda doc: validate_density_matrix(state_from_json(doc)), doc)
        assert message is None or NAMED.search(message), message

    @given(ensemble_documents())
    @settings(max_examples=50, deadline=None)
    def test_ensemble_documents(self, doc):
        message = refusal(ensemble_from_json, doc)
        assert message is None or NAMED.search(message), message


@st.composite
def dilation_documents(draw):
    """An implementation document of side 1-3 with 1-4 Kraus operators, and a
    t document of the same side: the implementation's T or a random admissible
    T of its channel, optionally scaled, then up to four numbers of either
    document replaced by fuzzed entries."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    impl = random_implementation(d, draw(st.integers(1, 4)), rng)
    t = impl.t if draw(st.booleans()) else random_admissible_t(impl.channel, rng)
    if draw(st.booleans()):
        t = t * draw(ENTRY)  # |T_ij| <= 1, so every entry stays finite
    impl_doc = channel_to_json(impl.channel, impl.env)
    t_doc = tmatrix_to_json(t)
    matrices = impl_doc["kraus"] + [[impl_doc["env"]], t_doc["t"]]
    pairs = [pair for m in matrices for row in m for pair in row]
    for _ in range(draw(st.integers(0, 4))):
        draw(st.sampled_from(pairs))[draw(st.integers(0, 1))] = draw(ENTRY)
    return impl_doc, t_doc


class TestDilationDocumentFuzz:
    """Channel, implementation and t documents built from the entries of
    ``ENTRY`` are accepted, or refused by a ValueError that names the field,
    never by a LinAlgError, a numpy warning or a message with a NaN; so are
    ``admissible`` and ``realize`` on a parsed channel and t of one side."""

    @given(dilation_documents())
    @settings(max_examples=60, deadline=None)
    def test_channel_implementation_and_t_documents(self, docs):
        impl_doc, t_doc = json.loads(json.dumps(docs))
        chan_doc = {"d": impl_doc["d"], "kraus": impl_doc["kraus"]}
        ch, ch_message = outcome(channel_from_json, chan_doc)
        _, impl_message = outcome(implementation_from_json, impl_doc)
        t, t_message = outcome(tmatrix_from_json, t_doc)
        messages = [
            (ch_message, r"^(channel\.|kraus )"),
            (impl_message, r"^(channel\.|kraus |env |environment vector )"),
            (t_message, r"^t_matrix\."),
        ]
        if ch is not None and t is not None:
            messages.append((outcome(admissible, ch, t)[1], r"^t "))
            messages.append((outcome(realize, ch, t)[1], r"^(t |matrix is not admissible )"))
        for message, named in messages:
            assert message is None or re.search(named, message), message
            assert message is None or not re.search(r"\bnan\b", message, re.I), message


class TestLoadJson:
    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 2,\n  "kraus": [}')
        with pytest.raises(SchemaError, match="line 2"):
            load_json(path)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "kind, text, field",
        [
            ("channel", '{"d": 1, "kraus": [[[[%s, 0.0]]]]}', r"channel\.kraus\[0\]\[0\]\[0\]"),
            (
                "implementation",
                '{"d": 1, "kraus": [[[[1.0, 0.0]]]], "env": [[0.0, %s]]}',
                r"channel\.env\[0\]",
            ),
            ("t", '{"d": 1, "t": [[[%s, 0.0]]]}', r"t_matrix\.t\[0\]\[0\]"),
            ("state", '{"d": 1, "rho": [[[1.0, %s]]]}', r"state\.rho\[0\]\[0\]"),
            (
                "ensemble",
                '{"d": 1, "items": [{"p": 1.0, "rho": [[[%s, 0.0]]]}]}',
                r"ensemble\.items\[0\]\.rho\[0\]\[0\]",
            ),
            ("ensemble", '{"d": 1, "items": [{"p": %s, "rho": [[[1.0, 0.0]]]}]}', r"ensemble\.items\[0\]\.p"),
        ],
        ids=["kraus", "env", "t", "rho", "ensemble-rho", "ensemble-p"],
    )
    def test_non_finite_constant_named(self, tmp_path, constant, kind, text, field):
        parse = {
            "channel": channel_from_json,
            "implementation": implementation_from_json,
            "t": tmatrix_from_json,
            "state": state_from_json,
            "ensemble": ensemble_from_json,
        }[kind]
        path = tmp_path / "doc.json"
        path.write_text(text % constant)
        with pytest.raises(SchemaError, match=rf"^{field}: expected (a )?finite") as err:
            parse(load_json(path))
        assert re.fullmatch(field, err.value.field)

    def test_roundtrip_via_file(self, tmp_path):
        import json

        ch = standard_channel("phase_flip", 2, 0.3)
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(channel_to_json(ch, np.array([0.6, 0.8]))))
        impl = implementation_from_json(load_json(path))
        assert impl.dim == 2 and len(impl.env) == 2
