"""Tests for the dense linear-algebra primitives."""

import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlchan import linalg
from ctrlchan.control import ControlledOutput
from ctrlchan.linalg import (
    DEFAULT_TOL,
    SIGMA_X,
    _checked_spectrum,
    _density_rules,
    ket,
    maximally_entangled,
    partial_trace,
    projector,
    spectral_norm,
    trace_norm,
    validate_density_matrix,
)
from ctrlchan.sampling import haar_isometry, random_density_matrix


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(7)
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(3, rng)
        joint = np.kron(rho, sigma)
        assert np.allclose(partial_trace(joint, 2, 3, keep="first"), rho, atol=1e-12)
        assert np.allclose(partial_trace(joint, 2, 3, keep="second"), sigma, atol=1e-12)

    def test_maximally_entangled_marginal(self):
        for d in (2, 3):
            phi = sum(np.kron(ket(i, d), ket(i, d)) for i in range(d)) / np.sqrt(d)
            state = maximally_entangled(d)
            assert np.max(np.abs(state - projector(phi))) <= 1e-15
            for keep in ("first", "second"):
                marginal = partial_trace(state, d, d, keep=keep)
                assert np.allclose(marginal, np.eye(d) / d, atol=1e-14)

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_trace_preservation(self, d1, d2, seed):
        rng = np.random.default_rng(seed)
        n = d1 * d2
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for keep in ("first", "second"):
            reduced = partial_trace(m, d1, d2, keep=keep)
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 2, 2)


class TestNorms:
    def test_rank_one(self):
        m = np.outer(ket(0, 2), ket(1, 2).conj())
        assert abs(trace_norm(m) - 1.0) < 1e-14

    def test_standard_values(self):
        assert abs(spectral_norm(SIGMA_X) - 1.0) < 1e-14
        assert abs(np.linalg.norm(np.eye(5)) - np.sqrt(5)) < 1e-14

    def test_norm_ordering(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s = np.linalg.svd(m, compute_uv=False)
            assert spectral_norm(m) <= np.linalg.norm(m) + 1e-12
            assert np.linalg.norm(m) <= trace_norm(m) + 1e-12
            # cross-check against singular values directly
            assert abs(trace_norm(m) - s.sum()) < 1e-10
            assert abs(spectral_norm(m) - s[0]) < 1e-10
            assert abs(np.linalg.norm(m) - np.sqrt((s ** 2).sum())) < 1e-10

    @pytest.mark.parametrize("rows", [1, 2, 5, 8, 16])
    @pytest.mark.parametrize("cols", [1, 3, 8, 16])
    def test_bitwise_equal_to_numpy_norm(self, rows, cols):
        # square, wide and tall: the values are those of np.linalg.norm exactly
        rng = np.random.default_rng(100 * rows + cols)
        for _ in range(5):
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            assert trace_norm(m) == np.linalg.norm(m, "nuc")
            assert spectral_norm(m) == np.linalg.norm(m, 2)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u = haar_isometry(3, 3, rng)
            v = haar_isometry(3, 3, rng)
            for norm in (trace_norm, spectral_norm, np.linalg.norm):
                assert abs(norm(u @ m @ v) - norm(m)) <= 1e-10


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        rng = np.random.default_rng(23)
        rho = random_density_matrix(3, rng)
        assert validate_density_matrix(rho) is not None

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(np.eye(2))

    def test_trace_deviation_is_printed(self):
        with pytest.raises(ValueError, match=r"trace 1 \+ 4\.000e-09, expected 1"):
            validate_density_matrix(np.diag([0.5 + 2e-9, 0.5 + 2e-9]))
        with pytest.raises(ValueError, match=r"trace 1 - 3\.000e-09, expected 1"):
            validate_density_matrix(np.diag([0.5, 0.5 - 3e-9]))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("index", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_non_finite_entry_named(self, bad, index):
        rho = np.eye(2, dtype=complex) / 2
        rho[index] = bad
        with pytest.raises(
            ValueError, match=rf"^density matrix has a non-finite entry .* at index \({index[0]}, {index[1]}\)$"
        ):
            validate_density_matrix(rho)

    def test_non_finite_entry_in_a_stack_named(self):
        from ctrlchan.info import entropy

        stack = np.array([np.eye(2) / 2] * 3, dtype=complex)
        stack[2, 1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^density matrix has a non-finite entry .* at index \(2, 1, 0\)$"):
            entropy(stack)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            validate_density_matrix(np.diag([1.5, -0.5]))


def rotated_spectrum(w, rng):
    """A density-matrix candidate with spectrum ``w`` in a Haar-random basis."""
    u = haar_isometry(len(w), len(w), rng)
    return (u * np.asarray(w)) @ u.conj().T


def lowest_at(f, n, rng):
    """Side-n matrix of unit trace whose lowest eigenvalue is -f DEFAULT_TOL."""
    low = -f * DEFAULT_TOL
    rest = rng.uniform(0.5, 1.5, n - 1)
    return rotated_spectrum(np.concatenate([[low], rest * (1.0 - low) / rest.sum()]), rng)


def verdict(check, m):
    """The message ``check`` refuses ``m`` with, or None."""
    try:
        check(m)
    except ValueError as exc:
        return str(exc)
    return None


def overflowing_coherence(n):
    """Side-n matrix of unit trace with eigenvalues 1/n -+ 1.414e200, whose
    coherence overflows when squared: a Cholesky leaves a NaN pivot."""
    m = np.eye(n, dtype=complex) / n
    m[0, 1] = 1e200 * (1 + 1j)
    m[1, 0] = 1e200 * (1 - 1j)
    return m


def overflowing_trace(n):
    """Side-n finite Hermitian matrix whose trace overflows."""
    m = np.eye(n, dtype=complex) / n
    m[0, 0] = m[1, 1] = 1e308
    return m


ONE_MATRIX_CHECKS = {"validate_density_matrix": validate_density_matrix, "ControlledOutput": ControlledOutput}


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.fixture
def rules_calls(monkeypatch):
    calls = []
    rules = linalg._density_rules

    def counted(rho):
        calls.append(np.shape(rho))
        return rules(rho)

    monkeypatch.setattr(linalg, "_density_rules", counted)
    return calls


def negative_zero_state(n, rng):
    """Side-n diagonal state, singular in its last entry, whose zero entries
    off the diagonal are all -0.0 in both parts."""
    m = np.full((n, n), complex(-0.0, -0.0))
    w = rng.uniform(0.5, 1.5, n)
    w[-1] = 0.0
    m[np.diag_indices(n)] = w / w.sum()
    return m


def refused_states(n):
    """Side-n matrices each refused by one check, with a part of its message."""
    mixed = np.eye(n, dtype=complex) / n
    nan, inf, skew, near = mixed.copy(), mixed.copy(), mixed.copy(), mixed.copy()
    nan[0, 1] = np.nan
    inf[n - 1, n - 1] = np.inf
    skew[1, 0] += 0.1
    near[1, 0] += 1.01 * DEFAULT_TOL
    return {
        "empty": (np.zeros((0, 0)), "trace 1 - 1.000e+00"),
        "nan": (nan, "non-finite entry (nan+0j) at index (0, 1)"),
        "inf": (inf, f"non-finite entry (inf+0j) at index ({n - 1}, {n - 1})"),
        "non-hermitian": (skew, "not Hermitian"),
        "hermitian deviation 1.01 tol": (near, "not Hermitian"),
        "trace": (mixed * (1.0 + 2e-9), "trace 1 + 2.000e-09"),
        "trace below": (mixed * (1.0 - 2e-9), "trace 1 - 2.000e-09"),
        "squares overflow": (overflowing_coherence(n), "negative eigenvalue -1.414e+200"),
        "trace overflows": (overflowing_trace(n), "trace 1 + inf"),
    }


class TestShiftedCholeskyCheck:
    """One-matrix state checks decide positivity by a Cholesky of rho shifted
    by DEFAULT_TOL / 2, and take a spectrum only when that fails."""

    @pytest.mark.parametrize("check", ONE_MATRIX_CHECKS.values(), ids=ONE_MATRIX_CHECKS)
    @pytest.mark.parametrize("n", [2, 8, 16, 32])
    def test_no_spectrum_for_a_valid_state(self, eigvalsh_calls, check, n):
        rng = np.random.default_rng(n)
        states = {
            "maximally mixed": np.eye(n) / n,
            "rank 1": projector(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
            "full rank": random_density_matrix(n, rng),
        }
        states["rank 1"] /= np.trace(states["rank 1"])
        for name, rho in states.items():
            check(rho)
            assert eigvalsh_calls == [], name

    @pytest.mark.parametrize("check", ONE_MATRIX_CHECKS.values(), ids=ONE_MATRIX_CHECKS)
    @pytest.mark.parametrize("n", [2, 8, 16, 32])
    def test_one_spectrum_for_a_refused_state(self, eigvalsh_calls, check, n):
        rng = np.random.default_rng(n)
        rho = rotated_spectrum(np.concatenate([[1.5, -0.5], np.zeros(n - 2)]), rng)
        with pytest.raises(ValueError, match=r"negative eigenvalue -5\.000e-01"):
            check(rho)
        assert eigvalsh_calls == [(n, n)]

    @pytest.mark.parametrize("check", ONE_MATRIX_CHECKS.values(), ids=ONE_MATRIX_CHECKS)
    @pytest.mark.parametrize("d", [2, 8, 16])
    @pytest.mark.parametrize("f", [0.0, 0.5, 0.99, 1.01, 2.0])
    def test_lowest_eigenvalue_verdict_matches_the_spectrum(self, check, d, f):
        # 1 % of DEFAULT_TOL from the boundary is far above the rounding of
        # either factorization at these sides.
        rng = np.random.default_rng(int(100 * f) + d)
        n = 2 * d if check is ControlledOutput else d
        rho = lowest_at(f, n, rng)
        expected = verdict(_checked_spectrum, rho)
        if f < 1.0:
            assert expected is None
        else:
            assert expected == f"density matrix has a negative eigenvalue {-f * DEFAULT_TOL:.3e}"
        assert verdict(check, rho) == expected

    @pytest.mark.parametrize("check", ONE_MATRIX_CHECKS.values(), ids=ONE_MATRIX_CHECKS)
    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_accepted_edge_states_match_the_spectrum(self, rules_calls, check, d):
        rng = np.random.default_rng(d)
        n = 2 * d if check is ControlledOutput else d
        near = np.eye(n, dtype=complex) / n
        near[1, 0] += 0.99 * DEFAULT_TOL
        zeros = negative_zero_state(n, rng)
        assert np.signbit(zeros[0, 1].real) and np.signbit(zeros[0, 1].imag)
        for name, m in {"hermitian deviation 0.99 tol": near, "-0.0 off the diagonal": zeros}.items():
            assert verdict(_checked_spectrum, m) is None, name
            rules_calls.clear()
            assert verdict(check, m) is None, name
            assert rules_calls == [], name

    @pytest.mark.parametrize("check", ONE_MATRIX_CHECKS.values(), ids=ONE_MATRIX_CHECKS)
    @pytest.mark.parametrize("n", [2, 8, 16, 32])
    def test_no_stack_rules_for_a_valid_state(self, rules_calls, check, n):
        rng = np.random.default_rng(n)
        states = {
            "maximally mixed": np.eye(n) / n,
            "rank 1": projector(rng.standard_normal(n) + 1j * rng.standard_normal(n)),
            "full rank": random_density_matrix(n, rng),
        }
        states["rank 1"] /= np.trace(states["rank 1"])
        for name, rho in states.items():
            check(rho)
            assert rules_calls == [], name

    @pytest.mark.parametrize("check", ONE_MATRIX_CHECKS.values(), ids=ONE_MATRIX_CHECKS)
    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_stack_rules_once_for_a_refused_state(self, rules_calls, check, d):
        # a state refused by a rule goes through the stack rules once; one
        # refused by its spectrum passes the check's own rules and makes none
        n = 2 * d if check is ControlledOutput else d
        for name, (m, _) in refused_states(n).items():
            rules_calls.clear()
            assert verdict(check, m) is not None, name
            by_spectrum = verdict(_density_rules, m) is None
            assert rules_calls == ([] if by_spectrum else [m.shape]), name
        spectrum = np.concatenate([[1.5, -0.5], np.zeros(n - 2)])
        negative = rotated_spectrum(spectrum, np.random.default_rng(d))
        rules_calls.clear()
        assert "negative eigenvalue -5.000e-01" in verdict(check, negative)
        assert rules_calls == []

    @pytest.mark.parametrize("check", ONE_MATRIX_CHECKS.values(), ids=ONE_MATRIX_CHECKS)
    @pytest.mark.parametrize("d", [2, 8, 16])
    def test_refusals_match_the_spectrum(self, check, d):
        n = 2 * d if check is ControlledOutput else d
        bad = refused_states(n)
        for name, (m, text) in bad.items():
            expected = verdict(_checked_spectrum, m)
            assert text in expected, name
            assert verdict(check, m) == expected, name
        non_square = np.zeros((n, n + 1))
        expected = verdict(_checked_spectrum, non_square)
        assert expected.startswith("density matrix must be square")
        if check is ControlledOutput:
            expected = f"joint output must be square with even side, got {(n, n + 1)}"
        assert verdict(check, non_square) == expected

    @pytest.mark.parametrize("d", [2, 8])
    def test_overflow_in_a_stack_refused_by_name(self, d):
        mixed = np.eye(d, dtype=complex) / d
        for m, text in (
            (overflowing_coherence(d), r"negative eigenvalue -1\.414e\+200"),
            (overflowing_trace(d), r"trace 1 \+ inf"),
        ):
            with pytest.raises(ValueError, match=text):
                _checked_spectrum(np.array([mixed, m, mixed]))


class TestToleranceTable:
    def test_no_exponent_literal_outside_the_table(self):
        # Tolerances live in the table at the top of linalg.py; cases.py
        # states each case's own.  Docstrings and comments do not count.
        package = Path(__file__).resolve().parents[1] / "src" / "ctrlchan"
        exponent = re.compile(r"^(?!0[xX])[0-9._]*[eE][+-]?[0-9]")
        found = []
        for path in sorted(package.glob("*.py")):
            if path.name in ("linalg.py", "cases.py"):
                continue
            tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
            found += [
                f"{path.name}:{tok.start[0]}: {tok.string}"
                for tok in tokens
                if tok.type == tokenize.NUMBER and exponent.match(tok.string)
            ]
        assert found == []
