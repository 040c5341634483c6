"""Tests for the dense linear-algebra primitives."""

import ast
import cmath
import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

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

import spies


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


class TestKet:
    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_out_of_range_refused(self, index):
        with pytest.raises(ValueError, match=f"^basis index {index} out of range for dimension 3$"):
            ket(index, 3)


class TestIsometryDeviation:
    @pytest.mark.parametrize("rows, cols", [(3, 3), (5, 3)])
    def test_is_the_largest_entry_of_u_dag_u_minus_one(self, rows, cols):
        u = haar_isometry(rows, cols, np.random.default_rng(rows))
        u[:, -1] *= 1.0 + 1e-6
        expected = np.max(np.abs(u.conj().T @ u - np.eye(cols)))
        assert 1e-6 < expected < 1e-5
        assert linalg._isometry_deviation(u, "u") == expected

    def test_more_columns_than_rows_is_infinite(self):
        assert linalg._isometry_deviation(np.zeros((2, 3), dtype=complex), "u") == np.inf


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

    def test_imaginary_trace_deviation_is_printed(self):
        # Hermitian within tolerance (6e-10), while the imaginary parts of the
        # diagonal add up past it; the real part deviates by exactly 0
        with pytest.raises(ValueError, match=r"trace 1 \+ 0\.000e\+00 \+ 1\.200e-09j, expected 1"):
            validate_density_matrix(np.diag([0.25 + 3e-10j] * 4))

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
    return spies.shapes(monkeypatch, linalg._eigvalsh)


@pytest.fixture
def rules_calls(monkeypatch):
    calls = []
    rules = linalg._density_rules

    def counted(rho):
        calls.append(np.shape(rho))
        return rules(rho)

    monkeypatch.setattr(linalg, "_density_rules", counted)
    return calls


@pytest.fixture
def cholesky_calls(monkeypatch):
    calls = []
    succeeds = linalg._cholesky_succeeds

    def counted(m):
        calls.append(np.shape(m))
        return succeeds(m)

    monkeypatch.setattr(linalg, "_cholesky_succeeds", counted)
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
    def test_no_factorization_for_a_rule_refusal(self, cholesky_calls, check, d):
        # a rule refusal ends the check; only a state that passes both rules
        # is factored, once, and refused by its spectrum
        n = 2 * d if check is ControlledOutput else d
        for name, (m, _) in refused_states(n).items():
            cholesky_calls.clear()
            assert verdict(check, m) is not None, name
            by_spectrum = name == "squares overflow"
            assert (verdict(_density_rules, m) is None) == by_spectrum, name
            assert cholesky_calls == ([m.shape] if by_spectrum else []), name
        spectrum = np.concatenate([[1.5, -0.5], np.zeros(n - 2)])
        negative = rotated_spectrum(spectrum, np.random.default_rng(d))
        cholesky_calls.clear()
        assert "negative eigenvalue -5.000e-01" in verdict(check, negative)
        assert cholesky_calls == [(n, n)]

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


def numpy_cholesky_succeeds(m):
    """The success rule read from the public ``np.linalg.cholesky``."""
    try:
        factor = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return cmath.isfinite(factor[-1, -1])


def cholesky_inputs(n, real, rng):
    """Side-n matrices on both sides of the Cholesky's success rule, real or
    complex, each with the verdict it has at every n >= 2 (None: parity only)."""
    g = rng.standard_normal((n, n))
    if not real:
        g = g + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(g)[0]

    def spectrum(w):
        return (q * np.asarray(w)) @ q.conj().T

    shift = (DEFAULT_TOL / 2) * np.eye(n)
    definite = spectrum(rng.uniform(0.5, 1.5, n))
    nan_lower, nan_upper, overflow = definite.copy(), definite.copy(), definite.copy()
    nan_lower[n - 1, 0] = np.nan
    nan_upper[0, n - 1] = np.nan
    big = 1e200 if real else 1e200 * (1 + 1j)
    overflow[n - 1, 0], overflow[0, n - 1] = big, np.conj(big)
    return {
        "positive definite": (definite, True),
        "positive definite, transposed view": (definite.T, True),
        "singular plus the shift": (spectrum(np.r_[0.0, np.ones(n - 1)]) + shift, True),
        "pure plus the shift": (spectrum(np.r_[1.0, np.zeros(n - 1)]) + shift, True),
        "indefinite": (spectrum(np.r_[-0.5, np.ones(n - 1)]), False),
        "NaN in the lower triangle": (nan_lower, False),
        "NaN in the upper triangle": (nan_upper, None),
        "squares overflow": (overflow, None),
    }


class TestCholeskyKernel:
    """``linalg._cholesky_succeeds`` calls a private numpy kernel; these pin it
    to the public ``np.linalg.cholesky`` it stands in for."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2, 8, 16, 32])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_agrees_with_numpy_cholesky(self, n, real):
        for name, (m, expected) in cholesky_inputs(n, real, np.random.default_rng(n)).items():
            with np.errstate(invalid="ignore", over="ignore"):
                got = linalg._cholesky_succeeds(m)
            assert got == numpy_cholesky_succeeds(m), name
            if expected is not None:
                assert got == expected, name

    def test_is_the_kernel_numpy_cholesky_calls(self, monkeypatch):
        called = []
        kernel = _umath_linalg.cholesky_lo

        def spy(*args, **kwargs):
            called.append(kernel)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(_umath_linalg, "cholesky_lo", spy)
        np.linalg.cholesky(np.eye(3, dtype=complex))
        assert called == [linalg._cholesky_lo]


def hermitian(n, rng, lead=()):
    g = rng.standard_normal(lead + (n, n)) + 1j * rng.standard_normal(lead + (n, n))
    return g + g.conj().swapaxes(-1, -2)


def general(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# each entry point of linalg: its numpy function, the _umath_linalg kernel
# both call, the name linalg binds that kernel to, and operands to call both on
ENTRY_POINTS = {
    "_eigh": (np.linalg.eigh, "eigh_lo", "_eigh_lo", lambda n, rng: (hermitian(n, rng),)),
    "_eigvalsh": (np.linalg.eigvalsh, "eigvalsh_lo", "_eigvalsh_lo", lambda n, rng: (hermitian(n, rng),)),
    "_solve": (np.linalg.solve, "solve1", "_solve1", lambda n, rng: (general(n, rng), general(n, rng)[0])),
    "_inv": (np.linalg.inv, "inv", "_inv_kernel", lambda n, rng: (general(n, rng),)),
}


def as_bytes(result):
    """The bytes of an array, or of each array of a tuple of them, such as
    the eigenvalues and eigenvectors of ``eigh`` (a named tuple in numpy)."""
    if isinstance(result, tuple):
        return [r.tobytes() for r in result]
    return result.tobytes()


class TestLapackEntryPoints:
    """``linalg``'s entry points call the private numpy kernels that the
    public ``np.linalg`` functions call; these pin each to its function."""

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_is_the_kernel_numpy_calls(self, monkeypatch, name):
        numpy_fn, kernel_name, bound, operands = ENTRY_POINTS[name]
        called = []
        kernel = getattr(_umath_linalg, kernel_name)

        def spy(*args, **kwargs):
            # numpy 1.x also passes extobj, its form of the errstate under
            # which the entry point calls the kernel
            called.append((kernel, {k: v for k, v in kwargs.items() if k != "extobj"}))
            return kernel(*args, **kwargs)

        assert getattr(linalg, bound) is kernel
        args = operands(3, np.random.default_rng(0))
        monkeypatch.setattr(_umath_linalg, kernel_name, spy)
        numpy_fn(*args)
        monkeypatch.setattr(linalg, bound, spy)
        getattr(linalg, name)(*args)
        # the entry point passes the signature numpy picks for complex operands
        assert len(called) == 2 and called[0] == called[1]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ENTRY_POINTS)
    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_bitwise_numpy(self, name, n):
        numpy_fn, _, _, operands = ENTRY_POINTS[name]
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            args = operands(n, rng)
            assert as_bytes(getattr(linalg, name)(*args)) == as_bytes(numpy_fn(*args))

    @pytest.mark.parametrize("lead", [(3,), (2, 4)])
    def test_stacks_bitwise_numpy(self, lead):
        stack = hermitian(8, np.random.default_rng(7), lead)
        assert as_bytes(linalg._eigh(stack)) == as_bytes(np.linalg.eigh(stack))
        assert as_bytes(linalg._eigvalsh(stack)) == as_bytes(np.linalg.eigvalsh(stack))

    def test_non_finite_entries_as_numpy(self):
        m = np.eye(3, dtype=complex) / 3
        m[1, 0] = np.nan
        assert as_bytes(linalg._eigh(m)) == as_bytes(np.linalg.eigh(m))
        assert as_bytes(linalg._eigvalsh(m)) == as_bytes(np.linalg.eigvalsh(m))

    @pytest.mark.parametrize("singular", [
        np.zeros((3, 3), dtype=complex),
        np.array([[1.0, 2.0j], [2.0, 4.0j]]),
    ], ids=["zero", "rank 1"])
    def test_singular_matrix_raises_as_numpy(self, singular):
        b = np.ones(singular.shape[0], dtype=complex)
        for call in (lambda: linalg._solve(singular, b), lambda: linalg._inv(singular),
                     lambda: np.linalg.solve(singular, b), lambda: np.linalg.inv(singular)):
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                call()

    def test_no_module_calls_numpy_for_these(self):
        # every eigh, eigvalsh, solve, inv and Cholesky of the package goes
        # through linalg's entry points, and only linalg.py imports the
        # kernels; np.linalg.svd, qr and norm stay allowed
        package = Path(__file__).resolve().parents[1] / "src" / "ctrlchan"
        banned = {"eigh", "eigvalsh", "solve", "inv", "cholesky"}
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in banned:
                    owner = node.value
                    if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                        found.append(f"{path.name}:{node.lineno}: linalg.{node.attr}")
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.linalg"):
                    names = {alias.name for alias in node.names}
                    private = "_umath_linalg" in node.module or "_umath_linalg" in names
                    if names & banned and node.module == "numpy.linalg" or (
                        private and path.name != "linalg.py"
                    ):
                        found.append(f"{path.name}:{node.lineno}: from {node.module} import {sorted(names)}")
        assert found == []


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
