"""Tests for the dense linear-algebra primitives."""

import io
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctrlchan.linalg import (
    SIGMA_X,
    SIGMA_Y,
    choi_vec,
    dagger,
    hs_norm,
    is_hermitian,
    ket,
    maximally_entangled,
    partial_trace,
    projector,
    pseudoinverse,
    spectral_norm,
    tensor,
    trace_norm,
    validate_density_matrix,
)
from ctrlchan.sampling import random_density_matrix, random_unitary


def kron_by_index(a, b):
    """Independent Kronecker oracle: direct index placement."""
    ar, ac = a.shape
    br, bc = b.shape
    out = np.zeros((ar * br, ac * bc), dtype=complex)
    for i in range(ar):
        for j in range(ac):
            for k in range(br):
                for l in range(bc):
                    out[i * br + k, j * bc + l] = a[i, j] * b[k, l]
    return out


def choi_vec_by_sum(t):
    """Independent vectorization oracle: sum_m |m> (x) T|m>."""
    d_out, d_in = t.shape
    v = np.zeros(d_in * d_out, dtype=complex)
    for m in range(d_in):
        v += np.kron(ket(m, d_in), t @ ket(m, d_in))
    return v


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_x_with_projector(self):
        # Expected matrix from direct index expansion: ones at (2, 0) and (0, 2).
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 0] = 1.0
        expected[0, 2] = 1.0
        got = tensor(SIGMA_X, projector(ket(0, 2)))
        assert np.array_equal(got, expected)
        assert np.array_equal(got, kron_by_index(SIGMA_X, projector(ket(0, 2))))

    def test_dimension_law(self):
        a = np.ones((2, 3))
        b = np.ones((5, 1))
        assert tensor(a, b).shape == (10, 3)

    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_index_oracle(self, ar, ac, br, bc, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((ar, ac)) + 1j * rng.standard_normal((ar, ac))
        b = rng.standard_normal((br, bc)) + 1j * rng.standard_normal((br, bc))
        assert np.allclose(tensor(a, b), kron_by_index(a, b), atol=1e-14)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(7)
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(3, rng)
        joint = tensor(rho, sigma)
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


class TestChoiVec:
    def test_identity(self):
        assert np.array_equal(choi_vec(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))

    def test_sigma_x(self):
        # Derived by expanding sum_m |m> (x) sigma_x |m>.
        expected = np.array([0, 1, 1, 0], dtype=complex)
        assert np.array_equal(choi_vec(SIGMA_X), expected)
        assert np.array_equal(choi_vec(SIGMA_X), choi_vec_by_sum(SIGMA_X))

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert np.array_equal(choi_vec(t).reshape(3, 3).T, t)

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_all_dims(self, d, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.array_equal(choi_vec(t).reshape(d, d).T, t)
        assert np.allclose(choi_vec(t), choi_vec_by_sum(t), atol=1e-14)

    def test_rectangular(self):
        t = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(choi_vec(t).reshape(2, 3).T, t)


class TestPseudoinverse:
    def test_scaled_identity(self):
        assert np.allclose(pseudoinverse(np.eye(4) / 2), 2 * np.eye(4), atol=1e-12)

    def test_rank_one_projector(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        p = projector(v)
        assert np.allclose(pseudoinverse(p), p, atol=1e-12)

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            c = g @ dagger(g)  # PSD, rank 3
            cp = pseudoinverse(c)
            assert np.max(np.abs(cp @ c @ cp - cp)) <= 1e-10
            assert np.max(np.abs(c @ cp @ c - c)) <= 1e-10
            assert np.max(np.abs(c @ cp - dagger(c @ cp))) <= 1e-10
            assert np.max(np.abs(cp @ c - dagger(cp @ c))) <= 1e-10

    def test_projector_onto_range(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        c = g @ dagger(g)
        pi = c @ pseudoinverse(c)
        assert np.max(np.abs(pi @ pi - pi)) <= 1e-10
        assert np.max(np.abs(pi @ g - g)) <= 1e-10

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            pseudoinverse(np.diag([1.0, -0.5]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            pseudoinverse(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestNorms:
    def test_rank_one(self):
        m = np.outer(ket(0, 2), ket(1, 2).conj())
        assert abs(trace_norm(m) - 1.0) < 1e-14

    def test_standard_values(self):
        assert abs(spectral_norm(SIGMA_X) - 1.0) < 1e-14
        assert abs(hs_norm(np.eye(5)) - np.sqrt(5)) < 1e-14

    def test_norm_ordering(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s = np.linalg.svd(m, compute_uv=False)
            assert spectral_norm(m) <= hs_norm(m) + 1e-12
            assert hs_norm(m) <= trace_norm(m) + 1e-12
            # cross-check against singular values directly
            assert abs(trace_norm(m) - s.sum()) < 1e-10
            assert abs(spectral_norm(m) - s[0]) < 1e-10
            assert abs(hs_norm(m) - np.sqrt((s ** 2).sum())) < 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            u = random_unitary(3, rng)
            v = random_unitary(3, rng)
            for norm in (trace_norm, spectral_norm, hs_norm):
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

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            validate_density_matrix(np.diag([1.5, -0.5]))

    def test_is_hermitian_predicate(self):
        assert is_hermitian(SIGMA_Y)
        assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
