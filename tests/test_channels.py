"""Tests for the channel model: validation, application, Choi machinery,
remixing, and the standard families."""

import numpy as np
import pytest

from ctrlchan.channels import (
    Channel,
    apply,
    choi_of,
    remix,
    standard_channel,
    weyl_basis,
)
from ctrlchan.linalg import (
    SIGMA_X,
    SIGMA_Z,
    dagger,
    ket,
    partial_trace,
    projector,
    pseudoinverse,
)
from ctrlchan.sampling import (
    haar_isometry,
    random_channel,
    random_density_matrix,
)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)


class TestValidateChannel:
    def test_identity_singleton(self):
        ch = Channel([np.eye(2)])
        assert ch.dim == 2 and len(ch.kraus) == 1

    def test_two_pauli_mix(self):
        # sum K^dag K = (sx^2 + sz^2)/2 = 1
        ch = Channel([SIGMA_X / np.sqrt(2), SIGMA_Z / np.sqrt(2)])
        assert ch.dim == 2

    def test_single_unitary_is_valid(self):
        assert Channel([SIGMA_X]).dim == 2

    def test_scaled_pauli_rejected(self):
        # sum K^dag K = 1/4
        with pytest.raises(ValueError, match="trace-preserving"):
            Channel([SIGMA_X / 2])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="not square"):
            Channel([np.ones((2, 3))])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            Channel([np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(2)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Channel([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)])
    def test_non_finite_kraus_rejected(self, bad):
        k = np.eye(2, dtype=complex) / np.sqrt(2)
        k1 = k.copy()
        k1[0, 1] = bad
        with pytest.raises(ValueError, match=r"^kraus has a non-finite entry .* at index \(1, 0, 1\)$"):
            Channel([k, k1])


class TestKrausArray:
    def test_stacked_readonly_complex(self):
        ch = random_channel(3, 4, np.random.default_rng(40))
        assert isinstance(ch.kraus, np.ndarray)
        assert ch.kraus.shape == (4, 3, 3)
        assert ch.kraus.dtype == np.complex128
        assert not ch.kraus.flags.writeable
        with pytest.raises(ValueError):
            ch.kraus[0, 0, 0] = 1.0

    def test_tuple_and_stack_agree(self):
        ops = [SIGMA_X / np.sqrt(2), SIGMA_Z / np.sqrt(2)]
        from_tuple = Channel(tuple(ops))
        stacked = np.stack(ops)
        from_stack = Channel(stacked)
        assert np.array_equal(from_tuple.kraus, from_stack.kraus)
        assert from_stack.kraus.dtype == np.complex128
        # the channel owns a copy: the caller's array stays writeable
        assert stacked.flags.writeable

    def test_stacked_non_square_rejected(self):
        with pytest.raises(ValueError, match="not square"):
            Channel(np.ones((2, 2, 3)) / 2)

    def test_ragged_non_square_rejected(self):
        with pytest.raises(ValueError, match=r"kraus\[1\] is not square"):
            Channel((np.eye(2), np.ones((2, 3))))

    def test_ragged_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"kraus\[1\] has dimension 3, expected 2"):
            Channel((np.eye(2) / np.sqrt(2), np.eye(3) / np.sqrt(2)))

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Channel(np.zeros((0, 2, 2)))
        with pytest.raises(ValueError, match="at least one"):
            Channel(())



class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix(3, rng)
        out = apply(standard_channel("identity", 3), rho)
        assert np.allclose(out, rho, atol=1e-14)

    def test_depolarising_to_maximally_mixed(self):
        out = apply(standard_channel("depolarising", 2), projector(ket(0, 2)))
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_phase_flip_half_on_plus(self):
        rho = projector(PLUS)
        out = apply(standard_channel("phase_flip", 2, 0.5), rho)
        # oracle: average of rho and Z rho Z
        expected = 0.5 * (rho + SIGMA_Z @ rho @ SIGMA_Z)
        assert np.allclose(out, expected, atol=1e-14)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            apply(standard_channel("identity", 2), np.eye(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply(standard_channel("identity", 2), np.eye(3) / 3)

    @pytest.mark.parametrize("d, k", [(3, 4), (8, 1), (8, 8), (8, 64), (8, 65)])
    def test_stack_matches_literal_sum(self, d, k):
        rng = np.random.default_rng(2)
        ch = random_channel(d, k, rng)
        blocks = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        got = apply(ch, blocks, validate=False)
        assert got.shape == blocks.shape
        for idx in np.ndindex(blocks.shape[:-2]):
            ref = sum(k @ blocks[idx] @ dagger(k) for k in ch.kraus)
            assert np.max(np.abs(got[idx] - ref)) <= 1e-13

    def test_stack_validates_every_member(self):
        ch = standard_channel("identity", 2)
        states = np.stack([np.eye(2) / 2, np.eye(2) / 2])
        assert apply(ch, states).shape == (2, 2, 2)
        states[1] = np.eye(2)
        with pytest.raises(ValueError, match="trace"):
            apply(ch, states)
        with pytest.raises(ValueError, match="does not match dimension"):
            apply(ch, np.zeros((2, 3, 3)))

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(1)
        library = [
            standard_channel("identity", 2),
            standard_channel("depolarising", 2),
            standard_channel("partial_depolarising", 2, 0.4),
            standard_channel("phase_flip", 2, 0.3),
            standard_channel("bit_flip", 2, 0.7),
            standard_channel("constant", 2, random_density_matrix(2, rng)),
            random_channel(2, 3, rng),
        ]
        for ch in library:
            for _ in range(5):
                out = apply(ch, random_density_matrix(2, rng))
                assert abs(np.trace(out) - 1.0) <= 1e-10
                assert np.linalg.eigvalsh(out)[0] >= -1e-10


class TestChoi:
    def test_identity_choi(self):
        for d in (2, 3):
            expected = projector(np.eye(d).T.reshape(-1))
            assert np.allclose(choi_of(standard_channel("identity", d)), expected, atol=1e-14)

    def test_depolarising_choi(self):
        for d in (2, 3):
            c = choi_of(standard_channel("depolarising", d))
            assert np.allclose(c, np.eye(d * d) / d, atol=1e-12)

    def test_phase_flip_choi(self):
        p = 0.3
        c = choi_of(standard_channel("phase_flip", 2, p))
        expected = (1 - p) * projector(np.eye(2).T.reshape(-1)) + p * projector(SIGMA_Z.T.reshape(-1))
        assert np.allclose(c, expected, atol=1e-14)

    def test_apply_matches_choi_reconstruction(self):
        rng = np.random.default_rng(2)
        for d, k in ((2, 3), (3, 2)):
            ch = random_channel(d, k, rng)
            c = choi_of(ch)
            rho = random_density_matrix(d, rng)
            reconstructed = partial_trace(c @ np.kron(rho.T, np.eye(d)), d, d, keep="second")
            assert np.max(np.abs(apply(ch, rho) - reconstructed)) <= 1e-10

    def test_kraus_vectors_in_choi_range(self):
        rng = np.random.default_rng(3)
        ch = random_channel(2, 3, rng)
        c = choi_of(ch)
        proj = c @ pseudoinverse(c)
        for k in ch.kraus:
            v = k.T.reshape(-1)
            assert np.max(np.abs(proj @ v - v)) <= 1e-10


class TestRemix:
    def test_identity_remix(self):
        ch = standard_channel("phase_flip", 2, 0.3)
        out = remix(ch, np.eye(2))
        assert all(np.array_equal(a, b) for a, b in zip(out.kraus, ch.kraus))

    def test_hadamard_remix_preserves_choi(self):
        p = 0.3
        ch = standard_channel("phase_flip", 2, p)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        out = remix(ch, h)
        assert not np.allclose(out.kraus[0], ch.kraus[0])
        assert np.max(np.abs(choi_of(out) - choi_of(ch))) <= 1e-12

    def test_global_phase(self):
        ch = standard_channel("identity", 2)
        out = remix(ch, np.exp(0.7j) * np.eye(1))
        assert not np.allclose(out.kraus[0], ch.kraus[0])
        assert np.max(np.abs(choi_of(out) - choi_of(ch))) <= 1e-14

    def test_rectangular_isometry_grows_list(self):
        rng = np.random.default_rng(5)
        ch = random_channel(2, 2, rng)
        u = haar_isometry(4, 2, rng)
        out = remix(ch, u)
        assert len(out.kraus) == 4
        assert np.max(np.abs(choi_of(out) - choi_of(ch))) <= 1e-10

    def test_padding_with_zero_operators(self):
        ch = standard_channel("identity", 2)
        u = haar_isometry(3, 3, np.random.default_rng(6))
        out = remix(ch, u)  # pads the single Kraus operator with two zeros
        assert len(out.kraus) == 3
        assert np.max(np.abs(choi_of(out) - choi_of(ch))) <= 1e-10

    def test_padding_matches_explicit_sum(self):
        rng = np.random.default_rng(41)
        ch = random_channel(3, 2, rng)
        u = haar_isometry(5, 4, rng)  # four columns, two Kraus operators
        out = remix(ch, u)
        padded = list(ch.kraus) + [np.zeros((3, 3)), np.zeros((3, 3))]
        for i in range(5):
            expected = sum(u[i, r] * padded[r] for r in range(4))
            assert np.max(np.abs(out.kraus[i] - expected)) <= 1e-15

    def test_non_isometry_rejected(self):
        ch = standard_channel("identity", 2)
        with pytest.raises(ValueError, match="orthonormal"):
            remix(ch, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_choi_invariance_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ch = random_channel(2, 3, rng)
            u = haar_isometry(3, 3, rng)
            assert np.max(np.abs(choi_of(remix(ch, u)) - choi_of(ch))) <= 1e-10


class TestWeylBasis:
    def test_qubit_ordering(self):
        basis = weyl_basis(2)
        assert np.allclose(basis[0], np.eye(2))
        assert np.allclose(basis[1], SIGMA_Z)
        assert np.allclose(basis[2], SIGMA_X)
        assert np.allclose(basis[3], SIGMA_X @ SIGMA_Z)

    def test_orthogonality_d3(self):
        basis = weyl_basis(3)
        assert len(basis) == 9
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                expected = 3.0 if i == j else 0.0
                assert abs(np.trace(dagger(u) @ v) - expected) <= 1e-12

    def test_twirl_gives_maximally_mixed(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            basis = weyl_basis(d)
            rho = random_density_matrix(d, rng)
            twirled = sum(u @ rho @ dagger(u) for u in basis) / (d * d)
            assert np.max(np.abs(twirled - np.eye(d) / d)) <= 1e-12

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            weyl_basis(1)

    def test_qubit_basis_bitwise_equal_to_matrix_powers(self):
        basis = weyl_basis(2)
        assert isinstance(basis, list)
        assert all(np.array_equal(u, v) for u, v in zip(basis, _weyl_by_powers(2), strict=True))

    @pytest.mark.parametrize("d", [3, 4, 5, 8, 16])
    def test_matches_matrix_powers(self, d):
        basis = weyl_basis(d)
        assert len(basis) == d * d
        for u, v in zip(basis, _weyl_by_powers(d)):
            assert np.max(np.abs(u - v)) <= 1e-13

    def test_shift_and_phase_pattern_d16(self):
        d = 16
        rows, cols = np.indices((d, d))
        for i, u in enumerate(weyl_basis(d)):
            a, b = divmod(i, d)
            on = rows == (cols + a) % d
            assert np.all(u[~on] == 0.0)
            # the exponent reduced mod d keeps the phase within rounding of exact
            phase = np.exp(2j * np.pi * ((b * cols[on]) % d) / d)
            assert np.max(np.abs(u[on] - phase)) <= 2e-15
            assert np.max(np.abs(dagger(u) @ u - np.eye(d))) <= 1e-13


def _weyl_by_powers(d):
    """X^a Z^b as products of matrix powers of the shift and the clock."""
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    x[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    z = np.diag(omega ** np.arange(d))
    return [
        np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
        for a in range(d)
        for b in range(d)
    ]


class TestStandardChannel:
    def test_depolarising_kraus_choice(self):
        ch = standard_channel("depolarising", 2)
        expected = [u / 2 for u in weyl_basis(2)]
        assert all(np.allclose(a, b) for a, b in zip(ch.kraus, expected))

    def test_partial_depolarising_endpoints(self):
        ident = choi_of(standard_channel("identity", 2))
        assert np.max(np.abs(choi_of(standard_channel("partial_depolarising", 2, 1.0)) - ident)) <= 1e-12
        depol = choi_of(standard_channel("depolarising", 2))
        assert np.max(np.abs(choi_of(standard_channel("partial_depolarising", 2, 0.0)) - depol)) <= 1e-12

    def test_partial_depolarising_mixes(self):
        q = 0.35
        c = choi_of(standard_channel("partial_depolarising", 3, q))
        ident = choi_of(standard_channel("identity", 3))
        depol = choi_of(standard_channel("depolarising", 3))
        assert np.max(np.abs(c - (q * ident + (1 - q) * depol))) <= 1e-12

    def test_phase_flip_zero_is_identity(self):
        c = choi_of(standard_channel("phase_flip", 2, 0.0))
        assert np.max(np.abs(c - choi_of(standard_channel("identity", 2)))) <= 1e-14

    def test_constant_channel(self):
        rng = np.random.default_rng(9)
        sigma = random_density_matrix(3, rng)
        ch = standard_channel("constant", 3, sigma)
        for _ in range(5):
            out = apply(ch, random_density_matrix(3, rng))
            assert np.max(np.abs(out - sigma)) <= 1e-12

    def test_constant_kraus_order(self):
        # sqrt(w_j) |v_j><m|, eigenvalues descending, then m ascending; the
        # zero eigenvalue contributes no operators
        sigma = np.diag([0.2, 0.5, 0.0, 0.3])
        ch = standard_channel("constant", 4, sigma)
        expected = [
            np.sqrt(w) * np.outer(ket(j, 4), ket(m, 4))
            for w, j in ((0.5, 1), (0.3, 3), (0.2, 0))
            for m in range(4)
        ]
        assert ch.kraus.shape == (12, 4, 4)
        assert np.max(np.abs(np.abs(ch.kraus) - np.abs(expected))) <= 1e-15

    def test_unitary_channel(self):
        rng = np.random.default_rng(10)
        u = haar_isometry(2, 2, rng)
        ch = standard_channel("unitary", 2, u)
        rho = random_density_matrix(2, rng)
        assert np.allclose(apply(ch, rho), u @ rho @ dagger(u), atol=1e-12)

    def test_out_of_range_parameter(self):
        with pytest.raises(ValueError):
            standard_channel("phase_flip", 2, 1.5)
        with pytest.raises(ValueError):
            standard_channel("partial_depolarising", 2, -0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            standard_channel("amplitude_damping", 2, 0.5)

    def test_qudit_restriction_for_flips(self):
        with pytest.raises(ValueError, match="qubit"):
            standard_channel("phase_flip", 3, 0.5)


class TestRandomChannel:
    def test_is_trace_preserving(self):
        rng = np.random.default_rng(11)
        for d, k in ((2, 1), (2, 4), (3, 5)):
            ch = random_channel(d, k, rng)
            total = sum(dagger(op) @ op for op in ch.kraus)
            assert np.max(np.abs(total - np.eye(d))) <= 1e-12
            assert len(ch.kraus) == k

    def test_immutable_kraus(self):
        ch = random_channel(2, 2, np.random.default_rng(12))
        with pytest.raises(ValueError):
            ch.kraus[0][0, 0] = 1.0
