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
    DEFAULT_TOL,
    SIGMA_X,
    SIGMA_Z,
    dagger,
    ket,
    partial_trace,
    projector,
)
from ctrlchan.sampling import (
    haar_isometry,
    random_channel,
    random_density_matrix,
)

from reference import _weyl_by_powers

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

    def test_zero_dimension_rejected(self):
        # numpy's reshape of the empty stack once raised "cannot reshape array of size 0"
        with pytest.raises(ValueError, match=r"^kraus operators must be at least 1 x 1, got shape \(0, 0\)$"):
            Channel(np.zeros((1, 0, 0)))

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

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply(standard_channel("identity", 2), np.eye(3) / 3)

    @pytest.mark.parametrize("d, k", [(3, 4), (8, 1), (8, 8), (8, 64), (8, 65)])
    def test_stack_matches_literal_sum(self, d, k):
        rng = np.random.default_rng(2)
        ch = random_channel(d, k, rng)
        blocks = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        got = apply(ch, blocks)
        assert got.shape == blocks.shape
        for idx in np.ndindex(blocks.shape[:-2]):
            ref = sum(k @ blocks[idx] @ dagger(k) for k in ch.kraus)
            assert np.max(np.abs(got[idx] - ref)) <= 1e-13

    def test_stack_validates_every_member(self):
        ch = standard_channel("identity", 2)
        states = np.stack([np.eye(2) / 2, np.eye(2) / 2])
        assert apply(ch, states).shape == (2, 2, 2)
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
        proj = c @ np.linalg.pinv(c, rcond=1e-12, hermitian=True)
        for k in ch.kraus:
            v = k.T.reshape(-1)
            assert np.max(np.abs(proj @ v - v)) <= 1e-10


class TestChoiDefinition:
    """The Choi matrix against its definition sum_i |K_i>><<K_i|, with
    |K>> = vec(K) stacking columns, built here by explicit outer products."""

    @pytest.mark.parametrize("d, k", [(2, 1), (2, 4), (3, 2), (3, 9), (4, 5)])
    def test_sum_of_kraus_outer_products(self, d, k):
        ch = random_channel(d, k, np.random.default_rng(40 + 10 * d + k))
        c = choi_of(ch)
        expected = sum(np.outer(m.T.reshape(-1), m.T.reshape(-1).conj()) for m in ch.kraus)
        assert c.shape == (d * d, d * d)
        assert np.max(np.abs(c - expected)) <= 1e-14
        assert np.max(np.abs(c - dagger(c))) <= 1e-15
        # trace preservation: tracing out the output leaves the identity
        assert np.max(np.abs(partial_trace(c, d, d, keep="first") - np.eye(d))) <= 1e-13


class TestRemix:
    def test_empty_matrix_refused_by_its_column_count(self):
        # the isometry check came first and raised numpy's "zero-size array" error
        with pytest.raises(
            ValueError, match=r"^remix matrix has 0 columns but the channel has 1 Kraus operators$"
        ):
            remix(standard_channel("identity", 2), np.zeros((0, 0)))

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


    @pytest.mark.parametrize(
        "entry, message",
        [
            (np.inf, r"^remix matrix has a non-finite entry \(inf\+0j\) at index \(0, 0\)$"),
            (np.nan, r"^remix matrix has a non-finite entry \(nan\+0j\) at index \(0, 0\)$"),
            (1e200, r"^remix matrix has a Gram matrix u\^dag u that overflows, though every entry is finite$"),
        ],
        ids=["inf", "nan", "overflow"],
    )
    def test_non_finite_or_overflowing_u_refused_by_name(self, entry, message):
        # the Gram matrix u^dag u is formed quietly and a non-finite one is
        # refused by name, where a numpy warning escaped before
        ch = random_channel(2, 2, np.random.default_rng(8))
        with pytest.raises(ValueError, match=message):
            remix(ch, np.array([[entry, 0.0], [0.0, 1.0]]))

    def test_wide_non_finite_u_refused_as_not_orthonormal(self):
        # more columns than rows: refused by shape, with no Gram matrix
        ch = standard_channel("identity", 2)
        with pytest.raises(ValueError, match="orthonormal"):
            remix(ch, np.array([[np.inf, 0.0, 0.0], [0.0, 1.0, 0.0]]))


def _checked_remix(ch, u):
    """The list remix would build, through the full Channel check: the
    reference every certified remix must match bit for bit."""
    k, d, _ = ch.kraus.shape
    u = np.asarray(u, dtype=complex)
    return Channel((u[:, :k] @ ch.kraus.reshape(k, d * d)).reshape(-1, d, d))


def _verdict(make):
    try:
        return make().kraus.tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.fixture
def checks(monkeypatch):
    """Every Channel built through the full check, the only place a sum
    K^dag K is formed."""
    built = []
    post_init = Channel.__post_init__

    def counted(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(Channel, "__post_init__", counted)
    return built


class TestCertifiedRemix:
    """remix bounds the new list's deviation from the source's and from
    u^dag u, and skips the full check only when the bound is within
    DEFAULT_TOL; every verdict and every Kraus list is the full check's."""

    @pytest.mark.parametrize(
        "d, ks",
        [(2, range(1, 5)), (3, range(1, 10)), (4, range(1, 17)), (8, (1, 2, 7, 8, 9, 33, 64)), (16, (1, 17, 256))],
    )
    def test_bitwise_the_checked_product_without_a_check(self, checks, d, ks):
        rng = np.random.default_rng(2300 + d)
        for k in ks:
            ch = random_channel(d, k, rng)
            # square, taller, and padded: two more columns than operators
            for rows, cols in ((k, k), (k + 2, k), (k + 3, k + 2)):
                u = haar_isometry(rows, cols, rng)
                checks.clear()
                out = remix(ch, u)
                assert checks == []
                assert not out.kraus.flags.writeable
                ref = _checked_remix(ch, u)
                assert out.kraus.tobytes() == ref.kraus.tobytes()
                assert out.kraus.shape == ref.kraus.shape == (rows, d, d)
                assert ref._deviation <= out._deviation <= DEFAULT_TOL

    def test_channel_records_its_deviation(self):
        ch = random_channel(3, 4, np.random.default_rng(2310))
        flat = ch.kraus.reshape(-1, 3)
        assert ch._deviation == float(np.max(np.abs(flat.conj().T @ flat - np.eye(3))))

    @pytest.mark.parametrize("mu", [5e-10, 9e-10, 9.99e-10, 1.01e-9])
    def test_u_near_the_tolerance_takes_the_full_check(self, checks, mu):
        # k = 64: k mu is far above DEFAULT_TOL, so the bound cannot certify
        # and the list is checked as the parent checked it
        rng = np.random.default_rng(2320)
        ch = random_channel(8, 64, rng)
        u = haar_isometry(65, 64, rng)
        u[:, 0] *= np.sqrt(1.0 + mu)
        checks.clear()
        got = _verdict(lambda: remix(ch, u))
        if mu <= DEFAULT_TOL:
            assert len(checks) == 1
            assert got == _checked_remix(ch, u).kraus.tobytes()
        else:
            assert checks == []
            assert got == "remix matrix must have orthonormal columns"

    @pytest.mark.parametrize("scale", [4e-10, 4.99e-10])
    def test_source_near_the_tolerance(self, checks, scale):
        # delta is about 2 scale: 8e-10 leaves room for the bound, 9.98e-10 not
        rng = np.random.default_rng(2330)
        ch = Channel(random_channel(8, 64, rng).kraus * (1.0 + scale))
        u = haar_isometry(65, 64, rng)
        checks.clear()
        out = remix(ch, u)
        assert len(checks) == (0 if scale < 4.5e-10 else 1)
        assert out.kraus.tobytes() == _checked_remix(ch, u).kraus.tobytes()

    def test_source_near_the_tolerance_refused_as_the_full_check_refuses(self):
        rng = np.random.default_rng(2340)
        ch = Channel(random_channel(8, 64, rng).kraus * (1.0 + 4.99e-10))
        u = haar_isometry(64, 64, rng)
        u[:, 3] *= np.sqrt(1.0 + 9e-10)
        got = _verdict(lambda: remix(ch, u))
        assert got.startswith("kraus operators are not trace-preserving: max |sum K^dag K - 1| = 1.0")
        assert got == _verdict(lambda: _checked_remix(ch, u))

    @pytest.mark.parametrize("scale", [0.0, 4e-10], ids=["exact", "scaled"])
    def test_chain_of_fifty_remixes(self, checks, scale):
        # a source scaled by 1 + 4e-10 starts at delta = 8e-10, so the rounding
        # margins add up to DEFAULT_TOL within the chain: the full check runs
        # again there, and its measured deviation restarts the bound
        rng = np.random.default_rng(2350)
        ch = Channel(random_channel(8, 64, rng).kraus * (1.0 + scale))
        certified = 0
        for step in range(50):
            u = haar_isometry(len(ch.kraus) + step % 2, len(ch.kraus), rng)
            checks.clear()
            out = remix(ch, u)
            certified += not checks
            ref = _checked_remix(ch, u)
            assert out.kraus.tobytes() == ref.kraus.tobytes()
            assert ref._deviation <= out._deviation <= DEFAULT_TOL
            ch = out
        if scale:
            assert 0 < certified < 50
        else:
            assert certified == 50

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

    def test_qubit_basis_is_exactly_the_pauli_products(self):
        # the phase w = -1 is exact, so 1, Z, X and XZ are too, with no
        # rounding in their imaginary parts
        basis = weyl_basis(2)
        assert isinstance(basis, list)
        exact = [np.eye(2), SIGMA_Z, SIGMA_X, SIGMA_X @ SIGMA_Z]
        assert all(np.array_equal(u, v) for u, v in zip(basis, exact, strict=True))
        assert all(np.all(u.imag == 0.0) for u in basis)

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


class TestStandardChannel:
    @pytest.mark.parametrize("kind", ["identity", "depolarising"])
    def test_zero_dimension_rejected(self, kind):
        with pytest.raises(ValueError, match=r"^dimension d must be at least 1, got 0$"):
            standard_channel(kind, 0)

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

    def test_out_of_range_parameter(self):
        with pytest.raises(ValueError):
            standard_channel("phase_flip", 2, 1.5)
        with pytest.raises(ValueError):
            standard_channel("partial_depolarising", 2, -0.1)

    @pytest.mark.parametrize("kind", ["amplitude_damping", "unitary", "constant"])
    def test_unknown_kind(self, kind):
        with pytest.raises(ValueError, match="unknown"):
            standard_channel(kind, 2, 0.5)

    @pytest.mark.parametrize("kind", ["identity", "depolarising"])
    @pytest.mark.parametrize("param", [0.0, 0.3])
    def test_param_refused_where_the_kind_takes_none(self, kind, param):
        with pytest.raises(ValueError, match=f"^{kind} channel takes no param$"):
            standard_channel(kind, 2, param)

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
