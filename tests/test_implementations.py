"""Tests for channel implementations, admissibility and realisation."""

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from ctrlchan.channels import choi_of, remix, standard_channel, weyl_basis
from ctrlchan.implementations import (
    BOUND_TOL,
    RANGE_TOL,
    ChannelImplementation,
    _factor,
    _solve,
    admissible,
    realize,
    standard_implementation,
    transformation_matrix,
)
from ctrlchan.linalg import SIGMA_X, SIGMA_Z, dagger
from ctrlchan.sampling import (
    haar_isometry,
    random_admissible_t,
    random_channel,
    random_depolarising_t,
    random_env,
    random_implementation,
)

from reference import choi_route, kraus_matrix, lstsq_route, spike


class TestChannelImplementation:
    def test_length_mismatch_rejected(self):
        ch = standard_channel("depolarising", 2)
        with pytest.raises(ValueError, match="length"):
            ChannelImplementation(ch, np.array([1.0]))

    def test_overnormalised_env_rejected(self):
        ch = standard_channel("identity", 2)
        with pytest.raises(ValueError, match="norm"):
            ChannelImplementation(ch, np.array([1.2]))

    def test_excess_over_one_is_printed(self):
        ch = standard_channel("identity", 2)
        with pytest.raises(ValueError, match=r"squared norm 1 \+ 3\.000e-08, above 1 \+ 1e-08"):
            ChannelImplementation(ch, np.array([np.sqrt(1.0 + 3e-8)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_env_rejected(self, bad):
        ch = standard_channel("depolarising", 2)
        with pytest.raises(ValueError, match=r"^env has a non-finite entry .* at index \(2,\)$"):
            ChannelImplementation(ch, np.array([0.1, 0.1, bad, 0.1]))

    def test_subnormalised_env_is_legal(self):
        ch = standard_channel("identity", 2)
        impl = ChannelImplementation(ch, np.array([0.5]))
        assert impl.dim == 2


class TestTransformationMatrix:
    def test_identity_with_alpha(self):
        alpha = 0.3 - 0.4j
        impl = ChannelImplementation(
            standard_channel("identity", 3), np.array([np.conj(alpha)])
        )
        assert np.allclose(transformation_matrix(impl), alpha * np.eye(3), atol=1e-14)

    def test_uniform_weyl_env(self):
        d = 2
        impl = ChannelImplementation(
            standard_channel("depolarising", d), np.full(d * d, 1.0 / d, dtype=complex)
        )
        t = transformation_matrix(impl)
        # (1/d) sum_a |a><0|: the Z powers sum to d |0><0|, then X powers spread it.
        expected = np.zeros((d, d), dtype=complex)
        expected[:, 0] = 1.0 / d
        assert np.allclose(t, expected, atol=1e-12)
        assert abs(np.trace(dagger(t) @ t) - 1.0 / d) <= 1e-12

    def test_zero_env(self):
        impl = ChannelImplementation(
            standard_channel("depolarising", 2), np.zeros(4, dtype=complex)
        )
        assert np.max(np.abs(transformation_matrix(impl))) == 0.0


    def test_computed_once_and_read_only(self):
        impl = random_implementation(3, 5, np.random.default_rng(40))
        t = transformation_matrix(impl)
        assert transformation_matrix(impl) is t
        assert np.array_equal(t, np.tensordot(impl.env.conj(), impl.channel.kraus, 1))
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 0.0


class TestAdmissible:
    def test_identity_rejects_sigma_x(self):
        rep = admissible(standard_channel("identity", 2), 0.7 * SIGMA_X)
        assert not rep.admissible
        assert rep.range_residual > 0.5

    def test_identity_accepts_scaled_identity(self):
        rep = admissible(standard_channel("identity", 2), 0.8j * np.eye(2))
        assert rep.admissible
        assert abs(rep.quadratic_form - 0.64) <= 1e-10

    def test_depolarising_accepts_small_hs_norm(self):
        rng = np.random.default_rng(0)
        depol = standard_channel("depolarising", 2)
        for _ in range(20):
            t = random_depolarising_t(2, rng)
            rep = admissible(depol, t)
            assert rep.admissible
            assert abs(rep.quadratic_form - 2 * np.linalg.norm(t) ** 2) <= 1e-9

    def test_phase_flip_membership_sphere(self):
        p = 0.4
        ch = standard_channel("phase_flip", 2, p)
        alpha, beta = 0.6, 0.8j
        t = alpha * np.sqrt(1 - p) * np.eye(2) + beta * np.sqrt(p) * SIGMA_Z
        assert admissible(ch, t).admissible
        t_bad = np.sqrt(1.1) * t
        assert not admissible(ch, t_bad).admissible

    def test_zero_matrix_always_admissible(self):
        rng = np.random.default_rng(1)
        ch = random_channel(2, 3, rng)
        rep = admissible(ch, np.zeros((2, 2)))
        assert rep.admissible
        assert rep.range_residual == 0.0 and rep.quadratic_form == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            admissible(standard_channel("identity", 2), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_t_rejected(self, bad):
        ch = standard_channel("depolarising", 2)
        t = np.full((2, 2), 0.1, dtype=complex)
        t[1, 0] = bad
        with pytest.raises(ValueError, match=r"^t has a non-finite entry .* at index \(1, 0\)$"):
            admissible(ch, t)
        with pytest.raises(ValueError, match=r"^t has a non-finite entry"):
            realize(ch, t)

    @pytest.mark.parametrize("scale", [1e155, 1e200, 1e308])
    def test_finite_t_whose_norm_overflows_rejected(self, scale):
        # every entry is finite; the sum of squares in the norm overflows
        ch = standard_channel("depolarising", 2)
        t = np.array([[scale, 0.0], [0.0, 0.0]])
        for solve in (admissible, realize):
            with pytest.raises(ValueError, match=r"^t has a norm that overflows"):
                solve(ch, t)


class TestRealize:
    def test_identity_half(self):
        ch = standard_channel("identity", 2)
        impl = realize(ch, 0.5 * np.eye(2))
        assert len(impl.channel.kraus) == 1
        assert abs(abs(impl.env[0]) - 0.5) <= 1e-12
        assert np.allclose(transformation_matrix(impl), 0.5 * np.eye(2), atol=1e-12)

    def test_depolarising_spike_roundtrip(self):
        ch = standard_channel("depolarising", 2)
        t = spike(2)
        impl = realize(ch, t)
        assert np.max(np.abs(transformation_matrix(impl) - t)) <= 1e-12

    def test_phase_flip_env_support(self):
        p = 0.3
        ch = standard_channel("phase_flip", 2, p)
        impl = realize(ch, np.sqrt(p) * SIGMA_Z)
        # canonical Kraus are proportional to identity and sigma_z; the env
        # must sit entirely on the sigma_z one.
        weights = [
            (abs(amp), np.max(np.abs(np.abs(k) - np.abs(SIGMA_Z) * np.sqrt(p))))
            for amp, k in zip(impl.env, impl.channel.kraus)
        ]
        for amp, is_z in weights:
            if is_z <= 1e-12:
                assert abs(amp - 1.0) <= 1e-12
            else:
                assert amp <= 1e-12

    def test_inadmissible_rejected_with_diagnostics(self):
        ch = standard_channel("identity", 2)
        with pytest.raises(ValueError, match="residual"):
            realize(ch, SIGMA_X)

    def test_range_refusal_names_the_range_residual(self):
        ch = standard_channel("identity", 2)
        with pytest.raises(ValueError) as info:
            realize(ch, SIGMA_X / 2)
        message = str(info.value)
        assert "range residual 1.000e+00, above RANGE_TOL = 1e-08" in message
        assert "quadratic form" not in message

    def test_bound_refusal_names_the_quadratic_form(self):
        ch = standard_channel("identity", 2)
        with pytest.raises(ValueError) as info:
            realize(ch, np.sqrt(1.0 + 5e-7) * np.eye(2))
        message = str(info.value)
        assert "quadratic form 1 + 5.000e-07, above 1 + 1e-08 = 1 + BOUND_TOL" in message
        assert "range residual" not in message

    @pytest.mark.parametrize("p", [1e-9, 1e-12, 1e-15])
    def test_tiny_weight_phase_flip_dilation(self, p):
        # The T of a genuine dilation that puts all environment weight on the
        # sqrt(p) sigma_z Kraus operator; its Choi weight p is far below any
        # relative rank cutoff on C, but its singular value sqrt(p) on V is not.
        impl = standard_implementation("phase_flip", p=p, alpha=0.0, beta=1.0)
        t = transformation_matrix(impl)
        rep = admissible(impl.channel, t)
        assert rep.admissible
        assert rep.range_residual <= 1e-12
        assert abs(rep.quadratic_form - 1.0) <= 1e-12
        rebuilt = transformation_matrix(realize(impl.channel, t))
        assert np.max(np.abs(rebuilt - t)) <= 1e-12

    def test_realises_t_at_the_admissibility_bound(self):
        # ||env||^2 = 1 + 5e-9 lies inside the rounding allowance of admissible,
        # so realize must build that dilation rather than reject it.
        ch = standard_channel("identity", 2)
        t = np.sqrt(1.0 + 5e-9) * np.eye(2)
        assert admissible(ch, t).admissible
        impl = realize(ch, t)
        assert abs(float(np.sum(np.abs(impl.env) ** 2)) - (1.0 + 5e-9)) <= 1e-15
        assert np.max(np.abs(transformation_matrix(impl) - t)) <= 1e-15

    def test_roundtrip_random(self):
        rng = np.random.default_rng(2)
        for d in (2, 3):
            for _ in range(10):
                ch = random_channel(d, int(rng.integers(1, d * d + 1)), rng)
                t = random_admissible_t(ch, rng)
                impl = realize(ch, t)
                assert np.max(np.abs(transformation_matrix(impl) - t)) <= 1e-10


class TestChoiCrossCheck:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_choi_pseudoinverse_route(self, d):
        rng = np.random.default_rng(100 + d)
        for trial in range(8):
            k = int(rng.integers(1, d * d + 1))
            ch = random_channel(d, k, rng)
            if trial % 2:
                # A taller isometry makes the Kraus set linearly dependent.
                ch = remix(ch, haar_isometry(k + int(rng.integers(1, 4)), k, rng))
            t = random_admissible_t(ch, rng)
            gaussian = 0.1 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            for m in (t, 1.5 * t, gaussian):
                rep = admissible(ch, m)
                residual, qform = choi_route(ch, m)
                in_range = residual <= RANGE_TOL
                assert rep.admissible == (in_range and qform <= 1.0 + BOUND_TOL)
                assert (rep.range_residual <= RANGE_TOL) == in_range
                if in_range:
                    assert abs(rep.quadratic_form - qform) <= 1e-9
                if not rep.admissible:
                    with pytest.raises(ValueError, match="not admissible"):
                        realize(ch, m)
                    continue
                impl = realize(ch, m)
                assert impl.channel is ch
                env_sq = float(np.sum(np.abs(impl.env) ** 2))
                assert abs(env_sq - rep.quadratic_form) <= 1e-12
                assert env_sq <= 1.0
                assert np.max(np.abs(transformation_matrix(impl) - m)) <= 1e-10


def off_range(ch, t, rng):
    """``t`` plus a component outside range(V) of a tenth of its norm, or a
    Gaussian matrix of that size when V spans every d x d matrix."""
    d = ch.dim
    v = kraus_matrix(ch)
    g = (rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)).astype(complex)
    perp = g - v @ np.linalg.lstsq(v, g, rcond=None)[0]
    scale = 0.1 * max(np.linalg.norm(t), 1.0 / d)
    if np.linalg.norm(perp) <= 1e-6 * np.linalg.norm(g):
        return scale * g.reshape(d, d) / np.linalg.norm(g)
    return t + scale * perp.reshape(d, d) / np.linalg.norm(perp)


def dependent_inputs():
    rng = np.random.default_rng(300)
    for d in (2, 3, 4):
        for k in (1, 2, d + 1, d * d):
            ch = random_channel(d, k, rng)
            ch = remix(ch, haar_isometry(k + int(rng.integers(1, 5)), k, rng))
            yield ch, random_admissible_t(ch, rng), rng


def tiny_weight_inputs():
    rng = np.random.default_rng(301)
    for p in (1e-9, 1e-12, 1e-15):
        for alpha, beta in ((0.0, 1.0), (0.6, 0.8j), (1.0, 0.0)):
            impl = standard_implementation("phase_flip", p=p, alpha=alpha, beta=beta)
            yield impl.channel, transformation_matrix(impl), rng


def random_inputs(d):
    rng = np.random.default_rng(302 + d)
    for k in (1, d, d * d // 2, d * d):
        ch = random_channel(d, k, rng)
        yield ch, random_admissible_t(ch, rng), rng


def ill_conditioned_inputs():
    """Kraus sets far outside the Gram route, where V is factored by SVD:
    a phase flip at p = 1e-16, kappa(V) = 1e8, inside the lstsq cutoff; a
    phase flip at p = 1e-32, kappa(V) = 1e16, beyond it; a partial
    depolarising channel at q = 1 - 1e-30, which rounds to 1, so that its
    Weyl columns are exact zeros.  Between kappa(V) ~ 1e9 and the cutoff,
    lstsq is no reference at 1e-9 (see TestIllConditionedExact)."""
    rng = np.random.default_rng(303)
    for p in (1e-16, 1e-32):
        for alpha, beta in ((0.0, 1.0), (0.6, 0.8j), (1.0, 0.0)):
            impl = standard_implementation("phase_flip", p=p, alpha=alpha, beta=beta)
            yield impl.channel, transformation_matrix(impl), rng
    for d in (2, 4):
        ch = standard_channel("partial_depolarising", d, 1.0 - 1e-30)
        impl = ChannelImplementation(ch, random_env(len(ch.kraus), rng))
        yield ch, transformation_matrix(impl), rng


PARITY_FAMILIES = {
    "dependent": dependent_inputs,
    "ill-conditioned": ill_conditioned_inputs,
    "tiny-weight": tiny_weight_inputs,
    "random-d8": lambda: random_inputs(8),
    "random-d16": lambda: random_inputs(16),
}


class TestLstsqParity:
    """The Kraus-space solve agrees with a fresh ``lstsq`` on V, on dependent
    Kraus sets, tiny Kraus weights and d up to 16, for T, 1.5 T and an
    off-range T."""

    @pytest.mark.parametrize("family", sorted(PARITY_FAMILIES))
    def test_matches_lstsq_reference(self, family):
        accepted = refused = 0
        for ch, t, rng in PARITY_FAMILIES[family]():
            for m in (t, 1.5 * t, off_range(ch, t, rng)):
                residual, qform = lstsq_route(ch, m)
                ok = residual <= RANGE_TOL and qform <= 1.0 + BOUND_TOL
                rep = admissible(ch, m)
                assert rep.admissible == ok
                assert (rep.range_residual <= RANGE_TOL) == (residual <= RANGE_TOL)
                assert abs(rep.quadratic_form - qform) <= 1e-9
                if not ok:
                    with pytest.raises(ValueError, match="not admissible"):
                        realize(ch, m)
                    refused += 1
                    continue
                impl = realize(ch, m)
                assert np.max(np.abs(transformation_matrix(impl) - m)) <= 1e-10
                accepted += 1
        assert accepted > 0 and refused > 0


def count_factorizations(monkeypatch):
    """Record (name, shape) of every call to the ``np.linalg`` functions
    ``qr``, ``svd``, ``eigh``, ``cholesky`` and ``inv``."""
    calls = []

    def counting(name):
        fn = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            calls.append((name, a.shape))
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    for name in ("qr", "svd", "eigh", "cholesky", "inv"):
        counting(name)
    return calls


def exact_quadratic_form(ch, t):
    """||V^+ t||^2 in exact rational arithmetic, for a V whose columns are
    exactly orthogonal, as those of a phase flip are: sum_j |<v_j|t>|^2 / ||v_j||^4."""
    v = kraus_matrix(ch)
    tvec = np.asarray(t, dtype=complex).reshape(-1)
    total = Fraction(0)
    for col in v.T:
        norm_sq = sum(Fraction(x.real) ** 2 + Fraction(x.imag) ** 2 for x in col)
        re = sum(Fraction(c.real) * Fraction(x.real) + Fraction(c.imag) * Fraction(x.imag)
                 for c, x in zip(col, tvec))
        im = sum(Fraction(c.real) * Fraction(x.imag) - Fraction(c.imag) * Fraction(x.real)
                 for c, x in zip(col, tvec))
        total += (re ** 2 + im ** 2) / norm_sq ** 2
    return float(total)


class TestIllConditionedExact:
    """Phase flips at kappa(V) = 1e10 and 1e12, on the SVD route.  Their
    quadratic forms are checked against the exact one, not against lstsq:
    lstsq misses it by up to about 3e-6 on the off-range inputs here."""

    @pytest.mark.parametrize("p", [1e-20, 1e-24])
    def test_quadratic_form_is_exact(self, p):
        rng = np.random.default_rng(305)
        for alpha, beta in ((0.0, 1.0), (0.6, 0.8j), (1.0, 0.0)):
            impl = standard_implementation("phase_flip", p=p, alpha=alpha, beta=beta)
            ch, t = impl.channel, transformation_matrix(impl)
            for m in (t, 1.5 * t, off_range(ch, t, rng)):
                rep = admissible(ch, m)
                assert abs(rep.quadratic_form - exact_quadratic_form(ch, m)) <= 1e-12
            assert rep.range_residual > 0.05 and not rep.admissible
            rebuilt = transformation_matrix(realize(ch, t))
            assert np.max(np.abs(rebuilt - t)) <= 1e-15

    @pytest.mark.parametrize("q", [1.0 - 1e-12, 1.0 - 1e-14, 1.0 - 1e-16])
    @pytest.mark.parametrize("d", [2, 4])
    def test_genuine_partial_depolarising_t_is_realized(self, q, d):
        # the d^2 Weyl columns are orthogonal, with weights down to
        # sqrt(1 - q) / d: V is square, of full rank, kappa(V) ~ 1e6 to 1e8
        rng = np.random.default_rng(306)
        ch = standard_channel("partial_depolarising", d, q)
        for _ in range(3):
            env = random_env(len(ch.kraus), rng)
            t = transformation_matrix(ChannelImplementation(ch, env))
            rep = admissible(ch, t)
            assert rep.admissible
            assert abs(rep.quadratic_form - float(np.vdot(env, env).real)) <= 1e-7
            assert np.max(np.abs(transformation_matrix(realize(ch, t)) - t)) <= 1e-12


class TestConditioningLimit:
    """The eps * kappa(V) limit the ``admissible`` docstring states: a genuine
    phase-flip T, whose exact quadratic form is 1, is refused at
    kappa(V) = 1e14 and accepted at 1e13."""

    @staticmethod
    def genuine(p):
        impl = standard_implementation("phase_flip", p=p, alpha=0.6, beta=0.8j)
        t = transformation_matrix(impl)
        assert abs(exact_quadratic_form(impl.channel, t) - 1.0) <= 1e-15
        return impl.channel, t

    def test_refused_at_kappa_1e14(self):
        ch, t = self.genuine(1e-28)
        rep = admissible(ch, t)
        assert 1e-6 < rep.quadratic_form - 1.0 < 1e-4
        assert rep.range_residual <= RANGE_TOL and not rep.admissible
        with pytest.raises(ValueError, match=r"quadratic form 1 \+ "):
            realize(ch, t)

    def test_accepted_at_kappa_1e13(self):
        ch, t = self.genuine(1e-26)
        rep = admissible(ch, t)
        assert abs(rep.quadratic_form - 1.0) <= BOUND_TOL and rep.admissible
        assert np.max(np.abs(transformation_matrix(realize(ch, t)) - t)) <= 1e-15


class TestFactorization:
    """One factorization of V per channel, held by the channel and shared by
    every draw and solve on it: on the Gram matrix G = V^dag V where a shifted Cholesky proves
    kappa(V) < 1e4, an SVD of V elsewhere."""

    def test_one_factorization_for_many_solves_on_one_channel(self, monkeypatch):
        rng = np.random.default_rng(310)
        ch = random_channel(3, 4, rng)
        calls = count_factorizations(monkeypatch)
        # draws and solves on one channel share its factorization
        ts = [random_admissible_t(ch, rng) for _ in range(5)]
        for t in ts:
            rep = admissible(ch, t)
            assert rep.admissible
            # quadratic form 2.25: refused
            assert not admissible(ch, 1.5 * t / np.sqrt(rep.quadratic_form)).admissible
            realize(ch, t)
        # a random V is far inside the certificate: the Gram route alone
        assert calls == [("cholesky", (4, 4)), ("inv", (4, 4))]

    def test_dependent_set_takes_the_svd_route(self, monkeypatch):
        rng = np.random.default_rng(312)
        # six Kraus operators spanning four dimensions: G is singular, so the
        # certificate fails and V is factored by SVD
        ch = remix(random_channel(3, 4, rng), haar_isometry(6, 4, rng))
        calls = count_factorizations(monkeypatch)
        for _ in range(3):
            t = random_admissible_t(ch, rng)
            assert admissible(ch, t).admissible
            assert np.max(np.abs(transformation_matrix(realize(ch, t)) - t)) <= 1e-10
        assert calls == [("cholesky", (6, 6)), ("svd", (9, 6))]

    def test_more_kraus_operators_than_d_squared_make_one_svd(self, monkeypatch):
        rng = np.random.default_rng(313)
        ch = remix(random_channel(2, 4, rng), haar_isometry(6, 4, rng))
        calls = count_factorizations(monkeypatch)
        t = random_admissible_t(ch, rng)
        assert admissible(ch, t).admissible
        assert calls == [("svd", (4, 6))]

    @pytest.mark.parametrize("p", [
        2.5e-9,  # kappa(V) = sqrt((1 - p) / p) = 2e4: just outside the certificate
        1e-20,  # kappa(V) = 1e10: well inside the cutoff 1 / (4 eps)
        1e-30,  # kappa(V) = 1e15: kept by the cutoff
        1e-32,  # kappa(V) = 1e16: beyond the cutoff
    ])
    def test_condition_picks_the_route(self, monkeypatch, p):
        impl = standard_implementation("phase_flip", p=p, alpha=0.0, beta=1.0)
        calls = count_factorizations(monkeypatch)
        admissible(impl.channel, transformation_matrix(impl))
        assert calls == [("cholesky", (2, 2)), ("svd", (4, 2))]

    def test_solved_channel_is_freed_with_its_caller(self):
        # the factor lives on the channel: a channel solved on is not kept
        # alive by it once its caller drops it
        rng = np.random.default_rng(311)
        ch = random_channel(3, 4, rng)
        admissible(ch, random_admissible_t(ch, rng))
        ref = weakref.ref(ch)
        del ch
        gc.collect()
        assert ref() is None


class TestGramRoute:
    """Solves on G = V^dag V with one refinement step agree with lstsq at
    the certificate's boundary.  A channel's first solve holds G and forms
    no inverse; its second inverts G once, so a draw and the solves after
    it make one Gram inverse."""

    @pytest.mark.parametrize("kind", ["phase_flip", "bit_flip"])
    @pytest.mark.parametrize("p, gram", [
        (4e-8, True),  # kappa(V) = sqrt((1 - p) / p) = 5e3: just inside 1e4
        (2.5e-9, False),  # kappa(V) = 2e4: just outside
    ])
    def test_route_boundary(self, monkeypatch, kind, p, gram):
        rng = np.random.default_rng(330)
        for alpha, beta in ((0.0, 1.0), (0.6, 0.8j), (1.0, 0.0)):
            impl = standard_implementation(kind, p=p, alpha=alpha, beta=beta)
            ch, t = impl.channel, transformation_matrix(impl)
            calls = count_factorizations(monkeypatch)
            admissible(ch, t)
            names = [name for name, _ in calls]
            assert names == (["cholesky"] if gram else ["cholesky", "svd"])
            for m in (t, 1.5 * t, off_range(ch, t, rng)):
                residual, qform = lstsq_route(ch, m)
                ok = residual <= RANGE_TOL and qform <= 1.0 + BOUND_TOL
                rep = admissible(ch, m)
                assert rep.admissible == ok
                assert (rep.range_residual <= RANGE_TOL) == (residual <= RANGE_TOL)
                assert abs(rep.quadratic_form - qform) <= 1e-9
                if ok:
                    impl = realize(ch, m)
                    assert np.max(np.abs(transformation_matrix(impl) - m)) <= 1e-10
                else:
                    with pytest.raises(ValueError, match="not admissible"):
                        realize(ch, m)

    def test_realize_pair_after_another_solve_makes_no_factorization(self, monkeypatch):
        # as in dilation-d8: T drawn on ch, a solve on another channel, then
        # realize(ch, T); the factor the draws made is the one realize uses
        rng = np.random.default_rng(331)
        ch = random_channel(4, 9, rng)
        t1, t2 = random_admissible_t(ch, rng), random_admissible_t(ch, rng)
        admissible(random_channel(4, 3, rng), t1)
        calls = count_factorizations(monkeypatch)
        realize(ch, t1)
        realize(ch, t2)
        assert calls == []

    def test_draw_then_realize_makes_one_gram_inverse(self, monkeypatch):
        rng = np.random.default_rng(332)
        ch = random_channel(4, 9, rng)
        calls = count_factorizations(monkeypatch)
        t = random_admissible_t(ch, rng)
        realize(ch, t)
        realize(ch, 0.5 * t)
        # the draw is a solve: it factors V, and both realize calls reuse it
        assert calls == [("cholesky", (9, 9)), ("inv", (9, 9))]

    def test_draw_takes_the_gram_inverse_at_once(self, monkeypatch):
        # a draw is nearly always followed by realize on the same channel, so
        # it inverts G at once: no LU solve with G, in the draw or after it
        rng = np.random.default_rng(336)
        ch = random_channel(4, 9, rng)
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        t = random_admissible_t(ch, rng)
        realize(ch, t)
        realize(ch, 0.5 * t)
        assert solves == []

    @pytest.mark.parametrize("d, k", [(2, 1), (3, 4), (4, 16)])
    def test_one_solve_holds_g_and_forms_no_inverse(self, monkeypatch, d, k):
        rng = np.random.default_rng(334 + k)
        impl = random_implementation(d, k, rng)
        ch = impl.channel
        calls = count_factorizations(monkeypatch)
        assert admissible(ch, impl.t).admissible
        assert calls == [("cholesky", (k, k))]
        v = kraus_matrix(ch)
        gram = ch._kraus_gram
        assert gram.shape == (k, k) and not gram.flags.writeable
        assert np.array_equal(gram, v.conj().T @ v)
        assert "_kraus_factor" not in vars(ch)

    def test_second_solve_inverts_g_once_and_third_not(self, monkeypatch):
        rng = np.random.default_rng(335)
        impl = random_implementation(4, 9, rng)
        ch, t = impl.channel, impl.t
        first = admissible(ch, t)
        calls = count_factorizations(monkeypatch)
        second = admissible(ch, t)
        assert calls == [("inv", (9, 9))]
        # G^-1 is held in the place of G, so the channel holds one 9 x 9 array
        assert "_kraus_gram" not in vars(ch) and _factor(ch).shape == (9, 9)
        assert np.max(np.abs(realize(ch, t).env - impl.env)) <= 1e-12
        assert calls == [("inv", (9, 9))]
        assert abs(first.quadratic_form - second.quadratic_form) <= 1e-12
        assert first.range_residual <= 1e-14 and second.range_residual <= 1e-14

    def test_more_kraus_operators_than_d_squared_never_take_it(self, monkeypatch):
        rng = np.random.default_rng(333)
        for d, k in ((2, 5), (3, 10), (3, 12)):
            ch = remix(random_channel(d, d * d, rng), haar_isometry(k, d * d, rng))
            calls = count_factorizations(monkeypatch)
            t = random_admissible_t(ch, rng)
            for m in (t, 1.5 * t, off_range(ch, t, rng)):
                admissible(ch, m)
            assert [name for name, _ in calls] == ["svd"]


class TestHeldFactor:
    """On the Gram route a channel holds G^-1 alone, and the solve forms
    V^dag t from the Kraus stack, bitwise as a product with V^dag would."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("kraus", ["1", "d", "d^2"])
    def test_gram_factor_is_one_small_array_and_solves_bitwise(self, d, kraus):
        k = {"1": 1, "d": d, "d^2": d * d}[kraus]
        rng = np.random.default_rng(350 + d * d + k)
        ch = random_channel(d, k, rng)
        ts = [random_admissible_t(ch, rng), rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))]
        ginv = _factor(ch)
        assert isinstance(ginv, np.ndarray) and ginv.shape == (k, k)
        assert not ginv.flags.writeable
        assert ginv.nbytes <= ch.kraus.nbytes
        v = kraus_matrix(ch)
        vh = v.conj().T
        for t in ts:
            tvec = t.reshape(-1)
            coeff = ginv @ (vh @ tvec)
            coeff += ginv @ (vh @ (tvec - v @ coeff))
            assert _solve(ch, t)[1].tobytes() == coeff.tobytes()


class TestRandomAdmissibleT:
    @pytest.mark.parametrize("family", sorted(PARITY_FAMILIES))
    def test_draws_are_admitted_and_realized(self, family):
        for ch, _, rng in PARITY_FAMILIES[family]():
            for _ in range(5):
                t = random_admissible_t(ch, rng)
                rep = admissible(ch, t)
                assert rep.admissible
                assert rep.quadratic_form < 1.0
                impl = realize(ch, t)
                assert np.max(np.abs(transformation_matrix(impl) - t)) <= 1e-10
                if family == "tiny-weight":
                    # both singular directions get alike coefficients; the
                    # sqrt(p) sigma_z one is divided by the far smaller
                    # singular value, so it carries nearly all of ||env||^2
                    weight = float(np.sum(np.abs(impl.env) ** 2))
                    assert abs(impl.env[1]) ** 2 >= 0.99 * weight

    def test_quadratic_form_is_uniform(self):
        # 400 draws: the count below 1/2 is binomial(400, 1/2), 200 +- 10
        rng = np.random.default_rng(323)
        ch = random_channel(3, 5, rng)
        qforms = [admissible(ch, random_admissible_t(ch, rng)).quadratic_form for _ in range(400)]
        assert 160 <= sum(q < 0.5 for q in qforms) <= 240
        assert max(qforms) < 1.0


DRAW_CHANNELS = {
    "random-d3": lambda rng: random_channel(3, 4, rng),  # Gram route
    # kappa(V) = 2e4, just outside the certificate: SVD route
    "phase-flip-2e4": lambda rng: standard_implementation(
        "phase_flip", p=2.5e-9, alpha=1.0, beta=0.0).channel,
    # six Kraus operators spanning four dimensions: SVD route
    "dependent": lambda rng: remix(random_channel(3, 4, rng), haar_isometry(6, 4, rng)),
}


class TestDrawDistribution:
    """Draws lie in range(V), and their directions are isotropic there.

    A draw is T = s P g for a Gaussian g, P the projector onto range(V) and
    s > 0 a scale that depends on the direction of P g through V^+, so the
    isotropy is that of T / ||T||.  Its squared overlaps w_i = |<b_i|T>|^2 /
    ||T||^2 on an orthonormal basis b_1..b_r of range(V) are each
    Beta(1, r - 1): mean 1/r and variance (r - 1) / (r^2 (r + 1)).  Over n
    draws each sample mean is within 5 standard deviations of 1/r but with
    probability below 1e-6.  A draw that favoured the large singular
    directions of V, such as V c for Gaussian Kraus coefficients c, puts
    nearly all the weight of the phase flip on one of its two directions."""

    DRAWS = 2000

    @pytest.mark.parametrize("name", sorted(DRAW_CHANNELS))
    def test_draws_are_isotropic_on_the_range(self, name):
        rng = np.random.default_rng(340)
        ch = DRAW_CHANNELS[name](rng)
        v = kraus_matrix(ch)
        u, s, _ = np.linalg.svd(v, full_matrices=False)
        basis = u[:, s > 1e-12 * s[0]]
        r = basis.shape[1]
        weights = np.empty((self.DRAWS, r))
        for n in range(self.DRAWS):
            t = random_admissible_t(ch, rng).reshape(-1)
            overlaps = basis.conj().T @ t
            norm = np.linalg.norm(t)
            assert np.linalg.norm(t - basis @ overlaps) <= 1e-12 * norm
            weights[n] = np.abs(overlaps) ** 2 / norm**2
        sigma = np.sqrt((r - 1) / (r * r * (r + 1)))
        bound = 5.0 * sigma / np.sqrt(self.DRAWS)
        assert np.max(np.abs(weights.mean(axis=0) - 1.0 / r)) <= bound


class TestStandardImplementation:
    @pytest.mark.parametrize("kind", ["depolarising", "partial_depolarising"])
    def test_non_square_target_rejected(self, kind):
        q = 0.5 if kind == "partial_depolarising" else None
        with pytest.raises(ValueError, match=r"shape \(2, 3\) does not match channel dimension 2"):
            standard_implementation(kind, q=q, t=0.1 * np.ones((2, 3)))

    @pytest.mark.parametrize("kind, kwargs, unused", [
        ("depolarising", {"q": 0.3, "t": np.eye(2) / 2}, "q"),
        ("depolarising", {"d": 5, "q": 0.3, "t": np.eye(2) / 2}, "d or q"),
        ("depolarising", {"d": 2, "t": np.eye(2) / 2}, "d"),
        ("partial_depolarising", {"d": 2, "q": 0.3, "t": np.eye(2) / 2}, "d"),
        ("phase_flip", {"d": 2, "p": 0.5, "alpha": 1.0, "beta": 0.0}, "d"),
        ("bit_flip", {"d": 3, "p": 0.5, "alpha": 1.0, "beta": 0.0}, "d"),
        ("identity", {"alpha": 1.0, "t": np.eye(2)}, "t"),
        ("phase_flip", {"p": 0.5, "alpha": 1.0, "beta": 0.0, "q": 0.5}, "q"),
        ("partial_depolarising", {"q": 0.3, "t": np.eye(2) / 2, "alpha": 1.0}, "alpha"),
    ])
    def test_unused_keywords_refused(self, kind, kwargs, unused):
        with pytest.raises(ValueError, match=f"^{kind} implementation takes no {unused}$"):
            standard_implementation(kind, **kwargs)

    @pytest.mark.parametrize("kind", ["phase_flip", "bit_flip"])
    def test_flip_families_are_qubit_only(self, kind):
        assert standard_implementation(kind, p=0.5, alpha=1.0, beta=0.0).dim == 2

    def test_depolarising_spike_env_pattern(self):
        impl = standard_implementation("depolarising", t=spike(2))
        # overlaps Tr[U_i^dag T] over the Weyl order (1, Z, X, XZ):
        # (1/sqrt(2)) * (1, 1, 0, 0)
        expected = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
        assert np.allclose(impl.env, expected, atol=1e-12)
        assert np.max(np.abs(transformation_matrix(impl) - spike(2))) <= 1e-12

    @pytest.mark.parametrize("kind, d, q", [
        ("depolarising", 2, None),
        ("depolarising", 3, None),
        ("depolarising", 16, None),
        ("partial_depolarising", 2, 0.3),
        ("partial_depolarising", 3, 1.0),
    ])
    @pytest.mark.parametrize("qform", [1.0 - 5e-9, 1.0 + 5e-9, 1.0 + 2e-8])
    def test_accepts_exactly_what_admissible_accepts(self, kind, d, q, qform):
        ch = standard_channel(kind, d, q)
        t0 = np.eye(d, dtype=complex) if q == 1.0 else np.diag(np.linspace(1.0, 0.5, d))
        t = t0 * np.sqrt(qform / admissible(ch, t0).quadratic_form)
        verdict = admissible(ch, t).admissible
        assert verdict == (qform <= 1.0 + BOUND_TOL)
        if verdict:
            impl = standard_implementation(kind, q=q, t=t)
            assert np.max(np.abs(transformation_matrix(impl) - t)) <= 1e-12
        else:
            with pytest.raises(ValueError, match=r"not admissible.*quadratic form 1 \+ "):
                standard_implementation(kind, q=q, t=t)

    @pytest.mark.parametrize("kind, kwargs, needs", [
        ("depolarising", {}, "t"),
        ("partial_depolarising", {"q": 0.5}, "q and t"),
        ("partial_depolarising", {"t": np.eye(2) / 2}, "q and t"),
    ])
    def test_missing_target_named(self, kind, kwargs, needs):
        with pytest.raises(ValueError, match=f"^{kind} implementation needs {needs}$"):
            standard_implementation(kind, **kwargs)

    def test_identity_alpha_one(self):
        impl = standard_implementation("identity", d=3, alpha=1.0)
        assert np.allclose(impl.env, [1.0])
        assert np.allclose(transformation_matrix(impl), np.eye(3), atol=1e-14)

    def test_identity_alpha_too_large(self):
        with pytest.raises(ValueError, match="alpha"):
            standard_implementation("identity", d=2, alpha=1.5)

    def test_identity_alpha_excess_is_printed(self):
        with pytest.raises(ValueError, match=r"\|alpha\| = 1 \+ 2\.000e-09 exceeds 1"):
            standard_implementation("identity", d=2, alpha=1.0 + 2e-9)

    def test_depolarising_constraint_violated(self):
        t = np.eye(2, dtype=complex)  # Tr[T^dag T] = 2 > 1/2
        with pytest.raises(ValueError, match="not admissible"):
            standard_implementation("depolarising", t=t)

    def test_partial_depolarising_general(self):
        rng = np.random.default_rng(3)
        q, d = 0.6, 2
        ch = standard_channel("partial_depolarising", d, q)
        for _ in range(10):
            t = random_admissible_t(ch, rng)
            impl = standard_implementation("partial_depolarising", q=q, t=t)
            assert np.max(np.abs(transformation_matrix(impl) - t)) <= 1e-10
            # membership constraint quoted on the trace form
            lhs = np.trace(dagger(t) @ t) - d * q / (d * d * q + 1 - q) * abs(np.trace(t)) ** 2
            assert np.real(lhs) <= (1 - q) / d + 1e-9

    def test_partial_depolarising_rejects_outside(self):
        q, d = 0.5, 2
        t = np.eye(d, dtype=complex)  # trace form: 2 - (1/2.5)*4 = 0.4 > 0.25
        with pytest.raises(ValueError, match="not admissible"):
            standard_implementation("partial_depolarising", q=q, t=t)

    def test_partial_depolarising_weight_excess_is_printed(self):
        # at q = 1 the whole weight sits on the identity amplitude Tr[T] / d
        t = np.sqrt(1.0 + 2e-8) * np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match=r"quadratic form 1 \+ 2\.000e-08"):
            standard_implementation("partial_depolarising", q=1.0, t=t)

    def test_partial_depolarising_q_one(self):
        impl = standard_implementation(
            "partial_depolarising", q=1.0, t=0.4 * np.eye(2, dtype=complex)
        )
        assert np.max(np.abs(transformation_matrix(impl) - 0.4 * np.eye(2))) <= 1e-12
        with pytest.raises(ValueError, match="range"):
            standard_implementation("partial_depolarising", q=1.0, t=spike(2))

    def test_flip_families(self):
        p = 0.25
        alpha, beta = 0.6, 0.8
        for kind, pauli in (("phase_flip", SIGMA_Z), ("bit_flip", SIGMA_X)):
            impl = standard_implementation(kind, p=p, alpha=alpha, beta=beta)
            expected = alpha * np.sqrt(1 - p) * np.eye(2) + beta * np.sqrt(p) * pauli
            assert np.max(np.abs(transformation_matrix(impl) - expected)) <= 1e-12

    def test_flip_constraint(self):
        with pytest.raises(ValueError, match="exceeds"):
            standard_implementation("phase_flip", p=0.5, alpha=1.0, beta=0.5)


    @pytest.mark.parametrize("kind", ["phase_flip", "bit_flip"])
    def test_flip_weight_excess_is_printed(self, kind):
        with pytest.raises(
            ValueError, match=r"\|alpha\|\^2 \+ \|beta\|\^2 = 1 \+ 2\.000e-09 exceeds 1"
        ):
            standard_implementation(kind, p=0.5, alpha=1.0, beta=np.sqrt(2e-9))

    @pytest.mark.parametrize(
        "alpha, beta", [(1e200, 0.0), (0.0, 1e200j), (1e155, 1e155)], ids=["alpha", "beta", "sum"]
    )
    def test_flip_weight_overflow_is_refused_by_name(self, alpha, beta):
        # a finite amplitude whose square overflows reads inf, not OverflowError
        with pytest.raises(ValueError, match=r"\|alpha\|\^2 \+ \|beta\|\^2 = 1 \+ inf exceeds 1"):
            standard_implementation("phase_flip", p=0.1, alpha=alpha, beta=beta)


class TestProperties:
    def test_forward_completeness(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            d = int(rng.integers(2, 4))
            impl = random_implementation(d, int(rng.integers(1, d * d + 1)), rng)
            rep = admissible(impl.channel, transformation_matrix(impl))
            assert rep.admissible
            assert rep.quadratic_form <= 1.0 + 1e-8

    def test_representation_covariance(self):
        # remixing the Kraus list by u while sending env -> u env leaves T fixed
        rng = np.random.default_rng(5)
        for _ in range(10):
            impl = random_implementation(2, 3, rng)
            u = haar_isometry(3, 3, rng)
            remixed = ChannelImplementation(remix(impl.channel, u), u @ impl.env)
            before = transformation_matrix(impl)
            after = transformation_matrix(remixed)
            assert np.max(np.abs(after - before)) <= 1e-10

    def test_depolarising_specialisation(self):
        rng = np.random.default_rng(6)
        depol = standard_channel("depolarising", 2)
        for _ in range(40):
            target = rng.uniform(0.0, 1.0)
            if abs(target - 0.5) < 1e-3:
                continue
            t = random_depolarising_t(2, rng, hs_norm_sq=target)
            assert admissible(depol, t).admissible == (target <= 0.5)

    def test_env_uses_weyl_overlaps(self):
        # amplitudes of the depolarising family are conjugated Weyl overlaps
        rng = np.random.default_rng(7)
        d = 3
        t = random_depolarising_t(d, rng)
        impl = standard_implementation("depolarising", t=t)
        for amp, u in zip(impl.env, weyl_basis(d)):
            assert abs(np.conj(amp) - np.trace(dagger(u) @ t)) <= 1e-12

    def test_candidates_share_choi(self):
        ch = standard_channel("depolarising", 2)
        a = realize(ch, spike(2))
        b = realize(ch, -spike(2))
        assert np.max(np.abs(choi_of(a.channel) - choi_of(b.channel))) <= 1e-12

    def test_random_env_norm_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            env = random_env(5, rng)
            assert np.sum(np.abs(env) ** 2) <= 1.0 + 1e-12
