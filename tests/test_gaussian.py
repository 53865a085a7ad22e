"""Tests for the correlation-matrix domain model."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

import _expm_fixtures
from gsep.gaussian import (
    _SQUEEZE_MAX,
    BipartiteCM,
    CMError,
    _direct_sum,
    momentum_flip,
    partial_transpose,
    random_cm,
    random_covariance,
    random_separable_cm,
    random_symplectic,
    symplectic_form,
    tmss,
    validate_cm,
)

COSH2 = 3.7621956910836314  # cosh(2)
SINH2 = 3.626860407847019   # sinh(2)
# gamma - iJ of pure states: Hermitian and PSD, and their real parts are valid CMs
TMSS_MINUS_IJ = tmss(1.0).gamma - 1j * symplectic_form(2)
ONE_MODE_MINUS_IJ = np.eye(2) - 1j * symplectic_form(1)


class TestSymplecticForm:
    def test_single_mode(self):
        np.testing.assert_array_equal(symplectic_form(1), [[0.0, -1.0], [1.0, 0.0]])

    def test_direct_sum_structure(self):
        for n, m in [(1, 1), (2, 1), (2, 3)]:
            np.testing.assert_array_equal(
                symplectic_form(n + m),
                block_diag(symplectic_form(n), symplectic_form(m)),
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_antisymmetric_and_squares_to_minus_identity(self, n):
        j = symplectic_form(n)
        np.testing.assert_array_equal(j.T, -j)
        np.testing.assert_array_equal(j @ j, -np.eye(2 * n))

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            symplectic_form(0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cached_read_only_kron_form(self, n):
        j = symplectic_form(n)
        np.testing.assert_array_equal(j, np.kron(np.eye(n), [[0.0, -1.0], [1.0, 0.0]]))
        assert symplectic_form(n) is j
        with pytest.raises(ValueError):
            j[0, 1] = 5.0


def test_direct_sum_matches_scipy_block_diag_exactly():
    rng = np.random.default_rng(8)
    for n, m in [(1, 1), (2, 1), (1, 3), (4, 2)]:
        a = rng.standard_normal((2 * n, 2 * n))
        b = rng.standard_normal((2 * m, 2 * m))
        out = _direct_sum(a, b)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, block_diag(a, b))


@pytest.mark.parametrize("n, m", [(1, 2), (3, 1)])
def test_block_builder_matches_np_block_for_a_rectangular_coupling(n, m):
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2 * n, 2 * n))
    b = rng.standard_normal((2 * m, 2 * m))
    c = rng.standard_normal((2 * n, 2 * m))
    np.testing.assert_array_equal(_direct_sum(a, b, c), np.block([[a, c], [c.T, b]]))
    cm = BipartiteCM.from_blocks(a + a.T, b + b.T, c)
    np.testing.assert_array_equal(cm.gamma, np.block([[cm.A, c], [c.T, cm.B]]))


class TestValidateCm:
    def test_vacuum_is_boundary_valid(self):
        report = validate_cm(np.eye(4))
        assert report.is_psd
        assert report.lambda_min == pytest.approx(0.0, abs=1e-12)

    def test_below_vacuum_fails(self):
        report = validate_cm(0.5 * np.eye(2))
        assert not report.is_psd
        assert report.lambda_min == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.5])
    def test_tmss_valid_for_all_squeezing(self, r):
        report = validate_cm(tmss(r))
        assert report.is_psd
        # pure states saturate: the smallest eigenvalue sits at zero
        assert abs(report.lambda_min) < 1e-9 * max(1.0, np.cosh(2 * r))

    def test_rejects_odd_dimension(self):
        with pytest.raises(CMError, match="even"):
            validate_cm(np.eye(3))

    def test_rejects_asymmetric(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-3
        with pytest.raises(CMError, match="not symmetric"):
            validate_cm(bad)

    def test_rejects_non_finite(self):
        bad = np.eye(4)
        bad[0, 0] = np.inf
        with pytest.raises(CMError, match="non-finite"):
            validate_cm(bad)

    def test_rejects_non_square(self):
        with pytest.raises(CMError, match=r"gamma must be square, got shape \(4, 6\)"):
            validate_cm(np.zeros((4, 6)))

    def test_noise_keeps_validity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            gamma = random_covariance(2, "mixed", seed=rng)
            r = rng.standard_normal((4, 4))
            assert validate_cm(gamma + r @ r.T).is_psd


class TestCovarianceMatrix:
    def test_symmetrizes_roundoff(self):
        gamma = np.eye(4)
        gamma[0, 3] = 1e-14
        cm = BipartiteCM.from_gamma(gamma, 1)
        np.testing.assert_array_equal(cm.gamma, cm.gamma.T)
        assert validate_cm(gamma).is_psd

    def test_entries_above_half_the_largest_float_do_not_overflow(self):
        # warnings are errors here, so an overflowing sum fails the test too
        cm = BipartiteCM.from_gamma(1e308 * np.eye(4), 1, 1)
        np.testing.assert_array_equal(cm.gamma, 1e308 * np.eye(4))
        bad = 1e308 * np.eye(4)
        bad[0, 1], bad[1, 0] = 1.7e308, -1.7e308
        with pytest.raises(CMError, match="not symmetric"):
            BipartiteCM.from_gamma(bad, 1, 1)

    def test_array_is_read_only(self):
        gamma = random_covariance(1, seed=0)
        with pytest.raises(ValueError):
            gamma[0, 0] = 2.0


class TestBipartiteCM:
    def test_split_assemble_round_trip(self):
        rng = np.random.default_rng(5)
        gamma = random_covariance(3, "mixed", seed=rng)
        cm = BipartiteCM.from_gamma(gamma, 2, 1)
        assert (cm.n, cm.m) == (2, 1)
        np.testing.assert_array_equal(cm.gamma, gamma)

    def test_split_infers_m(self):
        cm = BipartiteCM.from_gamma(np.eye(6), 1)
        assert (cm.n, cm.m) == (1, 2)

    def test_split_rejects_bad_mode_count(self):
        with pytest.raises(CMError, match="mode split"):
            BipartiteCM.from_gamma(np.eye(4), 2, 1)

    def test_from_blocks_shape_check(self):
        with pytest.raises(CMError, match="incompatible"):
            BipartiteCM.from_blocks(np.eye(2), np.eye(2), np.zeros((2, 4)))

    def test_from_blocks_rejects_non_finite_coupling(self):
        with pytest.raises(CMError, match="C contains non-finite entries"):
            BipartiteCM.from_blocks(np.eye(2), np.eye(2), np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_distinct_b_block_is_still_checked(self):
        with pytest.raises(CMError, match="B is not symmetric"):
            BipartiteCM.from_blocks(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 2)))

    def test_block_validity_of_valid_state(self):
        # the blocks of a valid state are valid single-party states
        cm = random_cm(2, 1, "mixed", seed=11)
        assert validate_cm(cm.A).is_psd and validate_cm(cm.B).is_psd

    def test_gamma_property_matches_assemble(self):
        cm = tmss(0.7)
        np.testing.assert_array_equal(cm.gamma, np.block([[cm.A, cm.C], [cm.C.T, cm.B]]))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["pure", "mixed", "separable"]))
    def test_from_gamma_reproduces_the_blocks_read_only(self, n, m, seed, kind):
        if kind == "separable":
            cm = random_separable_cm(n, m, seed=seed)[0]
        else:
            cm = random_cm(n, m, kind, seed=seed)
        again = BipartiteCM.from_gamma(cm.gamma, n, m)
        assert (again.n, again.m) == (n, m)
        # ingested once: every block is a view of the one symmetrized gamma
        base = again.A.base
        assert base is not None and base.shape == cm.gamma.shape
        for block in ("A", "B", "C"):
            got, want = getattr(again, block), getattr(cm, block)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), block
            assert not got.flags.writeable and got.base is base, block

    @pytest.mark.parametrize("build, name", [
        (lambda: BipartiteCM.from_gamma(TMSS_MINUS_IJ, 1, 1), "gamma"),
        (lambda: validate_cm(TMSS_MINUS_IJ), "gamma"),
        (lambda: BipartiteCM.from_blocks(ONE_MODE_MINUS_IJ, np.eye(2), np.zeros((2, 2))), "A"),
        (lambda: BipartiteCM.from_blocks(np.eye(2), ONE_MODE_MINUS_IJ, np.zeros((2, 2))), "B"),
        (lambda: BipartiteCM.from_blocks(np.eye(2), np.eye(2), 0.1j * np.eye(2)), "C"),
    ], ids=["from_gamma", "validate_cm", "from_blocks-A", "from_blocks-B", "from_blocks-C"])
    def test_complex_entries_are_refused(self, build, name):
        # a cast to float would drop the imaginary parts with only a ComplexWarning
        with pytest.raises(CMError, match=f"^{name} must be real, got complex entries$"):
            build()


class TestTmss:
    def test_zero_squeezing_is_vacuum(self):
        np.testing.assert_allclose(tmss(0.0).gamma, np.eye(4), atol=1e-15)

    def test_blocks_match_symplectic_construction(self):
        # Independent oracle: gamma = S S^T for the two-mode squeezer
        #   x1' = ch x1 + sh x2,  p1' = ch p1 - sh p2  (and 1 <-> 2),
        # with ch = cosh(r), sh = sinh(r) acting on the vacuum.
        for r in [0.1, 0.5, 1.0, 2.0]:
            ch, sh = np.cosh(r), np.sinh(r)
            s = np.array([
                [ch, 0.0, sh, 0.0],
                [0.0, ch, 0.0, -sh],
                [sh, 0.0, ch, 0.0],
                [0.0, -sh, 0.0, ch],
            ])
            np.testing.assert_allclose(tmss(r).gamma, s @ s.T, atol=1e-12)

    def test_frozen_values_at_r_one(self):
        cm = tmss(1.0)
        np.testing.assert_allclose(cm.A, COSH2 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(cm.B, COSH2 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(cm.C, SINH2 * np.diag([1.0, -1.0]), atol=1e-14)

    def test_rejects_negative_squeezing(self):
        with pytest.raises(ValueError):
            tmss(-0.1)

    @pytest.mark.parametrize("r", [-1.0, float("nan"), float("inf"), 355.0, 400.0])
    def test_rejects_squeezing_outside_its_range_naming_r(self, r):
        # above the cap, cosh(2r) overflows or the state's blocks would
        with pytest.raises(ValueError, match=r"squeezing parameter r must lie in \[0, 354\]"):
            tmss(r)

    def test_largest_squeezing_is_finite(self):
        assert np.all(np.isfinite(tmss(354.0).gamma))


class TestPartialTranspose:
    def test_involution(self):
        cm = random_cm(2, 2, "mixed", seed=3)
        back = partial_transpose(partial_transpose(cm))
        np.testing.assert_allclose(back.gamma, cm.gamma, atol=1e-14)

    def test_momentum_flip_squares_to_identity(self):
        f = momentum_flip(3)
        np.testing.assert_array_equal(f @ f, np.eye(6))

    def test_product_state_stays_valid(self):
        rng = np.random.default_rng(17)
        a = random_covariance(1, "mixed", seed=rng)
        b = random_covariance(2, "mixed", seed=rng)
        cm = BipartiteCM.from_blocks(a, b, np.zeros((2, 4)))
        flipped = partial_transpose(cm)
        np.testing.assert_allclose(flipped.A, a, atol=1e-14)
        assert validate_cm(flipped).is_psd

    def test_tmss_blocks(self):
        # flipping the second momentum turns diag(1, -1) into the identity
        flipped = partial_transpose(tmss(1.0))
        np.testing.assert_allclose(flipped.A, COSH2 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(flipped.B, COSH2 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(flipped.C, SINH2 * np.eye(2), atol=1e-14)

    def test_tmss_transpose_margin(self):
        # lambda_min(gamma_pt - iJ) = exp(-2r) - 1, frozen at r = 1
        report = validate_cm(partial_transpose(tmss(1.0)))
        assert not report.is_psd
        assert report.lambda_min == pytest.approx(np.exp(-2.0) - 1.0, abs=1e-12)


def _two_draws_from_one_generator(seed):
    gen = np.random.default_rng(seed)
    return np.stack([random_cm(1, 1, seed=gen).gamma for _ in range(2)])


class TestRandomGenerators:
    def test_random_symplectic_preserves_form(self):
        rng = np.random.default_rng(19)
        for n in [1, 2, 3]:
            s = random_symplectic(n, rng)
            j = symplectic_form(n)
            residual = np.abs(s @ j @ s.T - j).max()
            assert residual <= 1e-9 * max(1.0, np.abs(s).max() ** 2)

    def test_random_symplectic_rejects_zero_modes(self):
        with pytest.raises(ValueError, match="n_modes must be >= 1, got 0"):
            random_symplectic(0, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_squeezing_is_bounded_at_any_mode_count(self, n):
        # a pure state's spectrum is exp(+-2 r_i), so cond <= exp(4 r_max)
        eigs = np.linalg.eigvalsh(random_covariance(n, "pure", seed=n))
        bound = np.exp(2.0 * _SQUEEZE_MAX) * (1.0 + 1e-9)
        assert eigs[-1] <= bound and 1.0 / eigs[0] <= bound

    def test_pure_states_have_unit_determinant(self):
        for seed in range(5):
            gamma = random_covariance(2, "pure", seed=seed)
            sign, logdet = np.linalg.slogdet(gamma)
            assert sign == 1.0
            assert abs(logdet) < 1e-8

    def test_pure_states_are_valid(self):
        for seed in range(5):
            assert validate_cm(random_covariance(2, "pure", seed=seed)).is_psd

    def test_mixed_states_are_strictly_inside(self):
        for seed in range(5):
            report = validate_cm(random_covariance(2, "mixed", seed=seed))
            assert report.is_psd
            assert report.lambda_min > 0.0

    def test_seed_determinism(self):
        first = random_cm(2, 1, "mixed", seed=123)
        second = random_cm(2, 1, "mixed", seed=123)
        np.testing.assert_array_equal(first.gamma, second.gamma)
        third = random_cm(2, 1, "mixed", seed=124)
        assert np.abs(first.gamma - third.gamma).max() > 1e-6

    @pytest.mark.parametrize("make, digest", [
        (lambda: _expm_fixtures.random_cm(2, 2, seed=5).gamma,
         "2deb5303df92a8a3bdcc8e021974f061b5ae8773e86a2bcda0ec4c1fd692f5c5"),
        (lambda: _expm_fixtures.random_separable_cm(2, 3, seed=11)[0].gamma,
         "c6f02998ef3ae00b2100c29767c389de60e9035713f2d4f18dd35d4453cae7bf"),
        (lambda: random_cm(2, 2, seed=5).gamma,
         "4da9fa983004bfc400bf432191cba6f065a45518e68891a5ba6602822f2ef3d8"),
        (lambda: random_separable_cm(2, 3, seed=11)[0].gamma,
         "83a15dc18afad2105a5b448e2ded06b24151e8fc80d9cf6b9cb36fefaa1f26e5"),
        (lambda: _two_draws_from_one_generator(7),
         "a26ab61ebd286f08dae1c3e386442387b7a2fd8449d31fca126b00d80c3c5c4f"),
    ])
    def test_seeded_populations_are_pinned_bit_for_bit(self, make, digest):
        # digests of the float64 bytes.  The test-only expm generators
        # seed every population the tests and the acceptance gates were
        # measured on; the public generators fix what `gsep gen --seed N`
        # writes, and a Generator passed as `seed` is advanced in place
        assert hashlib.sha256(make().tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n, m", [(-1, 1), (1, 0), (0, 0)])
    def test_rejects_empty_party_naming_both(self, n, m):
        for make in (random_cm, random_separable_cm):
            with pytest.raises(ValueError, match=f"at least one mode, got n={n} and m={m}"):
                make(n, m, seed=0)

    def test_rejects_unknown_purity(self):
        with pytest.raises(ValueError, match="purity"):
            random_covariance(1, "thermal")

    def test_random_separable_construction(self):
        cm, gamma_a, gamma_b = random_separable_cm(2, 1, seed=42)
        assert validate_cm(gamma_a).is_psd
        assert validate_cm(gamma_b).is_psd
        diff = cm.gamma - block_diag(gamma_a, gamma_b)
        assert np.linalg.eigvalsh(diff)[0] >= -1e-12
