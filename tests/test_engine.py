"""Tests for the decision iteration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from _expm_fixtures import random_cm, random_covariance, random_separable_cm
import gsep.engine as engine
import gsep.gaussian as gaussian
from gsep.certify import reconstruct, verify_certificate
from gsep.engine import (
    BracketError,
    REASON_BLOCK_ENTANGLED,
    REASON_CONE_ENTANGLED,
    REASON_MAX_ITER,
    REASON_NORM_GAP_SEPARABLE,
    VerdictKind,
    decide,
    decide_robust,
    find_threshold,
    map_step,
    sweep,
)
from gsep.gaussian import (
    BipartiteCM,
    InvalidCMError,
    _direct_sum,
    random_symplectic,
    symplectic_form,
    tmss,
)
from gsep.matlin import DEFAULT_TOL, psd_check, trace_norm
from gsep.ppt import ppt_check

J1 = np.array([[0.0, -1.0], [1.0, 0.0]])
EPS_STAR_R1 = 1.0 - np.exp(-2.0)  # identity-noise threshold of tmss(1.0)


def vacuum(n=1, m=1):
    return BipartiteCM.from_blocks(np.eye(2 * n), np.eye(2 * m), np.zeros((2 * n, 2 * m)))


def noisy_tmss(r, t):
    """``tmss(r) + (eps* + t) I``, whose transpose-test margin is exactly ``t``."""
    return engine._shifted(tmss(r), 1.0 - np.exp(-2.0 * r) + t)


# transpose-test margins on either side of the threshold, outside the band
OFF_BAND = st.one_of(
    st.floats(1e-10, 1e-8), st.floats(-1e-8, -1e-10), st.floats(1e-8, 1e-6))


class TestMapStep:
    def test_product_state_keeps_a_block(self):
        rng = np.random.default_rng(10)
        a = random_covariance(2, "mixed", rng=rng)
        b = random_covariance(1, "mixed", rng=rng)
        cm = BipartiteCM.from_blocks(a, b, np.zeros((4, 2)))
        out = map_step(cm)
        np.testing.assert_allclose(out.A, a, atol=1e-12)
        np.testing.assert_allclose(out.C, np.zeros((4, 4)), atol=1e-12)

    @pytest.mark.parametrize("r", [0.05, 0.1, 0.5, 1.0, 2.0])
    def test_tmss_closed_form(self, r):
        # For A = B = cosh(2r) I and C = sinh(2r) diag(1, -1) the Schur
        # complement is exactly [[ch, i], [-i, ch]], so the image has
        # A' = 0 and C' = [[0, -1], [1, 0]].
        out = map_step(tmss(r))
        assert np.abs(out.A).max() <= 1e-10
        np.testing.assert_allclose(out.C, J1, atol=1e-10)

    def test_matches_independent_pseudoinverse(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            cm = random_cm(2, 1, "mixed", rng=rng)
            x = cm.C @ np.linalg.pinv(cm.B - 1j * symplectic_form(1), hermitian=True) @ cm.C.T
            out = map_step(cm)
            scale = max(1.0, np.abs(x).max())
            assert np.abs(out.A - (cm.A - x.real)).max() <= 1e-9 * scale
            assert np.abs(out.C - (-x.imag)).max() <= 1e-9 * scale

    def test_image_structure(self):
        cm = random_cm(1, 2, "mixed", seed=6)
        out = map_step(cm)
        assert out.n == out.m == cm.n
        np.testing.assert_array_equal(out.A, out.A.T)
        np.testing.assert_array_equal(out.B, out.A)
        np.testing.assert_array_equal(out.C, -out.C.T)

    def test_rejects_invalid_input(self):
        bad = BipartiteCM.from_blocks(0.5 * np.eye(2), 0.5 * np.eye(2), np.zeros((2, 2)))
        with pytest.raises(InvalidCMError, match="not a state"):
            map_step(bad)
        # opting out of validation applies the map regardless
        out = map_step(bad, validate=False)
        assert np.all(np.isfinite(out.gamma))


class TestTheoremChecks:
    """The two one-sided tests that ``decide`` applies to every iterate."""

    def test_entangled_fires_on_tmss_image(self):
        verdict = decide(tmss(1.0))
        assert verdict.kind is VerdictKind.ENTANGLED
        assert verdict.reason == REASON_BLOCK_ENTANGLED
        step = verdict.trace.steps[0]
        assert step.margin_A == pytest.approx(-1.0, abs=1e-12)
        assert step.margin_L < step.margin_A

    def test_separable_fires_on_vacuum_image(self):
        # margin_L is exactly 0, so a rule demanding margin_L > 0 would
        # send the vacuum to UNDECIDED
        verdict = decide(tmss(0.0))
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verdict.reason == REASON_NORM_GAP_SEPARABLE
        assert verdict.step == 1
        assert verdict.margin == 0.0

    def test_separable_fires_on_pure_product_image(self):
        # a pure product state: same exact zero margin as the vacuum
        verdict = decide(BipartiteCM.from_gamma(np.diag([2.0, 0.5, 1.0, 1.0]), 1, 1))
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verdict.step == 1
        assert verdict.margin == 0.0

    def test_neither_fires_in_between(self):
        # margin_A = 1 but ||C|| = 1.5 pushes margin_L to -0.5
        cm = BipartiteCM.from_blocks(2.0 * np.eye(2), 2.0 * np.eye(2), 1.5 * J1)
        step = engine._make_step(1, cm)
        assert step.margin_A == pytest.approx(1.0, abs=1e-12)
        assert step.margin_L == pytest.approx(-0.5, abs=1e-12)
        # iterates 1-3 of this state sit between the tests, inside the
        # CM cone, so decide goes on to step 4
        verdict = decide(random_cm(2, 2, "mixed", seed=37))
        assert verdict.step == 4
        for step in verdict.trace.steps[:-1]:
            assert step.margin_A > 0.1 and step.margin_L < -0.01
            assert step.margin_full > 0.0

    def test_margin_identity(self):
        # margin_L is the smallest eigenvalue of the norm-shifted block
        # A - ||C||_op I - iJ, checked against an eigensolve of that block
        verdict = decide(random_cm(2, 1, "mixed", seed=0))
        for step in verdict.trace.steps:
            d = step.A.shape[0]
            shifted = step.A - step.c_opnorm * np.eye(d) - 1j * symplectic_form(d // 2)
            eigs = np.linalg.eigvalsh(shifted)
            scale = max(1.0, float(np.abs(eigs).max()))
            assert abs(step.margin_L - eigs[0]) <= 1e-12 * scale


class TestDecisionBand:
    """Every termination test judges its margin by ``-decision_margin``."""

    @pytest.mark.parametrize("offset", [1e-9, 3e-10])
    def test_npt_state_inside_old_slack_is_entangled(self, offset):
        # the separable test used to accept margin_L down to -psd_tol * scale,
        # so these NPT states came back SEPARABLE at step 1
        cm = noisy_tmss(1.0, -offset)
        assert ppt_check(cm).margin < 0
        verdict = decide(cm)
        assert verdict.kind is VerdictKind.ENTANGLED
        assert verdict.step == 1
        assert verdict.margin < -DEFAULT_TOL.decision_margin
        assert verdict.margin == pytest.approx(-2 * offset, rel=1e-3)

    @settings(max_examples=200, deadline=None)
    @given(r=st.floats(0.05, 1.5), t=st.floats(-1e-8, -DEFAULT_TOL.decision_margin))
    def test_npt_tmss_never_separable(self, r, t):
        # margin_L is about 2t for these states, so the band covers
        # t in (-decision_margin / 2, 0) by design; no draw goes above
        # -decision_margin
        assert decide(noisy_tmss(r, t)).kind is not VerdictKind.SEPARABLE

    @settings(max_examples=150, deadline=None)
    @given(r=st.floats(0.05, 1.5), t=OFF_BAND, seed=st.integers(0, 2**32 - 1))
    def test_verdict_invariant_under_local_symplectic_maps(self, r, t, seed):
        cm = noisy_tmss(r, t)
        rng = np.random.default_rng(seed)
        local = _direct_sum(random_symplectic(1, rng), random_symplectic(1, rng))
        mapped = local @ cm.gamma @ local.T
        mapped = BipartiteCM.from_gamma((mapped + mapped.T) / 2.0, 1, 1)
        expected = VerdictKind.ENTANGLED if t < 0 else VerdictKind.SEPARABLE
        assert decide(cm).kind is expected
        assert decide(mapped).kind is expected

    @settings(max_examples=150, deadline=None)
    @given(r=st.floats(0.05, 1.5), t=OFF_BAND)
    def test_verdict_invariant_under_party_swap(self, r, t):
        cm = noisy_tmss(r, t)
        swapped = BipartiteCM.from_blocks(cm.B, cm.A, cm.C.T)
        assert decide(swapped).kind is decide(cm).kind


class TestDecide:
    def test_vacuum_separable_at_first_step(self):
        verdict = decide(vacuum())
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verdict.step == 1
        assert verdict.margin == pytest.approx(0.0, abs=1e-12)
        assert verdict.reason == REASON_NORM_GAP_SEPARABLE

    @pytest.mark.parametrize("r", [0.05, 0.5, 1.0, 2.0])
    def test_tmss_entangled_at_first_step(self, r):
        verdict = decide(tmss(r))
        assert verdict.kind is VerdictKind.ENTANGLED
        assert verdict.step == 1
        assert verdict.margin == pytest.approx(-1.0, abs=1e-10)
        assert verdict.reason == REASON_BLOCK_ENTANGLED

    def test_rejects_non_state(self):
        bad = BipartiteCM.from_blocks(0.5 * np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(InvalidCMError, match="not a state"):
            decide(bad)

    def test_one_refusal_for_decide_map_step_and_ppt_check(self):
        # a scaled-down tmss(1): structurally fine, but not a state
        good = tmss(1.0)
        bad = BipartiteCM.from_blocks(0.1 * good.A, 0.1 * good.B, 0.1 * good.C)
        messages = []
        for call in (decide, map_step, ppt_check):
            with pytest.raises(InvalidCMError) as info:
                call(bad)
            messages.append(str(info.value))
        margin = gaussian.validate_cm(bad).lambda_min
        assert messages == [f"input fails the CM test (margin {margin:.3e}); "
                            "not a state, refusing to classify"] * 3

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            decide(vacuum(), max_iter=0)

    def test_trace_records_everything(self):
        cm = random_cm(2, 2, "mixed", seed=37)  # separable in 4 steps
        verdict = decide(cm)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verdict.step == 4
        trace = verdict.trace
        assert trace.gamma0 is cm
        assert [s.index for s in trace.steps] == [1, 2, 3, 4]
        assert len(trace.c_opnorm_history) == 4
        # couplings shrink towards the separable verdict
        assert trace.c_opnorm_history[-1] < trace.c_opnorm_history[0]

    def test_undecided_when_iteration_budget_too_small(self):
        cm = random_cm(2, 2, "mixed", seed=37)
        verdict = decide(cm, max_iter=2)
        assert verdict.kind is VerdictKind.UNDECIDED
        assert verdict.step == 2
        assert verdict.reason == REASON_MAX_ITER
        assert len(verdict.trace.c_opnorm_history) == 2

    def test_both_entangled_termination_paths_occur(self):
        rng = np.random.default_rng(0)
        reasons = set()
        for _ in range(120):
            cm = random_cm(2, 1, "mixed", rng=rng)
            verdict = decide(cm)
            if verdict.kind is VerdictKind.ENTANGLED:
                reasons.add(verdict.reason)
        assert REASON_BLOCK_ENTANGLED in reasons
        assert REASON_CONE_ENTANGLED in reasons

    def test_iterates_preserve_block_symmetry(self):
        verdict = decide(random_cm(2, 1, "mixed", seed=0))
        for step in verdict.trace.steps:
            np.testing.assert_array_equal(step.A, step.A.T)
            np.testing.assert_array_equal(step.C, -step.C.T)


class TestIterationInvariants:
    def test_trace_norm_monotone_and_floored(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            cm = random_cm(2, 1, "mixed", rng=rng)
            verdict = decide(cm)
            norms = [trace_norm(cm.A)] + [s.a_trnorm for s in verdict.trace.steps]
            margins = [s.margin_full for s in verdict.trace.steps]
            for i, (prev, cur) in enumerate(zip(norms, norms[1:])):
                assert cur <= prev + 1e-10
                assert cur >= 2 * cm.n - 1e-9
                if i < len(margins) and margins[i] < -1e-9:
                    break  # the iterate left the CM cone; bound no longer applies

    def test_coupling_norms_bounded_by_trace_norm_drop(self):
        # along separable runs: sum of ||C_N||_op <= ||A_0||_tr - 2n
        rng = np.random.default_rng(15)
        checked = 0
        for _ in range(60):
            cm = random_cm(1, 1, "mixed", rng=rng)
            verdict = decide(cm)
            if verdict.kind is not VerdictKind.SEPARABLE:
                continue
            checked += 1
            budget = trace_norm(cm.A) - 2 * cm.n
            total = sum(verdict.trace.c_opnorm_history)
            assert total <= budget + 1e-8 * max(1.0, budget)
        assert checked >= 20

    def test_order_preserved_against_planted_blocks(self):
        # gamma_0 >= gamma_A + gamma_B (as a direct sum) forces every
        # iterate to dominate gamma_A + gamma_A
        rng = np.random.default_rng(16)
        for _ in range(15):
            cm, gamma_a, _ = random_separable_cm(2, 1, rng=rng)
            floor = block_diag(gamma_a, gamma_a)
            verdict = decide(cm)
            assert verdict.kind is VerdictKind.SEPARABLE
            for step in verdict.trace.steps:
                diff = step.as_cm().gamma - floor
                eigs = np.linalg.eigvalsh(diff)
                assert eigs[0] >= -1e-8 * max(1.0, abs(eigs[-1]))

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.sampled_from([(2, 2), (3, 1), (1, 3)]), seed=st.integers(0, 299),
           data=st.data())
    def test_mode_reordering_within_a_party_keeps_kind_and_step(self, sizes, seed, data):
        # margins move under the reordering (by 8% on the ill-conditioned
        # 1+3 seed 163), so only kind and step are compared
        n, m = sizes
        cm = random_cm(n, m, "mixed", seed=seed)
        modes = data.draw(st.permutations(range(n)))
        modes += [n + k for k in data.draw(st.permutations(range(m)))]
        order = [2 * k + q for k in modes for q in (0, 1)]
        permuted = BipartiteCM.from_gamma(cm.gamma[np.ix_(order, order)], n, m)
        before, after = decide(cm), decide(permuted)
        assert (after.kind, after.step) == (before.kind, before.step)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 99), noise_seed=st.integers(0, 3), scale=st.floats(0.0, 3.0))
    def test_psd_noise_keeps_a_separable_state_separable(self, seed, noise_seed, scale):
        cm = random_separable_cm(2, 2, seed=seed)[0]
        r = scale * np.random.default_rng(noise_seed).standard_normal((8, 8))
        noisy = BipartiteCM.from_gamma(cm.gamma + r @ r.T, 2, 2)
        verdict = decide(noisy)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verify_certificate(noisy, reconstruct(verdict.trace)).valid


class TestDecideRobust:
    def test_entangled_survives_identity_noise(self):
        verdict = decide_robust(tmss(1.0), eps=1e-6)
        assert verdict.kind is VerdictKind.ENTANGLED
        assert "+eps" in verdict.reason

    def test_separable_with_slack(self):
        rng = np.random.default_rng(23)
        gamma_a = random_covariance(1, "mixed", rng=rng)
        gamma_b = random_covariance(1, "mixed", rng=rng)
        eps = 1e-3
        cm = BipartiteCM.from_gamma(block_diag(gamma_a, gamma_b) + 2 * eps * np.eye(4), 1, 1)
        verdict = decide_robust(cm, eps=eps)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert "removing" in verdict.reason

    def test_vacuum_falls_back_to_plain_decide(self):
        # vacuum - eps I is not a state, so only the +eps run and the
        # plain run are available; the plain run decides
        verdict = decide_robust(vacuum(), eps=0.5)
        assert verdict.kind is VerdictKind.SEPARABLE

    def test_undecided_within_eps(self):
        # just inside the entangled region: +eps crosses the boundary,
        # -eps stays entangled, so neither one-sided inference applies
        cm = engine._shifted(tmss(1.0), EPS_STAR_R1 - 5e-3)
        verdict = decide_robust(cm, eps=1e-2)
        assert verdict.kind is VerdictKind.UNDECIDED
        assert "within eps" in verdict.reason

    def test_rejects_non_positive_eps(self):
        with pytest.raises(ValueError, match="eps"):
            decide_robust(vacuum(), eps=0.0)

    def test_shrunk_state_is_validated_once(self, monkeypatch):
        # the decide on gamma - eps I validates it; no separate pre-check
        shapes = []

        def counting(mat, tol=DEFAULT_TOL):
            shapes.append(np.shape(mat))
            return psd_check(mat, tol)

        for module in (gaussian, engine):
            monkeypatch.setattr(module, "psd_check", counting)
        verdict = decide_robust(random_separable_cm(1, 1, seed=0)[0], 1e-6)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert shapes == [(4, 4), (4, 4)]  # validate gamma + eps I, gamma - eps I


class TestSweep:
    def test_single_flip_across_threshold(self):
        grid = np.linspace(0.5, 1.2, 8)
        points = sweep(tmss(1.0), np.eye(4), grid)
        kinds = [p.kind for p in points]
        flips = sum(1 for a, b in zip(kinds, kinds[1:]) if a != b)
        assert flips == 1
        assert kinds[0] is VerdictKind.ENTANGLED
        assert kinds[-1] is VerdictKind.SEPARABLE
        assert [p.eps for p in points] == sorted(p.eps for p in points)

    def test_grid_is_sorted_before_running(self):
        points = sweep(tmss(1.0), np.eye(4), [1.2, 0.5])
        assert [p.eps for p in points] == [0.5, 1.2]

    def test_stop_after_separable(self):
        grid = np.linspace(0.5, 1.2, 8)
        points = sweep(tmss(1.0), np.eye(4), grid, stop_after_separable=True)
        assert points[-1].kind is VerdictKind.SEPARABLE
        assert all(p.kind is VerdictKind.ENTANGLED for p in points[:-1])
        assert len(points) < 8

    def test_separable_stays_separable_along_psd_ray(self):
        rng = np.random.default_rng(31)
        r = rng.standard_normal((4, 4))
        pert = r @ r.T
        points = sweep(random_cm(1, 1, "mixed", seed=1), pert, [0.0, 0.5, 1.0, 2.0])
        seen_separable = False
        for p in points:
            if seen_separable:
                assert p.kind is VerdictKind.SEPARABLE
            seen_separable = seen_separable or p.kind is VerdictKind.SEPARABLE

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="empty"):
            sweep(tmss(1.0), np.eye(4), [])
        with pytest.raises(ValueError, match="non-negative"):
            sweep(tmss(1.0), np.eye(4), [-1.0])

    def test_rejects_non_psd_perturbation(self):
        with pytest.raises(ValueError, match="PSD"):
            sweep(tmss(1.0), -np.eye(4), [0.1])

    def test_rejects_wrong_perturbation_shape(self):
        with pytest.raises(ValueError, match="shape"):
            sweep(tmss(1.0), np.eye(8), [0.1])


class TestFindThreshold:
    def test_already_separable_returns_zero(self):
        assert find_threshold(vacuum()) == 0.0

    def test_tmss_identity_threshold(self):
        # the exact value is 1 - exp(-2r); margin_L is about twice the
        # transpose-test margin, so the separable test fires from
        # decision_margin / 2 below it
        for r in (0.05, 0.5, 1.0, 2.0):
            threshold = find_threshold(tmss(r))
            assert abs(threshold - (1.0 - np.exp(-2.0 * r))) <= DEFAULT_TOL.decision_margin, r

    def test_bisection_keeps_bracket_invariant(self):
        cm = tmss(1.0)
        lo, hi = 0.0, 1.0
        assert decide(cm).kind is VerdictKind.ENTANGLED
        assert decide(engine._shifted(cm, hi)).kind is VerdictKind.SEPARABLE
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            verdict = decide(engine._shifted(cm, mid))
            if verdict.kind is VerdictKind.SEPARABLE:
                hi = mid
            else:
                lo = mid
            # invariant: lo side never separable, hi side always separable
            assert decide(engine._shifted(cm, hi)).kind is VerdictKind.SEPARABLE
            assert decide(engine._shifted(cm, lo)).kind is not VerdictKind.SEPARABLE
        assert lo < EPS_STAR_R1 + 1e-6 and hi > EPS_STAR_R1 - 1e-6

    def test_zero_perturbation_never_brackets(self):
        with pytest.raises(BracketError, match="eps_max"):
            find_threshold(tmss(1.0), np.zeros((4, 4)), eps_max=100.0)

    def test_undecided_base_raises(self):
        cm = random_cm(2, 2, "mixed", seed=37)  # needs 4 steps
        with pytest.raises(BracketError, match="undecided"):
            find_threshold(cm, max_iter=1)
