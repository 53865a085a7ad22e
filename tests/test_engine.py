"""Tests for the decision iteration."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import block_diag

from _expm_fixtures import random_cm, random_covariance, random_separable_cm
import gsep.engine as engine
import gsep.gaussian as gaussian
from gsep.certify import reconstruct, verify_certificate
from gsep.engine import (
    BracketError,
    REASON_ABS_GAP_SEPARABLE,
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
from gsep.io import load_cm
from gsep.matlin import DEFAULT_TOL, ToleranceConfig, _psd_by_cholesky, psd_check, trace_norm
from gsep.ppt import _flipped, ppt_check

J1 = np.array([[0.0, -1.0], [1.0, 0.0]])
WERNER_WOLF = Path(__file__).parent / "fixtures" / "ppt_entangled_2x2.json"  # PPT, entangled
EPS_STAR_R1 = 1.0 - np.exp(-2.0)  # identity-noise threshold of tmss(1.0)


def vacuum(n=1, m=1):
    return BipartiteCM.from_blocks(np.eye(2 * n), np.eye(2 * m), np.zeros((2 * n, 2 * m)))


def noisy_tmss(r, t):
    """``tmss(r) + (eps* + t) I``, whose transpose-test margin is exactly ``t``."""
    return engine._shifted(tmss(r), 1.0 - np.exp(-2.0 * r) + t)


# transpose-test margins on either side of the threshold, outside the band
OFF_BAND = st.one_of(
    st.floats(1e-10, 1e-8), st.floats(-1e-8, -1e-10), st.floats(1e-8, 1e-6))


def transpose_top(cm):
    """Top of ``cm``'s transpose bracket along the identity, as find_threshold takes it."""
    flipped = _flipped(cm)
    return engine._bisect(lambda eps: _psd_by_cholesky(flipped + eps * np.eye(len(flipped)), 0.0),
                          1e6, 1e-12)[1]


def record_probes(monkeypatch):
    """``(eps, kind)`` of every decide probe along the ray, the base verdict left out."""
    probes, pending = [], []
    shift, decide_ = engine._shifted, engine.decide

    def spy_shifted(cm, eps, pert=None):
        pending.append(eps)
        return shift(cm, eps, pert)

    def spy_decide(*args, **kwargs):
        verdict = decide_(*args, **kwargs)
        if pending:
            probes.append((pending.pop(), verdict.kind))
        return verdict

    monkeypatch.setattr(engine, "_shifted", spy_shifted)
    monkeypatch.setattr(engine, "decide", spy_decide)
    return probes


def assert_backed_by_verdicts(threshold, probes, eps_max, width):
    """A SEPARABLE probe above ``threshold`` and a non-SEPARABLE one below, ``width`` apart."""
    assert max(eps for eps, _ in probes) <= eps_max
    hi = min(eps for eps, kind in probes if kind is VerdictKind.SEPARABLE and eps >= threshold)
    lo = max(eps for eps, kind in probes if kind is not VerdictKind.SEPARABLE and eps <= threshold)
    assert max(hi - threshold, threshold - lo) <= 0.5 * width or np.nextafter(lo, hi) == hi


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

    def test_iterate_shares_its_a_block_as_b(self):
        out = map_step(tmss(0.5))
        assert out.B is out.A

    def test_overflowing_schur_complement_is_a_numerical_error(self):
        # the product overflows to inf; the caller gets NumericalError, not a warning
        cm = BipartiteCM.from_blocks(2 * np.eye(2), 2 * np.eye(2), 1e200 * np.eye(2))
        with pytest.raises(engine.NumericalError, match="non-finite"):
            map_step(cm, validate=False)

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
        # iterates 1-2 of this state sit between the tests, the |C| test
        # included, inside the CM cone, so decide goes on to step 3
        verdict = decide(random_cm(2, 2, "mixed", seed=341))
        assert verdict.step == 3
        for step in verdict.trace.steps[:-1]:
            assert step.margin_A > 0.1 and step.margin_L < -0.01
            assert step.margin_abs < -DEFAULT_TOL.decision_margin
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
        # every classifying entry point; a scaled-down tmss(1) is
        # structurally fine, but not a state, and gamma + eps I of the
        # near-state is a state again for small eps
        good = tmss(1.0)
        scaled = BipartiteCM.from_blocks(0.1 * good.A, 0.1 * good.B, 0.1 * good.C)
        near = BipartiteCM.from_gamma(good.gamma - 1e-3 * np.eye(4), 1, 1)
        calls = (decide, map_step, ppt_check, find_threshold,
                 lambda cm: sweep(cm, None, [0.5, 1.0]), lambda cm: decide_robust(cm, 0.01))
        for bad in (scaled, near):
            messages = []
            for call in calls:
                with pytest.raises(InvalidCMError) as info:
                    call(bad)
                messages.append(str(info.value))
            margin = gaussian.validate_cm(bad).lambda_min
            assert messages == [f"input fails the CM test (margin {margin:.3e}); "
                                "not a state, refusing to classify"] * 6

    def test_rejects_bad_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            decide(vacuum(), max_iter=0)

    def test_trace_records_everything(self):
        cm = random_cm(2, 2, "mixed", seed=341)  # separable in 3 steps
        verdict = decide(cm)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verdict.step == 3
        trace = verdict.trace
        assert trace.gamma0 is cm
        assert [s.index for s in trace.steps] == [1, 2, 3]
        assert [s.frame is not None for s in trace.steps] == [False, True, False]
        assert len(trace.c_opnorm_history) == 3
        # couplings shrink towards the separable verdict
        assert trace.c_opnorm_history[-1] < trace.c_opnorm_history[0]

    def test_undecided_when_iteration_budget_too_small(self):
        cm = random_cm(2, 2, "mixed", seed=341)
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


def near_boundary(k, delta, seed):
    """``k + k`` thermal TMSS pairs ``delta`` beyond their noise threshold, mixed locally.

    Each pair is separable exactly from ``1 - nu e^{-2r}`` of identity
    noise, and local symplectic maps keep the state separable; the
    benchmark's near-boundary states are built the same way.
    """
    rng = np.random.default_rng(seed)
    r, nu = rng.uniform(0.2, 0.6, k), rng.uniform(1.0, 1.2, k)
    ch = np.repeat(nu * np.cosh(2.0 * r), 2)
    sh = np.ravel(np.column_stack([nu * np.sinh(2.0 * r), -nu * np.sinh(2.0 * r)]))
    eps = float(np.max(1.0 - nu * np.exp(-2.0 * r))) + delta
    gamma = np.block([[np.diag(ch), np.diag(sh)], [np.diag(sh), np.diag(ch)]])
    local = _direct_sum(random_symplectic(k, rng), random_symplectic(k, rng))
    return BipartiteCM.from_gamma(local @ (gamma + eps * np.eye(4 * k)) @ local.T, k, k)


def locally_mapped(cm, seed):
    rng = np.random.default_rng(seed)
    local = _direct_sum(random_symplectic(cm.n, rng), random_symplectic(cm.m, rng))
    mapped = local @ cm.gamma @ local.T
    return BipartiteCM.from_gamma((mapped + mapped.T) / 2.0, cm.n, cm.m)


@st.composite
def framed_iterates(draw):
    """``(nu, C)`` of a framed iterate ``[[D, C], [C^T, D]]``, ``D = diag(nu_1, nu_1, ...)``.

    Each ``nu`` is a kernel mode of ``D - iJ``, exactly 1 or a
    tolerance-level step below it, or lies in ``[1.1, 20]``, where the
    eigensolve behind :func:`map_step` resolves ``nu - 1`` to a few
    ulps of ``nu + 1``.  ``C`` is antisymmetric.
    """
    n = draw(st.integers(1, 4))
    nu = np.array([draw(st.one_of(st.just(1.0), st.integers(1, 100).map(lambda k: 1.0 - k * 2e-16),
                                  st.floats(1.1, 20.0))) for _ in range(n)])
    entries = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    c = np.array(draw(st.lists(entries, min_size=4 * n * n, max_size=4 * n * n))).reshape(2 * n, 2 * n)
    return nu, c - c.T


class TestWilliamsonFrame:
    """The frame taken after the first undecided step, and the |C| test."""

    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("delta", [1e-4, 1e-6])
    def test_near_boundary_states_decide_in_two_steps(self, k, delta):
        # 7 to 11 steps without the frame; the certificate crosses the
        # frame on its way down and verifies against the original gamma
        cm = near_boundary(k, delta, seed=k)
        verdict = decide(cm)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verdict.step <= 2
        assert verdict.trace.steps[1].frame is not None
        assert verify_certificate(cm, reconstruct(verdict.trace)).valid

    def test_frame_is_symplectic_and_diagonalizes(self):
        # the frame returns the next iterate, mapped on from the framed
        # one, which it never assembles; assemble it here from S = T^{-1}
        iterate = map_step(random_cm(2, 2, "mixed", seed=341))
        after, t = engine._williamson_frame(iterate, DEFAULT_TOL)
        j = symplectic_form(2)
        s = np.linalg.inv(t)
        framed_a, framed_c = s @ iterate.A @ s.T, s @ iterate.C @ s.T
        nu = np.diag(framed_a)
        np.testing.assert_allclose(framed_a, np.diag(nu), atol=1e-12)
        np.testing.assert_allclose(nu[0::2], nu[1::2], atol=1e-12)
        np.testing.assert_allclose(t @ j @ t.T, j, atol=1e-12)
        np.testing.assert_allclose(t @ framed_a @ t.T, iterate.A, atol=1e-12)
        np.testing.assert_allclose(t @ framed_c @ t.T, iterate.C, atol=1e-12)
        framed = BipartiteCM.from_blocks(np.diag(nu), np.diag(nu), (framed_c - framed_c.T) / 2.0)
        want = map_step(framed, validate=False)
        assert after.B is after.A
        np.testing.assert_allclose(after.A, want.A, atol=1e-12)
        np.testing.assert_allclose(after.C, want.C, atol=1e-12)

    def test_two_step_verdict_runs_two_eigh_and_certifies_with_none(self, monkeypatch,
                                                                     lapack_calls):
        # decide: the pseudoinverse of step 1's map and the frame; iterate 2
        # comes from the frame in closed form.  reconstruct: every Schur
        # complement has a Cholesky factor far from the kernel cutoff
        cm = near_boundary(4, 1e-4, seed=4)
        lapack_calls.clear()
        verdict = decide(cm)
        in_decide = lapack_calls.shapes("eigh")
        lapack_calls.clear()
        cert = reconstruct(verdict.trace)
        in_reconstruct = lapack_calls.shapes("eigh")
        monkeypatch.undo()
        assert verdict.step == 2 and verdict.trace.steps[1].frame is not None
        assert in_decide == [(8, 8), (8, 8)]
        assert in_reconstruct == []
        assert verify_certificate(cm, cert).valid

    @settings(max_examples=200, deadline=None)
    @given(framed_iterates())
    def test_closed_form_step_equals_the_map_step(self, case):
        nu, c = case
        d = np.diag(np.repeat(nu, 2))
        got = engine._williamson_step(nu, c, DEFAULT_TOL)
        want = map_step(BipartiteCM.from_blocks(d, d, c), validate=False)
        assert got.B is got.A
        scale = max(1.0, float(np.abs(want.A).max()), float(np.abs(want.C).max()))
        assert float(np.abs(got.A - want.A).max()) <= 1e-13 * scale
        assert float(np.abs(got.C - want.C).max()) <= 1e-13 * scale

    def test_no_frame_without_a_cholesky_factor(self):
        indefinite = BipartiteCM.from_blocks(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]),
                                             np.zeros((2, 2)))
        assert engine._williamson_frame(indefinite, DEFAULT_TOL) is None

    def test_frame_that_fails_the_symplectic_check_is_skipped(self):
        # just past its threshold the state decides in two steps through
        # the frame.  At psd_tol 1e-15 the first iterate still has a
        # Cholesky factor, but rounding leaves S J S^T - J above the
        # tolerance, so the run goes on unnormalized, and longer
        cm = gaussian.random_cm(2, 2, seed=7)
        state = engine._shifted(cm, find_threshold(cm) + 1e-4)
        framed = decide(state)
        assert (framed.kind, framed.step) == (VerdictKind.SEPARABLE, 2)
        assert framed.trace.steps[1].frame is not None
        tight = ToleranceConfig(psd_tol=1e-15)
        iterate = map_step(state)
        np.linalg.cholesky(iterate.A)
        assert engine._williamson_frame(iterate, tight) is None
        unframed = decide(state, tight)
        assert (unframed.kind, unframed.step) == (VerdictKind.SEPARABLE, 6)
        assert all(step.frame is None for step in unframed.trace.steps)
        assert verify_certificate(state, reconstruct(unframed.trace, tight)).valid

    def test_ill_conditioned_input_takes_no_frame(self, monkeypatch):
        # a separable 2+2 state with both modes of one party squeezed by
        # e^13: the first iterate has no Cholesky factor, so the run goes on
        # unnormalized and ends as a run that never tries the frame ends.
        # Its verdict is decided by rounding (max|gamma| is 9e15), as it
        # was before the frame existed; only the absence of a frame is pinned
        rng = np.random.default_rng(4)
        squeeze = np.exp(np.outer([13.0, 13.0], [1.0, -1.0]).ravel())
        s_a = (gaussian._passive(2, rng) * squeeze) @ gaussian._passive(2, rng)
        local = _direct_sum(s_a, np.eye(4))
        mapped = local @ random_cm(2, 2, "mixed", seed=2644).gamma @ local.T
        cm = BipartiteCM.from_gamma((mapped + mapped.T) / 2.0, 2, 2)
        verdict = decide(cm)
        assert verdict.step >= 2
        assert all(step.frame is None for step in verdict.trace.steps)
        monkeypatch.setattr(engine, "_williamson_frame", lambda cm, tol: None)
        unframed = decide(cm)
        assert (verdict.kind, verdict.step, verdict.margin) == (
            unframed.kind, unframed.step, unframed.margin)

    def test_abs_test_fires_where_the_norm_test_does_not(self):
        verdict = decide(random_cm(2, 2, "mixed", seed=1563))
        assert verdict.reason == REASON_ABS_GAP_SEPARABLE
        final = verdict.trace.steps[-1]
        assert verdict.margin == final.margin_abs > DEFAULT_TOL.decision_margin
        assert final.margin_L < -DEFAULT_TOL.decision_margin
        # |C| = (C^T C)^{1/2}, and [[|C|, C], [C^T, |C|]] is PSD
        np.testing.assert_allclose(final.abs_C @ final.abs_C, final.C.T @ final.C, atol=1e-12)
        pair = np.block([[final.abs_C, final.C], [final.C.T, final.abs_C]])
        assert np.linalg.eigvalsh(pair)[0] >= -1e-12

    def test_one_mode_iterates_skip_the_abs_test(self):
        # on one mode |C| = ||C||_op I, so the norm test already decided it
        verdict = decide(random_cm(1, 2, "mixed", seed=0))
        assert verdict.step == 2 and verdict.trace.steps[1].frame is not None
        assert verdict.reason == REASON_NORM_GAP_SEPARABLE
        assert all("margin_abs" not in vars(step) for step in verdict.trace.steps)

    @settings(max_examples=40, deadline=None)
    @given(delta=st.floats(1e-4, 1e-2), state_seed=st.integers(0, 2**32 - 1),
           local_seed=st.integers(0, 2**32 - 1))
    def test_deep_verdicts_invariant_under_local_symplectic_maps(self, delta, state_seed,
                                                                 local_seed):
        # the frame switch runs on both sides: near-boundary 2+2 states stay
        # SEPARABLE with a valid certificate, and the PPT-entangled
        # Werner-Wolf state stays ENTANGLED under the same local map
        cm = near_boundary(2, delta, state_seed)
        verdict = decide(cm)
        assume(verdict.step >= 2)
        assert verdict.trace.steps[1].frame is not None
        mapped = locally_mapped(cm, local_seed)
        after = decide(mapped)
        assert after.kind is VerdictKind.SEPARABLE
        assert verify_certificate(mapped, reconstruct(after.trace)).valid
        bound = locally_mapped(load_cm(WERNER_WOLF), local_seed)
        assert decide(bound).kind is VerdictKind.ENTANGLED


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
                diff = BipartiteCM.from_blocks(step.A, step.A, step.C).gamma - floor
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

    def test_separable_evidence_belongs_to_the_shifted_state(self):
        cm = random_separable_cm(1, 1, seed=0)[0]
        verdict = decide_robust(cm, 1e-3)
        assert verdict.kind is VerdictKind.SEPARABLE
        shrunk = verdict.trace.gamma0
        assert np.array_equal(shrunk.gamma, engine._shifted(cm, -1e-3).gamma)
        cert = reconstruct(verdict.trace)
        assert verify_certificate(shrunk, cert).valid
        with pytest.raises(ValueError, match=r"does not reproduce the state: .* 1.000e-03$"):
            verify_certificate(cm, cert)

    def test_undecided_margin_is_the_shrunk_run_margin(self):
        # at the threshold, +eps is separable and -eps leaves the cone
        cm = noisy_tmss(1.0, 0.0)
        verdict = decide_robust(cm, 1e-3)
        minus = decide(engine._shifted(cm, -1e-3))
        assert verdict.kind is VerdictKind.UNDECIDED
        assert minus.reason == REASON_CONE_ENTANGLED
        assert verdict.margin == minus.margin == minus.trace.steps[-1].margin_full
        assert verdict.margin == pytest.approx(-2e-3, rel=1e-3)

    def test_rejects_non_positive_eps(self):
        for eps in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps"):
                decide_robust(vacuum(), eps=eps)

    def test_shrunk_state_is_validated_once(self, monkeypatch):
        # gamma is refused up front if it is no state; the decide on
        # gamma - eps I then validates that one, with no separate pre-check
        shapes = []

        def counting(mat, tol=DEFAULT_TOL):
            shapes.append(np.shape(mat))
            return psd_check(mat, tol)

        for module in (gaussian, engine):
            monkeypatch.setattr(module, "psd_check", counting)
        verdict = decide_robust(random_separable_cm(1, 1, seed=0)[0], 1e-6)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert shapes == [(4, 4)] * 3  # validate gamma, gamma + eps I, gamma - eps I


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

    def test_none_is_the_identity(self):
        grid = np.linspace(0.5, 1.2, 8)
        assert sweep(tmss(1.0), None, grid) == sweep(tmss(1.0), np.eye(4), grid)

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
        with pytest.raises(gaussian.CMError, match="^eps grid must be real, got complex entries$"):
            sweep(tmss(1.0), np.eye(4), [0.5 + 1e-3j])

    def test_rejects_non_psd_perturbation(self):
        # also before a non-state is refused
        near = BipartiteCM.from_gamma(tmss(1.0).gamma - 1e-3 * np.eye(4), 1, 1)
        for cm in (tmss(1.0), near):
            with pytest.raises(ValueError, match="PSD"):
                sweep(cm, -np.eye(4), [0.1])
            with pytest.raises(ValueError, match="PSD"):
                find_threshold(cm, -np.eye(4))

    def test_rejects_asymmetric_perturbation(self):
        # refused by the state's ingest rule before any probe
        pert = np.eye(4) + 0.25 * _direct_sum(J1, J1)
        for search in (lambda: sweep(tmss(1.0), pert, [0.1]),
                       lambda: find_threshold(tmss(1.0), pert)):
            with pytest.raises(gaussian.CMError,
                               match=r"perturbation is not symmetric \(residual 5.000e-01\)"):
                search()

    def test_rejects_complex_perturbation(self):
        # its real part, the identity, would be a valid perturbation
        for search in (lambda: sweep(tmss(1.0), np.eye(4) + 1e-3j, [0.1]),
                       lambda: find_threshold(tmss(1.0), np.eye(4) + 1e-3j)):
            with pytest.raises(gaussian.CMError,
                               match="^perturbation must be real, got complex entries$"):
                search()

    def test_rejects_wrong_perturbation_shape(self):
        with pytest.raises(ValueError, match="shape"):
            sweep(tmss(1.0), np.eye(8), [0.1])


@pytest.mark.usefixtures("probe_budget")
class TestFindThreshold:
    def test_already_separable_returns_zero(self):
        assert find_threshold(vacuum()) == 0.0

    def test_tmss_identity_threshold(self, probe_budget):
        # the exact value is 1 - exp(-2r); margin_L is about twice the
        # transpose-test margin, so the separable test fires from
        # decision_margin / 2 below it
        for r in (0.05, 0.5, 1.0, 2.0):
            probe_budget.clear()
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

    def test_threshold_coarser_than_width_returns(self, probe_budget):
        # 1e4 (1 - exp(-2)) has float spacing 1.8e-12, wider than the
        # default width, so bisection stops at adjacent floats
        threshold = find_threshold(tmss(1.0), 1e-4 * np.eye(4))
        assert abs(threshold / (1e4 * EPS_STAR_R1) - 1.0) <= 1e-8
        assert len(probe_budget) < 80

    def test_width_below_float_spacing_returns(self):
        threshold = find_threshold(tmss(1.0), width=1e-17)
        assert abs(threshold - EPS_STAR_R1) <= DEFAULT_TOL.decision_margin

    @pytest.mark.parametrize("width", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_width_that_bounds_nothing(self, width):
        with pytest.raises(ValueError, match="width must be positive and finite"):
            find_threshold(tmss(1.0), width=width)

    def test_zero_perturbation_never_brackets(self, probe_budget):
        # the transpose test fails up to eps_max, so no decide runs
        with pytest.raises(BracketError, match="eps_max"):
            find_threshold(tmss(1.0), np.zeros((4, 4)), eps_max=100.0)
        assert len(probe_budget) == 0

    def test_no_probe_goes_past_eps_max(self, monkeypatch):
        # ``bracketed``: every eps a search tests, by Cholesky or by decide;
        # ``decided``: every eps a decide probe runs at; ``factored``: every
        # matrix the transpose test factorizes
        bracketed, decided, factored = [], [], []
        bisect, shifted, cholesky = engine._bisect, engine._shifted, engine._psd_by_cholesky

        def spy_bisect(holds, *args):
            return bisect(lambda eps: bracketed.append(eps) or holds(eps), *args)

        def spy_shifted(cm, eps, pert=None):
            decided.append(eps)
            return shifted(cm, eps, pert)

        def spy_cholesky(herm, tau):
            if tau == 0.0:
                factored.append(herm)
            return cholesky(herm, tau)

        monkeypatch.setattr(engine, "_bisect", spy_bisect)
        monkeypatch.setattr(engine, "_shifted", spy_shifted)
        monkeypatch.setattr(engine, "_psd_by_cholesky", spy_cholesky)
        # tmss(1.0) fails the transpose test up to 0.5: no decide probe
        # runs, and the seeded bottom, capped at 0.5, is the one matrix
        # factorized
        cm = tmss(1.0)
        with pytest.raises(BracketError, match="eps_max=0.5"):
            find_threshold(cm, eps_max=0.5)
        assert bracketed == [0.5] and decided == []
        assert len(factored) == 1 and np.array_equal(factored[0], _flipped(cm) + 0.5 * np.eye(4))
        bracketed.clear()
        threshold = find_threshold(cm, eps_max=0.9)
        assert max(bracketed + decided) == 0.9
        assert abs(threshold - EPS_STAR_R1) <= DEFAULT_TOL.decision_margin
        # noise on party A alone has no seeded top; its threshold is 2 for
        # every r, where (cosh 2r + eps - 1)(cosh 2r - 1) = sinh^2 2r
        bracketed.clear()
        threshold = find_threshold(cm, np.diag([1.0, 1.0, 0.0, 0.0]), eps_max=3.0)
        assert max(bracketed + decided) == 3.0
        assert abs(threshold - 2.0) <= DEFAULT_TOL.decision_margin
        # the Werner-Wolf fixture passes the transpose test, so its search
        # probes decide from the verdict at 0
        decided.clear()
        with pytest.raises(BracketError, match="eps_max=0.05"):
            find_threshold(load_cm(WERNER_WOLF), eps_max=0.05)
        assert decided == [0.0, 0.05]
        decided.clear()
        find_threshold(load_cm(WERNER_WOLF))  # the default brackets at eps = 1
        assert decided[:3] == [0.0, 1.0, 0.5]

    @pytest.mark.parametrize("reason,field", [(REASON_BLOCK_ENTANGLED, "margin_A"),
                                              (REASON_CONE_ENTANGLED, "margin_full")])
    def test_crossing_aims_at_the_edge_of_the_band(self, reason, field):
        # the bottom fired at step 2 with margin -3e-10; the line through
        # it and the top's margin at step 2 is aimed at -decision_margin
        band = DEFAULT_TOL.decision_margin

        def verdicts(upper):
            steps = [SimpleNamespace(**{field: 1.0}), SimpleNamespace(**{field: upper})]
            at_hi = engine.Verdict(VerdictKind.SEPARABLE, 2, 0.0, REASON_NORM_GAP_SEPARABLE,
                                   SimpleNamespace(steps=steps))
            return engine.Verdict(VerdictKind.ENTANGLED, 2, -3e-10, reason, None), at_hi

        at_lo, at_hi = verdicts(1e-10)  # f = -2e-10 and +2e-10
        assert engine._crossing(0.0, at_lo, 1.0, at_hi, [1.0, 1.0], 1e-12, band) == \
            pytest.approx(0.5, rel=1e-12)
        # a top inside the band still brackets the band's edge
        at_lo, at_hi = verdicts(-0.5e-10)
        assert engine._crossing(0.0, at_lo, 1.0, at_hi, [1.0, 1.0], 1e-12, band) == \
            pytest.approx(0.8, rel=1e-12)
        # below the band's edge at both ends: no sign change, no proposal
        at_lo, at_hi = verdicts(-2e-10)
        assert engine._crossing(0.0, at_lo, 1.0, at_hi, [1.0, 1.0], 1e-12, band) is None

    def test_zero_perturbation_stops_after_the_base_verdict(self, probe_budget):
        # along P = 0 every eps decides the same state: an entangled
        # verdict at 0 is the last decide
        with pytest.raises(BracketError, match="zero perturbation"):
            find_threshold(load_cm(WERNER_WOLF), np.zeros((8, 8)))
        assert len(probe_budget) == 1

    def test_identity_transpose_bracket_takes_two_or_three_factorizations(self, monkeypatch):
        # along P = I one eigvalsh puts eps_PPT at -lambda_min(F): the
        # stage checks a bottom just below it and a top just above it, and
        # only the probes between them are factorized; the bracket is the
        # one an unseeded bisection from 0 finds
        factored = []
        cholesky = engine._psd_by_cholesky

        def spy_cholesky(herm, tau):
            if tau == 0.0:
                factored.append(None)
            return cholesky(herm, tau)

        monkeypatch.setattr(engine, "_psd_by_cholesky", spy_cholesky)
        states = [tmss(r) for r in (0.05, 0.5, 1.0, 2.0)]
        states += [gaussian.random_cm(n, m, purity, seed=seed)
                   for n, m in ((1, 1), (1, 2), (2, 1), (2, 2))
                   for purity in ("mixed", "pure") for seed in range(6)]
        width, checked = 1e-12, 0
        for cm in states:
            flipped = _flipped(cm)
            eigs = np.linalg.eigvalsh(flipped)
            if eigs[0] >= -DEFAULT_TOL.decision_margin:
                continue
            rounding = 4 * len(eigs) * np.finfo(float).eps * max(1.0, np.abs(eigs).max())
            factored.clear()
            threshold = find_threshold(cm, width=width)
            checked += 1
            assert len(factored) <= 3
            unseeded = engine._bisect(lambda eps: cholesky(flipped + eps * np.eye(len(eigs)), 0.0),
                                      1e6, width)
            assert threshold == 0.5 * sum(unseeded)
            assert abs(threshold + eigs[0]) <= 0.5 * width + rounding
        assert checked >= 30

    def test_rank_three_direction_brackets_by_doubling(self):
        # lambda_min(P) = 0 gives no seeded top, so the bracket doubles
        # from 1 as the unseeded search does, and only its probes above
        # the checked bottom are factorized
        cm = random_cm(2, 2, "mixed", rng=np.random.default_rng(2024))
        flipped = _flipped(cm)
        rng, width = np.random.default_rng(7), 1e-12
        for _ in range(3):
            r = rng.standard_normal((8, 3))
            pert = r @ r.T
            unseeded = engine._bisect(lambda eps: _psd_by_cholesky(flipped + eps * pert, 0.0),
                                      1e6, width)
            assert engine._transpose_bracket(flipped, pert, 1e6, width) == unseeded
            bisected = 0.5 * sum(engine._bisect(lambda eps: decide(
                engine._shifted(cm, eps, pert)).kind is VerdictKind.SEPARABLE, 1e6, width))
            assert abs(find_threshold(cm, pert, width=width) - bisected) <= 2 * width

    def test_transpose_bracket_needs_one_decide(self, probe_budget):
        # one SEPARABLE confirmation at the bracket's top
        states = [tmss(r) for r in (0.05, 0.5, 1.0, 2.0)]
        states += [cm for cm in (gaussian.random_cm(2, 2, seed=s) for s in range(8))
                   if not ppt_check(cm).ppt]
        assert len(states) >= 8
        for cm in states:
            probe_budget.clear()
            find_threshold(cm)
            assert len(probe_budget) == 1

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
           purity=st.sampled_from(["mixed", "pure"]), seed=st.integers(0, 2**32 - 1))
    def test_npt_threshold_sits_on_the_transpose_threshold(self, shape, purity, seed):
        cm = gaussian.random_cm(*shape, purity, seed=seed)
        report = ppt_check(cm)
        assume(not report.ppt)
        assert abs(find_threshold(cm) - (-report.margin)) <= 2e-12

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0.01, 3.0))
    def test_tmss_threshold_sits_on_the_transpose_threshold(self, r):
        cm = tmss(r)
        assert abs(find_threshold(cm) - (-ppt_check(cm).margin)) <= 2e-12

    def test_ppt_input_threshold_takes_the_margin_guided_search(self, probe_budget):
        # the transpose test cannot bracket a PPT state, so the search runs
        # on verdicts; probes aim where the firing margin crosses the edge
        # of the decision band, not zero, so a top whose margin sits in
        # the band still places one, and the search takes 15 decides
        # where bisection takes 42.  With fewer steps the band covers a
        # wider eps range below the threshold: the value sits 3.7e-11
        # below the 15-decide value of the unframed iteration,
        # 0.09786679022271991
        threshold = find_threshold(load_cm(WERNER_WOLF))
        assert threshold == 0.0978667901852723
        assert len(probe_budget) == 15
        assert abs(threshold - 0.09786679018498035) <= 1e-12  # the bisection's value
        assert abs(threshold - 0.09786679022271991) <= 1e-10

    def test_unconfirmed_bracket_continues_with_the_margin_guided_search(self, probe_budget):
        # the sixth 2+2 draw's decide threshold lies above the top of its
        # transpose bracket, so the confirming decide is not SEPARABLE and
        # the guided search starts there, from that verdict
        rng = np.random.default_rng(2024)
        cm = [random_cm(2, 2, "mixed", rng=rng) for _ in range(6)][-1]
        assert not ppt_check(cm).ppt
        threshold = find_threshold(cm)
        assert threshold == 0.3513992390365046
        assert len(probe_budget) == 19
        assert threshold >= transpose_top(cm)

    def test_transpose_margin_below_the_band_bounds_the_threshold(self):
        # ill-conditioned NPT draws (max |gamma| 9e3 to 1e5) shifted just
        # below their transpose threshold: ppt_check's relative rule calls
        # them PPT and decide calls them SEPARABLE, yet their transpose
        # margin lies below the decision band, so they are entangled
        rng = np.random.default_rng(2024)
        shifted = []
        for cm in [random_cm(2, 2, "mixed", rng=rng) for _ in range(60)]:
            report = ppt_check(cm)
            if report.ppt:
                continue
            for delta in (1e-8, 3e-9, 1e-9, 5e-10, 3e-10, 2e-10):
                state = engine._shifted(cm, -report.margin - delta)
                if (ppt_check(state).margin < -DEFAULT_TOL.decision_margin
                        and decide(state).kind is VerdictKind.SEPARABLE):
                    shifted.append(state)
        assert len(shifted) == 12
        for state in shifted:
            assert ppt_check(state).ppt
            assert find_threshold(state) >= transpose_top(state) - 1e-12

    def test_guided_search_under_local_maps_matches_the_decide_bisection(self, probe_budget,
                                                                       monkeypatch):
        # local symplectic maps keep the state PPT and entangled but move
        # its threshold along the identity and deepen the steps that fire
        width = 1e-12
        rng = np.random.default_rng(1)
        states = []
        for _ in range(12):
            s = _direct_sum(random_symplectic(2, rng), random_symplectic(2, rng))
            states.append(BipartiteCM.from_gamma(s @ load_cm(WERNER_WOLF).gamma @ s.T, 2, 2))
        expected = [0.5 * sum(engine._bisect(lambda eps, cm=cm: decide(
            engine._shifted(cm, eps)).kind is VerdictKind.SEPARABLE, 1e6, width)) for cm in states]
        probes = record_probes(monkeypatch)
        for cm, bisected in zip(states, expected):
            probes.clear()
            probe_budget.clear()
            threshold = find_threshold(cm, width=width)
            assert len(probe_budget) <= 43
            assert_backed_by_verdicts(threshold, probes, 1e6, width)
            assert abs(threshold - bisected) <= 2 * width

    def test_every_guided_threshold_is_backed_by_verdicts(self, monkeypatch):
        # the fixture, with a cap just above its threshold, and the
        # rng-2024 draws whose transpose bracket decide does not confirm
        probes = record_probes(monkeypatch)
        for eps_max in (1e6, 0.1):
            probes.clear()
            threshold = find_threshold(load_cm(WERNER_WOLF), eps_max=eps_max)
            assert_backed_by_verdicts(threshold, probes, eps_max, 1e-12)
        rng = np.random.default_rng(2024)
        unconfirmed = 0
        for cm in [random_cm(2, 2, "mixed", rng=rng) for _ in range(60)]:
            if ppt_check(cm).ppt:
                continue
            probes.clear()
            threshold = find_threshold(cm)
            if len(probes) > 1:
                unconfirmed += 1
                assert threshold >= transpose_top(cm)
                assert_backed_by_verdicts(threshold, probes, 1e6, 1e-12)
        assert unconfirmed >= 10

    @pytest.mark.parametrize("eps_max", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_eps_max_that_bounds_nothing(self, eps_max):
        with pytest.raises(ValueError, match="eps_max must be positive and finite"):
            find_threshold(tmss(1.0), eps_max=eps_max)

    def test_undecided_base_raises(self):
        cm = random_cm(2, 2, "mixed", seed=37)  # needs 2 steps
        with pytest.raises(BracketError, match="undecided"):
            find_threshold(cm, max_iter=1)
