"""Tests for certificate reconstruction and verification."""

import re

import numpy as np
import pytest
from scipy.linalg import block_diag

from _expm_fixtures import nearly_pure_2x2, random_cm, random_covariance, random_separable_cm
from gsep.certify import (
    CertificateError,
    SeparabilityCertificate,
    reconstruct,
    verify_certificate,
    witness,
)
from gsep.engine import (
    REASON_ABS_GAP_SEPARABLE,
    REASON_BLOCK_ENTANGLED,
    REASON_CONE_ENTANGLED,
    REASON_NORM_GAP_SEPARABLE,
    IterationStep,
    IterationTrace,
    VerdictKind,
    _shifted,
    decide,
)
from gsep.gaussian import BipartiteCM, CMError, symplectic_form, tmss
from gsep.matlin import DEFAULT_TOL, pseudoinverse


def vacuum(n=1, m=1):
    return BipartiteCM.from_blocks(np.eye(2 * n), np.eye(2 * m), np.zeros((2 * n, 2 * m)))


def backward_deltas(trace):
    """Independent replay of the backward recursion, returning every delta_k.

    Mirrors the certificate construction step by step so tests can check
    the invariants gamma_k >= delta_k (+) delta_k at each level.  The
    start is ``A_N - ||C_N|| I`` after the norm test and ``A_N - |C_N| -
    (mu/2) I`` after the ``|C|`` test; a step that opened a Williamson
    frame has its delta mapped back through ``T`` before the step below
    it uses it, and each delta_k is recorded in iterate k's own frame.
    """
    steps = trace.steps
    final = steps[-1]
    eye = np.eye(final.A.shape[0])
    if trace.reason == REASON_NORM_GAP_SEPARABLE:
        delta = final.A - final.c_opnorm * eye
    else:
        assert trace.reason == REASON_ABS_GAP_SEPARABLE
        _, sigma, vt = np.linalg.svd(final.C)
        abs_c = vt.T @ np.diag(sigma) @ vt
        mu = np.linalg.eigvalsh(final.A - abs_c - 1j * symplectic_form(len(eye) // 2))[0]
        delta = final.A - abs_c - 0.5 * mu * eye
    deltas = {final.index: delta}
    for step, after in zip(reversed(steps[:-1]), reversed(steps)):
        if after.frame is not None:
            delta = after.frame @ delta @ after.frame.T
        gap = step.A - delta
        gamma_b = step.A - step.C.T @ pseudoinverse(gap) @ step.C
        delta = (delta + gamma_b) / 2.0
        deltas[step.index] = delta
    return deltas


class TestReconstructClosedForms:
    def test_vacuum(self):
        verdict = decide(vacuum())
        cert = reconstruct(verdict.trace)
        np.testing.assert_allclose(cert.gamma_A, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(cert.gamma_B, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(cert.P, np.zeros((4, 4)), atol=1e-12)

    def test_product_state_recovers_blocks(self):
        rng = np.random.default_rng(9)
        a = random_covariance(1, "mixed", rng=rng)
        b = random_covariance(2, "mixed", rng=rng)
        cm = BipartiteCM.from_blocks(a, b, np.zeros((2, 4)))
        verdict = decide(cm)
        cert = reconstruct(verdict.trace)
        np.testing.assert_allclose(cert.gamma_A, a, atol=1e-10)
        np.testing.assert_allclose(cert.gamma_B, b, atol=1e-10)
        np.testing.assert_allclose(cert.P, np.zeros((6, 6)), atol=1e-10)


class TestReconstructRandom:
    # one mode per party leaves nothing for a third step once the frame is
    # taken; the 2+1 and 2+2 inputs end on the norm test and the |C| test
    @pytest.mark.parametrize("n,m,seed,steps", [
        (1, 1, 1, 2),
        (2, 1, 1953, 4),
        (2, 1, 2496, 4),
        (2, 2, 341, 3),
    ])
    def test_multi_step_round_trip(self, n, m, seed, steps):
        cm = random_cm(n, m, "mixed", seed=seed)
        verdict = decide(cm)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verdict.step == steps
        framed = [s.index for s in verdict.trace.steps if s.frame is not None]
        assert framed == [2]  # the first undecided step opens the frame
        cert = reconstruct(verdict.trace)
        report = verify_certificate(cm, cert)
        assert report.valid

    def test_randomized_round_trips(self):
        rng = np.random.default_rng(52)
        done = 0
        for _ in range(120):
            cm = random_cm(2, 1, "mixed", rng=rng)
            verdict = decide(cm)
            if verdict.kind is not VerdictKind.SEPARABLE:
                continue
            cert = reconstruct(verdict.trace)
            report = verify_certificate(cm, cert)
            assert report.valid, report.margins
            done += 1
        assert done >= 40

    def test_tight_single_mode_pairs_certify(self):
        # draws 133 and 351 of criterion 3's population end SEPARABLE with
        # step-0 reduced B-blocks so close to the CM boundary that the
        # Schur complement's rounding decides whether they certify
        rng = np.random.default_rng(303)
        draws = [random_cm(1, 1, "mixed", rng=rng) for _ in range(352)]
        for k in (133, 351):
            verdict = decide(draws[k])
            assert verdict.kind is VerdictKind.SEPARABLE, k
            report = verify_certificate(draws[k], reconstruct(verdict.trace))
            assert report.valid, (k, report.margins)

    def test_decomposition_reproduces_input_exactly(self):
        cm, _, _ = random_separable_cm(2, 2, seed=5)
        verdict = decide(cm)
        cert = reconstruct(verdict.trace)
        rebuilt = block_diag(cert.gamma_A, cert.gamma_B) + cert.P
        np.testing.assert_allclose(rebuilt, cm.gamma, atol=1e-12)

    def test_backward_recursion_invariants(self):
        # every intermediate delta_k must dominate iJ and be dominated by
        # the iterate: gamma_k >= delta_k (+) delta_k; this input ends on
        # the |C| test and crosses the frame between steps 2 and 1
        cm = random_cm(2, 2, "mixed", seed=1563)
        verdict = decide(cm)
        assert verdict.step >= 3
        assert verdict.reason == REASON_ABS_GAP_SEPARABLE
        deltas = backward_deltas(verdict.trace)
        cert = reconstruct(verdict.trace)
        np.testing.assert_allclose(cert.gamma_A, deltas[1], atol=1e-10)
        j = symplectic_form(cm.n)
        for step in verdict.trace.steps:
            delta = deltas[step.index]
            eigs_cm = np.linalg.eigvalsh(delta - 1j * j)
            assert eigs_cm[0] >= -1e-8 * max(1.0, abs(eigs_cm[-1]))
            diff = BipartiteCM.from_blocks(step.A, step.A, step.C).gamma - block_diag(delta, delta)
            eigs = np.linalg.eigvalsh(diff)
            assert eigs[0] >= -1e-8 * max(1.0, abs(eigs[-1]))


class TestReconstructFailures:
    def test_entangled_trace_is_rejected(self):
        verdict = decide(tmss(1.0))
        with pytest.raises(ValueError, match="separable-terminating"):
            reconstruct(verdict.trace)

    def test_undecided_trace_is_rejected(self):
        verdict = decide(random_cm(2, 2, "mixed", seed=341), max_iter=2)
        with pytest.raises(ValueError, match="separable-terminating"):
            reconstruct(verdict.trace)

    def test_tight_margins_fail_loudly(self):
        # nearly pure blocks with weak noise: the forward run terminates
        # separable inside the tolerance band, but the backward recursion
        # cannot certify it and must say so rather than emit garbage
        verdict = decide(nearly_pure_2x2())
        assert verdict.kind is VerdictKind.SEPARABLE
        with pytest.raises(CertificateError, match="step 0"):
            reconstruct(verdict.trace)

    def test_kernel_condition_failure_reports_residual(self):
        # one-step trace with delta_1 = 2 I: A_0 - delta_1 = diag(0, 1) has
        # kernel e_1, on which C_0^T does not vanish
        step = IterationStep(index=1, A=2.0 * np.eye(2), C=np.zeros((2, 2)),
                             margin_A=1.0, c_opnorm=0.0, a_trnorm=4.0)
        gamma0 = BipartiteCM.from_blocks(np.diag([2.0, 3.0]), 2.0 * np.eye(2),
                                         np.array([[0.5, 0.0], [0.0, 0.0]]))
        trace = IterationTrace(gamma0, (step,), REASON_NORM_GAP_SEPARABLE)
        with pytest.raises(CertificateError, match="kernel condition fails at step") as exc:
            reconstruct(trace)
        assert "residual 5.000e-01" in str(exc.value)

    def test_gap_that_is_not_psd_reports_its_margin(self):
        # one-step trace with delta_1 = 3 I above A_0 = 2 I, so
        # A_0 - delta_1 = -I and the recursion cannot continue
        step = IterationStep(index=1, A=3.0 * np.eye(2), C=np.zeros((2, 2)),
                             margin_A=2.0, c_opnorm=0.0, a_trnorm=6.0)
        gamma0 = BipartiteCM.from_blocks(2.0 * np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2)))
        trace = IterationTrace(gamma0, (step,), REASON_NORM_GAP_SEPARABLE)
        with pytest.raises(CertificateError,
                           match=r"A - delta at step 0 is not PSD \(margin -1.000e\+00\)"):
            reconstruct(trace)

    def test_gap_without_a_factor_quotes_the_eigensolve_margin(self, monkeypatch, lapack_calls):
        # delta_1 = diag(1, 2.001) and A_0 = 2 I leave A_0 - delta_1 =
        # diag(1, -1e-3): its Cholesky factorization fails, and the one
        # eigensolve of the fallback supplies the quoted margin
        step = IterationStep(index=1, A=np.diag([1.0, 2.001]), C=np.zeros((2, 2)),
                             margin_A=0.382, c_opnorm=0.0, a_trnorm=3.001)
        gamma0 = BipartiteCM.from_blocks(2.0 * np.eye(2), 2.0 * np.eye(2), np.zeros((2, 2)))
        trace = IterationTrace(gamma0, (step,), REASON_NORM_GAP_SEPARABLE)
        with pytest.raises(CertificateError,
                           match=r"A - delta at step 0 is not PSD \(margin -1.000e-03\)"):
            reconstruct(trace)
        monkeypatch.undo()
        assert lapack_calls.shapes("eigh") == [(2, 2)]


class TestWitness:
    def test_block_test_witness_is_the_a_block_eigenpair(self):
        cm = tmss(1.0)
        verdict = decide(cm)
        assert verdict.trace.reason == REASON_BLOCK_ENTANGLED
        lam, vec = witness(verdict.trace)
        assert vec.shape == (2 * cm.n,)
        assert lam == verdict.margin
        mat = verdict.trace.steps[-1].A - 1j * symplectic_form(cm.n)
        assert np.linalg.norm(mat @ vec - lam * vec) <= 1e-12

    def test_cone_exit_witness_is_the_full_iterate_eigenpair(self):
        # just below tmss(1.0)'s noise threshold: the A block is a valid
        # CM, the assembled iterate is not
        cm = _shifted(tmss(1.0), 1.0 - np.exp(-2.0) - 1e-9)
        verdict = decide(cm)
        assert verdict.trace.reason == REASON_CONE_ENTANGLED
        assert verdict.step == 1
        lam, vec = witness(verdict.trace)
        assert vec.shape == (4 * cm.n,)
        assert abs(lam - verdict.margin) <= 1e-12
        step = verdict.trace.steps[-1]
        mat = np.block([[step.A, step.C], [step.C.T, step.A]]) - 1j * symplectic_form(2 * cm.n)
        assert np.linalg.norm(mat @ vec - lam * vec) <= 1e-12

    def test_separable_trace_is_rejected(self):
        verdict = decide(vacuum())
        assert verdict.kind is VerdictKind.SEPARABLE
        with pytest.raises(ValueError, match="entangled-terminating"):
            witness(verdict.trace)

    def test_undecided_trace_is_rejected(self):
        verdict = decide(random_cm(2, 2, "mixed", seed=341), max_iter=2)
        assert verdict.kind is VerdictKind.UNDECIDED
        with pytest.raises(ValueError, match="entangled-terminating"):
            witness(verdict.trace)


class TestVerifyCertificate:
    def test_vacuum_certificate_margins(self):
        cert = SeparabilityCertificate(np.eye(2), np.eye(2), np.zeros((4, 4)))
        report = verify_certificate(vacuum(), cert)
        assert report.valid
        assert report.margins == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)

    def test_bogus_claim_for_entangled_state(self):
        # claiming the two-mode squeezed state decomposes over vacuum
        # blocks fails on the noise margin, by exactly exp(-2r) - 1
        cert = SeparabilityCertificate(np.eye(2), np.eye(2), tmss(1.0).gamma - np.eye(4))
        report = verify_certificate(tmss(1.0), cert)
        assert not report.valid
        assert report.margins[0] == pytest.approx(0.0, abs=1e-12)
        assert report.margins[1] == pytest.approx(0.0, abs=1e-12)
        assert report.margins[2] == pytest.approx(np.exp(-2.0) - 1.0, abs=1e-12)

    def test_shape_mismatch_raises(self):
        # a wrong-shape block, and valid blocks with a P of the wrong shape
        for cert in (SeparabilityCertificate(np.eye(4), np.eye(2), np.zeros((6, 6))),
                     SeparabilityCertificate(np.eye(2), np.eye(2), np.zeros((1, 1))),
                     SeparabilityCertificate(np.eye(2), np.eye(2), np.zeros((2, 2)))):
            with pytest.raises(ValueError, match="do not match"):
                verify_certificate(vacuum(), cert)

    def planted(self):
        cm = random_separable_cm(2, 1, seed=7)[0]
        cert = reconstruct(decide(cm).trace)
        assert verify_certificate(cm, cert).valid
        return cm, cert

    def test_p_that_does_not_reproduce_the_state_raises(self):
        # a constant P, and an exact P with one symmetric pair moved to
        # twice the tolerance, are both refused with the residual quoted
        cm, cert = self.planted()
        bound = DEFAULT_TOL.psd_tol * max(1.0, np.max(np.abs(cm.gamma)))
        nudged = cert.P.copy()
        nudged[0, 1] = nudged[1, 0] = cert.P[0, 1] + 2.0 * bound
        constant = np.full_like(cert.P, 123.0)
        for noise in (constant, nudged):
            residual = np.max(np.abs(cert.P - noise))
            forged = SeparabilityCertificate(cert.gamma_A, cert.gamma_B, noise)
            quoted = re.escape(f"= {residual:.3e}")
            with pytest.raises(ValueError, match=rf"reproduce the state: .* {quoted}$"):
                verify_certificate(cm, forged)

    def test_blocks_go_through_the_ingest_rule(self):
        # gamma_A + 1e6 J with the P that completes it reproduces the
        # state, and the Hermitian parts pass all three PSD tests; only
        # the symmetry check refuses it
        cm, cert = self.planted()
        tampered = cert.gamma_A + 1e6 * symplectic_form(2)
        noise = cm.gamma - block_diag(tampered, cert.gamma_B)
        with pytest.raises(CMError, match=r"gamma_A is not symmetric \(residual 2.000e\+06\)"):
            verify_certificate(cm, SeparabilityCertificate(tampered, cert.gamma_B, noise))
        bad_p = cert.P.copy()
        bad_p[0, 0] = np.nan
        with pytest.raises(CMError, match="P contains non-finite entries"):
            verify_certificate(cm, SeparabilityCertificate(cert.gamma_A, cert.gamma_B, bad_p))

    def test_p_within_tolerance_cannot_raise_the_margin(self):
        # a P shifted within the tolerance is accepted, but the PSD test
        # runs on the exact remainder gamma - gamma_A oplus gamma_B, so the
        # shift buys no margin
        cm, cert = self.planted()
        shift = 0.5e-9
        report = verify_certificate(cm, SeparabilityCertificate(
            cert.gamma_A, cert.gamma_B, cert.P + shift * np.eye(cert.P.shape[0])))
        exact = verify_certificate(cm, cert)
        assert report.valid
        assert report.margins == exact.margins
