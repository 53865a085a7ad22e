"""Tests for certificate reconstruction and verification."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from _expm_fixtures import random_cm, random_covariance, random_separable_cm
from gsep.certify import (
    CertificateError,
    SeparabilityCertificate,
    reconstruct,
    verify_certificate,
    witness,
)
from gsep.engine import (
    REASON_BLOCK_ENTANGLED,
    REASON_CONE_ENTANGLED,
    REASON_NORM_GAP_SEPARABLE,
    IterationStep,
    IterationTrace,
    VerdictKind,
    _shifted,
    decide,
)
from gsep.gaussian import BipartiteCM, symplectic_form, tmss
from gsep.matlin import pseudoinverse


def vacuum(n=1, m=1):
    return BipartiteCM.from_blocks(np.eye(2 * n), np.eye(2 * m), np.zeros((2 * n, 2 * m)))


def backward_deltas(trace):
    """Independent replay of the backward recursion, returning every delta_k.

    Mirrors the certificate construction step by step so tests can check
    the invariants gamma_k >= delta_k (+) delta_k at each level.
    """
    steps = trace.steps
    final = steps[-1]
    delta = final.A - final.c_opnorm * np.eye(final.A.shape[0])
    deltas = {final.index: delta}
    for step in reversed(steps[:-1]):
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
    @pytest.mark.parametrize("n,m,seed,steps", [
        (1, 1, 1, 3),
        (2, 1, 0, 3),
        (2, 2, 37, 4),
    ])
    def test_multi_step_round_trip(self, n, m, seed, steps):
        cm = random_cm(n, m, "mixed", seed=seed)
        verdict = decide(cm)
        assert verdict.kind is VerdictKind.SEPARABLE
        assert verdict.step == steps
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

    def test_decomposition_reproduces_input_exactly(self):
        cm, _, _ = random_separable_cm(2, 2, seed=5)
        verdict = decide(cm)
        cert = reconstruct(verdict.trace)
        rebuilt = block_diag(cert.gamma_A, cert.gamma_B) + cert.P
        np.testing.assert_allclose(rebuilt, cm.gamma, atol=1e-12)

    def test_backward_recursion_invariants(self):
        # every intermediate delta_k must dominate iJ and be dominated by
        # the iterate: gamma_k >= delta_k (+) delta_k
        cm = random_cm(2, 2, "mixed", seed=37)
        verdict = decide(cm)
        assert verdict.step >= 3
        deltas = backward_deltas(verdict.trace)
        cert = reconstruct(verdict.trace)
        np.testing.assert_allclose(cert.gamma_A, deltas[1], atol=1e-10)
        j = symplectic_form(cm.n)
        for step in verdict.trace.steps:
            delta = deltas[step.index]
            eigs_cm = np.linalg.eigvalsh(delta - 1j * j)
            assert eigs_cm[0] >= -1e-8 * max(1.0, abs(eigs_cm[-1]))
            diff = step.as_cm().gamma - block_diag(delta, delta)
            eigs = np.linalg.eigvalsh(diff)
            assert eigs[0] >= -1e-8 * max(1.0, abs(eigs[-1]))


class TestReconstructFailures:
    def test_entangled_trace_is_rejected(self):
        verdict = decide(tmss(1.0))
        with pytest.raises(ValueError, match="separable-terminating"):
            reconstruct(verdict.trace)

    def test_undecided_trace_is_rejected(self):
        verdict = decide(random_cm(2, 2, "mixed", seed=37), max_iter=2)
        with pytest.raises(ValueError, match="separable-terminating"):
            reconstruct(verdict.trace)

    def test_tight_margins_fail_loudly(self):
        # nearly pure blocks with weak noise: the forward run terminates
        # separable inside the tolerance band, but the backward recursion
        # cannot certify it and must say so rather than emit garbage
        rng = np.random.default_rng(6)
        mix = 1e-3
        ga = random_covariance(2, "pure", rng=rng) + mix * np.eye(4)
        gb = random_covariance(2, "pure", rng=rng) + mix * np.eye(4)
        r = mix * rng.standard_normal((8, 8)) / np.sqrt(8)
        cm = BipartiteCM.from_gamma(block_diag(ga, gb) + r @ r.T, 2, 2)
        verdict = decide(cm)
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
        verdict = decide(random_cm(2, 2, "mixed", seed=37), max_iter=2)
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
        cert = SeparabilityCertificate(np.eye(4), np.eye(2), np.zeros((6, 6)))
        with pytest.raises(ValueError, match="do not match"):
            verify_certificate(vacuum(), cert)
