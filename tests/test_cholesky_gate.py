"""The Cholesky gate that settles pass/fail PSD tests before any eigensolve.

``matlin._psd_by_cholesky`` proves ``lambda_min > -tau`` when a shifted
Cholesky factorization succeeds.  ``psd_check`` (and with it
``validate_cm``, certify's CM checks and ``verify_certificate``) and
``decide``'s cone test use it and fall back to the exact eigensolve when
it fails, so forcing every gate to fail must reproduce the same
verdicts, margins, certificates, certificate reports and error messages
bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gsep.engine as engine
import gsep.matlin as matlin
from _expm_fixtures import nearly_pure_2x2, random_cm, random_separable_cm
from gsep.certify import CertificateError, reconstruct, verify_certificate
from gsep.engine import VerdictKind, decide
from gsep.gaussian import BipartiteCM, InvalidCMError, symplectic_form, tmss, validate_cm
from gsep.matlin import DEFAULT_TOL, _psd_by_cholesky, hermitian_part, psd_check

EPS_STAR_R1 = 1.0 - np.exp(-2.0)  # identity-noise threshold of tmss(1.0)


def gate_population():
    rng = np.random.default_rng(303)
    states = [random_cm(1, 1, "mixed", rng=rng) for _ in range(500)]
    rng = np.random.default_rng(2024)
    states += [random_cm(2, 2, "mixed", rng=rng) for _ in range(60)]
    gamma = tmss(1.0).gamma
    states += [BipartiteCM.from_gamma(gamma + (EPS_STAR_R1 + s) * np.eye(4), 1, 1)
               for s in (-1e-9, 1e-9)]
    # reconstructing this one raises CertificateError, so the forced-fail run
    # covers the error path without relying on criterion 3's tight draws
    return states + [nearly_pure_2x2()]


def fingerprint(cm):
    """Everything a run reports, with ``margin_full``/``scale_full`` read lazily."""
    verdict = decide(cm)
    steps = [(s.index, s.margin_A, s.margin_L, s.margin_full, s.scale_full,
              s.A.tobytes(), s.C.tobytes()) for s in verdict.trace.steps]
    evidence = None
    if verdict.kind is VerdictKind.SEPARABLE:
        try:
            cert = reconstruct(verdict.trace)
            report = verify_certificate(cm, cert)
            evidence = (cert.gamma_A.tobytes(), cert.gamma_B.tobytes(), cert.P.tobytes(),
                        report.valid, report.margins)
        except CertificateError as exc:
            evidence = str(exc)
    return (verdict.kind, verdict.step, verdict.margin, verdict.reason, steps, evidence)


def test_gated_runs_equal_the_exact_path(monkeypatch):
    states = gate_population()
    passes = []

    def counting_gate(herm, tau):
        passes.append(_psd_by_cholesky(herm, tau))
        return passes[-1]

    monkeypatch.setattr(engine, "_psd_by_cholesky", counting_gate)
    monkeypatch.setattr(matlin, "_psd_by_cholesky", counting_gate)
    gated = [fingerprint(cm) for cm in states]
    monkeypatch.setattr(engine, "_psd_by_cholesky", lambda herm, tau: False)
    monkeypatch.setattr(matlin, "_psd_by_cholesky", lambda herm, tau: False)
    exact = [fingerprint(cm) for cm in states]

    assert sum(passes) > 1000  # the gate really settled most checks
    for k, (got, want) in enumerate(zip(gated, exact)):
        assert got == want, k
    kinds = {fp[0] for fp in gated}
    assert kinds == {VerdictKind.SEPARABLE, VerdictKind.ENTANGLED}
    assert any(isinstance(fp[5], str) for fp in gated)  # CertificateError messages too
    assert any(fp[3] == engine.REASON_CONE_ENTANGLED for fp in gated)


@pytest.mark.parametrize("cm, min_step", [(random_separable_cm(2, 1, seed=4)[0], 1),
                                          (random_cm(2, 1, "mixed", seed=0), 1),
                                          (random_cm(2, 1, "mixed", seed=1953), 2)],
                         ids=["planted-one-step", "mixed-one-step", "mixed-four-steps"])
def test_separable_run_skips_the_full_iterate_eigensolve(cm, min_step, monkeypatch,
                                                         lapack_calls):
    # past step 1 the run goes through the Williamson frame, its closed-form
    # step and the |C| test, none of which may solve the 4n x 4n iterate
    verdict = decide(cm)
    monkeypatch.undo()
    shapes = lapack_calls.shapes("eigvalsh")
    assert verdict.kind is VerdictKind.SEPARABLE
    assert verdict.step >= min_step
    full = 4 * cm.n
    assert shapes and (full, full) not in shapes
    j = symplectic_form(cm.n)
    for step in verdict.trace.steps:
        a, c = step.A, step.C
        # the pair A - iJ +/- iC, whose spectra make up that of gamma_N - iJ
        pair = np.linalg.eigvalsh(np.stack((a - 1j * j + 1j * c, a - 1j * j - 1j * c)))
        assert step.margin_full == float(pair[:, 0].min())
        assert step.scale_full == max(1.0, float(np.abs(pair).max()))
        assembled = np.linalg.eigvalsh(
            BipartiteCM.from_blocks(a, a, c).gamma - 1j * symplectic_form(2 * cm.n))
        assert abs(step.margin_full - assembled[0]) <= 1e-12 * step.scale_full
        assert (abs(step.scale_full - max(1.0, float(np.abs(assembled).max())))
                <= 1e-12 * step.scale_full)


@pytest.mark.parametrize("cm", [
    engine._shifted(tmss(1.0), EPS_STAR_R1 - 1e-9),
    engine._shifted(random_cm(2, 2, "mixed", seed=1), 0.2),  # threshold about 0.2098
], ids=["tmss-below-threshold", "near-threshold-2x2"])
def test_cone_exit_runs_no_eigensolve_wider_than_the_a_block(cm, monkeypatch, lapack_calls):
    # the cone test solves the pair A_N - iJ +/- iC_N, never the 4n x 4n
    # gamma_N - iJ, and the input check passes its Cholesky gate
    verdict = decide(cm)
    monkeypatch.undo()
    widths = [shape[-1] for shape in lapack_calls.shapes("eigvalsh", "eigh")]
    assert verdict.reason == engine.REASON_CONE_ENTANGLED
    assert widths and max(widths) == 2 * cm.n


def test_gate_decides_clear_cases():
    herm = np.diag([2.0, 1.0, -0.5])
    assert _psd_by_cholesky(herm, 0.6)
    assert not _psd_by_cholesky(herm, 0.4)
    assert not _psd_by_cholesky(herm, 0.5)  # lambda_min = -tau exactly is singular
    # a stack passes only if every matrix in it does
    assert _psd_by_cholesky(np.stack((herm, herm + 1.0)), 0.6)
    assert not _psd_by_cholesky(np.stack((herm + 1.0, herm)), 0.4)


@st.composite
def hermitian_near_tau(draw):
    """A small Hermitian ``M`` with ``lambda_min = -tau (1 + offset)``.

    ``tau`` is the certificate check's ``psd_tol * max(1, max |diag|)``
    and ``1e-4 <= |offset| <= 1e-3``: close to ``-tau``, yet outside the
    ``d^2 eps / psd_tol`` (about 4e-6) relative band where rounding may
    decide either way.
    """
    d = draw(st.integers(1, 6))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    re = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    im = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    herm = (re + re.T) / 2.0 + 1j * (im - im.T) / 2.0
    herm = herm - float(np.linalg.eigvalsh(herm)[0]) * np.eye(d)
    tau = DEFAULT_TOL.psd_tol * max(1.0, float(np.abs(np.diag(herm)).max()))
    offset = draw(st.floats(1e-4, 1e-3)) * draw(st.sampled_from([-1.0, 1.0]))
    return herm - tau * (1.0 + offset) * np.eye(d), offset


@settings(max_examples=200, deadline=None)
@given(hermitian_near_tau())
def test_gate_pass_implies_psd_check(case):
    herm, offset = case
    tau = DEFAULT_TOL.psd_tol * max(1.0, float(np.abs(np.diag(herm)).max()))
    passed = _psd_by_cholesky(herm, tau)
    assert passed == (offset < 0)
    if passed:
        eigs = np.linalg.eigvalsh(herm)
        assert eigs[0] >= -DEFAULT_TOL.psd_tol * max(1.0, float(np.abs(eigs).max()))


@pytest.mark.parametrize("mat", [
    np.diag([3.0, 1.0, 2.0]),                      # gate passes
    np.array([[2.0, 1.0 + 1e-13], [1.0, 1.0]]),    # gate passes, asymmetric input
    tmss(0.7).gamma - 1j * symplectic_form(2),     # gate passes, complex
    np.diag([1.0, -1e-12]),                        # gate passes, PSD within tolerance
    np.diag([1.0, -1e-7]),                         # gate fails, not PSD
    0.5 * np.eye(2) - 1j * symplectic_form(1),     # gate fails, not PSD
], ids=["diag", "asymmetric", "tmss", "tolerance-negative", "negative", "invalid-cm"])
def test_lambda_min_equals_the_eigensolve(mat, monkeypatch, lapack_calls):
    report = psd_check(mat)
    solved_at_check = len(lapack_calls.shapes("eigvalsh"))
    got = report.lambda_min
    monkeypatch.undo()
    assert solved_at_check == (0 if report.is_psd else 1)
    assert got == float(np.linalg.eigvalsh(hermitian_part(mat))[0])
    assert report.lambda_min == got  # cached, not solved again


def test_decide_skips_the_input_sized_eigensolve(monkeypatch, lapack_calls):
    cm = random_cm(2, 1, "mixed", seed=0)
    lapack_calls.clear()
    decide(cm)
    monkeypatch.undo()
    shapes = lapack_calls.shapes("eigvalsh")
    assert shapes and (6, 6) not in shapes


def test_verify_certificate_solves_margins_on_first_read(monkeypatch, lapack_calls):
    cm = random_separable_cm(2, 1, seed=4)[0]
    cert = reconstruct(decide(cm).trace)
    lapack_calls.clear()
    report = verify_certificate(cm, cert)
    assert report.valid
    assert lapack_calls.shapes("eigvalsh") == []
    margins = report.margins
    monkeypatch.undo()
    assert lapack_calls.shapes("eigvalsh") == [(4, 4), (2, 2), (6, 6)]
    gamma_a, gamma_b = cert.gamma_A, cert.gamma_B
    want = (
        np.linalg.eigvalsh(hermitian_part(gamma_a - 1j * symplectic_form(2)))[0],
        np.linalg.eigvalsh(hermitian_part(gamma_b - 1j * symplectic_form(1)))[0],
        np.linalg.eigvalsh(hermitian_part(cm.gamma - np.block(
            [[gamma_a, np.zeros((4, 2))], [np.zeros((2, 4)), gamma_b]])))[0],
    )
    assert margins == tuple(float(x) for x in want)


def test_invalid_input_message_carries_the_margin():
    gamma = tmss(1.0).gamma - 0.1 * np.eye(4)
    margin = float(np.linalg.eigvalsh(gamma - 1j * symplectic_form(2))[0])
    assert validate_cm(gamma).lambda_min == margin
    with pytest.raises(InvalidCMError, match=f"margin {margin:.3e}"):
        decide(BipartiteCM.from_gamma(gamma, 1, 1))
