"""Evidence behind a verdict: separability certificates and entanglement witnesses.

A separable verdict at step ``N`` means ``delta_N = A_N - ||C_N||_op I``
is itself a valid CM.  That fact propagates backwards through the
iterates: knowing ``gamma_{k+1} >= delta_{k+1} oplus delta_{k+1}`` yields

    ``gamma_B^(k) = A_k - C_k^T (A_k - delta_{k+1})^+ C_k``,
    ``delta_k     = (delta_{k+1} + gamma_B^(k)) / 2``,

both valid CMs, with ``gamma_k >= delta_k oplus delta_k``.  At ``k = 0``
the asymmetric form against the original blocks gives

    ``gamma_A = delta_1``,
    ``gamma_B = B_0 - C_0^T (A_0 - delta_1)^+ C_0``,

and ``P = gamma_0 - gamma_A oplus gamma_B`` is PSD.  The triple
``(gamma_A, gamma_B, P)`` is the certificate: two single-party CMs plus
PSD noise whose sum reproduces the input exactly, which any third party
can verify with three PSD tests and no knowledge of the iteration.

Every check here, on the intermediate blocks and in
:func:`verify_certificate`, goes through :func:`~gsep.matlin.psd_check`,
which settles it with a shifted Cholesky factorization and diagonalizes
only when that factorization fails.  The margins are solved when they
are first read: in an error message, or from
:attr:`CertificateReport.margins`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (REASON_BLOCK_ENTANGLED, REASON_CONE_ENTANGLED, REASON_NORM_GAP_SEPARABLE,
                     IterationTrace)
from .gaussian import BipartiteCM, _direct_sum, _ingest_symmetric, _minus_ij
from .matlin import DEFAULT_TOL, PsdReport, ToleranceConfig, _schur_complement, psd_check

__all__ = [
    "CertificateError",
    "CertificateReport",
    "SeparabilityCertificate",
    "reconstruct",
    "verify_certificate",
    "witness",
]


class CertificateError(RuntimeError):
    """Reconstruction failed; the message carries the offending step."""


@dataclass(frozen=True)
class SeparabilityCertificate:
    """Explicit separable decomposition ``gamma_0 = gamma_A oplus gamma_B + P``."""

    gamma_A: np.ndarray
    gamma_B: np.ndarray
    P: np.ndarray


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of :func:`verify_certificate`.

    ``valid`` is settled when the report is made.  ``checks`` are the
    three :class:`~gsep.matlin.PsdReport` objects behind it, for
    ``gamma_A - iJ``, ``gamma_B - iJ`` and ``gamma - gamma_A oplus
    gamma_B``; ``margins`` reads their lazily solved bottom eigenvalues.
    """

    valid: bool
    checks: tuple[PsdReport, PsdReport, PsdReport]

    @property
    def margins(self) -> tuple[float, float, float]:
        return tuple(check.lambda_min for check in self.checks)


def _cm_margin(mat: np.ndarray, tol: ToleranceConfig, what: str, step: int) -> np.ndarray:
    """Check ``mat - iJ >= 0`` within tolerance; return ``mat``, which is symmetric."""
    report = psd_check(_minus_ij(mat), tol)
    if not report.is_psd:
        raise CertificateError(
            f"{what} at step {step} fails the CM test "
            f"(margin {report.lambda_min:.3e}); margins too tight to certify"
        )
    return mat


def _shur_against(a_block: np.ndarray, c_block: np.ndarray, delta: np.ndarray,
                  b_block: np.ndarray, tol: ToleranceConfig, step: int) -> np.ndarray:
    """Compute ``B - C^T (A - delta)^+ C`` with kernel-condition checks."""
    out, gap_psd, margin, kernel_ok, residual = _schur_complement(
        b_block, c_block.T, a_block - delta, tol)
    if not gap_psd:
        raise CertificateError(
            f"A - delta at step {step} is not PSD (margin {margin:.3e}); "
            "backward recursion cannot continue"
        )
    if not kernel_ok:
        raise CertificateError(
            f"kernel condition fails at step {step}: ker(A - delta) is not "
            f"contained in ker(C^T) (residual {residual:.3e})"
        )
    return out


def reconstruct(trace: IterationTrace, tol: ToleranceConfig = DEFAULT_TOL) -> SeparabilityCertificate:
    """Reconstruct an explicit separable decomposition from a trace.

    The trace must come from a run that terminated Separable; anything
    else raises ``ValueError``.  Every intermediate matrix is re-checked
    against the CM test, so a certificate that comes back at all is
    already internally consistent; callers should still confirm it
    against the original input with :func:`verify_certificate`.
    """
    if trace.reason != REASON_NORM_GAP_SEPARABLE or not trace.steps:
        raise ValueError(
            "certificates exist only for separable-terminating traces "
            f"(trace ended with: {trace.reason!r})"
        )
    final = trace.steps[-1]
    delta = _cm_margin(final.A - final.c_opnorm * np.eye(final.A.shape[0]), tol,
                       "norm-shifted final block", final.index)

    # walk gamma_{k+1} -> gamma_k knowledge down to the first iterate
    for step in reversed(trace.steps[:-1]):
        gamma_b_k = _cm_margin(_shur_against(step.A, step.C, delta, step.A, tol, step.index),
                               tol, "reduced B-block", step.index)
        delta = _cm_margin((delta + gamma_b_k) / 2.0, tol, "averaged block", step.index)

    gamma0 = trace.gamma0
    gamma_a = delta
    gamma_b = _cm_margin(_shur_against(gamma0.A, gamma0.C, delta, gamma0.B, tol, 0),
                         tol, "reduced B-block", 0)
    noise = gamma0.gamma - _direct_sum(gamma_a, gamma_b)
    return SeparabilityCertificate(gamma_A=gamma_a, gamma_B=gamma_b, P=noise)


def witness(trace: IterationTrace) -> tuple[float, np.ndarray]:
    """The bottom eigenpair ``(lambda_min, vector)`` of the matrix whose test fired.

    The trace must come from a run that terminated Entangled; anything
    else raises ``ValueError``.  The matrix is ``A_N - iJ`` (a vector of
    length ``2n``) when the ``A``-block test fired, and the assembled
    ``gamma_N - iJ`` on ``n + n`` modes (length ``4n``) when the iterate
    left the CM cone.  ``lambda_min`` is the verdict's margin, up to roundoff.
    """
    if trace.reason not in (REASON_BLOCK_ENTANGLED, REASON_CONE_ENTANGLED) or not trace.steps:
        raise ValueError(
            "witnesses exist only for entangled-terminating traces "
            f"(trace ended with: {trace.reason!r})"
        )
    a, c = trace.steps[-1].A, trace.steps[-1].C
    eigs, vecs = np.linalg.eigh(
        _minus_ij(_direct_sum(a, a, c) if trace.reason == REASON_CONE_ENTANGLED else a))
    return float(eigs[0]), vecs[:, 0]


def verify_certificate(cm: BipartiteCM, certificate: SeparabilityCertificate,
                       tol: ToleranceConfig = DEFAULT_TOL) -> CertificateReport:
    """Independently verify a certificate against the original state.

    The blocks and ``P`` must have the state's shapes, pass its ingest
    rule (finite and symmetric up to roundoff, else ``CMError``), and
    ``P`` must reproduce the state, ``max|gamma - gamma_A oplus gamma_B
    - P| <= psd_tol * max(1, max|gamma|)``; otherwise ``ValueError``,
    quoting the residual.
    Then three PSD tests, each a shifted Cholesky factorization with an
    eigensolve only when it fails: ``gamma_A`` and ``gamma_B`` must be
    valid CMs and the exact remainder ``gamma - gamma_A oplus gamma_B``
    (not ``P``) must be PSD.  ``valid`` is their conjunction; the three
    margins are solved when ``margins`` is first read.
    """
    d_a, d_b = 2 * cm.n, 2 * cm.m
    shapes = [np.shape(x) for x in (certificate.gamma_A, certificate.gamma_B, certificate.P)]
    if shapes != [(d_a, d_a), (d_b, d_b), (d_a + d_b, d_a + d_b)]:
        raise ValueError(f"certificate blocks {shapes[0]}/{shapes[1]}/{shapes[2]} do not "
                         f"match a {cm.n}+{cm.m} mode state")
    gamma_a = _ingest_symmetric(certificate.gamma_A, "gamma_A")
    gamma_b = _ingest_symmetric(certificate.gamma_B, "gamma_B")
    remainder = cm.gamma  # a fresh array: gamma - gamma_A oplus gamma_B is formed in place
    scale = max(1.0, float(np.abs(remainder).max()))
    remainder[:d_a, :d_a] -= gamma_a
    remainder[d_a:, d_a:] -= gamma_b
    residual = float(np.abs(remainder - _ingest_symmetric(certificate.P, "P")).max())
    if not residual <= tol.psd_tol * scale:
        raise ValueError("certificate does not reproduce the state: "
                         f"max|gamma - gamma_A oplus gamma_B - P| = {residual:.3e}")
    rep_a = psd_check(_minus_ij(gamma_a), tol)
    rep_b = psd_check(_minus_ij(gamma_b), tol)
    rep_p = psd_check(remainder, tol)
    valid = rep_a.is_psd and rep_b.is_psd and rep_p.is_psd
    return CertificateReport(valid, (rep_a, rep_b, rep_p))
