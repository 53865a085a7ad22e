"""Independent reference checks for every benchmark operation.

Nothing here calls gsep: the checks use numpy eigensolves only, so a
verdict or certificate is judged by code that shares no logic with the
solver.  The tolerances mirror gsep's defaults (relative PSD tolerance
1e-9), and thresholds are held to the 1e-8 the decision resolves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

J1 = np.array([[0.0, -1.0], [1.0, 0.0]])
PSD_TOL = 1e-9
THRESHOLD_TOL = 1e-8
# A PPT margin below this proves entanglement beyond the solver's resolution.
PPT_RESOLUTION = -1e-9


@dataclass(frozen=True)
class Outcome:
    """What one verdict operation returned.

    ``gamma_a``/``gamma_b`` hold the certificate of a separable verdict;
    ``valid`` is gsep's own verification of it when the caller ran one.
    """

    kind: str
    step: int = 0
    gamma_a: np.ndarray | None = None
    gamma_b: np.ndarray | None = None
    valid: bool | None = None


def symplectic_form(k: int) -> np.ndarray:
    return np.kron(np.eye(k), J1)


def _psd(mat: np.ndarray) -> bool:
    eigs = np.linalg.eigvalsh(mat)
    return bool(eigs[0] >= -PSD_TOL * max(1.0, float(np.abs(eigs).max())))


def cm_margin(gamma: np.ndarray) -> float:
    """``lambda_min(gamma - iJ)``: nonnegative exactly for valid CMs."""
    return float(np.linalg.eigvalsh(gamma - 1j * symplectic_form(gamma.shape[0] // 2))[0])


def ppt_margin(gamma: np.ndarray, n: int) -> float:
    """``lambda_min`` of the CM partially transposed on the second party, minus ``iJ``."""
    flip = np.ones(gamma.shape[0])
    flip[2 * n + 1::2] = -1.0
    return cm_margin(gamma * np.outer(flip, flip))


def ppt_threshold(gamma: np.ndarray, n: int) -> float:
    """Smallest ``eps >= 0`` with ``gamma + eps I`` PPT.

    Partial transposition maps ``I`` to ``I``, so the PPT margin of
    ``gamma + eps I`` is the margin of ``gamma`` plus ``eps``.
    """
    return max(0.0, -ppt_margin(gamma, n))


def _symmetric(mat: np.ndarray) -> bool:
    return bool(np.abs(mat - mat.T).max() <= PSD_TOL * max(1.0, float(np.abs(mat).max())))


def certificate_ok(gamma: np.ndarray, n: int, gamma_a, gamma_b) -> bool:
    """``gamma_A``, ``gamma_B`` valid CMs and ``gamma - gamma_A (+) gamma_B`` PSD."""
    m = gamma.shape[0] // 2 - n
    gamma_a = np.asarray(gamma_a, dtype=float)
    gamma_b = np.asarray(gamma_b, dtype=float)
    if gamma_a.shape != (2 * n, 2 * n) or gamma_b.shape != (2 * m, 2 * m):
        return False
    if not all(np.all(np.isfinite(b)) and _symmetric(b) for b in (gamma_a, gamma_b)):
        return False
    noise = gamma.copy()
    noise[:2 * n, :2 * n] -= gamma_a
    noise[2 * n:, 2 * n:] -= gamma_b
    return (_psd(gamma_a - 1j * symplectic_form(n))
            and _psd(gamma_b - 1j * symplectic_form(m))
            and _psd(noise))


def check_verdict(gamma: np.ndarray, n: int, expect: str, out: Outcome,
                  certified: bool = True) -> str | None:
    """Failure reason for one verdict, or ``None`` when it holds.

    ``expect`` is "separable", "entangled", or "not-separable" (any
    verdict but separable).  When ``certified``, a separable verdict must
    carry a certificate that passes :func:`certificate_ok`.
    """
    if out.kind == "separable":
        if expect != "separable":
            return f"separable, reference says {expect}"
        if out.valid is False:
            return "gsep rejected its own certificate"
        if certified and (out.gamma_a is None
                          or not certificate_ok(gamma, n, out.gamma_a, out.gamma_b)):
            return "certificate fails the reference check"
        return None
    if expect == "not-separable" or out.kind == expect:
        return None
    return f"{out.kind}, reference says {expect}"


def sweep_expect(gamma: np.ndarray, n: int, eps: float, threshold: float) -> str:
    """What the reference demands of ``gamma + eps I`` near a found threshold.

    Above it the state must come back separable with a certificate.  Below
    it, a clearly failed transpose test proves entanglement; otherwise the
    reference can only rule out a separable verdict.
    """
    if eps > threshold:
        return "separable"
    if ppt_margin(gamma, n) + eps < PPT_RESOLUTION:
        return "entangled"
    return "not-separable"


def check_threshold(gamma: np.ndarray, n: int, found: float, exact: float | None) -> str | None:
    """Failure reason for a threshold, or ``None`` when it is in its bracket."""
    if exact is not None:
        if abs(found - exact) > THRESHOLD_TOL:
            return f"threshold {found!r} is not within {THRESHOLD_TOL} of {exact!r}"
        return None
    floor = ppt_threshold(gamma, n)
    if found < floor - THRESHOLD_TOL:
        return f"threshold {found!r} is below the transpose threshold {floor!r}"
    return None
