"""Tolerance-aware matrix primitives shared by the whole library.

Everything operates on plain numpy arrays.  Hermitian inputs are
symmetrized on ingest, so callers may hand in matrices carrying
roundoff-level asymmetry without tripping spurious failures.  Positivity
is always judged relative to the matrix scale: the PSD test passes when
the smallest eigenvalue stays above ``-psd_tol * max(1, largest
|eigenvalue|)``.  :func:`psd_check` settles that test with a shifted
Cholesky factorization first and diagonalizes only when the
factorization fails; a report whose gate passed solves ``lambda_min`` on
first read.  One kernel rule serves the decision map, certificate
reconstruction and :func:`schur_psd`: eigenvalues at or below ``pinv_rcond
* max(lambda_max, 0)``, tolerance-level negatives included, are zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "MatrixInputError",
    "PsdReport",
    "SchurReport",
    "ToleranceConfig",
    "hermitian_part",
    "hermitian_reduce_psd",
    "operator_norm",
    "pseudoinverse",
    "psd_check",
    "schur_psd",
    "trace_norm",
]


class MatrixInputError(ValueError):
    """Raised when an input matrix violates a structural precondition."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used by every positivity decision.

    Attributes:
        psd_tol: Relative eigenvalue tolerance for PSD tests of inputs
            and certificates.  A matrix counts as PSD when
            ``lambda_min >= -psd_tol * scale`` with
            ``scale = max(1, |lambda|_max)``.
        pinv_rcond: Relative cutoff below which eigenvalues are treated
            as exact zeros when pseudoinverting.
        decision_margin: Absolute band of the decision iteration.  Each
            of its three termination tests passes when its margin is
            ``>= -decision_margin`` and fails below that.
    """

    psd_tol: float = 1e-9
    pinv_rcond: float = 1e-12
    decision_margin: float = 1e-10

    def __post_init__(self):
        for name in ("psd_tol", "pinv_rcond", "decision_margin"):
            value = getattr(self, name)
            if not 0.0 < value < 1e-2:
                raise ValueError(
                    f"{name} must lie in (0, 1e-2), got {value!r}"
                )


DEFAULT_TOL = ToleranceConfig()


class PsdReport:
    """Outcome of :func:`psd_check`: the verdict and the smallest eigenvalue.

    ``is_psd`` is settled when the report is made.  ``lambda_min`` is
    the smallest eigenvalue of the symmetrized matrix; when the Cholesky
    gate settled the verdict no eigensolve has run yet, so the first
    read runs it and caches the value.
    """

    __slots__ = ("is_psd", "_herm", "_lambda_min")

    def __init__(self, is_psd: bool, herm: np.ndarray | None = None,
                 lambda_min: float | None = None):
        self.is_psd = is_psd
        self._herm = herm
        self._lambda_min = lambda_min

    @property
    def lambda_min(self) -> float:
        if self._lambda_min is None:
            self._lambda_min = float(np.linalg.eigvalsh(self._herm)[0])
            self._herm = None
        return self._lambda_min

    def __repr__(self) -> str:
        return f"PsdReport(is_psd={self.is_psd}, lambda_min={self.lambda_min!r})"


class SchurReport(NamedTuple):
    """``kernel_ok``: C vanishes on ker(B), negatives at or below the cutoff included."""

    is_psd: bool
    kernel_ok: bool


def _as_matrix(mat, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise MatrixInputError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise MatrixInputError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise MatrixInputError(f"{name} contains non-finite entries")
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    return arr.astype(dtype, copy=False)


def _as_square(mat, name: str = "matrix") -> np.ndarray:
    arr = _as_matrix(mat, name)
    if arr.shape[0] != arr.shape[1]:
        raise MatrixInputError(f"{name} must be square, got shape {arr.shape}")
    return arr


def hermitian_part(mat) -> np.ndarray:
    """Return ``(M + M^dagger) / 2``, the Hermitian part of a square matrix."""
    arr = _as_square(mat)
    return (arr + arr.conj().T) / 2.0


def psd_check(mat, tol: ToleranceConfig = DEFAULT_TOL) -> PsdReport:
    """Test a Hermitian matrix for positive semidefiniteness.

    The input is symmetrized first, so tiny asymmetry is harmless.  The
    verdict is relative to the spectral scale: the test passes when
    ``lambda_min >= -psd_tol * max(1, |lambda|_max)``.  A Cholesky gate
    shifted by ``psd_tol * max(1, max |diag|)`` runs first; since
    ``max |diag| <= |lambda|_max`` that shift never exceeds the
    eigenvalue test's own, so its success passes the test with no
    eigensolve.  Only a failed gate diagonalizes, and that eigensolve
    decides.

    Returns:
        PsdReport with the boolean verdict and the smallest eigenvalue,
        which is solved on first read when the gate settled the verdict.
    """
    herm = hermitian_part(mat)
    if _psd_by_cholesky(herm, tol.psd_tol * max(1.0, float(np.abs(herm.diagonal()).max()))):
        return PsdReport(True, herm)
    eigs = np.linalg.eigvalsh(herm)
    return PsdReport(_psd_rule(eigs, tol), lambda_min=float(eigs[0]))


def _psd_rule(eigs: np.ndarray, tol: ToleranceConfig) -> bool:
    """The PSD test on an ascending spectrum: ``lambda_min >= -psd_tol * max(1, |lambda|_max)``."""
    return float(eigs[0]) >= -tol.psd_tol * max(1.0, float(np.abs(eigs).max()))


def _psd_by_cholesky(herm: np.ndarray, tau: float) -> bool:
    """One-sided PSD gate: True iff ``herm + tau I`` has a Cholesky factor.

    Success proves ``lambda_min(herm) > -tau`` up to rounding of order
    ``d * eps * ||herm||``, at a fraction of an eigensolve's cost.
    Failure proves nothing; callers fall back to the exact eigensolve.
    Only the lower triangle is read, so ``herm`` must be Hermitian.  A
    stack of shape ``(k, d, d)`` passes only if every matrix in it does,
    at the call overhead of one factorization.
    """
    shifted = herm.copy()
    np.einsum("...ii->...i", shifted)[...] += tau  # writable view of the diagonals
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def operator_norm(mat) -> float:
    """Largest singular value.  Accepts rectangular input."""
    return float(np.linalg.norm(_as_matrix(mat), 2))


def trace_norm(mat) -> float:
    """Sum of singular values.  Accepts rectangular input."""
    return float(np.linalg.norm(_as_matrix(mat), "nuc"))


def _eigh_pinv(herm: np.ndarray, tol: ToleranceConfig):
    """One ``eigh`` of Hermitian ``herm`` and its kernel-aware inverse.

    Eigenvalues at or below ``pinv_rcond * max(lambda_max, 0)`` are kernel,
    including the tolerance-level negatives a PSD-passing matrix may carry,
    and are zeroed rather than inverted into huge negative contributions.
    Returns ``(eigs, vecs, kernel, pinv)``, ``pinv = (V Lambda^+) V^H`` unsymmetrized.
    """
    eigs, vecs = np.linalg.eigh(herm)
    kernel = eigs <= tol.pinv_rcond * max(float(eigs[-1]), 0.0)
    inv = np.zeros_like(eigs)
    np.divide(1.0, eigs, out=inv, where=~kernel)
    return eigs, vecs, kernel, (vecs * inv) @ vecs.conj().T


def _schur_complement(outer: np.ndarray, coupling: np.ndarray, inner: np.ndarray,
                      tol: ToleranceConfig):
    """The Schur complement of ``inner`` in ``[[outer, coupling], [coupling^T, inner]]``.

    One :func:`_eigh_pinv` of the real symmetric ``inner`` yields all
    three facts that decide whether that block matrix is PSD.  Returns
    ``(complement, inner_psd, inner_margin, kernel_ok, residual)``:
    ``outer - coupling inner^+ coupling^T`` symmetrized; whether
    ``inner`` passes the PSD rule, with ``lambda_min(inner)``; and
    whether ``||coupling v|| <= psd_tol * max(1, ||coupling||_op)`` for
    every kernel vector ``v`` of ``inner``, with the worst such residual.
    """
    eigs, vecs, kernel, inner_pinv = _eigh_pinv(inner, tol)
    kernel_ok, residual = True, 0.0
    if kernel.any():
        residuals = np.linalg.norm(coupling @ vecs[:, kernel], axis=0)
        allowance = tol.psd_tol * max(1.0, operator_norm(coupling))
        kernel_ok, residual = bool(np.all(residuals <= allowance)), float(residuals.max())
    complement = outer - coupling @ inner_pinv @ coupling.T
    return ((complement + complement.T) / 2.0, _psd_rule(eigs, tol), float(eigs[0]),
            kernel_ok, residual)


def pseudoinverse(mat, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a Hermitian PSD matrix.

    Built from an eigendecomposition of the Hermitian part under the
    module's kernel rule, so tolerance-level negatives are zeroed.  The
    result is Hermitian and PSD by construction.  Inputs far from PSD are
    outside the contract; use a general-purpose pseudoinverse for those.
    """
    return hermitian_part(_eigh_pinv(hermitian_part(mat), tol)[3])


def schur_psd(block_a, block_b, block_c, tol: ToleranceConfig = DEFAULT_TOL) -> SchurReport:
    """Block-positivity test for ``[[A, C], [C^T, B]]`` via Schur complement.

    Decides PSD-ness of the symmetric block matrix without assembling
    it: the matrix is PSD exactly when B is PSD, the range condition
    ``ker(B) subset ker(C)`` holds (equivalently ``C (I - B B^+) = 0``),
    and the complement ``A - C B^+ C^T`` is PSD.  Negative eigenvalues of
    B at or below the pseudoinverse cutoff are checked as kernel, not
    inverted.

    Args:
        block_a: Real symmetric, shape (p, p).
        block_b: Real symmetric, shape (q, q).
        block_c: Real coupling block, shape (p, q).
        tol: Tolerances for the kernel residual and the PSD tests.

    Returns:
        SchurReport with the overall verdict and whether the kernel
        condition held.
    """
    a = hermitian_part(_as_square(block_a, "block_a"))
    b = hermitian_part(_as_square(block_b, "block_b"))
    c = _as_matrix(block_c, "block_c")
    if np.iscomplexobj(a) or np.iscomplexobj(b) or np.iscomplexobj(c):
        raise MatrixInputError("schur_psd expects real blocks")
    if c.shape != (a.shape[0], b.shape[0]):
        raise MatrixInputError(
            f"block_c shape {c.shape} incompatible with blocks "
            f"{a.shape} and {b.shape}"
        )

    complement, b_psd, _, kernel_ok, _ = _schur_complement(a, c, b, tol)
    complement_psd = psd_check(complement, tol).is_psd
    return SchurReport(bool(b_psd and kernel_ok and complement_psd), kernel_ok)


def hermitian_reduce_psd(sym, antisym, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """PSD test for ``[[A, C], [C^T, A]]`` with A symmetric, C antisymmetric.

    For real A = A^T and C = -C^T the doubled block matrix is PSD exactly
    when the Hermitian matrix ``A + iC`` is PSD, so a single
    :func:`psd_check` at half the dimension decides it.

    Raises:
        MatrixInputError: if the symmetry residual of ``sym`` or the
            antisymmetry residual of ``antisym`` exceeds tolerance, or
            the blocks are complex or of mismatched shape.
    """
    a = _as_square(sym, "sym")
    c = _as_square(antisym, "antisym")
    if np.iscomplexobj(a) or np.iscomplexobj(c):
        raise MatrixInputError("hermitian_reduce_psd expects real blocks")
    if a.shape != c.shape:
        raise MatrixInputError(f"shape mismatch: {a.shape} vs {c.shape}")

    allowance = tol.psd_tol * max(1.0, float(np.abs(a).max()), float(np.abs(c).max()))
    if float(np.abs(a - a.T).max()) > allowance:
        raise MatrixInputError("sym block has symmetry residual above tolerance")
    if float(np.abs(c + c.T).max()) > allowance:
        raise MatrixInputError("antisym block has antisymmetry residual above tolerance")

    return psd_check(a + 1j * c, tol).is_psd
