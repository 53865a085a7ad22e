"""Correlation matrices of Gaussian states and their bipartite block form.

Conventions used across the library: quadratures are interleaved per mode
as ``(x1, p1, x2, p2, ...)``, the vacuum correlation matrix is the
identity, and a real symmetric matrix ``gamma`` is a valid correlation
matrix exactly when ``gamma - iJ >= 0`` with ``J`` the symplectic form
returned by :func:`symplectic_form`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matlin import DEFAULT_TOL, PsdReport, ToleranceConfig, psd_check

__all__ = [
    "BipartiteCM",
    "CMError",
    "InvalidCMError",
    "momentum_flip",
    "partial_transpose",
    "random_cm",
    "random_covariance",
    "random_separable_cm",
    "random_symplectic",
    "symplectic_form",
    "tmss",
    "validate_cm",
]

# Asymmetry beyond this (relative to the entry scale) is a structural
# error, not roundoff, and gets rejected instead of symmetrized away.
_SYMMETRY_RTOL = 1e-8


class CMError(ValueError):
    """Structural problem with a correlation matrix or its blocks."""


class InvalidCMError(CMError):
    """A structurally fine matrix that fails the ``gamma - iJ >= 0`` test."""


# Bound on the per-mode squeezing of random_symplectic.
_SQUEEZE_MAX = 1.0
# Largest tmss squeezing: cosh(2r) stays below half the largest float, so
# symmetrizing the state's blocks cannot overflow.
_TMSS_R_MAX = 354.0

# One read-only J per mode count: the iteration asks for J several times
# per step, and rebuilding it with np.kron costs tens of microseconds.
_SYMPLECTIC_FORMS: dict[int, np.ndarray] = {}


def symplectic_form(n_modes: int) -> np.ndarray:
    """Symplectic form for ``n_modes`` modes in interleaved ordering.

    Block-diagonal direct sum of ``n_modes`` copies of
    ``[[0, -1], [1, 0]]``.  The array is cached per size and read-only;
    copy it before writing to it.
    """
    j = _SYMPLECTIC_FORMS.get(n_modes)
    if j is None:
        if n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {n_modes}")
        j = np.kron(np.eye(n_modes), np.array([[0.0, -1.0], [1.0, 0.0]]))
        j.flags.writeable = False
        _SYMPLECTIC_FORMS[n_modes] = j
    return j


def _minus_ij(x: np.ndarray) -> np.ndarray:
    """``x - iJ``, the matrix whose positivity is the CM test, for a ``2k x 2k`` ``x``."""
    return x - 1j * symplectic_form(x.shape[0] // 2)


def _direct_sum(a: np.ndarray, b: np.ndarray, c=0.0) -> np.ndarray:
    """The one builder of ``[[a, c], [c^T, b]]``, by default ``a oplus b``: four slice writes."""
    k = len(a)
    out = np.empty((k + len(b),) * 2)
    out[:k, :k], out[:k, k:], out[k:, :k], out[k:, k:] = a, c, np.transpose(c), b
    return out


def _ingest_symmetric(mat, name: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise CMError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] % 2 != 0 or arr.shape[0] == 0:
        raise CMError(f"{name} must have even positive dimension, got {arr.shape[0]}")
    scale = float(np.abs(arr).max())  # NaN or inf exactly when an entry is
    if not np.isfinite(scale):
        raise CMError(f"{name} contains non-finite entries")
    half = arr / 2.0  # halves first, so that no sum of two finite entries overflows
    residual = 2.0 * float(np.abs(half - half.T).max())
    if residual > _SYMMETRY_RTOL * max(1.0, scale):
        raise CMError(f"{name} is not symmetric (residual {residual:.3e})")
    sym = half + half.T
    sym.flags.writeable = False
    return sym


@dataclass(frozen=True)
class BipartiteCM:
    """Correlation matrix of an ``n x m``-mode bipartite state, in blocks.

    The assembled matrix is ``[[A, C], [C^T, B]]`` with ``A`` the
    ``2n x 2n`` block of the first subsystem, ``B`` the ``2m x 2m`` block
    of the second, and ``C`` their ``2n x 2m`` coupling.
    """

    n: int
    m: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    @classmethod
    def from_blocks(cls, block_a, block_b, block_c) -> "BipartiteCM":
        """Ingest the blocks; a block passed as both ``A`` and ``B`` is ingested once."""
        a = _ingest_symmetric(block_a, "A")
        b = a if block_b is block_a else _ingest_symmetric(block_b, "B")
        c = np.asarray(block_c, dtype=float)
        if not np.all(np.isfinite(c)):
            raise CMError("C contains non-finite entries")
        if c.shape != (a.shape[0], b.shape[0]):
            raise CMError(
                f"C shape {c.shape} incompatible with A {a.shape} and B {b.shape}"
            )
        c = c.copy()
        c.flags.writeable = False
        return cls(n=a.shape[0] // 2, m=b.shape[0] // 2, A=a, B=b, C=c)

    @classmethod
    def from_gamma(cls, gamma, n: int, m: int | None = None) -> "BipartiteCM":
        sym = _ingest_symmetric(gamma, "gamma")
        total = sym.shape[0] // 2
        if m is None:
            m = total - n
        if n < 1 or m < 1 or n + m != total:
            raise CMError(
                f"mode split {n}+{m} incompatible with a {sym.shape[0]}-row gamma"
            )
        k = 2 * n
        return cls.from_blocks(sym[:k, :k], sym[k:, k:], sym[:k, k:])

    @property
    def gamma(self) -> np.ndarray:
        """The assembled matrix ``[[A, C], [C^T, B]]``."""
        return _direct_sum(self.A, self.B, self.C)


def validate_cm(gamma, tol: ToleranceConfig = DEFAULT_TOL) -> PsdReport:
    """Test whether ``gamma`` is a valid correlation matrix.

    Accepts a plain array or a :class:`BipartiteCM`.  Structural
    problems (odd dimension, asymmetry beyond tolerance, non-finite
    entries) raise :class:`CMError`; the returned report answers only
    the ``gamma - iJ >= 0`` question, with ``lambda_min`` as the margin.
    """
    arr = gamma.gamma if isinstance(gamma, BipartiteCM) else _ingest_symmetric(gamma, "gamma")
    return psd_check(_minus_ij(arr), tol)


def _require_cm(cm, tol: ToleranceConfig) -> None:
    """Raise :class:`InvalidCMError` unless ``cm`` passes :func:`validate_cm`."""
    report = validate_cm(cm, tol)
    if not report.is_psd:
        raise InvalidCMError(
            f"input fails the CM test (margin {report.lambda_min:.3e}); "
            "not a state, refusing to classify"
        )


def tmss(r: float) -> BipartiteCM:
    """Two-mode squeezed state with squeezing parameter ``0 <= r <= 354``.

    Blocks: ``A = B = cosh(2r) I``, ``C = sinh(2r) diag(1, -1)``.
    At ``r = 0`` this is the two-mode vacuum.  Any other ``r``, NaN
    included, raises ``ValueError``: above the cap ``cosh(2r)`` exceeds
    half the largest float, and the state's entries would overflow.
    """
    if not 0.0 <= r <= _TMSS_R_MAX:
        raise ValueError(f"squeezing parameter r must lie in [0, {_TMSS_R_MAX:g}], got {r!r}")
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return BipartiteCM.from_blocks(
        ch * np.eye(2), ch * np.eye(2), sh * np.diag([1.0, -1.0])
    )


def momentum_flip(n_modes: int) -> np.ndarray:
    """Diagonal sign matrix flipping every momentum quadrature."""
    return np.kron(np.eye(n_modes), np.diag([1.0, -1.0]))


def partial_transpose(cm: BipartiteCM) -> BipartiteCM:
    """Partial transposition on the second subsystem.

    Acts on the correlation matrix by conjugation with
    ``I oplus momentum_flip(m)``: A is untouched, C picks up the sign
    flips from the right, B is conjugated.
    """
    flip = momentum_flip(cm.m)
    return BipartiteCM.from_blocks(cm.A, flip @ cm.B @ flip, cm.C @ flip)


def _passive(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random orthogonal symplectic matrix, a passive optical network.

    The unitary ``U`` acting as ``x + ip -> U (x + ip)`` is the QR factor
    of a complex Gaussian matrix with the phase fix of Mezzadri, Notices
    AMS 54, 592 (2007), which makes it Haar distributed.
    """
    z = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal((n_modes, n_modes))
    q, r = np.linalg.qr(z)
    u = q * (r.diagonal() / np.abs(r.diagonal()))
    return np.kron(u.real, np.eye(2)) + np.kron(u.imag, symplectic_form(1))


def random_symplectic(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """Random symplectic matrix in Euler form ``O1 diag(e^r1, e^-r1, ...) O2``.

    ``O1`` and ``O2`` are Haar-random passive networks and every
    squeezing ``r_i`` is uniform on ``[0, _SQUEEZE_MAX]``, so
    ``cond(S S^T) <= exp(4 _SQUEEZE_MAX)`` at any mode count.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    r = rng.uniform(0.0, _SQUEEZE_MAX, n_modes)
    squeeze = np.exp(np.outer(r, [1.0, -1.0])).ravel()
    return (_passive(n_modes, rng) * squeeze) @ _passive(n_modes, rng)


def random_covariance(
    n_modes: int,
    purity: str = "mixed",
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Random valid correlation matrix on ``n_modes`` modes, read-only.

    ``purity="pure"`` returns ``S S^T`` for a random symplectic ``S``
    (determinant one, saturating the validity bound).  ``purity="mixed"``
    adds PSD noise ``R R^T``, pushing the state strictly inside the
    valid cone.  ``seed`` is an int, ``None``, or a Generator that the
    draws advance; identical int seeds give bit-identical output.
    """
    if purity not in ("pure", "mixed"):
        raise ValueError(f"purity must be 'pure' or 'mixed', got {purity!r}")
    gen = np.random.default_rng(seed)
    s = random_symplectic(n_modes, gen)
    gamma = s @ s.T
    if purity == "mixed":
        r = gen.standard_normal((2 * n_modes, 2 * n_modes)) / np.sqrt(2 * n_modes)
        gamma = gamma + r @ r.T
    return _ingest_symmetric(gamma, "gamma")


def _require_mode_split(n: int, m: int) -> None:
    if not (n >= 1 and m >= 1):
        raise ValueError(f"both parties need at least one mode, got n={n!r} and m={m!r}")


def random_cm(
    n: int,
    m: int,
    purity: str = "mixed",
    seed: int | np.random.Generator | None = None,
) -> BipartiteCM:
    """Random valid bipartite correlation matrix on ``n + m`` modes, ``n, m >= 1``."""
    _require_mode_split(n, m)
    gamma = random_covariance(n + m, purity=purity, seed=seed)
    return BipartiteCM.from_gamma(gamma, n, m)


def random_separable_cm(
    n: int,
    m: int,
    seed: int | np.random.Generator | None = None,
) -> tuple[BipartiteCM, np.ndarray, np.ndarray]:
    """Random separable bipartite CM, built as ``gamma_A oplus gamma_B + P``.

    The blocks are independent mixed-state CMs and ``P = R R^T`` is PSD
    noise across the full system, so separability holds by construction.
    ``seed`` is read as by :func:`random_covariance`.  Returns the
    assembled state together with the planted ``gamma_A`` and
    ``gamma_B`` for use as ground truth in tests.
    """
    _require_mode_split(n, m)
    gen = np.random.default_rng(seed)
    gamma_a = random_covariance(n, "mixed", seed=gen)
    gamma_b = random_covariance(m, "mixed", seed=gen)
    d = 2 * (n + m)
    r = gen.standard_normal((d, d)) / np.sqrt(d)
    gamma = _direct_sum(gamma_a, gamma_b) + r @ r.T
    return BipartiteCM.from_gamma(gamma, n, m), gamma_a, gamma_b
