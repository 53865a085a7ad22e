"""Seeded random states from products of ``expm(J H)`` factors.

These are the generators the test populations were drawn from before
gsep's public generators switched to the numpy-only Euler form.  They
stay here, bit for bit, so that every seeded population the tests and
the acceptance gates assert on keeps its exact states; the sha256 pins
in ``test_gaussian.py`` guard that.  They need scipy, which the ``test``
extra provides.
"""

import numpy as np
from scipy.linalg import expm

from gsep.gaussian import BipartiteCM, _direct_sum, symplectic_form


def _resolve_rng(seed, rng):
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


def random_symplectic(n_modes, rng):
    """Random symplectic matrix, a product of three ``expm(J H)`` factors.

    Each factor exponentiates ``J H`` with ``H`` a symmetrized standard
    normal matrix; such exponentials are symplectic.
    """
    j = symplectic_form(n_modes)
    s = np.eye(2 * n_modes)
    for _ in range(3):
        g = rng.standard_normal((2 * n_modes, 2 * n_modes))
        s = s @ expm(j @ ((g + g.T) / 2.0))
    return s


def random_covariance(n_modes, purity="mixed", seed=None, rng=None):
    """``S S^T``, plus PSD noise ``R R^T`` when mixed, symmetrized."""
    if purity not in ("pure", "mixed"):
        raise ValueError(f"purity must be 'pure' or 'mixed', got {purity!r}")
    gen = _resolve_rng(seed, rng)
    s = random_symplectic(n_modes, gen)
    gamma = s @ s.T
    if purity == "mixed":
        r = gen.standard_normal((2 * n_modes, 2 * n_modes)) / np.sqrt(2 * n_modes)
        gamma = gamma + r @ r.T
    return (gamma + gamma.T) / 2.0


def random_cm(n, m, purity="mixed", seed=None, rng=None):
    """Random valid bipartite correlation matrix on ``n + m`` modes."""
    return BipartiteCM.from_gamma(random_covariance(n + m, purity, seed, rng), n, m)


def random_separable_cm(n, m, seed=None, rng=None):
    """``gamma_A oplus gamma_B + R R^T``, with the planted blocks."""
    gen = _resolve_rng(seed, rng)
    gamma_a = random_covariance(n, "mixed", rng=gen)
    gamma_b = random_covariance(m, "mixed", rng=gen)
    d = 2 * (n + m)
    r = gen.standard_normal((d, d)) / np.sqrt(d)
    gamma = _direct_sum(gamma_a, gamma_b) + r @ r.T
    return BipartiteCM.from_gamma(gamma, n, m), gamma_a, gamma_b


def nearly_pure_2x2():
    """Nearly pure 2+2 blocks with weak noise, from ``default_rng(6)``.

    ``decide`` calls it SEPARABLE inside the tolerance band, and the
    certificate's step-0 reduced B-block fails the CM test (margin about
    -1.4e-6), so ``reconstruct`` raises ``CertificateError``.
    """
    rng = np.random.default_rng(6)
    mix = 1e-3
    ga = random_covariance(2, "pure", rng=rng) + mix * np.eye(4)
    gb = random_covariance(2, "pure", rng=rng) + mix * np.eye(4)
    r = mix * rng.standard_normal((8, 8)) / np.sqrt(8)
    return BipartiteCM.from_gamma(_direct_sum(ga, gb) + r @ r.T, 2, 2)
