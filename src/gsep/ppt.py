"""Positive-partial-transpose test at the correlation-matrix level.

Partial transposition conjugates a CM with ``F = I oplus momentum_flip(m)``,
turning ``J_B`` into ``-J_B``, so ``gamma_pt - iJ = F (gamma - i(J_A oplus
-J_B)) F`` and the test reads the inner matrix, ``_flipped(cm)``.  Along
a ray, ``(gamma + eps P)_pt - iJ = F (_flipped(cm) + eps P) F``, which is
how :func:`gsep.engine.find_threshold` brackets the transpose threshold
without building a state per ``eps``.  A failure proves entanglement;
with one mode per side a pass proves separability; beyond that the
:mod:`gsep.engine` iteration is strictly stronger.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gaussian import BipartiteCM, _direct_sum, _require_cm, symplectic_form
from .matlin import DEFAULT_TOL, ToleranceConfig, _psd_rule

__all__ = ["PptReport", "ppt_check"]


class PptReport(NamedTuple):
    ppt: bool
    margin: float


def ppt_check(cm: BipartiteCM, tol: ToleranceConfig = DEFAULT_TOL) -> PptReport:
    """Test whether the partial transpose of ``cm`` is a valid CM.

    The input must itself be a valid CM; anything else raises
    :class:`~gsep.gaussian.InvalidCMError`.  One eigensolve of ``gamma -
    i(J_A oplus -J_B)`` gives ``margin``, its smallest eigenvalue, and
    ``ppt``, the PSD rule; a decisively negative margin proves entanglement.
    """
    _require_cm(cm, tol)
    eigs = np.linalg.eigvalsh(_flipped(cm))
    return PptReport(_psd_rule(eigs, tol), float(eigs[0]))


def _flipped(cm: BipartiteCM) -> np.ndarray:
    """``gamma - i(J_A oplus -J_B)``, the matrix the transpose test reads."""
    return cm.gamma - 1j * _direct_sum(symplectic_form(cm.n), -symplectic_form(cm.m))
