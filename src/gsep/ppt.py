"""Positive-partial-transpose test at the correlation-matrix level.

Partial transposition acts on a CM by flipping the momentum quadratures
of the second subsystem.  A separable state stays a valid CM under this
flip, so a failed test proves entanglement.  For one mode on each side
the test is also sufficient: passing it proves separability.  For larger
systems it is necessary only; the decision iteration in
:mod:`gsep.engine` is strictly stronger there.
"""

from __future__ import annotations

from typing import NamedTuple

from .gaussian import BipartiteCM, _require_cm, partial_transpose, validate_cm
from .matlin import DEFAULT_TOL, ToleranceConfig

__all__ = ["PptReport", "ppt_check"]


class PptReport(NamedTuple):
    ppt: bool
    margin: float


def ppt_check(cm: BipartiteCM, tol: ToleranceConfig = DEFAULT_TOL) -> PptReport:
    """Test whether the partial transpose of ``cm`` is a valid CM.

    The input must itself be a valid CM; anything else raises
    :class:`~gsep.gaussian.InvalidCMError`.  ``margin`` is the smallest
    eigenvalue of ``gamma_pt - iJ``; a decisively negative value proves
    the state entangled.
    """
    _require_cm(cm, tol)
    flipped = validate_cm(partial_transpose(cm), tol)
    return PptReport(flipped.is_psd, flipped.lambda_min)
