"""Separability decision engine for bipartite Gaussian states.

The engine iterates a nonlinear map on the block form ``[[A, C], [C^T, B]]``
of a correlation matrix.  One application computes the Hermitian Schur
complement ``X = C (B - iJ)^+ C^T`` and replaces the state by

    ``A' = B' = A - Re(X)``,   ``C' = -Im(X)``,

a square bipartite CM on ``n + n`` modes.  Two one-sided tests are applied
to every iterate ``N >= 1``:

* if ``A_N - iJ`` fails the PSD test decisively, the input was entangled;
* if ``A_N - ||C_N||_op I - iJ`` passes it, the input was separable, and
  the trace retains everything needed to reconstruct an explicit
  separable decomposition (see :mod:`gsep.certify`).

If an iterate stops being a valid CM before either test fires, the input
was entangled as well, and the iteration terminates with that verdict.
All three tests judge their margin by one absolute band: it passes when
``>= -decision_margin`` and fails below.  Inputs on which no test fires
come back ``UNDECIDED``, and :func:`decide_robust` is the documented way
to resolve them by perturbing with ``+/- eps`` times the identity.

An input that fails the CM test is not a state: :func:`decide` and
:func:`map_step` refuse it with :class:`~gsep.gaussian.InvalidCMError`,
whose message quotes the failing margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gaussian import BipartiteCM, InvalidCMError, _require_cm, symplectic_form
from .matlin import (
    DEFAULT_TOL,
    ToleranceConfig,
    _psd_by_cholesky,
    operator_norm,
    pseudoinverse,
    psd_check,
    trace_norm,
)

__all__ = [
    "BracketError",
    "EngineError",
    "IterationStep",
    "IterationTrace",
    "NumericalError",
    "SweepPoint",
    "Verdict",
    "VerdictKind",
    "decide",
    "decide_robust",
    "find_threshold",
    "map_step",
    "sweep",
]


class EngineError(RuntimeError):
    """Base class for failures inside the decision iteration."""


class NumericalError(EngineError):
    """An iterate became non-finite."""


class BracketError(EngineError):
    """No separable upper bracket was found during threshold search."""


class VerdictKind(str, Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"
    UNDECIDED = "undecided"


# Termination reasons recorded on the trace.
REASON_BLOCK_ENTANGLED = "A-block fails the CM test"
REASON_CONE_ENTANGLED = "iterate left the CM cone"
REASON_NORM_GAP_SEPARABLE = "norm-shifted A-block passes the CM test"
REASON_MAX_ITER = "iteration limit reached"


@dataclass(frozen=True)
class IterationStep:
    """One iterate ``gamma_N`` together with its decision margins.

    ``margin_A`` is ``lambda_min(A_N - iJ)``, ``margin_L`` the same for
    the shifted block ``A_N - ||C_N||_op I`` (the shift moves every
    eigenvalue by exactly ``-c_opnorm``), and ``margin_full`` for the
    assembled iterate ``gamma_N - iJ``; :func:`decide` compares each
    with ``-decision_margin``.  ``scale_full`` is ``max(1, |lambda|_max)``
    of ``gamma_N - iJ``.

    ``margin_full`` and ``scale_full`` are not constructor fields: both
    are read from one eigensolve of ``gamma_N - iJ`` that runs on first
    access and is cached, because :func:`decide` settles the cone test
    with a Cholesky gate and needs that eigensolve only when the gate
    fails.
    """

    index: int
    A: np.ndarray
    C: np.ndarray
    margin_A: float
    c_opnorm: float
    a_trnorm: float

    @property
    def margin_L(self) -> float:
        return self.margin_A - self.c_opnorm

    def _full_minus_ij(self) -> np.ndarray:
        """``gamma_N - iJ``, the matrix of the cone test, on ``n + n`` modes."""
        gamma = np.block([[self.A, self.C], [self.C.T, self.A]])
        return gamma - 1j * symplectic_form(self.A.shape[0])

    @cached_property
    def _eigs_full(self) -> np.ndarray:
        return np.linalg.eigvalsh(self._full_minus_ij())

    @property
    def margin_full(self) -> float:
        return float(self._eigs_full[0])

    @property
    def scale_full(self) -> float:
        return max(1.0, float(np.abs(self._eigs_full).max()))

    def as_cm(self) -> BipartiteCM:
        return BipartiteCM.from_blocks(self.A, self.A, self.C)


@dataclass(frozen=True)
class IterationTrace:
    """The input state, every computed iterate, and why iteration stopped."""

    gamma0: BipartiteCM
    steps: tuple[IterationStep, ...]
    reason: str

    @property
    def c_opnorm_history(self) -> tuple[float, ...]:
        return tuple(step.c_opnorm for step in self.steps)


@dataclass(frozen=True)
class Verdict:
    """Outcome of :func:`decide`.

    ``margin`` is the eigenvalue margin of whichever test fired: below
    ``-decision_margin`` for ENTANGLED, at or above it for SEPARABLE.  For
    an UNDECIDED verdict it is the final ``margin_L``, the distance still
    missing for a separability verdict.
    """

    kind: VerdictKind
    step: int
    margin: float
    reason: str
    trace: IterationTrace


class SweepPoint(NamedTuple):
    eps: float
    kind: VerdictKind
    steps: int


def map_step(cm: BipartiteCM, tol: ToleranceConfig = DEFAULT_TOL, validate: bool = True) -> BipartiteCM:
    """Apply one step of the iteration map to a bipartite CM.

    Args:
        cm: The current state in block form.
        tol: Tolerances for validation and the pseudoinverse cutoff.
        validate: When true (the default), refuse inputs that fail the
            CM test with :class:`~gsep.gaussian.InvalidCMError`, as
            :func:`decide` does; the map's contract only covers valid
            states.

    Returns:
        The next iterate, a square bipartite CM on ``n + n`` modes with
        symmetric ``A' = B'`` and antisymmetric ``C'``.
    """
    if validate:
        _require_cm(cm, tol)
    j_m = symplectic_form(cm.m)
    x = cm.C @ pseudoinverse(cm.B - 1j * j_m, tol) @ cm.C.T
    if not np.all(np.isfinite(x)):
        raise NumericalError("map produced a non-finite Schur complement")
    a_next = cm.A - x.real
    a_next = (a_next + a_next.T) / 2.0
    c_next = -x.imag
    c_next = (c_next - c_next.T) / 2.0
    return BipartiteCM.from_blocks(a_next, a_next, c_next)


def _make_step(index: int, cm: BipartiteCM) -> IterationStep:
    """Assemble an IterationStep with all margins for iterate ``cm``."""
    j_n = symplectic_form(cm.n)
    return IterationStep(
        index=index,
        A=cm.A,
        C=cm.C,
        margin_A=float(np.linalg.eigvalsh(cm.A - 1j * j_n)[0]),
        c_opnorm=operator_norm(cm.C),
        a_trnorm=trace_norm(cm.A),
    )


def _left_cone(step: IterationStep, tol: ToleranceConfig) -> bool:
    """Whether ``margin_full`` lies below the band, ``< -decision_margin``.

    With ``B_N = A_N`` and antisymmetric ``C_N``, the spectrum of
    ``gamma_N - iJ`` is the union of the spectra of ``A_N - iJ + iC_N``
    and ``A_N - iJ - iC_N``.  Cholesky factorizations of both halves,
    shifted by ``decision_margin``, therefore prove that the test cannot
    fire; only when one of them fails does the exact eigensolve behind
    ``margin_full`` run.
    """
    a, c = step.A, step.C
    halves = a - 1j * (symplectic_form(a.shape[0] // 2) - np.stack((c, -c)))
    if _psd_by_cholesky(halves, tol.decision_margin):
        return False
    return step.margin_full < -tol.decision_margin


def decide(cm: BipartiteCM, tol: ToleranceConfig = DEFAULT_TOL, max_iter: int = 200) -> Verdict:
    """Decide separability of a bipartite Gaussian state.

    The input must be a valid CM; anything else raises
    :class:`~gsep.gaussian.InvalidCMError` instead of being classified.
    Iterates ``N >= 1`` are tested in order, and the first test that
    fires terminates the run: the entangled test (``margin_A <
    -decision_margin``), the separable test (``margin_L >=
    -decision_margin``), then the cone test (``margin_full <
    -decision_margin``).  The test that fires, or the iteration limit,
    picks the verdict's kind, margin and reason.

    Returns:
        A Verdict whose trace retains the input and every iterate, which
        is what certificate reconstruction consumes.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    _require_cm(cm, tol)

    steps: list[IterationStep] = []
    current = cm
    for index in range(1, max_iter + 1):
        current = map_step(current, tol, validate=False)
        step = _make_step(index, current)
        steps.append(step)
        if step.margin_A < -tol.decision_margin:
            kind, margin, reason = VerdictKind.ENTANGLED, step.margin_A, REASON_BLOCK_ENTANGLED
        elif step.margin_L >= -tol.decision_margin:
            kind, margin, reason = VerdictKind.SEPARABLE, step.margin_L, REASON_NORM_GAP_SEPARABLE
        elif _left_cone(step, tol):
            # the iterate itself stopped being a CM: entangled input
            kind, margin, reason = VerdictKind.ENTANGLED, step.margin_full, REASON_CONE_ENTANGLED
        else:
            continue
        break
    else:
        kind, margin, reason = VerdictKind.UNDECIDED, step.margin_L, REASON_MAX_ITER
    return Verdict(kind, index, margin, reason, IterationTrace(cm, tuple(steps), reason))


def _shifted(cm: BipartiteCM, eps: float, perturbation: np.ndarray | None = None) -> BipartiteCM:
    d = 2 * (cm.n + cm.m)
    pert = np.eye(d) if perturbation is None else perturbation
    return BipartiteCM.from_gamma(cm.gamma + eps * pert, cm.n, cm.m)


def _checked_perturbation(cm: BipartiteCM, perturbation, tol: ToleranceConfig) -> np.ndarray:
    """``perturbation`` as a float array, if it is a PSD matrix of ``cm``'s size."""
    pert = np.asarray(perturbation, dtype=float)
    if pert.shape != (2 * (cm.n + cm.m),) * 2:
        raise ValueError(f"perturbation has wrong shape {pert.shape}")
    if not psd_check(pert, tol).is_psd:
        raise ValueError("perturbation must be PSD")
    return pert


def decide_robust(cm: BipartiteCM, eps: float, tol: ToleranceConfig = DEFAULT_TOL,
                  max_iter: int = 200) -> Verdict:
    """Decide separability up to an ``eps``-sized identity perturbation.

    Runs :func:`decide` on ``gamma + eps I`` and, if needed, on
    ``gamma - eps I``.  Only two inferences are drawn: entangled for the
    enlarged state implies entangled for the state, and separable for
    the shrunk state implies separable.  Everything else comes back
    UNDECIDED ("undecided within eps").  When ``gamma - eps I`` is not a
    valid CM the negative side is skipped and the plain verdict on
    ``gamma`` itself is returned instead.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    plus = decide(_shifted(cm, +eps), tol, max_iter)
    if plus.kind is VerdictKind.ENTANGLED:
        return Verdict(plus.kind, plus.step, plus.margin,
                       f"entangled even with +eps={eps:g} of identity noise",
                       plus.trace)
    try:
        minus = decide(_shifted(cm, -eps), tol, max_iter)
    except InvalidCMError:
        return decide(cm, tol, max_iter)
    if minus.kind is VerdictKind.SEPARABLE:
        return Verdict(minus.kind, minus.step, minus.margin,
                       f"separable even after removing eps={eps:g} of identity",
                       minus.trace)
    return Verdict(VerdictKind.UNDECIDED, minus.step, minus.margin,
                   f"undecided within eps={eps:g}", minus.trace)


def sweep(cm: BipartiteCM, perturbation: np.ndarray, eps_grid,
          tol: ToleranceConfig = DEFAULT_TOL, max_iter: int = 200,
          stop_after_separable: bool = False) -> list[SweepPoint]:
    """Run :func:`decide` on ``gamma + eps P`` for every ``eps`` in a grid.

    The grid is sorted ascending before the runs.  ``perturbation`` must
    be PSD so that larger ``eps`` can only make the state more separable
    along the ray.  With ``stop_after_separable`` the sweep stops at the
    first separable verdict; by default every grid point is evaluated.
    """
    grid = np.asarray(eps_grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("eps grid is empty")
    if not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ValueError("eps grid must be finite and non-negative")
    pert = _checked_perturbation(cm, perturbation, tol)

    points = []
    for eps in np.sort(grid):
        verdict = decide(_shifted(cm, float(eps), pert), tol, max_iter)
        points.append(SweepPoint(float(eps), verdict.kind, verdict.step))
        if stop_after_separable and verdict.kind is VerdictKind.SEPARABLE:
            break
    return points


def find_threshold(cm: BipartiteCM, perturbation: np.ndarray | None = None,
                   tol: ToleranceConfig = DEFAULT_TOL, max_iter: int = 200,
                   eps_max: float = 1e6, width: float = 1e-12) -> float:
    """Smallest ``eps`` such that ``gamma + eps P`` is separable, by bisection.

    ``perturbation`` defaults to the identity.  An already-separable
    input returns ``0.0``.  The upper bracket is found by doubling from
    ``eps = 1``; failing to find one below ``eps_max`` raises
    :class:`BracketError`.  Bisection narrows the bracket to ``width``
    and returns its midpoint.  UNDECIDED verdicts count as
    not-yet-separable, so the returned value errs on the large side.
    """
    if perturbation is None:
        perturbation = np.eye(2 * (cm.n + cm.m))
    pert = _checked_perturbation(cm, perturbation, tol)

    base = decide(cm, tol, max_iter)
    if base.kind is VerdictKind.SEPARABLE:
        return 0.0
    if base.kind is VerdictKind.UNDECIDED:
        raise BracketError(
            "verdict on the unperturbed state is undecided; no bracket exists"
        )

    def separable_at(eps: float) -> bool:
        verdict = decide(_shifted(cm, eps, pert), tol, max_iter)
        return verdict.kind is VerdictKind.SEPARABLE

    lo, hi = 0.0, 1.0
    while not separable_at(hi):
        lo = hi
        hi *= 2.0
        if hi > eps_max:
            raise BracketError(
                f"no separable bracket found below eps_max={eps_max:g}"
            )
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if separable_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
