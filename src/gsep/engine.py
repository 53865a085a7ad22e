"""Separability decision engine for bipartite Gaussian states.

The engine iterates a nonlinear map on the block form ``[[A, C], [C^T, B]]``
of a correlation matrix.  One application computes the Hermitian Schur
complement ``X = C (B - iJ)^+ C^T`` and replaces the state by

    ``A' = B' = A - Re(X)``,   ``C' = -Im(X)``,

a square bipartite CM on ``n + n`` modes.  Up to four tests are applied
to every iterate ``N >= 1``, in this order:

* if ``A_N - iJ`` fails the PSD test decisively, the input was entangled;
* if ``A_N - ||C_N||_op I - iJ`` passes it, the input was separable, and
  the trace retains everything needed to reconstruct an explicit
  separable decomposition (see :mod:`gsep.certify`);
* on ``n >= 2`` modes, if ``mu = lambda_min(A_N - |C_N| - iJ)``, with
  ``|C| = (C^T C)^{1/2}``, exceeds ``+decision_margin``, the input was
  separable too: ``[[|C|, C], [C^T, |C|]] >= 0`` for antisymmetric
  ``C``, so ``A_N - |C_N| - (mu/2) I`` is a valid CM that both blocks of
  the iterate dominate together with ``C_N``.  It fires wherever the
  norm test would, since ``|C| <= ||C||_op I``; on one mode the two
  coincide, and the test is skipped;
* if the iterate stopped being a valid CM, the input was entangled as
  well; this cone test runs on the pair ``A_N - iJ +/- iC_N``, whose
  spectra make up that of ``gamma_N - iJ``, and never assembles it.

The block, norm and cone tests judge their margin by one absolute band:
it passes when ``>= -decision_margin`` and fails below.  Inputs on which
no test fires come back ``UNDECIDED``, and :func:`decide_robust` is the
documented way to resolve them by perturbing with ``+/- eps`` times the
identity.

The map commutes with local symplectic maps ``S oplus S``, and a
symplectic congruence keeps a CM a CM, so the block and cone tests reach
the same verdicts in any local frame.  The two separable tests do not:
they fire sooner when ``A_N`` is in Williamson normal form.  After the
first iterate on which no test fires, :func:`decide` therefore brings it
to its Williamson frame once, ``S A S^T`` diagonal with symplectic ``S``
applied as ``S oplus S``, and maps the normalized state on.  The next
step records ``T = S^{-1}``, through which :mod:`gsep.certify` maps
evidence back.  Verdicts reached at step 1 never see the frame.  The
frame is skipped when ``A`` has no Cholesky factor or ``S`` fails the
symplectic check within ``psd_tol``, and the iteration then goes on
unnormalized.

An input that fails the CM test is not a state: :func:`decide`,
:func:`map_step` and :func:`find_threshold` refuse it with
:class:`~gsep.gaussian.InvalidCMError`, whose message quotes the
failing margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gaussian import (BipartiteCM, InvalidCMError, _ingest_symmetric, _minus_ij, _require_cm,
                       symplectic_form)
from .matlin import (
    DEFAULT_TOL,
    ToleranceConfig,
    _psd_by_cholesky,
    operator_norm,
    pseudoinverse,
    psd_check,
    trace_norm,
)
from .ppt import _flipped

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
REASON_ABS_GAP_SEPARABLE = "|C|-shifted A-block passes the CM test"
REASON_MAX_ITER = "iteration limit reached"


@dataclass(frozen=True)
class IterationStep:
    """One iterate ``gamma_N`` together with its decision margins.

    ``margin_A`` is ``lambda_min(A_N - iJ)``, ``margin_L`` the same for
    the shifted block ``A_N - ||C_N||_op I`` (the shift moves every
    eigenvalue by exactly ``-c_opnorm``), and ``margin_full`` for the
    iterate ``gamma_N - iJ``; :func:`decide` compares each with
    ``-decision_margin``.  ``scale_full`` is ``max(1, |lambda|_max)`` of
    ``gamma_N - iJ``.

    ``margin_full`` and ``scale_full`` are not constructor fields: both
    are read from one eigensolve of the pair ``A_N - iJ +/- iC_N``, whose
    spectra make up that of ``gamma_N - iJ``, run on first access and
    cached, because :func:`decide` settles the cone test with a Cholesky
    gate and needs that eigensolve only when the gate fails.  So are
    ``abs_C``, the matrix ``|C_N| = (C_N^T C_N)^{1/2}``, and ``margin_abs``,
    ``lambda_min(A_N - |C_N| - iJ)``, which only the ``|C|`` test reads.

    ``frame`` is ``T = S^{-1}`` on the first iterate of a new working
    frame: that iterate is the map's image of ``(S oplus S) gamma_{N-1}
    (S oplus S)^T``, not of ``gamma_{N-1}``.  It is ``None`` everywhere
    else.  Blocks and margins are those of the iterate's working frame.
    """

    index: int
    A: np.ndarray
    C: np.ndarray
    margin_A: float
    c_opnorm: float
    a_trnorm: float
    frame: np.ndarray | None = None

    @property
    def margin_L(self) -> float:
        return self.margin_A - self.c_opnorm

    @cached_property
    def abs_C(self) -> np.ndarray:
        _, sigma, vt = np.linalg.svd(self.C)
        out = (vt.T * sigma) @ vt
        return (out + out.T) / 2.0

    @cached_property
    def margin_abs(self) -> float:
        return float(np.linalg.eigvalsh(_minus_ij(self.A - self.abs_C))[0])

    def _cone_pair(self) -> np.ndarray:
        """The ``(2, 2n, 2n)`` stack ``A_N - iJ + iC_N``, ``A_N - iJ - iC_N``."""
        return _minus_ij(self.A) + 1j * np.stack((self.C, -self.C))

    @cached_property
    def _eigs_full(self) -> np.ndarray:
        return np.linalg.eigvalsh(self._cone_pair())

    @property
    def margin_full(self) -> float:
        return float(self._eigs_full[:, 0].min())

    @property
    def scale_full(self) -> float:
        return max(1.0, float(np.abs(self._eigs_full).max()))


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
    ``-decision_margin`` for ENTANGLED, at or above it for SEPARABLE
    (above ``+decision_margin`` when the ``|C|`` test fired).  For
    an UNDECIDED verdict of :func:`decide` it is the final ``margin_L``,
    the distance still missing for a separability verdict; one of
    :func:`decide_robust` carries the ``gamma - eps I`` run's margin.
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
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness check reports it
        x = cm.C @ pseudoinverse(_minus_ij(cm.B), tol) @ cm.C.T
    if not np.all(np.isfinite(x)):
        raise NumericalError("map produced a non-finite Schur complement")
    a_next = cm.A - x.real
    a_next = (a_next + a_next.T) / 2.0
    c_next = -x.imag
    c_next = (c_next - c_next.T) / 2.0
    return BipartiteCM.from_blocks(a_next, a_next, c_next)


def _make_step(index: int, cm: BipartiteCM, frame=None) -> IterationStep:
    """Assemble an IterationStep with all margins for iterate ``cm``."""
    return IterationStep(
        index=index,
        A=cm.A,
        C=cm.C,
        margin_A=float(np.linalg.eigvalsh(_minus_ij(cm.A))[0]),
        c_opnorm=operator_norm(cm.C),
        a_trnorm=trace_norm(cm.A),
        frame=frame,
    )


def _williamson_frame(cm: BipartiteCM, tol: ToleranceConfig):
    """``((S oplus S) gamma (S oplus S)^T, T)`` for an iterate, with ``S A S^T`` diagonal.

    With the Cholesky factor ``A = L L^T`` and ``K = L^{-1} J L^{-T}``,
    the eigenvectors ``v_k`` of the Hermitian ``iK`` for its positive
    eigenvalues ``1/nu_k`` give an orthogonal ``O`` with columns
    ``sqrt(2) Re v_k``, ``sqrt(2) Im v_k``, and ``T = L O D^{-1/2}``,
    ``S = D^{1/2} O^T L^{-1}`` with ``D = diag(nu_1, nu_1, nu_2, ...)``;
    then ``S A S^T = D``, ``S J S^T = J`` and ``T = S^{-1}``.  The
    iterate's ``B`` is its ``A``, so ``S oplus S`` normalizes both
    parties.  ``None`` when ``A`` has no Cholesky factor, or when
    rounding leaves ``max|S J S^T - J| > psd_tol * max(1, max|S|^2)``.
    """
    try:
        low = np.linalg.cholesky(cm.A)
    except np.linalg.LinAlgError:
        return None
    inv_low = np.linalg.inv(low)
    n = cm.n
    j = symplectic_form(n)
    inv_nu, v = np.linalg.eigh(1j * (inv_low @ j @ inv_low.T))
    ortho = np.empty_like(low)
    ortho[:, 0::2], ortho[:, 1::2] = v[:, n:].real, v[:, n:].imag
    ortho *= 2.0 ** 0.5
    scale = np.repeat(inv_nu[n:] ** -0.5, 2)  # the diagonal of D^{1/2}
    s = (ortho.T @ inv_low) * scale[:, None]
    if not np.abs(s @ j @ s.T - j).max() <= tol.psd_tol * max(1.0, float(np.abs(s).max()) ** 2):
        return None
    a, c = s @ cm.A @ s.T, s @ cm.C @ s.T
    a = (a + a.T) / 2.0
    return BipartiteCM.from_blocks(a, a, (c - c.T) / 2.0), (low @ ortho) / scale


def _left_cone(step: IterationStep, tol: ToleranceConfig) -> bool:
    """Whether ``margin_full`` lies below the band, ``< -decision_margin``.

    With ``B_N = A_N`` and antisymmetric ``C_N``, the spectrum of
    ``gamma_N - iJ`` is the union of the spectra of ``A_N - iJ + iC_N``
    and ``A_N - iJ - iC_N``.  Cholesky factorizations of both halves,
    shifted by ``decision_margin``, therefore prove that the test cannot
    fire; only when one of them fails does the exact eigensolve of the
    same pair behind ``margin_full`` run.
    """
    if _psd_by_cholesky(step._cone_pair(), tol.decision_margin):
        return False
    return step.margin_full < -tol.decision_margin


def decide(cm: BipartiteCM, tol: ToleranceConfig = DEFAULT_TOL, max_iter: int = 200) -> Verdict:
    """Decide separability of a bipartite Gaussian state.

    The input must be a valid CM; anything else raises
    :class:`~gsep.gaussian.InvalidCMError` instead of being classified.
    Iterates ``N >= 1`` are tested in order, and the first test that
    fires terminates the run: the entangled test (``margin_A <
    -decision_margin``), the norm test (``margin_L >=
    -decision_margin``), on ``n >= 2`` modes the ``|C|`` test
    (``margin_abs > decision_margin``), then the cone test
    (``margin_full < -decision_margin``).  The test that fires, or the
    iteration limit, picks the verdict's kind, margin and reason.  When
    no test fires on iterate 1, it is brought to its Williamson frame
    before the next map step, and iterate 2 records the frame (see the
    module docstring); blocks, margins and ``c_opnorm_history``
    from there on are those of the working frame.

    Returns:
        A Verdict whose trace retains the input and every iterate, which
        is what certificate reconstruction consumes.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    _require_cm(cm, tol)

    steps: list[IterationStep] = []
    current, frame = cm, None
    for index in range(1, max_iter + 1):
        current = map_step(current, tol, validate=False)
        step = _make_step(index, current, frame)
        steps.append(step)
        if step.margin_A < -tol.decision_margin:
            kind, margin, reason = VerdictKind.ENTANGLED, step.margin_A, REASON_BLOCK_ENTANGLED
        elif step.margin_L >= -tol.decision_margin:
            kind, margin, reason = VerdictKind.SEPARABLE, step.margin_L, REASON_NORM_GAP_SEPARABLE
        elif cm.n >= 2 and step.margin_abs > tol.decision_margin:
            # on one mode |C| = ||C||_op I, and this would repeat the norm test
            kind, margin, reason = VerdictKind.SEPARABLE, step.margin_abs, REASON_ABS_GAP_SEPARABLE
        elif _left_cone(step, tol):
            # the iterate itself stopped being a CM: entangled input
            kind, margin, reason = VerdictKind.ENTANGLED, step.margin_full, REASON_CONE_ENTANGLED
        else:
            frame = None
            if index == 1 and (framed := _williamson_frame(current, tol)) is not None:
                current, frame = framed
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
    """``perturbation`` through the state's ingest rule, if it is PSD and of ``cm``'s size."""
    if np.shape(perturbation) != (2 * (cm.n + cm.m),) * 2:
        raise ValueError(f"perturbation has wrong shape {np.shape(perturbation)}")
    pert = _ingest_symmetric(perturbation, "perturbation")
    if not psd_check(pert, tol).is_psd:
        raise ValueError("perturbation must be PSD")
    return pert


def decide_robust(cm: BipartiteCM, eps: float, tol: ToleranceConfig = DEFAULT_TOL,
                  max_iter: int = 200) -> Verdict:
    """Decide separability up to an ``eps``-sized identity perturbation, ``0 < eps < inf``.

    Runs :func:`decide` on ``gamma + eps I`` and, if needed, on
    ``gamma - eps I``.  Only two inferences are drawn: entangled for the
    enlarged state implies entangled for the state, and separable for
    the shrunk state implies separable.  Everything else comes back
    UNDECIDED ("undecided within eps").  When ``gamma - eps I`` is not a
    valid CM the negative side is skipped and the plain verdict on
    ``gamma`` itself is returned instead.

    The trace is the deciding run's, so a SEPARABLE verdict's certificate
    verifies against ``trace.gamma0 = gamma - eps I``, not ``gamma``.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
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


def _held(result) -> bool:
    """A probe's outcome: a truth value, or a verdict that holds when SEPARABLE."""
    return result.kind is VerdictKind.SEPARABLE if isinstance(result, Verdict) else bool(result)


def _crossing(lo: float, at_lo, hi: float, at_hi, weights: list[float],
              width: float) -> float | None:
    """Where the margin that made ``at_lo`` ENTANGLED crosses zero, or ``None``.

    The margin is that of the test that fired, ``margin_A`` for the block
    test and ``margin_full`` for the cone test, at the step where it
    fired, read from both traces and scaled by the Illinois ``weights``.
    Without an ENTANGLED verdict at ``lo``, a trace at ``hi`` that
    reaches that step, or a sign change, nothing is proposed.  The
    regula falsi point is clamped ``width / 2`` inside the bracket, and
    nothing is proposed when that leaves no float strictly inside.
    """
    if not (isinstance(at_lo, Verdict) and at_lo.kind is VerdictKind.ENTANGLED
            and len(at_hi.trace.steps) >= at_lo.step):
        return None
    step = at_hi.trace.steps[at_lo.step - 1]
    upper = step.margin_A if at_lo.reason == REASON_BLOCK_ENTANGLED else step.margin_full
    f_lo, f_hi = weights[0] * at_lo.margin, weights[1] * upper
    if not f_lo < 0.0 < f_hi:
        return None
    eps = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    eps = min(max(eps, lo + 0.5 * width), hi - 0.5 * width)
    return eps if lo < eps < hi else None


def _bisect(holds, eps_max: float, width: float, lo: float = 0.0,
            at_lo=None) -> tuple[float, float]:
    """Bracket ``[lo, hi]`` of the smallest ``eps`` where ``holds(eps)``.

    ``holds`` returns a truth value, or a :class:`Verdict` that holds
    when SEPARABLE; it must be monotone along the ray and false at
    ``lo``, whose outcome, if known, is ``at_lo``.  The upper end
    doubles from ``min(max(1, 2 lo), eps_max)`` and never passes
    ``eps_max``; ``holds`` false there raises :class:`BracketError`.
    The bracket then narrows to ``width``, or to adjacent floats when
    their spacing is wider.

    An ENTANGLED verdict at the bottom places the next probe where the
    margin of the test that fired crosses zero (:func:`_crossing`,
    regula falsi with the Illinois halving).  Other probes take the
    midpoint, and so does every probe made while the bracket lags behind
    bisection at two probes per halving, which bounds the narrowing at
    ``2 log2(span / width) + 1`` probes for a starting bracket of ``span``.
    """
    hi = min(max(1.0, 2.0 * lo), eps_max)
    while hi <= lo or not _held(at_hi := holds(hi)):
        if hi >= eps_max:
            raise BracketError(f"no separable bracket found up to eps_max={eps_max:g}")
        lo, at_lo, hi = hi, at_hi, min(2.0 * hi, eps_max)
    weights, moved, pace = [1.0, 1.0], None, hi - lo
    while hi - lo > width:
        proposal = _crossing(lo, at_lo, hi, at_hi, weights, width) if hi - lo <= pace else None
        eps = 0.5 * (lo + hi) if proposal is None else proposal
        if not lo < eps < hi:
            break
        at = holds(eps)
        end = int(_held(at))
        if end:
            hi, at_hi = eps, at
        else:
            lo, at_lo = eps, at
        weights[end] = 1.0
        if moved == end:
            weights[1 - end] *= 0.5
        moved, pace = end, pace * 0.5 ** 0.5
    return lo, hi


def find_threshold(cm: BipartiteCM, perturbation: np.ndarray | None = None,
                   tol: ToleranceConfig = DEFAULT_TOL, max_iter: int = 200,
                   eps_max: float = 1e6, width: float = 1e-12) -> float:
    """Smallest ``eps`` such that ``gamma + eps P`` is separable.

    ``perturbation`` defaults to the identity.  An ``eps_max`` or
    ``width`` that is not positive and finite raises ``ValueError``, and
    an input that fails the CM test is refused as :func:`decide` refuses
    it.  The search then runs in three stages.

    1. Lower bound.  No separable state fails the transpose test, so no
       threshold lies below ``eps_PPT``, the smallest ``eps`` at which
       ``gamma + eps P`` passes it.  When the transpose-test matrix,
       shifted by ``decision_margin``, has no Cholesky factor (its margin
       lies below the decision band, up to the rounding of a
       factorization), ``eps_PPT`` is bracketed by factorizations of that
       matrix, with no :func:`decide` call; otherwise the bound is ``0``.
    2. One :func:`decide` at the bound's top.  SEPARABLE returns the
       bound's midpoint: ``0.0`` for a bound of ``0``, and otherwise a
       value never below ``eps_PPT`` by more than ``width`` plus the
       rounding of a factorization, of order ``d * machine eps *
       ||gamma||``.  UNDECIDED at ``0`` raises :class:`BracketError`.
    3. Otherwise one search on :func:`decide` verdicts starts from that
       verdict (see :func:`_bisect`).  Its bracket is never SEPARABLE at
       the bottom (UNDECIDED counts as not separable, so the value errs
       on the large side) and SEPARABLE at the top.

    Both brackets double their top up to ``eps_max``, and no probe goes
    past it; no bracket up to it raises :class:`BracketError`, with no
    :func:`decide` call when the transpose test still fails there.  Each
    narrows to ``width``, or to adjacent floats when their spacing is
    wider (then the error bar), and its midpoint is returned.
    """
    for name, value in (("eps_max", eps_max), ("width", width)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if perturbation is None:
        perturbation = np.eye(2 * (cm.n + cm.m))
    pert = _checked_perturbation(cm, perturbation, tol)
    _require_cm(cm, tol)

    def decide_at(eps: float) -> Verdict:
        return decide(_shifted(cm, eps, pert), tol, max_iter)

    flipped = _flipped(cm)
    lo = hi = 0.0
    if not _psd_by_cholesky(flipped, tol.decision_margin):
        lo, hi = _bisect(lambda eps: _psd_by_cholesky(flipped + eps * pert, 0.0),
                         eps_max, width)
    top = decide_at(hi)
    if top.kind is VerdictKind.UNDECIDED and hi == 0.0:
        raise BracketError("verdict on the unperturbed state is undecided; no bracket exists")
    if top.kind is not VerdictKind.SEPARABLE:
        lo, hi = _bisect(decide_at, eps_max, width, hi, top)
    return 0.5 * (lo + hi)
