"""Release gates: seven end-to-end checks across the whole package.

Each test covers one numbered criterion and prints exactly one
``[criterion N] PASS`` line with measured numbers once every assertion
in its body holds; on failure it prints a FAIL line and re-raises.  The
suite runs with ``-rA`` (set in pyproject) so the lines show up in the
terminal summary of a plain pytest run.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from _expm_fixtures import random_cm, random_separable_cm
from gsep.certify import reconstruct, verify_certificate
from gsep.engine import VerdictKind, decide, find_threshold
from gsep.gaussian import BipartiteCM, symplectic_form, tmss, validate_cm
from gsep.io import load_cm
from gsep.matlin import ToleranceConfig, hermitian_reduce_psd, schur_psd, trace_norm
from gsep.ppt import ppt_check

FIXTURE = Path(__file__).parent / "fixtures" / "ppt_entangled_2x2.json"
J1 = np.array([[0.0, -1.0], [1.0, 0.0]])
TIGHT = ToleranceConfig(psd_tol=1e-12, pinv_rcond=1e-12, decision_margin=1e-10)


@contextmanager
def criterion(num):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL")
        raise


def _sym(mat):
    return (mat + mat.T) / 2.0


def _schur_instance(rng, flavor):
    p = int(rng.integers(1, 5))
    q = int(rng.integers(1, 5))
    d = p + q
    if flavor == 0:
        g = rng.standard_normal((d, d))
        mat = g @ g.T
    elif flavor == 1:
        g = rng.standard_normal((d, max(1, d - 2)))
        mat = g @ g.T
    elif flavor == 2:
        mat = _sym(rng.standard_normal((d, d)))
    else:
        # PSD diagonal blocks, B singular, coupling that ignores ker(B)
        ga = rng.standard_normal((p, p))
        gb = rng.standard_normal((q, max(1, q - 1)))
        c = rng.standard_normal((p, q))
        mat = np.block([[ga @ ga.T, c], [c.T, gb @ gb.T]])
    return mat[:p, :p], mat[p:, p:], mat[:p, p:]


def _pair_instance(rng, flavor):
    d = int(rng.integers(1, 7))
    a = _sym(rng.standard_normal((d, d)))
    c0 = rng.standard_normal((d, d))
    c = (c0 - c0.T) / 2.0
    if flavor == 0:
        g = rng.standard_normal((d, d))
        a = g @ g.T + d * np.eye(d)
        c = 0.5 * c
    elif flavor == 1:
        g = rng.standard_normal((d, d))
        a = g @ g.T
    elif flavor == 2:
        c = 3.0 * c
    return a, c


def test_criterion_1_block_psd_lemmas_match_direct_eigensolves():
    with criterion(1):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        judged = mixed = 0
        for k in range(500):
            a, b, c = _schur_instance(rng, k % 4)
            full = np.block([[a, c], [c.T, b]])
            eigs = np.linalg.eigvalsh(full)
            scale = max(1.0, float(np.abs(eigs).max()))
            if abs(eigs[0]) <= 1e-8 * scale:
                continue
            judged += 1
            direct = eigs[0] > 0
            mixed += direct
            assert schur_psd(a, b, c).is_psd == direct, (k, eigs[0])
        judged2 = mixed2 = 0
        for k in range(500):
            a, c = _pair_instance(rng, k % 3)
            full = np.block([[a, c], [c.T, a]])
            eigs = np.linalg.eigvalsh(full)
            scale = max(1.0, float(np.abs(eigs).max()))
            if abs(eigs[0]) <= 1e-8 * scale:
                continue
            judged2 += 1
            direct = eigs[0] > 0
            mixed2 += direct
            assert hermitian_reduce_psd(a, c) == direct, (k, eigs[0])
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, elapsed
        # both populations must exercise both outcomes
        assert 0 < mixed < judged and 0 < mixed2 < judged2
    print(f"[criterion 1] PASS: schur {judged}/500 judged, pair {judged2}/500 judged, "
          f"0 disagreements, {elapsed:.2f}s")


def test_criterion_2_two_mode_squeezed_closed_form():
    with criterion(2):
        for r in (0.05, 0.1, 0.5, 1.0, 2.0):
            verdict = decide(tmss(r))
            assert verdict.kind is VerdictKind.ENTANGLED, r
            assert verdict.step == 1, r
            final = verdict.trace.steps[-1]
            assert np.abs(final.A).max() <= 1e-10, r
            assert np.abs(final.C - J1).max() <= 1e-10, r
    print("[criterion 2] PASS: r in {0.05, 0.1, 0.5, 1, 2} all entangled at step 1, "
          "image blocks match the closed form to 1e-10")


def test_criterion_3_single_mode_pairs_agree_with_transpose_test():
    with criterion(3):
        rng = np.random.default_rng(303)
        judged = entangled = 0
        for _ in range(500):
            cm = random_cm(1, 1, "mixed", rng=rng)
            margin = ppt_check(cm).margin
            if abs(margin) <= 1e-8:
                continue
            judged += 1
            verdict = decide(cm)
            expected = VerdictKind.ENTANGLED if margin < 0 else VerdictKind.SEPARABLE
            entangled += margin < 0
            assert verdict.kind is expected, margin
        assert judged >= 400
        assert 0 < entangled < judged
    print(f"[criterion 3] PASS: {judged}/500 judged ({entangled} entangled), "
          "decide matches the transpose criterion on all of them")


def test_criterion_4_certificate_round_trip_and_step_bound():
    with criterion(4):
        rng = np.random.default_rng(404)
        sizes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (3, 3), (2, 3), (1, 3)]
        worst_margin = np.inf
        worst_steps = 0
        for k in range(200):
            n, m = sizes[k % len(sizes)]
            cm, gamma_a, _ = random_separable_cm(n, m, rng=rng)
            eps = float(np.linalg.eigvalsh(gamma_a - 1j * symplectic_form(n))[0].real)
            assert eps > 0, (k, eps)
            bound = (trace_norm(cm.A) - 2 * n) / eps + 1
            verdict = decide(cm, max_iter=max(200, int(np.ceil(bound)) + 5))
            assert verdict.kind is VerdictKind.SEPARABLE, (k, n, m, verdict.reason)
            assert verdict.step <= bound, (k, verdict.step, bound)
            worst_steps = max(worst_steps, verdict.step)
            cert = reconstruct(verdict.trace)
            report = verify_certificate(cm, cert)
            worst_margin = min(worst_margin, min(report.margins))
            assert all(x >= -1e-8 for x in report.margins), (k, report.margins)
    print(f"[criterion 4] PASS: 200/200 separable with verified certificates, "
          f"worst margin {worst_margin:.2e}, max steps {worst_steps}, "
          "step bound never exceeded")


def test_criterion_5_trace_norm_monotone_and_floored():
    with criterion(5):
        rng = np.random.default_rng(505)
        sizes = [(1, 1), (2, 1), (1, 2), (2, 2)]
        population = [tmss(0.5), tmss(1.0)]
        # known separable inputs that took 3 to 4 iterates before the
        # Williamson frame, and now take 2, 1 and 2
        population += [random_cm(1, 1, "mixed", seed=1),
                       random_cm(2, 1, "mixed", seed=0),
                       random_cm(2, 2, "mixed", seed=37)]
        population += [random_cm(*sizes[k % 4], "mixed", rng=rng) for k in range(60)]
        population += [random_separable_cm(*sizes[k % 4], rng=rng)[0] for k in range(20)]
        checked = pairs = 0
        worst_rise = -np.inf
        for cm in population:
            verdict = decide(cm, max_iter=50)
            norms = []
            for step in verdict.trace.steps:
                if step.margin_full < -1e-9 * step.scale_full:
                    break  # iterate left the CM cone, bound no longer applies
                norms.append(step.a_trnorm)
                assert step.a_trnorm >= 2 * cm.n - 1e-8, (cm.n, step.a_trnorm)
            for prev, nxt in zip(norms, norms[1:]):
                worst_rise = max(worst_rise, nxt - prev)
                assert nxt - prev <= 1e-10, (prev, nxt)
            checked += len(norms)
            pairs += max(0, len(norms) - 1)
        assert pairs >= 10
    print(f"[criterion 5] PASS: {checked} valid iterates over {len(population)} traces "
          f"({pairs} consecutive pairs), worst trace-norm rise {worst_rise:.2e}, "
          "floor 2n respected")


def test_criterion_6_threshold_matches_transpose_bisection(probe_budget):
    with criterion(6):
        diffs = []
        for r in (0.05, 0.5, 1.0, 2.0):
            cm = tmss(r)
            d = cm.gamma.shape[0]
            probe_budget.clear()
            thr = find_threshold(cm, None, TIGHT, width=1e-12)
            lo, hi = 0.0, 4.0
            assert ppt_check(BipartiteCM.from_gamma(cm.gamma + hi * np.eye(d), 1, 1),
                             TIGHT).ppt
            while hi - lo > 1e-12:
                mid = (lo + hi) / 2.0
                shifted = BipartiteCM.from_gamma(cm.gamma + mid * np.eye(d), 1, 1)
                if ppt_check(shifted, TIGHT).ppt:
                    hi = mid
                else:
                    lo = mid
            diffs.append(abs(thr - (lo + hi) / 2.0))
            assert diffs[-1] <= 1e-9, (r, diffs[-1])
        eps_star = 1.0 - np.exp(-2.0)
        gamma = tmss(1.0).gamma
        max_steps = 0
        for offset in (1e-9, 1e-6, 1e-3, 1e-1):
            for sign in (-1.0, 1.0):
                shifted = BipartiteCM.from_gamma(
                    gamma + (eps_star + sign * offset) * np.eye(4), 1, 1)
                for tol in (None, TIGHT):
                    verdict = decide(shifted) if tol is None else decide(shifted, tol)
                    assert verdict.kind is not VerdictKind.UNDECIDED, (offset, sign)
                    assert verdict.step <= 30, (offset, sign, verdict.step)
                    max_steps = max(max_steps, verdict.step)
    print(f"[criterion 6] PASS: threshold vs transpose bisection differs by at most "
          f"{max(diffs):.2e}, near-threshold decisions took at most {max_steps} steps")


@pytest.mark.skipif(not FIXTURE.exists(),
                    reason="[criterion 7] SKIP: no PPT-entangled fixture bundled")
def test_criterion_7_transpose_blind_entanglement_detected():
    with criterion(7):
        cm = load_cm(FIXTURE)
        assert validate_cm(cm).is_psd
        assert ppt_check(cm).ppt
        verdict = decide(cm)
        assert verdict.kind is VerdictKind.ENTANGLED
        assert verdict.margin <= -0.5
        assert verdict.step <= 30
    print(f"[criterion 7] PASS: bundled 2x2-mode fixture passes the transpose test "
          f"yet is detected entangled at step {verdict.step} "
          f"(margin {verdict.margin:.3f})")
