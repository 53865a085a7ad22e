"""The reference check catches wrong verdicts, bad certificates and bad thresholds."""

import numpy as np

import gen
import reference
from gsep import certify, engine, gaussian
from reference import Outcome


def _certified(gamma, n):
    cm = gaussian.BipartiteCM.from_gamma(gamma, n)
    verdict = engine.decide(cm)
    assert verdict.kind is engine.VerdictKind.SEPARABLE
    cert = certify.reconstruct(verdict.trace)
    return Outcome("separable", verdict.step, cert.gamma_A, cert.gamma_B, True)


def test_correct_verdicts_pass():
    gamma = gen.planted_separable(2, 2, np.random.default_rng(1))
    assert reference.check_verdict(gamma, 2, "separable", _certified(gamma, 2)) is None
    assert reference.check_verdict(gen.tmss(0.5), 1, "entangled", Outcome("entangled")) is None
    assert reference.check_verdict(gen.werner_wolf(), 2, "not-separable",
                                   Outcome("undecided")) is None


def test_flipped_verdicts_are_caught():
    gamma = gen.planted_separable(2, 1, np.random.default_rng(2))
    assert reference.check_verdict(gamma, 2, "separable", Outcome("entangled"))
    assert reference.check_verdict(gen.tmss(0.5), 1, "entangled", Outcome("separable"))
    assert reference.check_verdict(gen.werner_wolf(), 2, "not-separable",
                                   Outcome("separable"))


def test_corrupted_certificates_are_caught():
    gamma = gen.planted_separable(2, 2, np.random.default_rng(3))
    good = _certified(gamma, 2)
    too_pure = Outcome("separable", 1, 0.5 * good.gamma_a, good.gamma_b, True)
    too_big = Outcome("separable", 1, good.gamma_a + 10 * np.eye(4), good.gamma_b, True)
    wrong_shape = Outcome("separable", 1, good.gamma_a[:2, :2], good.gamma_b, True)
    skewed = good.gamma_a.copy()
    skewed[0, 1] += 1.0
    asymmetric = Outcome("separable", 1, skewed, good.gamma_b, True)
    missing = Outcome("separable", 1)
    disowned = Outcome("separable", 1, good.gamma_a, good.gamma_b, False)
    for bad in (too_pure, too_big, wrong_shape, asymmetric, missing, disowned):
        assert reference.check_verdict(gamma, 2, "separable", bad), bad
    assert reference.check_verdict(gamma, 2, "separable", missing, certified=False) is None


def test_thresholds_are_bracketed():
    gamma = gen.tmss(1.0)
    exact = 1 - np.exp(-2.0)
    assert reference.check_threshold(gamma, 1, exact + 5e-9, exact) is None
    assert reference.check_threshold(gamma, 1, exact + 5e-8, exact)
    assert reference.check_threshold(gamma, 1, exact, None) is None
    assert reference.check_threshold(gamma, 1, exact - 1e-6, None)


def test_sweep_expectations():
    gamma = gen.tmss(1.0)
    exact = 1 - np.exp(-2.0)
    assert reference.sweep_expect(gamma, 1, exact + 1e-8, exact) == "separable"
    assert reference.sweep_expect(gamma, 1, exact - 1e-8, exact) == "entangled"
    ww = gen.werner_wolf()
    assert reference.sweep_expect(ww, 2, 0.05, 0.0979) == "not-separable"
