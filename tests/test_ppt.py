"""Tests for the partial transpose criterion."""

from pathlib import Path

import numpy as np
import pytest

from gsep.engine import VerdictKind, decide
from _expm_fixtures import random_cm, random_separable_cm
from gsep.gaussian import BipartiteCM, InvalidCMError, partial_transpose, tmss, validate_cm
from gsep.io import load_cm
from gsep.ppt import ppt_check

FIXTURE = Path(__file__).parent / "fixtures" / "ppt_entangled_2x2.json"


class TestPptCheck:
    def test_vacuum_is_ppt(self):
        cm = random_separable_cm(1, 1, seed=0)[0]
        report = ppt_check(cm)
        assert report.ppt
        assert report.margin >= -1e-9

    def test_tmss_violates_ppt(self):
        report = ppt_check(tmss(1.0))
        assert not report.ppt
        assert report.margin == pytest.approx(np.exp(-2.0) - 1.0, abs=1e-10)

    @pytest.mark.parametrize("r", [0.05, 0.3, 1.7])
    def test_tmss_margin_closed_form(self, r):
        report = ppt_check(tmss(r))
        assert report.margin == pytest.approx(np.exp(-2.0 * r) - 1.0, abs=1e-10)

    def test_invalid_input_rejected(self):
        bad = tmss(1.0)
        with pytest.raises(InvalidCMError):
            ppt_check(type(bad)(bad.n, bad.m, 0.1 * bad.A, 0.1 * bad.B, 0.1 * bad.C))

    def test_separable_states_are_ppt(self):
        # necessity: every separable state passes the transpose test
        rng = np.random.default_rng(11)
        for _ in range(50):
            cm = random_separable_cm(2, 1, rng=rng)[0]
            report = ppt_check(cm)
            assert report.ppt, report.margin

    def test_one_one_agreement_with_decide(self):
        # for single modes on each side the criterion is exact, so the
        # two verdicts must agree away from the decision boundary
        rng = np.random.default_rng(23)
        judged = 0
        for _ in range(100):
            cm = random_cm(1, 1, "mixed", rng=rng)
            report = ppt_check(cm)
            if abs(report.margin) <= 1e-8:
                continue
            verdict = decide(cm)
            expected = VerdictKind.SEPARABLE if report.ppt else VerdictKind.ENTANGLED
            assert verdict.kind is expected
            judged += 1
        assert judged >= 80


def reference_population():
    """Criterion 3's 1+1 draws, the 2+2 draws of the gate tests, tmss and the fixture."""
    rng = np.random.default_rng(303)
    states = [random_cm(1, 1, "mixed", rng=rng) for _ in range(500)]
    rng = np.random.default_rng(2024)
    states += [random_cm(2, 2, "mixed", rng=rng) for _ in range(60)]
    return states + [tmss(r) for r in (0.1, 0.5, 1.0, 2.0)] + [load_cm(FIXTURE)]


def test_margin_equals_the_partial_transpose_reference():
    for k, cm in enumerate(reference_population()):
        report, reference = ppt_check(cm), validate_cm(partial_transpose(cm))
        assert report == (reference.is_psd, reference.lambda_min), k


@pytest.mark.parametrize("make", [
    lambda: BipartiteCM.from_gamma(tmss(0.3).gamma + 0.8 * np.eye(4), 1, 1),
    lambda: tmss(1.0),
    lambda: load_cm(FIXTURE),
], ids=["ppt-1x1", "tmss", "werner-wolf"])
def test_one_factorization_one_eigensolve_and_no_second_state(make, monkeypatch, lapack_calls):
    cm = make()
    built = []
    from_blocks = BipartiteCM.from_blocks
    monkeypatch.setattr(BipartiteCM, "from_blocks",
                        classmethod(lambda cls, *blocks: built.append(None) or from_blocks(*blocks)))
    lapack_calls.clear()
    ppt_check(cm)
    monkeypatch.undo()
    dim = 2 * (cm.n + cm.m)
    assert lapack_calls == [("cholesky", (dim, dim)), ("eigvalsh", (dim, dim))]
    assert built == []


@pytest.mark.skipif(not FIXTURE.exists(), reason="bundled PPT-entangled fixture not present")
class TestBoundEntangledFixture:
    def test_fixture_is_ppt_yet_entangled(self):
        cm = load_cm(FIXTURE)
        assert ppt_check(cm).ppt
        verdict = decide(cm)
        assert verdict.kind is VerdictKind.ENTANGLED
        assert verdict.margin <= -0.5
        assert verdict.step <= 30
