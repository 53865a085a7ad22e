"""The generator makes valid, well-conditioned states with the labels it claims."""

import numpy as np
import pytest

import gen
from reference import cm_margin, ppt_margin, ppt_threshold, symplectic_form


@pytest.mark.parametrize("k", [1, 3, 64])
def test_passive_and_euler_maps_are_symplectic(k):
    rng = np.random.default_rng(k)
    j = symplectic_form(k)
    o = gen.passive(k, rng)
    s = gen.euler_symplectic(k, rng, 0.3)
    assert np.allclose(o @ o.T, np.eye(2 * k), atol=1e-12)
    assert np.allclose(o @ j @ o.T, j, atol=1e-12)
    assert np.allclose(s @ j @ s.T, j, atol=1e-12)


@pytest.mark.parametrize("k", [1, 8, 32, 64])
def test_states_are_valid_and_well_conditioned(k):
    rng = np.random.default_rng(100 + k)
    single = gen.single_party(k, rng)
    assert cm_margin(single) > 0
    assert np.linalg.cond(single) < 4
    planted = gen.planted_separable(k, k, rng)
    assert cm_margin(planted) > 0 and ppt_margin(planted, k) > 0
    assert np.linalg.cond(planted) < 10
    boundary = gen.near_boundary_separable(k, rng, 1e-4)
    assert cm_margin(boundary) > 0 and ppt_margin(boundary, k) > 0
    assert np.linalg.cond(boundary) < 50
    npt = gen.npt_entangled(k, rng)
    assert cm_margin(npt) > -1e-12
    assert np.linalg.cond(npt) < 100


def test_tmss_pairs_threshold_is_exact():
    r = np.array([0.9, 0.3])
    gamma = gen.tmss_pairs(r)
    assert ppt_threshold(gamma, 2) == pytest.approx(1 - np.exp(-1.8), abs=1e-14)
    assert gen.pair_threshold(r, np.ones(2)) == pytest.approx(1 - np.exp(-1.8), abs=1e-15)


def test_populations_are_seeded_and_labelled():
    first, skipped = gen.pop_small(7, size=200)
    again, _ = gen.pop_small(7, size=200)
    other, _ = gen.pop_small(8, size=200)
    assert [s.name for s in first] == [s.name for s in again]
    assert all(np.array_equal(a.gamma, b.gamma) for a, b in zip(first, again))
    assert not all(np.array_equal(a.gamma, b.gamma) for a, b in zip(first, other))
    assert len(first) == 200 and skipped >= 0
    random_1x1 = [s for s in first if s.name.startswith("random-1x1")]
    assert sum(s.expect == "separable" for s in random_1x1) == len(random_1x1) // 2
    for state in first:
        assert cm_margin(state.gamma) > -1e-12
        if state.name.startswith("random-1x1"):
            assert (ppt_margin(state.gamma, 1) > 0) == (state.expect == "separable")


def test_near_threshold_and_large_mode_labels():
    for state in gen.near_threshold(3, size=10):
        assert state.expect == "entangled"
        assert ppt_margin(state.gamma, 2) < 0 or state.name == "werner-wolf"
        if state.threshold is not None:
            assert ppt_threshold(state.gamma, 2) == pytest.approx(state.threshold, abs=1e-12)
    states = gen.large_modes(3)
    assert {s.n for s in states} == {32, 64}
    for state in states:
        if state.expect == "entangled":
            assert ppt_margin(state.gamma, state.n) < gen.CLEAR_NPT
        else:
            assert ppt_margin(state.gamma, state.n) > 0
