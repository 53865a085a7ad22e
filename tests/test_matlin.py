"""Tests for the tolerance-aware matrix primitives."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gsep.matlin as matlin
from gsep.matlin import (
    DEFAULT_TOL,
    MatrixInputError,
    ToleranceConfig,
    hermitian_part,
    hermitian_reduce_psd,
    operator_norm,
    pseudoinverse,
    psd_check,
    schur_psd,
    trace_norm,
)

J1 = np.array([[0.0, -1.0], [1.0, 0.0]])


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.psd_tol == 1e-9
        assert tol.pinv_rcond == 1e-12
        assert tol.decision_margin == 1e-10

    @pytest.mark.parametrize("kwargs", [
        {"psd_tol": 0.0},
        {"psd_tol": -1e-9},
        {"pinv_rcond": 1.0},
        {"decision_margin": 0.5},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError, match="must lie in"):
            ToleranceConfig(**kwargs)


class TestPsdCheck:
    def test_identity(self):
        report = psd_check(np.eye(3))
        assert report.is_psd
        assert report.lambda_min == pytest.approx(1.0, abs=1e-14)

    def test_saturated_cm_matrix(self):
        # I - iJ has eigenvalues {0, 2}: PSD but singular
        report = psd_check(np.eye(2) - 1j * J1)
        assert report.is_psd
        assert report.lambda_min == pytest.approx(0.0, abs=1e-12)

    def test_decisive_failure(self):
        report = psd_check(0.5 * np.eye(2) - 1j * J1)
        assert not report.is_psd
        assert report.lambda_min == pytest.approx(-0.5, abs=1e-12)

    def test_tolerates_roundoff_negatives(self):
        report = psd_check(np.diag([1.0, -1e-12]))
        assert report.is_psd

    def test_scale_relative_verdict(self):
        # -1e-7 would fail at unit scale but passes at scale 1e3
        assert not psd_check(np.diag([1.0, -1e-7])).is_psd
        assert psd_check(np.diag([1e3, -1e-7])).is_psd

    def test_symmetrizes_tiny_asymmetry(self):
        mat = np.eye(2)
        mat[0, 1] = 1e-15
        assert psd_check(mat).is_psd

    def test_rejects_non_finite(self):
        with pytest.raises(MatrixInputError, match="non-finite"):
            psd_check(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(MatrixInputError, match="square"):
            psd_check(np.zeros((2, 3)))


class TestNorms:
    def test_operator_norm_examples(self):
        assert operator_norm(np.zeros((2, 2))) == 0.0
        assert operator_norm(np.diag([2.0, 1.0])) == pytest.approx(2.0)
        assert operator_norm(J1) == pytest.approx(1.0)

    def test_operator_norm_randomized_oracle(self):
        """Power iteration seeded with the best of 1e4 random directions."""
        rng = np.random.default_rng(42)
        mat = rng.standard_normal((4, 4))

        probes = rng.standard_normal((10_000, 4))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        values = np.linalg.norm(probes @ mat.T, axis=1)
        vec = probes[np.argmax(values)]
        est = values.max()
        for _ in range(500):
            vec = mat.T @ (mat @ vec)
            nrm = np.linalg.norm(vec)
            vec /= nrm
            new = np.linalg.norm(mat @ vec)
            if abs(new - est) < 1e-13:
                est = new
                break
            est = new

        assert operator_norm(mat) == pytest.approx(est, abs=1e-8)

    def test_trace_norm_examples(self):
        assert trace_norm(np.eye(4)) == pytest.approx(4.0)
        assert trace_norm(np.diag([3.0, -1.0])) == pytest.approx(4.0)

    def test_trace_norm_of_psd_equals_trace(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.standard_normal((5, 5))
            mat = g @ g.T
            assert trace_norm(mat) == pytest.approx(np.trace(mat), abs=1e-10)

    def test_operator_norm_below_trace_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mat = rng.standard_normal((4, 6))
            assert operator_norm(mat) <= trace_norm(mat) + 1e-12


class TestPseudoinverse:
    def test_diagonal(self):
        out = pseudoinverse(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(pseudoinverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_saturated_cm_matrix_oracle(self):
        # Independent oracle: M = I - iJ = 2 P with P the rank-one projector
        # onto span{(1, -i)/sqrt(2)}, so M^+ = P / 2.
        vec = np.array([1.0, -1.0j]) / np.sqrt(2.0)
        projector = np.outer(vec, vec.conj())
        mat = np.eye(2) - 1j * J1
        out = pseudoinverse(mat)
        np.testing.assert_allclose(out, projector / 2.0, atol=1e-14)
        # M M^+ must be the projector onto the range of M
        np.testing.assert_allclose(mat @ out, projector, atol=1e-14)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(7)
        for k in range(50):
            d = rng.integers(2, 7)
            g = rng.standard_normal((d, d + (1 if k % 3 else -1)))
            mat = g @ g.T  # PSD, rank-deficient for k % 3 == 0
            out = pseudoinverse(mat)
            scale = max(1.0, operator_norm(mat))
            assert np.abs(mat @ out @ mat - mat).max() <= 1e-8 * scale

    def test_roundoff_negatives_land_in_kernel(self):
        # A tolerance-level negative eigenvalue must not be inverted into
        # a huge negative contribution.
        mat = np.diag([1.0, -5e-10])
        out = pseudoinverse(mat)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-14)
        assert psd_check(out).is_psd

    def test_zero_matrix(self):
        np.testing.assert_allclose(pseudoinverse(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_output_is_hermitian(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = g @ g.conj().T
        out = pseudoinverse(mat)
        assert np.abs(out - out.conj().T).max() < 1e-14


def _random_lemma_instance(rng, case):
    """Blocks of assorted rank and signature for the reduction tests."""
    p = int(rng.integers(1, 5))
    q = int(rng.integers(1, 5))
    if case == 0:  # generic PSD blocks, full rank
        ga, gb = rng.standard_normal((p, p)), rng.standard_normal((q, q))
        a, b = ga @ ga.T + 0.1 * np.eye(p), gb @ gb.T + 0.1 * np.eye(q)
        c = rng.standard_normal((p, q))
    elif case == 1:  # B rank-deficient, C compatible with its kernel
        rank = max(1, q - 1)
        gb = rng.standard_normal((q, rank))
        b = gb @ gb.T
        ga = rng.standard_normal((p, p))
        a = ga @ ga.T + 0.5 * np.eye(p)
        c = rng.standard_normal((p, q)) @ b  # columns inside range(B)
        c /= max(1.0, np.abs(c).max())
    elif case == 2:  # B rank-deficient, C generically violating the kernel
        rank = max(1, q - 1)
        gb = rng.standard_normal((q, rank))
        b = gb @ gb.T
        a = np.eye(p)
        c = rng.standard_normal((p, q))
    else:  # indefinite symmetric blocks
        ga, gb = rng.standard_normal((p, p)), rng.standard_normal((q, q))
        a, b = (ga + ga.T) / 2, (gb + gb.T) / 2
        c = rng.standard_normal((p, q))
    return a, b, c


class TestSchurPsd:
    def test_block_diagonal_identity(self):
        report = schur_psd(np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert report.is_psd
        assert report.kernel_ok

    def test_coupling_too_strong(self):
        # [[1, 2], [2, 1]] has eigenvalue -1
        report = schur_psd(np.eye(1), np.eye(1), np.array([[2.0]]))
        assert not report.is_psd
        assert report.kernel_ok

    def test_kernel_violation(self):
        # B = 0 but C couples to it: never PSD
        report = schur_psd(np.eye(2), np.zeros((2, 2)), np.eye(2))
        assert not report.is_psd
        assert not report.kernel_ok

    def test_indefinite_b_never_psd(self):
        report = schur_psd(np.eye(1), np.array([[-1.0]]), np.zeros((1, 1)))
        assert not report.is_psd

    def test_agrees_with_direct_eigensolve(self):
        """500 random instances against the assembled block matrix."""
        rng = np.random.default_rng(2024)
        judged = 0
        for k in range(500):
            a, b, c = _random_lemma_instance(rng, k % 4)
            direct = np.block([[a, c], [c.T, b]])
            report_direct = psd_check(direct)
            eigs = np.linalg.eigvalsh((direct + direct.T) / 2)
            if abs(eigs[0]) <= 1e-8 * max(1.0, np.abs(eigs).max()):
                continue  # borderline, the two tests may legitimately differ
            judged += 1
            assert schur_psd(a, b, c).is_psd == report_direct.is_psd, (
                f"disagreement at instance {k}: margin {eigs[0]:.3e}"
            )
        assert judged >= 400

    def test_tolerance_negative_of_b_is_kernel(self):
        # B passes its own PSD test, but inverting its -1e-10 would add
        # 1e10 to the complement and hide the assembled eigenvalue -0.618
        a, b, c = np.eye(1), np.diag([1.0, -1e-10]), np.array([[0.0, 1.0]])
        report = schur_psd(a, b, c)
        assert not report.is_psd
        assert not report.kernel_ok
        assert not psd_check(np.block([[a, c], [c.T, b]])).is_psd

    def test_shape_mismatch(self):
        with pytest.raises(MatrixInputError, match="incompatible"):
            schur_psd(np.eye(2), np.eye(3), np.zeros((3, 3)))

    def test_rejects_complex(self):
        with pytest.raises(MatrixInputError, match="real"):
            schur_psd(np.eye(2) + 0j * J1, np.eye(2), 1j * np.zeros((2, 2)))


def eigh_path(outer, coupling, inner, tol=DEFAULT_TOL):
    """``_schur_complement`` with the Cholesky factorization made to fail."""
    def no_factor(mat):
        raise np.linalg.LinAlgError("forced")

    cholesky = np.linalg.cholesky
    np.linalg.cholesky = no_factor
    try:
        return matlin._schur_complement(outer, coupling, inner, tol)
    finally:
        np.linalg.cholesky = cholesky


@st.composite
def pd_schur_blocks(draw):
    """``outer``, ``coupling`` and a positive definite ``inner``, ``cond(inner) <= 400``."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)

    def matrix(rows, cols):
        flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return np.array(flat).reshape(rows, cols)

    g, outer = matrix(q, q), matrix(p, p)
    inner = g @ g.T + draw(st.floats(0.01, 2.0)) * np.eye(q)
    return outer + outer.T, 3.0 * matrix(p, q), inner


class TestSchurComplement:
    """The Cholesky path of ``_schur_complement`` and its fallback to ``_eigh_kernel``."""

    @settings(max_examples=200, deadline=None)
    @given(pd_schur_blocks())
    def test_cholesky_path_equals_the_eigh_path(self, blocks):
        outer, coupling, inner = blocks
        got = matlin._schur_complement(outer, coupling, inner, DEFAULT_TOL)
        want = eigh_path(outer, coupling, inner)
        scale = max(1.0, float(np.abs(want[0]).max()), float(np.abs(outer - want[0]).max()))
        assert float(np.abs(got[0] - want[0]).max()) <= 1e-12 * scale
        assert np.array_equal(got[0], got[0].T)
        assert got[1] is want[1] is True and got[3] is want[3] is True
        assert got[4] == want[4] == 0.0
        assert 0.0 < got[2] <= want[2] * (1.0 + 1e-12)  # a lower bound on lambda_min(inner)

    @pytest.mark.parametrize("inner, kernel", [
        (np.diag([1.0, 0.0]), True),         # singular: no Cholesky factor
        (np.diag([1.0, 0.5e-12]), True),     # a factor, but an eigenvalue under the cutoff
        (np.diag([1.0, 1.5e-12]), False),    # above the cutoff, condition bound past 1/(2 rcond)
    ], ids=["singular", "under-cutoff", "condition-bound"])
    def test_falls_back_to_the_eigensolve(self, inner, kernel, monkeypatch, lapack_calls):
        outer, coupling = np.eye(1), np.array([[1.0, 1e-3]])
        got = matlin._schur_complement(outer, coupling, inner, DEFAULT_TOL)
        monkeypatch.undo()
        names = [name for name, _ in lapack_calls]
        assert names[0] == "cholesky" and names.count("eigh") == 1
        want = eigh_path(outer, coupling, inner)
        assert got[1:] == want[1:]
        np.testing.assert_array_equal(got[0], want[0])
        # the eigensolve decides: e_2, on which the coupling is 1e-3, is kernel
        # only when its eigenvalue lies under the cutoff
        assert got[2] == float(np.linalg.eigvalsh(inner)[0])
        assert (got[3], got[4]) == ((False, 1e-3) if kernel else (True, 0.0))


@st.composite
def tolerance_negative_blocks(draw):
    """Blocks ``A``, ``B``, ``C`` where B has one eigenvalue in
    ``(-psd_tol, -pinv_rcond) * scale``, ``scale = |lambda|_max(B) >= 1``.

    B passes its own PSD test, yet that eigenvalue lies below the
    pseudoinverse cutoff, so the kernel rule rather than an inversion
    must handle it.
    """
    p, q = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)

    def matrix(rows, cols):
        flat = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return np.array(flat).reshape(rows, cols)

    scale = draw(st.floats(1.0, 10.0))
    exponent = draw(st.floats(np.log10(DEFAULT_TOL.pinv_rcond) + 0.1,
                              np.log10(DEFAULT_TOL.psd_tol) - 0.1))
    middle = [draw(st.floats(0.5, 1.0)) * scale for _ in range(q - 2)]
    eigs = np.array([-(10.0 ** exponent) * scale, *middle, scale])
    basis = np.linalg.qr(matrix(q, q))[0]
    g = matrix(p, p)
    return g @ g.T, (basis * eigs) @ basis.T, matrix(p, q)


@settings(max_examples=200, deadline=None)
@given(tolerance_negative_blocks())
def test_schur_psd_matches_assembled_with_tolerance_negative_b(blocks):
    a, b, c = blocks
    assembled = np.block([[a, c], [c.T, b]])
    assume(abs(float(np.linalg.eigvalsh(assembled)[0])) > 1e-6)
    assert schur_psd(a, b, c).is_psd == psd_check(assembled).is_psd


class TestHermitianReducePsd:
    def test_vacuum_like(self):
        assert hermitian_reduce_psd(np.eye(2), np.zeros((2, 2)))

    def test_saturated(self):
        # [[A, J], [J^T, A]] with A = I: eigenvalues of I + iJ are {0, 2}
        assert hermitian_reduce_psd(np.eye(2), J1)

    def test_fails_when_coupling_dominates(self):
        assert not hermitian_reduce_psd(np.eye(2), 2.0 * J1)

    def test_agrees_with_direct_eigensolve(self):
        """500 random (symmetric, antisymmetric) pairs vs the doubled matrix."""
        rng = np.random.default_rng(99)
        judged = 0
        for k in range(500):
            d = int(rng.integers(1, 6))
            g = rng.standard_normal((d, d))
            a = (g + g.T) / 2
            if k % 2:
                a = a @ a.T + 0.05 * np.eye(d)  # PSD variant
            h = rng.standard_normal((d, d))
            c = (h - h.T) / 2
            direct = np.block([[a, c], [c.T, a]])
            eigs = np.linalg.eigvalsh(direct)
            if abs(eigs[0]) <= 1e-8 * max(1.0, np.abs(eigs).max()):
                continue
            judged += 1
            assert hermitian_reduce_psd(a, c) == psd_check(direct).is_psd, (
                f"disagreement at instance {k}: margin {eigs[0]:.3e}"
            )
        assert judged >= 400

    def test_rejects_symmetry_residual(self):
        bad = np.eye(2)
        bad[0, 1] = 1e-3
        with pytest.raises(MatrixInputError, match="symmetry residual"):
            hermitian_reduce_psd(bad, np.zeros((2, 2)))

    def test_rejects_antisymmetry_residual(self):
        with pytest.raises(MatrixInputError, match="antisymmetry residual"):
            hermitian_reduce_psd(np.eye(2), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(MatrixInputError, match="mismatch"):
            hermitian_reduce_psd(np.eye(2), np.zeros((3, 3)))


def test_hermitian_part():
    mat = np.array([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_allclose(hermitian_part(mat), [[1.0, 1.0], [1.0, 1.0]])


def test_default_tol_is_shared_instance():
    assert DEFAULT_TOL.psd_tol == ToleranceConfig().psd_tol
