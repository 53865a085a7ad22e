"""The package's public names: exactly this list, and each one resolves."""

import gsep
import gsep.matlin

PUBLIC = [
    "BipartiteCM", "BracketError", "CMError", "CertificateError", "CertificateReport",
    "DEFAULT_TOL", "EngineError", "InvalidCMError", "IterationStep", "IterationTrace",
    "MatrixInputError", "NumericalError", "PptReport", "PsdReport",
    "SchemaError", "SeparabilityCertificate", "SweepPoint", "ToleranceConfig",
    "Verdict", "VerdictKind", "__version__", "decide", "decide_robust", "dump_certificate",
    "dump_cm", "find_threshold", "load_certificate", "load_cm", "map_step",
    "momentum_flip", "parse_certificate", "parse_cm", "partial_transpose", "ppt_check",
    "random_cm", "random_covariance", "random_separable_cm", "random_symplectic",
    "reconstruct", "sweep", "symplectic_form", "tmss", "validate_cm",
    "verify_certificate", "witness",
]

# Public in gsep.matlin only.  The bench tracer wraps functions by module
# ``__all__``, and acceptance criteria 1 and 4 import these from gsep.matlin.
MATLIN_ONLY = [
    "SchurReport", "hermitian_part", "hermitian_reduce_psd", "operator_norm",
    "psd_check", "pseudoinverse", "schur_psd", "trace_norm",
]


def test_public_names_are_exactly_the_snapshot():
    assert sorted(gsep.__all__) == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(gsep, name)]
    assert missing == []


def test_linear_algebra_is_public_in_matlin_only():
    for name in MATLIN_ONLY:
        assert name in gsep.matlin.__all__, name
        assert getattr(gsep.matlin, name).__module__ == "gsep.matlin", name
        assert name not in gsep.__all__, name
