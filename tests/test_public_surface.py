"""The package's public names: exactly this list, and each one resolves."""

import gsep

PUBLIC = [
    "BipartiteCM", "BracketError", "CMError", "CertificateError", "CertificateReport",
    "DEFAULT_TOL", "EngineError", "InvalidCMError", "IterationStep", "IterationTrace",
    "MatrixInputError", "NumericalError", "PptReport", "PsdReport",
    "SchemaError", "SchurReport", "SeparabilityCertificate", "SweepPoint", "ToleranceConfig",
    "Verdict", "VerdictKind", "__version__", "decide", "decide_robust", "dump_certificate",
    "dump_cm", "find_threshold", "hermitian_part", "hermitian_reduce_psd", "load_certificate",
    "load_cm", "map_step", "momentum_flip", "operator_norm", "parse_certificate", "parse_cm",
    "partial_transpose", "ppt_check", "psd_check", "pseudoinverse", "random_cm",
    "random_covariance", "random_separable_cm", "random_symplectic", "reconstruct",
    "schur_psd", "sweep", "symplectic_form", "tmss", "trace_norm", "validate_cm",
    "verify_certificate", "witness",
]


def test_public_names_are_exactly_the_snapshot():
    assert sorted(gsep.__all__) == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(gsep, name)]
    assert missing == []
