"""Separability analysis for bipartite Gaussian states.

The library decides, from the correlation matrix alone, whether a
bipartite Gaussian state is separable or entangled, and backs separable
verdicts with explicit certificates that can be verified independently.
The linear algebra underneath (PSD tests, pseudoinverse, norms, Schur
complements) is public in :mod:`gsep.matlin`, not re-exported here.
"""

from .certify import (
    CertificateError,
    CertificateReport,
    SeparabilityCertificate,
    reconstruct,
    verify_certificate,
    witness,
)
from .engine import (
    BracketError,
    EngineError,
    IterationStep,
    IterationTrace,
    NumericalError,
    SweepPoint,
    Verdict,
    VerdictKind,
    decide,
    decide_robust,
    find_threshold,
    map_step,
    sweep,
)
from .gaussian import (
    BipartiteCM,
    CMError,
    InvalidCMError,
    momentum_flip,
    partial_transpose,
    random_cm,
    random_covariance,
    random_separable_cm,
    random_symplectic,
    symplectic_form,
    tmss,
    validate_cm,
)
from .io import (
    SchemaError,
    dump_certificate,
    dump_cm,
    load_certificate,
    load_cm,
    parse_certificate,
    parse_cm,
)
from .matlin import DEFAULT_TOL, MatrixInputError, PsdReport, ToleranceConfig
from .ppt import PptReport, ppt_check

__version__ = "0.1.0"

__all__ = [
    "BipartiteCM",
    "BracketError",
    "CMError",
    "CertificateError",
    "CertificateReport",
    "DEFAULT_TOL",
    "EngineError",
    "InvalidCMError",
    "IterationStep",
    "IterationTrace",
    "MatrixInputError",
    "NumericalError",
    "PptReport",
    "PsdReport",
    "SchemaError",
    "SeparabilityCertificate",
    "SweepPoint",
    "ToleranceConfig",
    "Verdict",
    "VerdictKind",
    "decide",
    "decide_robust",
    "dump_certificate",
    "dump_cm",
    "find_threshold",
    "load_certificate",
    "load_cm",
    "map_step",
    "momentum_flip",
    "parse_certificate",
    "parse_cm",
    "partial_transpose",
    "ppt_check",
    "random_cm",
    "random_covariance",
    "random_separable_cm",
    "random_symplectic",
    "reconstruct",
    "sweep",
    "symplectic_form",
    "tmss",
    "validate_cm",
    "verify_certificate",
    "witness",
    "__version__",
]
