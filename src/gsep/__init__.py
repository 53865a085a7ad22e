"""Separability analysis for bipartite Gaussian states.

The library decides, from the correlation matrix alone, whether a
bipartite Gaussian state is separable or entangled, and backs separable
verdicts with explicit certificates that can be verified independently.
The package's public names are the ``__all__`` of ``certify``,
``engine``, ``gaussian``, ``io`` and ``ppt``, plus four names of
:mod:`gsep.matlin`; the rest of the linear algebra (PSD tests,
pseudoinverse, norms, Schur complements) is public there only.
"""

from . import certify, engine, gaussian, io, ppt
from .certify import *  # noqa: F403
from .engine import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .io import *  # noqa: F403
from .matlin import DEFAULT_TOL, MatrixInputError, PsdReport, ToleranceConfig
from .ppt import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*certify.__all__, *engine.__all__, *gaussian.__all__, *io.__all__, *ppt.__all__,
           "DEFAULT_TOL", "MatrixInputError", "PsdReport", "ToleranceConfig", "__version__"]
