"""Numerical functional calculus for bisectorial Fourier-multiplier
operators on the discrete torus, with dense oracles for every fast path."""

# One BLAS thread by default.  OpenBLAS reads its thread count once, as
# numpy loads it, and at the suites' sizes a second thread adds no
# throughput but spins through every LAPACK call.  The count is set only
# while numpy loads, only if opcalc is first to load it and the user set
# none of the variables OpenBLAS reads; os.environ is then restored, so
# child processes see what the user left.
import os as _os
import sys as _sys

_default_threads = "numpy" not in _sys.modules and not any(
    name in _os.environ
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
)
if _default_threads:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as _np
finally:
    if _default_threads:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from . import dacorr, hodge, krylov, matcalc, quadest, symbols, torus
from .errors import (
    ContourTooClose,
    DecompositionFailure,
    EigensolverError,
    HodgeDecompositionUncertain,
    NotBisectorial,
    NotInvertible,
    OpcalcError,
    PerturbationTooLarge,
)

__version__ = "0.1.0"
