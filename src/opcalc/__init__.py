"""Numerical functional calculus for bisectorial Fourier-multiplier
operators on the discrete torus, with dense oracles for every fast path."""

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
