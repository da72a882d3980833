"""Exception types shared across the package."""


class OpcalcError(Exception):
    """Base class for all package errors."""


class EigensolverError(OpcalcError):
    """The dense eigensolver failed to converge."""


class SplitUndefined(OpcalcError):
    """ker(T^2) != ker(T): the kernel/range splitting does not exist."""


class NotBisectorial(OpcalcError):
    """Spectrum touches the imaginary axis; no bisector angle < pi/2 exists."""


class ContourTooClose(OpcalcError):
    """An eigenvalue lies within the safety margin of the integration contour."""


class DecompositionFailure(OpcalcError):
    """The three candidate subspaces do not span; no Hodge splitting."""

    def __init__(self, msg, xi=None):
        super().__init__(msg)
        self.xi = xi


class NotInvertible(OpcalcError):
    """Iterative solve stagnated; operator numerically not invertible."""

    def __init__(self, msg, residual=None, iterations=None):
        super().__init__(msg)
        self.residual = residual
        self.iterations = iterations


class PerturbationTooLarge(OpcalcError):
    """Perturbation exceeds the Neumann-series radius of the splitting."""


class HodgeDecompositionUncertain(OpcalcError):
    """Limit formulas for the projections did not settle within tolerance."""

    def __init__(self, msg, curve=None):
        super().__init__(msg)
        self.curve = curve


class CoercivityError(OpcalcError):
    """A required lower bound on a multiplication operator fails."""


class ProbeAborted(OpcalcError):
    """A probe precondition failed at a specific evaluation node."""

    def __init__(self, msg, node=None):
        super().__init__(msg)
        self.node = node
