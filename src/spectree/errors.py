"""Exception types shared across the library."""


class SpectreeError(Exception):
    """Base class for all library-specific errors."""


class InvalidParameter(SpectreeError, ValueError):
    """A structural parameter (branching factor, depth, ...) is out of range."""


class CapacityExceeded(SpectreeError, ValueError):
    """Requested tree would exceed the configured vertex budget."""


class IndexOutOfRange(SpectreeError, IndexError):
    """Vertex index outside the tree."""


class RootHasNoParent(SpectreeError, LookupError):
    """Parent query on the root vertex."""


class AssumptionViolated(SpectreeError, ValueError):
    """Potential fails the exponential-decay admissibility check."""


class NumericalRankFailure(SpectreeError, ArithmeticError):
    """Orthonormalization could not certify the expected subspace dimension."""


class OnSpectrum(SpectreeError, ValueError):
    """Spectral parameter lies (numerically) on the essential spectrum."""


class OutOfDisk(SpectreeError, ValueError):
    """Threshold parameter lies outside the working punctured disk."""


class BranchFailure(SpectreeError, ArithmeticError):
    """Branch-dependent closed form hit a degenerate point (2 sin phi = 0)."""


class SingularOnContour(SpectreeError, ArithmeticError):
    """Operator family is numerically singular at a quadrature node."""


class NonConvergent(SpectreeError, ArithmeticError):
    """Contour quadrature failed to settle on an integer after refinement."""


class NotIsolated(SpectreeError, ValueError):
    """Spectral point is not isolated well enough for a Riesz projection."""
