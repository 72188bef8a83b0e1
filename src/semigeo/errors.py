"""Exception hierarchy shared by all semigeo modules."""


class SemigeoError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SemigeoError):
    """A coordinate point left the chart domain, or a parameter left its admissible range."""


class RhsDomainError(DomainError):
    """An ODE right-hand side was evaluated outside its stated domain."""


class SingularMetricError(SemigeoError):
    """Metric matrix inversion failed (|det| below threshold)."""


class DegeneratePlaneError(SemigeoError):
    """Sectional curvature requested on a (numerically) lightlike plane."""


class EmptySampleError(SemigeoError):
    """A sampling check was requested with zero samples."""


class UnsupportedSpaceError(SemigeoError):
    """Unknown model-space name or malformed space specification string."""


class NonTangentError(SemigeoError):
    """Algebra element has a nonzero isotropy component where a tangent vector is required."""


class BasisDecompositionError(SemigeoError):
    """A matrix could not be re-expressed exactly in the fixed algebra basis.

    This indicates an internal inconsistency in the basis tables and must never fire
    for commutators of basis elements.
    """
