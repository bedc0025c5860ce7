"""Exception hierarchy shared by all homcont modules."""


class HomcontError(Exception):
    """Base class for all numerical and configuration failures."""


class NotHyperbolic(HomcontError):
    """A matrix has an eigenvalue too close to the unit circle."""


class Singular(HomcontError):
    """A matrix required to be invertible is numerically singular."""


class RankDrop(HomcontError):
    """A subspace frame changed dimension, lost rank or is not orthonormal."""


class AlignmentFailure(HomcontError):
    """Consecutive subspaces stayed badly aligned after maximal refinement."""


class DegenerateClosure(HomcontError):
    """Frame-closure matrix is numerically singular (undersampled loop)."""


class IndexMismatch(HomcontError):
    """Stable dimensions are inconsistent across the parameter grid."""


class SizeMismatch(HomcontError):
    """Vector or matrix sizes do not match the truncated problem layout."""


class WindowOverflow(HomcontError):
    """Window adaptation exceeded the maximal half-width."""


class InconsistentParity(HomcontError):
    """A parity scan's endpoint linearization is near-singular."""


class NoSignChange(HomcontError):
    """A bracket contains no determinant sign change and no smin dip."""


class MaxIterations(HomcontError):
    """An iteration exceeded its step budget."""


class NoConvergence(HomcontError):
    """Newton iteration failed to reach the residual tolerance."""


class SingularJacobian(HomcontError):
    """Newton linear solve hit a singular (augmented) Jacobian."""


class DegenerateKernel(HomcontError):
    """Branch switching was asked to start from an unusable kernel."""


class StartInvalid(HomcontError):
    """Continuation start point does not satisfy its own tolerances."""


class InvalidConfig(HomcontError):
    """A configuration value violates its documented constraints."""
