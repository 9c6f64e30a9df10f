"""Exception hierarchy shared by all schurmaps modules."""


class SchurMapsError(Exception):
    """Base class for all library errors."""


class NotSquare(SchurMapsError):
    pass


class ShapeMismatch(SchurMapsError):
    pass


class DimensionMismatch(SchurMapsError):
    pass


class NotHermitian(SchurMapsError):
    pass


class NotState(SchurMapsError):
    """Matrix fails the density-matrix requirements (Hermitian, PSD, trace one)."""


class NotPSD(NotState):
    """Carries the most negative eigenvalue found; a state must be PSD, hence NotState."""

    def __init__(self, min_eigenvalue):
        super().__init__(f"matrix is not PSD: most negative eigenvalue {min_eigenvalue:.3e}")
        self.min_eigenvalue = min_eigenvalue


class BadDiagonal(SchurMapsError):
    """A correlation matrix diagonal entry differs from 1."""

    def __init__(self, index, value):
        super().__init__(f"diagonal entry {index} is {value}, expected 1")
        self.index = index
        self.value = value


class BadDimension(SchurMapsError):
    pass


class BadCount(SchurMapsError, ValueError):
    """A count argument (such as an iteration count) is out of range."""


class BadTolerance(SchurMapsError, ValueError):
    """A tolerance is negative or not finite."""


class NotDistribution(SchurMapsError):
    pass


class NoDecompositionFound(SchurMapsError):
    """No flat decomposition. A legitimate outcome for d >= 4, not a fault.

    Either the search exhausted its restarts, and the exception carries the
    best residual seen and the number of restarts used, or xi is extreme with
    rank ``extreme_rank`` >= 2, which certifies that none exists: then nothing
    was searched (restarts 0, best residual inf).
    """

    def __init__(self, best_residual, restarts, extreme_rank=None):
        super().__init__(
            f"no flat decomposition found after {restarts} restarts "
            f"(best residual {best_residual:.3e})"
            if extreme_rank is None
            else f"no flat decomposition exists: xi is extreme with rank {extreme_rank}"
        )
        self.best_residual = best_residual
        self.restarts = restarts
        self.extreme_rank = extreme_rank


class VerificationFailure(SchurMapsError):
    pass


class RecoveryFailure(SchurMapsError):
    """Environment-assisted correction did not return the input state."""

    def __init__(self, residual):
        super().__init__(f"recovered state differs from input: residual {residual:.3e}")
        self.residual = residual


class SerializationError(SchurMapsError):
    pass
