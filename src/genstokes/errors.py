"""Exception types shared across the package."""


class GenStokesError(Exception):
    """Base class for all package-specific errors."""


class SingularTensor(GenStokesError):
    """Tensor inversion requested for a (numerically) singular tensor.

    :meth:`samples` refuses ``count`` samples by ``test`` (0: the
    determinant, 1: the inverse's residual), naming the flat index ``first``
    and the tested ``value`` of the first; it keeps the four as attributes."""

    _TESTS = (("with determinant below tolerance for inversion", "det"),
              ("too ill-conditioned for the cofactor inverse", "max|BX - I|"))

    @classmethod
    def samples(cls, test: int, count: int, first: int, value: float):
        what, name = cls._TESTS[test]
        err = cls(f"{count} sample(s) {what} (first: flat index {first}, "
                  f"{name} = {value:.3e})")
        err.test, err.count, err.first, err.value = test, count, first, value
        return err


class NotUnimodular(GenStokesError):
    """Operation requires det B = 1 and the input violates the tolerance."""


class DomainError(GenStokesError):
    """Scalar argument outside the admissible domain (e.g. lambda <= 0)."""


class DegenerateQuadratic(GenStokesError):
    """Root formula requested with vanishing quadratic coefficient."""


class NotAdmissible(GenStokesError):
    """Parameter triple fails the admissibility premise of the operation."""


class NotSPD(GenStokesError):
    """A tensor sample is not symmetric positive definite.

    Carries the offending sample point in ``point`` when known.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NotElliptic(GenStokesError):
    """Coefficient tensor fails uniform positivity over the sample set."""

    def __init__(self, message, point=None, alpha=None):
        super().__init__(message)
        self.point = point
        self.alpha = alpha


class InvalidDimensions(GenStokesError):
    """Mesh parameters out of range."""


class BCViolation(GenStokesError):
    """Coefficient vector does not satisfy the Dirichlet mask."""


class FactorizationFailure(GenStokesError):
    """Sparse factorization of the saddle-point matrix failed."""


class ResidualTooLarge(GenStokesError):
    """Linear solve finished with residual above the configured tolerance."""


class MaxIterations(GenStokesError):
    """Iterative solver exhausted its iteration budget."""


class NonDifferentiableField(GenStokesError):
    """Derivative data requested from a field that cannot provide it."""


class MissingNormInput(GenStokesError):
    """A required norm value was not supplied to a diagnostic formula."""


class ConfigError(GenStokesError):
    """Invalid run configuration (bad paths, non-positive tolerances, ...)."""
