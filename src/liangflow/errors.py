"""Exception hierarchy.

Two branches matter for callers (and for CLI exit codes): ValidationError
covers bad or insufficient input, NumericalError covers analytically
degenerate or unstable computations on otherwise well-formed input.
"""


class LiangFlowError(Exception):
    """Base class for all liangflow errors."""


class ValidationError(LiangFlowError):
    """Malformed, inconsistent, or insufficient input data."""


class NumericalError(LiangFlowError):
    """Degenerate or numerically unstable computation."""


class NonRectangularError(ValidationError):
    """Input rows do not all have the same length."""


class NaNsPresentError(ValidationError):
    """Non-finite values found and the NaN policy is 'reject'."""


class ConstantSeriesError(ValidationError):
    """A series has zero variance; covariance-based estimators are undefined."""


class TooShortError(ValidationError):
    """Not enough samples to fit the model with residual degrees of freedom."""


class DuplicateNamesError(ValidationError):
    """Variable names are not unique."""


class KTooLargeError(ValidationError):
    """Differencing step k leaves too few aligned samples."""


class SameIndexError(ValidationError):
    """Source and target must differ for a pairwise flow."""


class MalformedError(ValidationError):
    """Unparseable input file (ragged rows, non-numeric cells, bad encoding)."""


class EmptyFileError(ValidationError):
    """Input file contains no data."""


class BadMatrixSpecError(ValidationError):
    """Inline or preset system definition could not be interpreted."""


class SingularCovarianceError(NumericalError):
    """Covariance matrix is (near-)singular; inputs are collinear."""


class NonFiniteMomentsError(NumericalError):
    """Sample moments of finite input overflowed to inf or NaN; the data need rescaling."""


class NotHurwitzError(NumericalError):
    """Drift matrix has an eigenvalue with non-negative real part."""


class NonFiniteStateError(NumericalError):
    """Simulated trajectory left the finite range (unstable system / too-large dt)."""


class DegenerateBudgetError(NumericalError):
    """Normalization budget is zero; there is nothing to apportion."""


class LyapunovResidualError(NumericalError):
    """Stationary covariance solve did not meet the residual tolerance."""


class ZeroVarianceWarning(UserWarning):
    """A nonzero estimate carries a zero standard error; p-value forced to 0."""
