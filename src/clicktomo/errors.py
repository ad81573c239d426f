"""Exception types shared across the package."""


class ClicktomoError(Exception):
    """Base class for all package-specific errors."""


class TruncationError(ClicktomoError, ValueError):
    """The photon-number cutoff is too small for the requested state."""


class ResourceLimitError(ClicktomoError):
    """A requested matrix or bootstrap would exceed a size cap set by a
    module constant (``detection.COLUMN_CAP``,
    ``detection.MATRIX_BYTES_CAP`` or ``detection.REPLICATE_BYTES_CAP``).
    A data error, not a bad argument: it is no ``ValueError``."""


class DegenerateSupportError(ClicktomoError, ArithmeticError):
    """EM update hit a pattern with zero model probability but nonzero data.

    An observed click pattern that no distribution within the truncation
    can produce ends a reconstruction with this error: at truncation 0,
    for example, the model holds only the vacuum and never clicks.
    :func:`clicktomo.em_step` also raises it for a ``q`` that gives an
    observed pattern no probability.
    """


class NumericalError(ClicktomoError, ArithmeticError):
    """Non-finite values appeared during iteration."""
