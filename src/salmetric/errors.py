"""Exception types shared across the toolkit."""


class SalmetricError(Exception):
    """Base class for every error raised by this package."""


class ZeroMassError(SalmetricError):
    """An all-zero map cannot be normalized into a density."""


class NegativeValueError(SalmetricError):
    """Negative values where a non-negative map is required."""


class DimensionMismatchError(SalmetricError):
    """Two maps that must share a shape do not."""


class FrameMismatchError(SalmetricError):
    """A fixation set or image indexes a different frame than expected."""


class InvalidSigmaError(SalmetricError):
    """Gaussian width must be a positive number of pixels."""


class EmptyFixationsError(SalmetricError):
    """An operation needs at least one fixation."""


class EmptyDatasetError(SalmetricError):
    """An operation needs at least one image."""


class EmptyPositivesError(SalmetricError):
    """ROC construction and negative draws need a non-empty positive set."""


class EmptyNegativesError(SalmetricError):
    """ROC construction needs a non-empty negative set."""


class EmptyPoolError(SalmetricError):
    """The negative candidate pool is empty after removing the positives."""


class DuplicateIdError(SalmetricError):
    """Image ids within a dataset must be unique."""


class ZeroVarianceError(SalmetricError):
    """A constant map has no correlation or z-scores."""


class MissingPredictionError(SalmetricError):
    """No prediction map was supplied for a dataset image."""


class UnknownModeError(SalmetricError):
    """Unrecognized predictor mode."""


class BadMagicError(SalmetricError):
    """File does not start with a recognized map header."""


class TruncatedPayloadError(SalmetricError):
    """Map file payload is shorter (or longer) than the header promises."""


class NonFiniteValueError(SalmetricError):
    """Map files must contain finite values only."""


class SchemaError(SalmetricError):
    """Structured document does not match the expected schema."""


class OutOfBoundsFixationError(SalmetricError):
    """A manifest fixation lies outside its image frame."""


class IoFailureError(SalmetricError):
    """Underlying file operation failed."""


class UndersizedPoolWarning(UserWarning):
    """Negative pool smaller than the positive set; the whole pool is used."""
