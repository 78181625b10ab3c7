"""Exception hierarchy shared across the toolkit.

Degenerate-but-recoverable situations (constant series, zero-variance
images) are reported through flags on the returned objects, not through
exceptions; only genuinely invalid inputs raise.
"""


class TsimgError(Exception):
    """Base class for all toolkit errors."""


# --- series / windowing -------------------------------------------------

class EmptyResultError(TsimgError):
    """Series too short to produce a single window, or a metric of no values."""


class InvalidPeriodError(TsimgError):
    """Requested period outside [1, length]."""


class UnstableCoefficientError(TsimgError):
    """AR(1) coefficient with |phi| >= 1."""


# --- imaging ------------------------------------------------------------

class SeriesTooShortError(TsimgError):
    """Input series too short for the requested transform."""


class InvalidLError(TsimgError):
    """Segment length L < 1."""


class LengthMismatchError(TsimgError):
    """Image cannot contain the requested number of values."""


class NotSquareError(TsimgError):
    """Square image required."""


class EmbeddingTooLargeError(TsimgError):
    """Delay embedding leaves no states."""


class WindowTooLongError(TsimgError):
    """STFT window longer than the series."""


# --- alignment / models -------------------------------------------------

class ShapeMismatchError(TsimgError):
    """Tensor shapes inconsistent with the configuration."""


class IndivisiblePatchError(TsimgError):
    """Image side not divisible by the patch size."""


class RoutingError(TsimgError):
    """Task/imaging combination not allowed by the framework routing."""


class HorizonTooLongError(TsimgError):
    """Forecast horizon requires more image columns than permitted."""


class NonFiniteLossError(TsimgError):
    """Forward pass produced NaN or Inf."""


# --- training -----------------------------------------------------------

class LabelOutOfRangeError(TsimgError):
    """Class label outside [0, C)."""


class EmptyMaskError(TsimgError):
    """Reconstruction loss requires at least one masked patch."""


# --- evaluation ---------------------------------------------------------

class TooShortError(TsimgError):
    """Perturbation needs at least two time points."""


class DivByZeroError(TsimgError):
    """Baseline metric is zero; relative drop undefined."""


class NonPositiveError(TsimgError):
    """Arguments must be positive integers."""


class NonIntegerSegmentError(TsimgError):
    """(i * L) must be divisible by k for an integer segment length."""


# --- data io ------------------------------------------------------------

class ParseError(TsimgError):
    """Malformed input file; message carries the line number."""


class NonNumericCellError(ParseError):
    """A cell expected to be numeric failed to parse."""


class EmptyFileError(ParseError):
    """File contains no data rows."""


class InconsistentWidthError(ParseError):
    """Rows of a flat-sample CSV differ in width."""


class LabelNotIntegerError(ParseError):
    """Label column failed integer parsing."""


class IoError(TsimgError):
    """Underlying file operation failed."""


class VersionMismatchError(TsimgError):
    """Checkpoint written by an unknown format version."""


class CorruptFileError(TsimgError):
    """Checkpoint failed its length/consistency check."""
