"""Exception hierarchy shared across the toolkit.

Every error raised on purpose derives from :class:`FaultMonError` so callers
can catch toolkit failures without masking programming errors. Most types
also inherit ``ValueError`` because they signal bad inputs.
"""


class FaultMonError(Exception):
    """Base class for all toolkit errors."""


class EmptyInputError(FaultMonError, ValueError):
    """An input that must contain data was empty or too small to use."""


class NonFiniteValueError(FaultMonError, ValueError):
    """An input contained NaN or infinity."""


class ConstantStreamError(FaultMonError, ValueError):
    """One or more streams had zero variance in the reference data."""

    def __init__(self, stream_indices):
        self.stream_indices = tuple(int(i) for i in stream_indices)
        super().__init__(
            f"streams {list(self.stream_indices)} are constant in the "
            "reference data; a scale cannot be estimated"
        )


class DimensionMismatchError(FaultMonError, ValueError):
    """Sample width does not match the fitted stream count."""


class DomainError(FaultMonError, ValueError):
    """A parameter fell outside its allowed range, sign or set of names."""


class BadRError(FaultMonError, ValueError):
    """The top-r parameter is not in the range 1..stream count."""


class BracketError(FaultMonError, RuntimeError):
    """Threshold search could not bracket the target run length."""


class NoConvergenceError(FaultMonError, RuntimeError):
    """An iterative procedure hit its iteration cap before converging."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class WindowTooShortError(FaultMonError, ValueError):
    """A covariance window had fewer than two rows."""


class NotSymmetricError(FaultMonError, ValueError):
    """A matrix expected to be symmetric was not."""


class NotSpdError(FaultMonError, ValueError):
    """A matrix expected to be symmetric positive definite was not."""


class EigenFailureError(FaultMonError, RuntimeError):
    """An eigendecomposition failed to converge."""


class SingleClassError(FaultMonError, ValueError):
    """Training labels contained fewer than two classes."""


class TooFewPerClassError(FaultMonError, ValueError):
    """A class has fewer members than the number of CV folds."""


class TraceTooShortError(FaultMonError, ValueError):
    """A statistic trace was too short to summarize."""


class BadSpecError(FaultMonError, ValueError):
    """A process or fault specification failed validation."""


class CalibrationFailedError(FaultMonError, RuntimeError):
    """Threshold calibration failed during training."""


class NoAlarmInTrainingError(FaultMonError, RuntimeError):
    """A fault class kept fewer than 2 usable training runs.

    Runs can be dropped because the detector never alarmed or because the
    classification window did not fit inside the run; ``run_ids`` names
    the runs of that class that were dropped.
    """

    def __init__(self, fault_id, run_ids):
        self.fault_id = int(fault_id)
        self.run_ids = tuple(run_ids)
        super().__init__(
            f"fault class {self.fault_id} has fewer than 2 usable training runs "
            f"(dropped: {list(self.run_ids)})"
        )


class LabelMismatchError(FaultMonError, ValueError):
    """Run labels are inconsistent with the run data."""


class VersionMismatchError(FaultMonError, ValueError):
    """A persisted bundle was written by an incompatible format version."""


class CorruptBundleError(FaultMonError, ValueError):
    """A persisted bundle failed integrity or schema checks."""
