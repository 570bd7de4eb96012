"""Exception hierarchy shared by every intentcnn module.

The command line maps these onto exit codes: ConfigError -> 2, DataError and
its subclasses -> 3, everything else (TrainingError, unexpected failures) -> 4.
"""

from __future__ import annotations


class IntentCnnError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IntentCnnError):
    """Invalid configuration: bad field value, impossible architecture, unknown key."""


class DataError(IntentCnnError):
    """Base class for problems with input data rather than configuration or code."""


class DimensionError(DataError):
    """Array shape or channel-count mismatch."""


class DegenerateInputError(DataError):
    """Input too small for the requested operation (e.g. fewer frames than kernel width)."""


class InputError(DataError):
    """Input content violates a contract (non-one-hot targets, bad probabilities, ...)."""


class NumericError(DataError):
    """NaN or Inf encountered where finite values are required."""


class FormatError(DataError):
    """A file (trace CSV, model binary, stats CSV) does not parse; message carries a location."""


class LabelingError(DataError):
    """A trace file name does not follow the task<k>_trial<m>.csv convention."""


class RelabelError(DataError):
    """Invalid binary relabeling request (empty or non-proper positive class set)."""


class FusionError(DataError):
    """Datasets cannot be merged (channel count or channel name mismatch)."""


class InsufficientSupportError(DataError):
    """A class has too few samples for the requested stratified split."""


class StreamError(DataError):
    """Fatal streaming problem (configuration-level channel mismatch, dead input)."""


class TrainingError(IntentCnnError):
    """Training diverged or could not run; carries epoch/batch indices when known."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class ExperimentError(IntentCnnError):
    """Wraps a failure inside an experiment pipeline with experiment id and stage."""

    def __init__(self, experiment_id: str, stage: str, cause: BaseException):
        super().__init__(f"experiment {experiment_id!r} failed during {stage!r}: {cause}")
        self.experiment_id = experiment_id
        self.stage = stage
        self.cause = cause


def excerpt(text, limit: int = 40) -> str:
    """repr(text) for a message; a str longer than ``limit`` characters is cut
    to its first ``limit`` plus its length, so that one huge cell or name
    cannot blow an error line up to the size of a file."""
    if not isinstance(text, str) or len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"
