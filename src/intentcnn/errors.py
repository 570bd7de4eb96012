"""Exception hierarchy shared by every intentcnn module.

The command line prints ``error: <message>`` for each of these and exits with
the code its class maps to:

- IntentCnnError -> 4, for what no subclass covers;
- ConfigError -> 2;
- DataError -> 3, and so InputError -> 3, NumericError -> 3 and FormatError -> 3;
- TrainingError -> 4;
- ExperimentError -> its cause's code.

Any other exception exits 4.
"""

from __future__ import annotations


class IntentCnnError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(IntentCnnError):
    """Invalid configuration: bad field value, impossible architecture, unknown key."""


class DataError(IntentCnnError):
    """Base class for problems with input data rather than configuration or code."""


class InputError(DataError):
    """Data, a file or a source the operation cannot use (a shape or channel
    mismatch, too few frames or samples, a misnamed trace, a dead source, ...)."""


class NumericError(DataError):
    """NaN or Inf encountered where finite values are required."""


class FormatError(DataError):
    """A file (trace CSV, model binary, stats CSV) does not parse; message carries a location."""


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
