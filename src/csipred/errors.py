"""Shared exception types.

Exit-code mapping used by the CLI: usage/config -> 1, data -> 2,
numeric divergence -> 3.
"""


class ContractViolation(ValueError):
    """An operation was called with inputs that break its contract."""


class ConfigError(ValueError):
    """Bad configuration or CLI usage."""


class DataError(ValueError):
    """Base class for dataset ingestion/format problems."""


class ParseError(DataError):
    """Malformed CSV content; message names the offending line/cell."""


class UnrecoverableGapError(DataError):
    """A gap of more than the interpolation limit was found while cleaning."""


class CheckpointMismatch(DataError, ContractViolation):
    """A checkpoint is not an experiment checkpoint, or was trained on other data."""


class DegenerateScaleError(DataError):
    """A feature is constant over the training split and cannot be min-max scaled."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, batch: int, loss: float):
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}, batch {batch}")


class OracleError(RuntimeError):
    """A verification oracle (e.g. finite differences) hit a non-finite value."""
