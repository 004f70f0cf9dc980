"""Shared exception types.

Exit-code mapping used by the CLI: usage/config -> 1, data -> 2,
numeric divergence -> 3, a worker process that died -> 4.
"""
from __future__ import annotations


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
    """Training produced a non-finite loss, or parameters whose squared norm
    overflows.

    `stream` is the index of the diverging stream in a stacked group (0 for
    one model); the caller that knows the streams sets `feature` and `kind`,
    and the message names them.
    """

    def __init__(self, epoch: int, batch: int, loss: float, stream: int = 0,
                 what: str | None = None):
        self.epoch = epoch
        self.batch = batch
        self.loss = loss
        self.stream = stream
        self.what = what or f"non-finite loss {loss!r} at"
        self.feature = self.kind = None
        # The arguments make it picklable: a worker process sends it back.
        super().__init__(epoch, batch, loss, stream, what)

    def __str__(self):
        where = (f"{self.kind} model of feature {self.feature}: "
                 if self.feature is not None else "")
        return f"{where}{self.what} epoch {self.epoch}, batch {self.batch}"


class WorkerError(RuntimeError):
    """A worker process ended without sending its result."""


class OracleError(RuntimeError):
    """A verification oracle (e.g. finite differences) hit a non-finite value."""
