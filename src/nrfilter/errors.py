"""Exception and warning types shared across the package."""

from __future__ import annotations


class NrFilterError(Exception):
    """Base class for all package-specific errors."""


class ProbabilityOutOfRange(NrFilterError):
    """A token probability lies outside [0, 1]."""

    def __init__(self, chunk_id: str, position: int, value: float):
        self.chunk_id = chunk_id
        self.position = position
        self.value = value
        super().__init__(
            f"chunk {chunk_id!r}, token {position}: probability {value!r} outside [0, 1]"
        )


class ProbabilitySumViolation(NrFilterError):
    """A token probability vector does not sum to 1 within tolerance."""

    def __init__(self, chunk_id: str, position: int, total: float):
        self.chunk_id = chunk_id
        self.position = position
        self.total = total
        super().__init__(
            f"chunk {chunk_id!r}, token {position}: probabilities sum to {total!r}, expected 1"
        )


class SchemaMismatch(NrFilterError):
    """Class schema or feature schema does not match what was expected."""


class AnchorOutOfRange(NrFilterError):
    """Anchor token index lies outside the chunk."""


class PassMisalignment(NrFilterError):
    """Stochastic forward passes disagree with each other or with the corpus
    chunk on token texts or classes, or a chunk has fewer than two."""


class SingleClassTrainingSet(NrFilterError):
    """Training or tuning data contains only one of the two classes."""


class ChunkIdMismatch(NrFilterError):
    """Predicted and gold spans reference different chunk universes."""


class CountInflation(NrFilterError):
    """Filtered counts exceed base counts, which filtering cannot produce."""


class InvalidConfig(NrFilterError):
    """Configuration value outside its documented range."""


class NonPositiveDecayRate(InvalidConfig):
    """Decay rate must be strictly positive."""


class NonPositiveTemperature(InvalidConfig):
    """Temperature must be strictly positive."""


class ParseError(NrFilterError):
    """A corpus line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str, path: str | None = None):
        self.line_no = line_no
        self.path = path
        where = f"{path}:{line_no}" if path else f"line {line_no}"
        super().__init__(f"{where}: {message}")


class NoFeasibleThreshold(UserWarning):
    """No decision threshold removes anything under the TP-drop constraint."""
