"""Exception types shared across the package.

Every error raised by the library derives from UltragraphError so callers
(and the CLI exit-code mapping) can catch one base class.
"""

from __future__ import annotations


class UltragraphError(Exception):
    """Base class for all library errors."""


class Undecidable(UltragraphError):
    """The oracle cannot decide membership for the given index set.

    Raised instead of guessing: Sampled sets carry information only up to a
    finite horizon, and no verdict is invented beyond it.
    """


class IncompatibleTower(UltragraphError):
    """Residue tower configuration violates c_{m'} = c_m (mod m) for m | m'."""


class InconsistentPin(UltragraphError):
    """A pin would destroy the finite intersection property of the filter."""


class NotAPartition(UltragraphError):
    """Parts overlap, or their union misses infinitely many indices."""


class BeyondHorizon(UltragraphError):
    """A generated sequence or sampled set was evaluated past its horizon."""


class TraitViolated(UltragraphError):
    """A declared sequence trait fails at some sampled index."""

    def __init__(self, message: str, witness: int | None = None):
        super().__init__(message)
        self.witness = witness


class DivisionByZeroClass(UltragraphError):
    """Divisor vanishes on a set the oracle accepts (or might accept)."""


class NoCertificate(UltragraphError):
    """standard_part was asked for without a usable convergence certificate."""


class RankTooHigh(UltragraphError):
    """A rank argument exceeds the rank of the graph it is applied to."""


class NotAnExtremity(UltragraphError):
    """The referenced tip or node is not an extremity at the given level."""


class InvariantBreach(UltragraphError):
    """A structural law that must hold for well-formed input was violated.

    Signals malformed input (for example a shorting class with two distinct
    exceptional members) rather than an internal bug.
    """


class SolverFailure(UltragraphError):
    """Base class for operating-point solver errors."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message if index is None else f"{message} (at index n={index})")
        self.index = index


class EmptyNetwork(SolverFailure):
    """The network has no branches to solve."""


class NumericalFailure(SolverFailure):
    """The nodal system is ill-conditioned beyond the configured limit.

    ``condition`` is the SVD estimate ``np.linalg.cond``; only matrices
    that the certificate in ``network`` cannot accept get one.
    """

    def __init__(self, message: str, condition: float, index: int | None = None):
        super().__init__(f"{message} (condition estimate {condition:.3e})", index)
        self.condition = condition


class ProjectError(UltragraphError):
    """Base class for project-file problems; carries a source location."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class ProjectSyntaxError(ProjectError):
    """Tokenizer or grammar failure in a project file."""


class UnresolvedReference(ProjectError):
    """A name used in the project file does not refer to anything declared."""


class DuplicateId(ProjectError):
    """An identifier was declared twice where uniqueness is required."""
