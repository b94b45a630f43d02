"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SoundMdpError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(SoundMdpError):
    """A model, state set, or transformation argument is inconsistent."""


class ParseError(SoundMdpError):
    """Syntax or semantic error in an MDPX document, or an input file that
    cannot be read."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class GeneratorError(SoundMdpError):
    """Model generator parameters are out of range or inconsistent."""


class SolverError(SoundMdpError):
    """A numeric solver was called with an unusable configuration or input."""


class IterationCapExceeded(SolverError):
    """The configured sweep limit was reached before convergence."""

    def __init__(self, sweeps: int):
        self.sweeps = sweeps
        super().__init__(f"iteration cap exceeded after {sweeps} sweeps")


class SolveTimeout(SolverError):
    """The numeric phase ran past its deadline."""


class OracleError(SoundMdpError):
    """The exact oracle hit a guard or an inconsistent linear system."""


class PipelineError(SoundMdpError):
    """A solve request violates a method's precomputation requirements."""
