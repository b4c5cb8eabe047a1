"""Exception hierarchy for the repro package.

Every error raised by the engine derives from :class:`ReproError` so callers
can catch engine failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class CatalogError(ReproError):
    """Schema or table lookup failure (unknown table, duplicate column...)."""


class SqlError(ReproError):
    """Raised while lexing, parsing, or binding a SQL statement."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


def format_sql_error(sql: str, error: "SqlError") -> str:
    """Point a caret at the offending position of a SQL statement."""
    if getattr(error, "position", None) is None:
        return str(error)
    position = min(error.position, len(sql))
    consumed = sql[:position]
    line_number = consumed.count("\n") + 1
    line_start = consumed.rfind("\n") + 1
    line_end = sql.find("\n", position)
    if line_end < 0:
        line_end = len(sql)
    column = position - line_start
    return (
        f"{error} (line {line_number}, column {column + 1})\n"
        f"  {sql[line_start:line_end]}\n"
        f"  {' ' * column}^"
    )


class PlanError(ReproError):
    """Raised for invalid logical/physical plan construction."""


class IRError(ReproError):
    """Raised by the IR builder or verifier for malformed IR."""


class CodegenError(ReproError):
    """Raised during lowering of pipelines to IR."""


class BackendError(ReproError):
    """Raised during IR-to-native lowering (isel, regalloc, encoding)."""


class VMError(ReproError):
    """Raised by the simulated machine (bad address, illegal instruction)."""

    def __init__(self, message: str, ip: int | None = None):
        super().__init__(message if ip is None else f"{message} (ip={ip})")
        self.ip = ip


class InstructionBudgetExceeded(VMError):
    """A run retired more instructions than ``max_instructions`` allows.

    Its own type so callers that map it to a status (the serve tier's
    ``INSTRUCTION_LIMIT``) match on the class, not the message."""


class ProfilingError(ReproError):
    """Raised by the Tailored Profiling post-processing stage."""


class ViewError(ReproError):
    """Raised by the materialized-view tier: a query that cannot be
    maintained incrementally, a bad delta, or a misused subscription."""
