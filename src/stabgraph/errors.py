"""Shared exception types."""

from __future__ import annotations

MAX_QUBITS = 1 << 16  # the largest vertex or qubit count a parser accepts


class ParseError(ValueError):
    """A text artifact (graph, stabilizer, clifford, sequence, matrix) failed to parse.

    Carries an optional 1-based line number and column for CLI reporting.
    """

    def __init__(self, message, line=None, column=None):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(str(self))

    def __str__(self):
        loc = ""
        if self.line is not None:
            loc = f"line {self.line}"
            if self.column is not None:
                loc += f", column {self.column}"
            loc += ": "
        return loc + self.message


class InternalError(RuntimeError):
    """A guaranteed internal invariant failed; indicates a bug, not bad input."""
