"""Shared exception types and parser limits."""

from __future__ import annotations

MAX_QUBITS = 1 << 16  # the largest vertex or qubit count a parser accepts


def _decimal(token):
    """``int(token)`` for a string of ASCII digits; raises ValueError like ``int``.

    ``int`` alone also takes "_" between digits, a sign, surrounding spaces
    and non-ASCII digits such as "\u0663".
    """
    if not (token.isdigit() and token.isascii()):
        raise ValueError(f"not an ASCII decimal: {token!r}")
    return int(token)


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
