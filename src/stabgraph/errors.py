"""Shared exception types, parser limits and the one base of the immutable values.

:class:`_Record` is the base of the seven result records and of the five
values they hold (``BitVec``, ``BitMatrix``, ``Graph``, ``LocalCliffordOp``
and ``StabilizerGenMatrix``).
"""

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


class NotInDomainError(ValueError):
    """The graph is outside the domain of the operation's graph action."""


class InternalError(RuntimeError):
    """A guaranteed internal invariant failed; indicates a bug, not bad input."""


class _Record:
    """Immutable value: equal by exact type and ``_key()``, printed as ``Single(i=3)``.

    Its fields are ``_fields``: a subclass's ``__slots__`` unless it names
    them. A subclass's ``__init__`` checks its arguments and stores them with
    :meth:`_store`; :meth:`_trusted` stores them unchecked, for values that are
    valid by construction. Copies and pickles go through ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)  # slot setters

    @classmethod
    def _trusted(cls, *values):
        """The value with these fields, built without the checks of ``cls.__init__``."""
        self = object.__new__(cls)
        self._store(values)
        return self

    def _store(self, values):
        """Set the fields, in ``_fields`` order, past the refusing ``__setattr__``."""
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    _key = _values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
