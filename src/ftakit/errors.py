"""Exception types shared across the package."""

from __future__ import annotations


class Error(Exception):
    """Base class for all ftakit errors."""


class InputError(Error, ValueError):
    """A value breaks an operation's input contract (unknown symbol, bad arity, ...).

    Also a ValueError, so callers that catch ValueError for bad values keep working.
    """


class ConfigError(Error):
    """A configuration value or resource guard was violated."""


class BudgetError(ConfigError):
    """A state or work budget was exceeded during a construction."""


class ExhaustionError(Error):
    """The regenerate-until-trim loop gave up.

    Carries the offending parameters so callers can tell which (n, d2)
    combination made trim automata too rare.
    """

    def __init__(self, n: int, d2: float, attempts: int):
        self.n = n
        self.d2 = d2
        self.attempts = attempts
        super().__init__(
            f"no trim automaton with n={n}, d2={d2:g} after {attempts} attempts"
        )


class FitError(Error):
    """Peak fitting received unusable data."""


class ParseError(Error):
    """Positioned error raised while reading an automaton document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
