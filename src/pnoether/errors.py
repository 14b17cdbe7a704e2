"""Exception hierarchy shared by every engine module.

The CLI maps these onto process exit codes:

* ``InputError`` (and its DSL subclass)     -> 2
* ``EngineContractError`` family            -> 3
* ``UnsupportedFibrationError``             -> 4
* ``MissingDataError``                      -> 5
"""

from __future__ import annotations


class PNoetherError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class InputError(PNoetherError):
    """Malformed or out-of-domain user input."""

    exit_code = 2


class DSLSyntaxError(InputError):
    """Syntax error in one of the text DSLs; carries a character offset."""

    def __init__(self, message: str, text: str = "", offset: int | None = None):
        self.text = text
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset}: {text[offset:offset + 12]!r})"
        super().__init__(message)


class EngineContractError(PNoetherError):
    """A documented precondition or internal consistency check failed."""

    exit_code = 3


class TruncationError(EngineContractError):
    """A product or operation landed above the truncation bound.

    Values above the bound are *unknown*, never silently zero.
    """


class InconsistencyError(EngineContractError):
    """A rewriting/certificate step could not be completed."""


class UnsupportedFibrationError(PNoetherError):
    """The spectral-sequence engine met a non-transgressive configuration."""

    exit_code = 4


class MissingDataError(PNoetherError):
    """Required Steenrod action data is absent; lists all the algebra's gaps."""

    exit_code = 5

    def __init__(self, message: str, gaps=()):
        self.gaps = list(gaps)
        if self.gaps:
            message = f"{message}: {', '.join(map(str, self.gaps))}"
        super().__init__(message)
