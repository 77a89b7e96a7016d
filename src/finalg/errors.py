"""Exception types shared across the package."""


class FinalgError(Exception):
    """Base class for all package errors."""


class ValidationError(FinalgError, ValueError):
    """A value or argument violates a structural contract."""


def at_least(bits: int) -> str:
    """A demand of at least ``2 ** bits`` as a power of ten at or below it
    (30102999566 / 10**11 is just below log10(2))."""
    return f"at least 10^{bits * 30102999566 // 10**11}"


class ResourceLimitError(FinalgError, RuntimeError):
    """A computation would exceed a configured size bound.

    Carries the bound and the demand that tripped it: an int, or the
    :func:`at_least` text of a demand too large to build.  An int too
    long for ``str`` is printed as that text."""

    def __init__(self, what: str, needed: int | str, limit: int):
        self.what = what
        self.needed = needed
        self.limit = limit
        try:
            shown = str(needed)
        except ValueError:  # past 4300 digits by default
            shown = at_least(needed.bit_length() - 1)
        super().__init__(f"{what}: needs {shown}, limit is {limit}")


class ParseError(FinalgError, ValueError):
    """Syntax or resolution error in DSL input, tagged with a position."""

    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")
