"""Exception types shared across the package."""

from math import log10


def abridged(value) -> str:
    """str(value), cut after 20 characters with "..." when it is longer,
    so that a number of any size leaves an error message one short line."""
    try:
        text = str(value)
    except ValueError:  # an int past Python's int-to-string digit limit
        num, den = value.as_integer_ratio()
        return f"about 10^{round((num.bit_length() - den.bit_length()) * log10(2))}"
    return text if len(text) <= 20 else text[:20] + "..."


class PlatycosmError(Exception):
    """Base class for all package-specific errors."""


class UnknownPresetError(PlatycosmError, ValueError):
    """Requested a built-in space that does not exist."""


class InvalidPresentationError(PlatycosmError, ValueError):
    """A presentation violates a group invariant (closure, freeness, ...)."""


class UnsupportedGeometryError(PlatycosmError, ValueError):
    """Input is valid mathematics but outside this package's exact reach
    (irrational geodesic length, twist not a rational multiple of pi,
    character phase outside the fourth roots of unity, ...)."""


class UnsupportedCircumferenceError(PlatycosmError, ValueError):
    """Circle circumference whose spectrum has non-integral norm keys."""


class CharacterSumError(PlatycosmError, ArithmeticError):
    """Internal: an averaged character sum failed to be a nonnegative
    integer.  Signals a representation-theory bug, not bad user input."""


class CutoffBudgetError(PlatycosmError, RuntimeError):
    """A request exceeds a work budget: a certified truncation cutoff (retry
    with larger t or looser eps), an enumeration, or a numeral too long to
    read exactly."""
