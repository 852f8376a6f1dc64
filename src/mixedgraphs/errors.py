"""Exception types shared across the package, and the two checks through
which every public entry point refuses a bad parameter."""

from typing import Optional


class MixedGraphError(Exception):
    """Base class for all errors raised by this package."""


class MalformedGraphError(MixedGraphError):
    """Graph data violates a structural invariant (bad ids, self-loops,
    conflicting edges, or digons/parallel adjacencies during validation)."""


class MalformedBaseError(MalformedGraphError):
    """A voltage base graph cannot produce a well-formed lift."""


class BadPermutationError(MixedGraphError):
    """A vertex map is not a bijection on 0..n-1."""


class UnsupportedParameterError(MixedGraphError):
    """A parameter is outside the range a construction or bound supports."""


class ParityError(UnsupportedParameterError):
    """An argument has the wrong parity for the requested formula."""


class NonDivisibleError(MixedGraphError):
    """An exact integer division inside a closed formula failed; this signals
    a transcription bug rather than bad user input."""


class NoConvergenceError(MixedGraphError):
    """An iterative numeric routine exhausted its iteration budget."""


def check_int(
    value: object, what: str, low: Optional[int] = None, high: Optional[int] = None,
    error: type[MixedGraphError] = UnsupportedParameterError,
) -> int:
    """``value`` if it is an int in low..high, a missing end open, else
    ``error`` naming it ``what``.  type() rather than isinstance(): bool is
    an int subclass, and True or False (from JSON, say) must not pass as 1
    or 0."""
    if (
        type(value) is not int
        or (low is not None and value < low)
        or (high is not None and value > high)
    ):
        if high is None:
            wanted = "" if low is None else f" >= {low}"
        else:
            wanted = f" <= {high}" if low is None else f" in {low}..{high}"
        raise error(f"{what} must be an int{wanted}, got {value!r}")
    return value


def require(
    condition: bool, message: str, error: type[MixedGraphError] = UnsupportedParameterError
) -> None:
    """Raise ``error(message)`` unless ``condition`` holds."""
    if not condition:
        raise error(message)
