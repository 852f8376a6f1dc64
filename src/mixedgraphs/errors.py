"""Exception types shared across the package."""


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
