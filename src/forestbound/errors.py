"""Exception types shared across the package."""

from __future__ import annotations


class ForestBoundError(Exception):
    """Base class for all errors raised by this package."""


class UnknownVertex(ForestBoundError):
    """A vertex identifier does not exist in the graph."""


class ParseError(ForestBoundError):
    """Malformed edge list, partition file, certificate, or spec string."""


class InvalidSpec(ForestBoundError):
    """A generator or bound spec has parameters outside their valid range."""


class EpsOutOfRange(ForestBoundError):
    """Epsilon outside the admissible interval for the chosen weight family."""


class MissingPartition(ForestBoundError):
    """A partition-dependent weight was requested without labels."""


class DegreeZero(ForestBoundError):
    """Gain is undefined for degree-0 vertices."""


class NotCubic(ForestBoundError):
    """cubic_partition requires every vertex to have degree exactly 3."""


class InfeasibleDegree(ForestBoundError):
    """No simple d-regular graph exists for the requested parameters."""


class RetryLimit(ForestBoundError):
    """The pairing model failed to produce a simple graph within the retry cap."""


class BoundMiss(ForestBoundError):
    """A construction missed its bound: rule 2's path/cycle optimum, the
    R6/S6 exact fallback (at any residual size), or a constructor's check
    of its final certificate.

    Carries the best certificate found so far; that certificate is
    unverified and must not be trusted without an explicit check.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate
