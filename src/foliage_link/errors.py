"""Exception hierarchy for the foliage-link planning engine.

Every error raised on a bad input or an infeasible solve derives from
:class:`FoliageLinkError`, so callers can catch one base class. All of
them are also ``ValueError`` subclasses.
"""

from __future__ import annotations


class FoliageLinkError(ValueError):
    """Base class for all domain errors raised by this package."""


# --- propagation model inputs ---

class NonPositiveDistance(FoliageLinkError):
    """A path length that must be positive and finite (in meters) was not."""


class NegativeDistance(FoliageLinkError):
    """A foliage depth that must be non-negative and finite was not."""


class DeltaOutOfRange(FoliageLinkError):
    """A foliage cover factor fell outside its admissible range."""


class NonPositiveHeight(FoliageLinkError):
    """An antenna height that must be positive and finite was not."""


class HeightOutOfRange(FoliageLinkError):
    """A foliage height outside [0, antenna height]."""


class NonPositiveFrequency(FoliageLinkError):
    """A carrier frequency that must be positive and finite was not."""


class FullFoliageCover(FoliageLinkError):
    """Cover factor 1 leaves no free-space segment; the loss is singular."""


class InconsistentGeometry(FoliageLinkError):
    """Link geometry with a missing, partial or contradictory cover-factor source."""


class InvalidBand(FoliageLinkError):
    """Cover-factor band parameters that violate their constraints or admit nothing."""


# --- link-budget solvers ---

class InvalidRadioConfig(FoliageLinkError):
    """Radio parameters that are non-finite or otherwise unusable."""


class SolverError(FoliageLinkError):
    """Base class for inverse-solver failures."""


class NoSolution(SolverError):
    """The loss budget is infeasible even at the easiest end of the bracket."""


class BracketExceeded(SolverError):
    """The solution lies beyond the search bracket's upper end."""


# --- parameter sweeps ---

class InvalidSpec(FoliageLinkError):
    """A sweep specification that violates its domain rules."""


class UnknownPreset(FoliageLinkError):
    """A sweep preset name that is not defined."""


# --- scenario I/O ---

class ScenarioError(FoliageLinkError):
    """Base class for scenario-document errors."""


class ParseError(ScenarioError):
    """The scenario text is not well-formed JSON."""


class SchemaError(ScenarioError):
    """A missing, unknown, ill-typed or mutually exclusive field."""


class DomainError(ScenarioError):
    """A field value outside its physical domain."""
