"""Exception hierarchy for the specsurf pipeline.

Numerical/degenerate failures all derive from SpecsurfError so the CLI can
map them to a single exit code; file/format problems derive from
SpecsurfIOError.
"""

from __future__ import annotations


class SpecsurfError(Exception):
    """Base class for numerical or geometric failures."""


class SpecsurfIOError(SpecsurfError):
    """Base class for file and format failures."""


# line algebra

class CoincidentPointsError(SpecsurfError):
    """Two points expected to span a line are (numerically) identical."""


class DegenerateProjectionError(SpecsurfError):
    """A 3D line projects to a point (it passes through the optical center)."""


class RankDeficientError(SpecsurfError):
    """A projection matrix does not have full rank."""


class InvalidLineMatrixError(SpecsurfError):
    """A 3x6 line projection matrix violates the self/mutual-intersection test."""


# simulator

class EmptyDatasetError(SpecsurfError):
    """Tracing produced too few valid correspondence triples."""


# plane pose solver

class TooFewCorrespondencesError(SpecsurfError):
    """Fewer than the minimum 12 triples required by the pose solver."""


class RankAmbiguousError(SpecsurfError):
    """The design matrix nullity is not clearly 2: degenerate configuration."""

    def __init__(self, message: str, gap_ratio: float = float("nan")):
        super().__init__(message)
        self.gap_ratio = gap_ratio


class AllComplexRootsError(SpecsurfError):
    """The mixing-coefficient cubic has no real root."""


class BranchM31ZeroError(SpecsurfError):
    """Pivot slot 22 (entry (3,1) of the first motion matrix) is ~ zero."""


class NoRealAlphaError(SpecsurfError):
    """The scale elimination yields no real, positive-squared solution."""


class NoValidCandidateError(SpecsurfError):
    """No pose candidate: plane coordinates all zero or not finite, or no
    factorization survived the rotation validity filters.
    """


# projection estimation

class TooFewObservationsError(SpecsurfError):
    """Fewer pixel/line observations than unknowns in the linear solve."""


class RankDeficientZError(SpecsurfError):
    """The incidence design matrix has an ambiguous nullspace."""


class DegenerateLineProjectionError(SpecsurfError):
    """A projected image line has a vanishing direction part for every item."""


class CheiralityUnresolvableError(SpecsurfError):
    """t3 is numerically zero; the sign of the camera cannot be fixed."""


class SweepNoMinimumError(SpecsurfError):
    """Focal sweep cost has no interior minimum over its grid.

    The range misses the focal length, the lines come from the wrong mirror
    twin (its lowest cost lies at an end of the range), or the constrained
    solve failed at every sample.
    """


# io

class ParseError(SpecsurfIOError):
    """Malformed input file; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaMismatchError(SpecsurfIOError):
    """File parsed but did not match the expected schema (columns, units)."""
