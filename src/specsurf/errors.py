"""Exception hierarchy for the specsurf pipeline.

Numerical/degenerate failures all derive from SpecsurfError, so a caller
can catch every failure of the package with one except clause; file/format
problems derive from SpecsurfIOError.
"""

from __future__ import annotations


class SpecsurfError(Exception):
    """Base class for numerical or geometric failures."""


class SpecsurfIOError(SpecsurfError):
    """Base class for file and format failures."""


# line algebra

class RankDeficientError(SpecsurfError):
    """A projection matrix does not have full rank."""


# simulator

class EmptyDatasetError(SpecsurfError):
    """No pixel of the grid traced to a correspondence triple."""


# plane pose solver

class TooFewCorrespondencesError(SpecsurfError):
    """Fewer triples than a stage needs: plane_pose.MIN_TRIPLES in the scan
    for the pose solver, crossratio.MIN_TRIPLES past the start gate for the
    cross-ratio refinement.  A simulated scan may hold fewer than the pose
    solver needs; the solver, not the simulator, says so."""


class RankAmbiguousError(SpecsurfError):
    """The data do not determine the two plane motions.

    Raised when the plane coordinates are all zero, when the design matrix
    has more than two vanishing singular values, or when no direction of
    its two-dimensional nullspace factors into rigid motions (e.g. pure
    translation).  gap_ratio is the nullspace rank gap sigma_22/sigma_23
    of the design matrix, NaN when none was built.
    """

    def __init__(self, message: str, gap_ratio: float = float("nan")):
        super().__init__(message)
        self.gap_ratio = gap_ratio


# projection estimation

class TooFewObservationsError(SpecsurfError):
    """Fewer pixel/line observations than the 17 the camera solve needs."""


class DegenerateLineProjectionError(SpecsurfError):
    """A projected image line has a vanishing direction part for every item."""


class CheiralityUnresolvableError(SpecsurfError):
    """The focal sweep's polished camera sees too few reflected lines in
    front of itself: under projection.MIN_FRONT_FRACTION of them."""


class SweepNoMinimumError(SpecsurfError):
    """Focal sweep cost has no interior minimum over its grid.

    The range misses the focal length, the lines come from the wrong mirror
    twin (its one exact basin lies behind the camera, so on clean data
    both passes are dropped after their cold starts), or the constrained
    solve failed at every sample.  The message says how many passes
    started behind the camera.
    """


# io

class ParseError(SpecsurfIOError):
    """Malformed input file."""


class SchemaMismatchError(SpecsurfIOError):
    """File parsed but did not match the expected schema (columns, units)."""
