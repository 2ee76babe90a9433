"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map geometry problems to exit codes without string matching.
"""


class FbminkError(Exception):
    """Base class for all package-specific errors."""


class PointOutsideChart(FbminkError):
    """A point left the open coordinate domain of a space-form model."""


class DegeneratePlane(FbminkError):
    """The two vectors handed to a sectional-curvature probe span no 2-plane."""


class PointNotOnSupport(FbminkError):
    """A point claimed to lie on a support hypersurface is off it."""


class DegenerateImmersion(FbminkError):
    """The induced metric of a parametrized surface became singular."""


class NoBoundary(FbminkError):
    """A boundary operation was requested on a surface with no boundary face or support."""


class WeightNonpositive(FbminkError):
    """The weight function failed strict positivity where it was evaluated."""


class InadmissiblePlacement(FbminkError):
    """A cap placement leaves the admissible region of its support."""


class OrthogonalityInfeasible(FbminkError):
    """No orthogonal cap exists for the requested placement parameters."""


class StarShapeViolated(FbminkError):
    """The integration domain is not star-shaped about its declared center."""


class DimensionTooLow(FbminkError):
    """The requested inequality is void in this ambient dimension."""


class ValidationFailed(FbminkError):
    """A scenario-level validation check failed.

    ``check`` carries the machine-readable name of the failed check so that
    reports and exit paths can name it without parsing the message.
    """

    def __init__(self, check: str, message: str):
        self.check = check
        self.message = message
        super().__init__(f"{check}: {message}")

    def __reduce__(self):
        # pickle and copy rebuild from (check, message), not from the joined args
        return type(self), (self.check, self.message), self.__dict__


class NonSmoothTestFunction(FbminkError):
    """A supplied test function lacks the smoothness the identity needs."""


class ConfigError(FbminkError):
    """A scenario configuration document failed schema validation."""


class IOFailure(FbminkError):
    """Reading or writing a report or configuration file failed."""
