"""Construction of free-boundary caps over umbilical supports.

An umbilical cap is the portion of a Euclidean chart sphere that meets the
support realization orthogonally:

* plane-type supports: the half of the sphere S(c, r) on the B_int side,
  with c on the plane (optionally displaced for tilt experiments);
* sphere-type supports (chart radius R): the sphere S(c, r) with
  |c| = sqrt(R^2 + r^2), so the two spheres cross at right angles along the
  ring Gamma, and the cap is the part inside the support ball.

At n = 2 the cap is an arc about its axis and its ring is the arc's two ends.

Each scenario bundles the surface, the support face it cuts out, the star
center and boundary pieces of the cone decomposition of the enclosed region
Omega (its one description), and the paired weight.  It memoizes per rule
the cap's parameter grid, the cap weight data, and each boundary piece as one
``quadrature.Piece``: the cap's and, where it exists, the face's.  A piece holds
its node geometry and curvature, its cone with its conformal weights (its star
center checked to lie in the model's chart as it is built), the Reilly checker's
block sums per axis (x_i's and x_i^2's region integrands from one pass, and no
per-node row), V's boundary parts, and its admissibility margins.  Every report,
audit, validation and identity check on a scenario shares them.  A region
integral is the pairwise sum over the pieces (``quadrature.region_sum``) of each
piece's sums over its cone's blocks, cut from the cone's own first node
(``Piece.block_sums``); the Reilly checker forms the only ones at a report's
rule.  The weighted volume int_Omega V needs no region: by the free-boundary
Minkowski formula it is int_Sigma <X_a, nu> / n over the cap piece
(``weighted_volume``, X_a the ``weights.minkowski_field``), so the reports
and the sweeps build neither a cone nor the face's piece at their rule.
Perturbed caps displace the base cap along its gbar-unit normal by epsilon
times a profile that vanishes to second order at the ring, so the
free-boundary data at Gamma is preserved exactly.  A perturbed cap is its
base cap with the cap chart displaced: it shares the base's face, star
center and pieces, and reads from ``base``, its one reference to the base
cap, the cap's grid, ring checks and chart terms, and the face's ``Piece``
itself.  So the perturbations of one base cap evaluate the face's node sets
once per (base cap, rule) and one ring per base cap, and each evaluates phi,
exp(n phi), V and the Reilly integrands only on its own cap's cone.  The bump's reach reads
the base's level-6 cap terms, which admissibility forms anyway.  Nothing a
scenario memoizes refers back to the scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import quadrature as quad
from .ambient import ModelKind, SpaceFormModel
from .charts import (
    PerturbedCapChart,
    PolarPlanarChart,
    RadialBumpProfile,
    SphericalCapChart,
    axis_frame,
    conformal_scale,
)
from .errors import (
    DimensionTooLow,
    InadmissiblePlacement,
    OrthogonalityInfeasible,
    ValidationFailed,
)
from .supports import HalfRegion, PlaneShape, SphereShape, SupportSpec, plane_anchor
from .surfaces import FreeBoundarySurface, boundary_checks, hypothesis_margins
from .weights import WeightField, minkowski_field, weight_for_support

ADMISSIBILITY_MARGIN = 1e-6
BOUNDARY_TOL = 1e-8   # validate_scenario's bound on ring angle cosine and distance to the support
ADMISSIBILITY_RULE = quad.QuadratureRule(6)   # margins only locate region nodes: a coarse rule
CHART_CLEARANCE = 0.2     # least height of a default cap over x_n = 0, in cap radii

@dataclass(frozen=True)
class CapSpec:
    """Placement parameters of a cap over a support.

    ``tilt`` (plane-type supports) moves the sphere center off the plane by
    r sin(tilt) along the inward normal, breaking orthogonality on purpose.
    ``center_distance`` (sphere-type supports) overrides the orthogonal
    distance sqrt(R^2 + r^2) for the same end.  ``axis`` picks the placement
    direction; in-plane ``center_shift`` coefficients move the anchor of a
    plane-type cap inside its plane.
    """

    support: SupportSpec
    radius: float
    axis: Optional[tuple] = None
    tilt: float = 0.0
    center_distance: Optional[float] = None
    center_shift: Optional[tuple] = None


@dataclass(frozen=True)
class PerturbationSpec:
    """Normal perturbation: epsilon times the bump (1 - (t/t_max)^2)^power.

    ``power`` >= 3 keeps the profile and its first two derivatives zero at
    the boundary ring; lower powers are rejected because they would change
    the contact angle or the boundary second fundamental form.
    """

    epsilon: float
    power: int = 3


@dataclass(frozen=True)
class CapScenario(quad.Memo):
    """A fully assembled verification scenario; what it derives is computed once.

    The enclosed region Omega is described only by its cone decomposition: it is
    star-shaped about ``star_center``, and ``pieces`` labels the smooth boundary
    pieces the cones cover, "cap" and, where the support face does not pass
    through the star center, "support".  Its node sets are built on first use and
    memoized per (set, rule) in ``_cache``, each boundary piece as one ``Piece``.
    A perturbed cap reads what a perturbation leaves from ``base`` by explicit
    calls: the cap's grid, ring checks and chart terms, and the face's piece.
    """

    support: SupportSpec
    weight: WeightField
    surface: FreeBoundarySurface       # the cap Sigma
    face: FreeBoundarySurface          # the support face T, oriented out of Omega
    star_center: np.ndarray
    pieces: tuple[str, ...]
    spec: CapSpec
    perturbation: Optional[PerturbationSpec] = None
    description: str = ""
    base: Optional[CapScenario] = field(default=None, repr=False)   # the cap it perturbs
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def grid(self, rule: quad.QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
        """``rule.grid`` of the cap chart's domain, read by the cap's chart terms and
        its piece; a perturbation leaves the domain, so it reads its base's."""
        if self.base is not None:
            return self.base.grid(rule)
        return self._once(("grid", rule), lambda: rule.grid(self.surface.chart.domain))

    def _cap_values(self, rule: quad.QuadratureRule) -> tuple:
        """The cap chart's (X, J, H) at its nodes; a perturbed cap displaces its base's terms."""
        chart = self.surface.chart
        params, _ = self.grid(rule)
        if self.base is not None:
            return chart.displace(params, self.base.cap_terms(rule))
        return self._once(("cap chart", rule), lambda: chart.evaluate(params))

    def cap_terms(self, rule: quad.QuadratureRule) -> tuple:
        """(X, J, H) and their ``charts.conformal_scale``: a perturbation's epsilon-free terms."""
        def build():
            values = self._cap_values(rule)
            return (*values, *conformal_scale(self.model, *values))
        return self._once(("cap terms", rule), build)

    def reach(self, power: int) -> float:
        """max |p| exp(-phi) over the cap nodes of ``ADMISSIBILITY_RULE`` for the bump
        of this power: how far a perturbation by a unit epsilon moves those nodes, in
        chart units, since a node moves by |eps| |p| exp(-phi) along the radial normal.
        Not memoized: it reads the cap terms the admissibility check forms anyway."""
        probe, _ = self.grid(ADMISSIBILITY_RULE)
        p = RadialBumpProfile(t_max=self.surface.chart.t_max, power=power).value(probe)
        return float(np.max(np.abs(p) * self.cap_terms(ADMISSIBILITY_RULE)[3]))

    def piece(self, label: str, rule: quad.QuadratureRule) -> quad.Piece:
        """The cap ("cap") or the support face ("support") as a ``quadrature.Piece``; a
        perturbed cap's face piece is its base's."""
        if label == "support" and self.base is not None:
            return self.base.piece(label, rule)

        def build():
            if label == "support":
                return quad.Piece(label, self.face, rule, rule.grid(self.face.chart.domain),
                                  self.star_center, self.support, self.weight)
            return quad.Piece(label, self.surface, rule, self.grid(rule), self.star_center,
                              self.support, self.weight, self._cap_values(rule))
        return self._once((label, rule), build)

    def weighted_volume(self, rule: quad.QuadratureRule) -> float:
        """int_Omega V from the cap alone: int_Sigma <X_a, nu> / n, X_a the
        ``weights.minkowski_field``, tangent to the support, so the face adds nothing.
        It forms no region node and no face piece."""
        cap = self.piece("cap", rule)
        x = cap.geo.x
        field = minkowski_field(self.support, self.face.chart.center, x)
        flux = self.model.conformal_factor(x) * np.sum(field * cap.geo.nu, axis=0)  # <X_a, nu>
        return cap.integral(flux) / self.n

    def weight_data(self, rule: quad.QuadratureRule) -> tuple[np.ndarray, float, float]:
        """(V at the cap nodes, convexity margin, substatic margin)."""
        return self._once(("weight", rule), lambda: hypothesis_margins(
            self.weight, self.piece("cap", rule).geo))

    def boundary(self) -> tuple[float, float, float]:
        """``boundary_checks`` of the cap's ring: a perturbation vanishes to second order
        there, so it leaves the ring's X, J and H, and reads its base cap's checks."""
        if self.base is not None:
            return self.base.boundary()
        return self._once("boundary", lambda: boundary_checks(self.surface))

    @property
    def model(self) -> SpaceFormModel:
        return self.support.model

    @property
    def n(self) -> int:
        return self.support.n

    @property
    def epsilon(self) -> float:
        return self.perturbation.epsilon if self.perturbation else 0.0


def _default_axis(s: SupportSpec) -> np.ndarray:
    n = s.n
    if isinstance(s.shape, SphereShape):
        a = np.zeros(n)
        a[-1] = 1.0
        return a
    return np.asarray(s.shape.normal_in, dtype=float)


def _plane_anchor(s: SupportSpec, shift: Optional[tuple]) -> np.ndarray:
    anchor = plane_anchor(s)
    if shift is not None:
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (s.n - 1,) or not np.all(np.isfinite(shift)):
            raise OrthogonalityInfeasible(
                f"center_shift needs {s.n - 1} finite components, got {shift.tolist()}")
        in_plane = axis_frame(np.asarray(s.shape.normal_in, dtype=float))[:, 1:]
        anchor = anchor + in_plane @ shift
        # rounding alone puts a far anchor about 1e-16 |anchor| off the plane
        if abs(float(s.signed_distance(anchor))) > 1e-12 * max(1.0, float(np.linalg.norm(anchor))):
            raise InadmissiblePlacement("center shift left the support plane")
    return anchor


def _halfspace_ball_min_height(center: np.ndarray, r: float, a: np.ndarray,
                               offset: float) -> float:
    """Exact min of x_n over the closed set B(center, r) & {<a, x> >= offset}."""
    an = a[-1]
    cn = center[-1]
    if an <= 0.0:
        return cn - r
    slack = float(np.dot(a, center)) - offset
    if slack - r * an >= 0.0:
        return cn - r
    # the minimizer sits on the slicing disk of the support plane
    disk_r = math.sqrt(max(r * r - slack * slack, 0.0))
    return (cn - slack * an) - disk_r * math.sqrt(max(1.0 - an * an, 0.0))


def placement_margins(s: SupportSpec, center: np.ndarray, r: float) -> dict:
    """Closed-form margins of the closed region to chart and half-region walls.

    Computed before any chart evaluation, so an out-of-chart placement is
    reported as InadmissiblePlacement instead of a low-level evaluation error.
    """
    center = np.asarray(center, dtype=float)
    out: dict[str, float] = {}
    if s.model.kind is ModelKind.UPPER_HALF_SPACE:
        if isinstance(s.shape, PlaneShape):
            a = np.asarray(s.shape.normal_in, dtype=float)
            out["chart"] = _halfspace_ball_min_height(center, r, a, s.shape.offset)
        else:
            out["chart"] = float(center[-1]) - r
    elif s.model.kind is ModelKind.POINCARE_BALL:
        if isinstance(s.shape, SphereShape):
            out["chart"] = 1.0 - s.shape.radius
        else:
            out["chart"] = 1.0 - (float(np.linalg.norm(center)) + r)
    if s.half_region is HalfRegion.LAST_COORD_POSITIVE:
        out["half_region"] = float(center[-1]) - r
    elif s.half_region is HalfRegion.UNIT_BALL:
        out["half_region"] = 1.0 - (float(np.linalg.norm(center)) + r)
    return out


def _placement_precheck(s: SupportSpec, center: np.ndarray, r: float) -> None:
    for name, value in placement_margins(s, center, r).items():
        if value <= ADMISSIBILITY_MARGIN:
            raise InadmissiblePlacement(
                f"{name} margin {value:.3e} for cap radius {r} on {s.kind.value}")


def make_umbilical_cap(spec: CapSpec) -> CapScenario:
    """Build the scenario for an umbilical cap (or a deliberately tilted one)."""
    s = spec.support
    r = float(spec.radius)
    if not 0.0 < r < math.inf:   # a NaN fails too
        raise OrthogonalityInfeasible(f"cap radius must be positive and finite, got {r!r}")
    axis = np.asarray(spec.axis, dtype=float) if spec.axis is not None else _default_axis(s)
    norm = float(np.linalg.norm(axis))
    if axis.shape != (s.n,) or not 0.0 < norm < math.inf:
        raise OrthogonalityInfeasible(
            f"axis must be a nonzero finite vector of {s.n} components, got {axis.tolist()}")
    axis = axis / norm

    if isinstance(s.shape, PlaneShape):
        scenario = _plane_cap(spec, s, r, axis)
    else:
        scenario = _sphere_cap(spec, s, r, axis)
    _check_admissible(scenario)
    return scenario


def _plane_cap(spec: CapSpec, s: SupportSpec, r: float, a: np.ndarray) -> CapScenario:
    if s.model.n < 3:
        # the support face is a polar disk, which needs n - 1 >= 2
        raise DimensionTooLow(
            "plane-type supports need ambient dimension >= 3, got "
            f"{s.model.n}")
    if spec.center_distance is not None:
        raise OrthogonalityInfeasible("center_distance applies to sphere supports only")
    anchor = _plane_anchor(s, spec.center_shift)
    if not math.isfinite(spec.tilt):
        raise OrthogonalityInfeasible(f"tilt must be finite, got {spec.tilt}")
    sin_tilt = math.sin(spec.tilt)
    if not -1.0 < sin_tilt < 1.0:
        raise OrthogonalityInfeasible("tilt must keep the center within one radius")
    center = anchor + r * sin_tilt * a
    _placement_precheck(s, center, r)
    frame = axis_frame(a)
    face_chart = PolarPlanarChart(center=anchor, plane_frame=frame[:, 1:],
                                  radius=r * math.cos(spec.tilt), hint=-a)
    return _assemble(spec, center, r, frame, math.acos(-sin_tilt), face_chart,
                     star_center=anchor, pieces=("cap",),
                     description=f"cap r={r} on {s.kind.value}")


def _sphere_cap(spec: CapSpec, s: SupportSpec, r: float, axis: np.ndarray) -> CapScenario:
    if spec.tilt:
        raise OrthogonalityInfeasible("tilt applies to plane supports; use center_distance")
    if spec.center_shift is not None:
        raise OrthogonalityInfeasible("center_shift applies to plane supports only")
    R = s.shape.radius
    d = spec.center_distance if spec.center_distance is not None else math.hypot(R, r)
    if not abs(d - r) < R < d + r:
        raise OrthogonalityInfeasible(
            f"spheres at distance {d} with radii {R}, {r} do not intersect transversally")
    center = d * axis
    _placement_precheck(s, center, r)
    cos_cap = (d * d + r * r - R * R) / (2.0 * d * r)
    cos_face = (d * d + R * R - r * r) / (2.0 * d * R)
    face_chart = SphericalCapChart(center=np.zeros(s.n), radius=R, frame=axis_frame(axis),
                                   t_max=math.acos(np.clip(cos_face, -1.0, 1.0)))
    return _assemble(spec, center, r, axis_frame(-axis),
                     math.acos(np.clip(cos_cap, -1.0, 1.0)), face_chart,
                     star_center=0.5 * ((d - r) + R) * axis, pieces=("cap", "support"),
                     description=f"cap r={r} inside {s.kind.value}")


def _assemble(spec: CapSpec, center: np.ndarray, r: float, frame: np.ndarray, t_max: float,
              face_chart, star_center: np.ndarray, pieces: tuple[str, ...],
              description: str) -> CapScenario:
    """The scenario of the cap S(center, r) cut at polar angle t_max, from the
    placement its support shape computed; Omega is the ball's part in B_int."""
    s = spec.support
    cap_chart = SphericalCapChart(center=center, radius=r, frame=frame, t_max=t_max)
    return CapScenario(
        support=s, weight=weight_for_support(s),
        surface=FreeBoundarySurface(model=s.model, chart=cap_chart, support=s),
        face=FreeBoundarySurface(model=s.model, chart=face_chart, support=None),
        star_center=star_center, pieces=pieces, spec=spec, description=description)


def make_perturbed_cap(spec: CapSpec, perturbation: PerturbationSpec) -> CapScenario:
    """Displace an umbilical cap along its unit normal by a conforming bump."""
    return perturb_cap(make_umbilical_cap(spec), perturbation)


def perturb_cap(base: CapScenario, perturbation: PerturbationSpec) -> CapScenario:
    """Displace the umbilical cap ``base`` along its unit normal by a conforming
    bump; the result refers to ``base`` and reads its epsilon-free node sets."""
    if base.perturbation is not None:
        raise ValidationFailed("perturbation_base", "only an umbilical cap can be perturbed")
    if not math.isfinite(perturbation.epsilon):
        raise ValidationFailed("perturbation_epsilon",
                               f"epsilon must be finite, got {perturbation.epsilon!r}")
    cap_chart: SphericalCapChart = base.surface.chart
    if perturbation.power < 3:
        raise ValidationFailed(
            "perturbation_profile",
            "bump power below 3 would move the boundary ring data")
    profile = RadialBumpProfile(t_max=cap_chart.t_max, power=perturbation.power)
    _check_profile_conforms(profile, cap_chart)
    _placement_precheck(base.support, cap_chart.center,
                        cap_chart.radius + abs(perturbation.epsilon) * base.reach(perturbation.power))
    pchart = PerturbedCapChart(base=cap_chart, model=base.model,
                               epsilon=perturbation.epsilon, profile=profile)
    surface = FreeBoundarySurface(model=base.model, chart=pchart, support=base.support)
    scenario = replace(base, surface=surface, perturbation=perturbation, base=base,
                       description=base.description + f" perturbed eps={perturbation.epsilon}")
    _check_admissible(scenario)
    return scenario


def _check_profile_conforms(profile, cap_chart: SphericalCapChart) -> None:
    """The bump and its first two derivatives must vanish on the boundary ring, where
    a perturbed cap reads its base cap's ring data."""
    q = cap_chart.dim
    psis = np.linspace(0.1, 6.2, 7)
    U = np.zeros((psis.size, q))
    U[:, 0] = cap_chart.t_max
    if q >= 2:
        U[:, -1] = psis
    else:   # an arc's ring is its two ends
        U[::2, 0] = -cap_chart.t_max
    p, dp, d2p = profile.evaluate(U)
    if max(np.max(np.abs(p)), np.max(np.abs(dp)), np.max(np.abs(d2p))) > 1e-12:
        raise ValidationFailed(
            "perturbation_profile",
            "profile or its first two derivatives are nonzero at the boundary ring")


# -- admissibility -------------------------------------------------------------


def region_margins(scenario: CapScenario) -> dict:
    """Worst-case margins of the region nodes against every constraint.

    Computed once per scenario; each call returns a copy.
    """
    return dict(scenario._once("margins", lambda: _margins(scenario)))


def _margins(scenario: CapScenario) -> dict:
    """The least margins over the region's cones on ``ADMISSIBILITY_RULE`` nodes, piece by
    piece; the least over the pieces is the least over all the nodes, exactly."""
    pieces = [scenario.piece(label, ADMISSIBILITY_RULE).margins() for label in scenario.pieces]
    return {name: float(np.min([m[name] for m in pieces])) for name in pieces[0]}


def _check_admissible(scenario: CapScenario) -> None:
    """The one admissibility policy: every region margin clears its threshold."""
    for name, value in region_margins(scenario).items():
        threshold = 0.0 if name == "weight_min" else ADMISSIBILITY_MARGIN
        if not value > threshold:   # a NaN fails too
            raise InadmissiblePlacement(
                f"{name} margin {value:.3e} at cap r={scenario.spec.radius} "
                f"on {scenario.support.kind.value}")


def validate_scenario(scenario: CapScenario) -> None:
    """Check the free-boundary placement before any report runs.

    The cap must meet its support orthogonally along the boundary ring and
    the ring must lie on the support (ValidationFailed names the failed
    check), and the placement must be admissible (InadmissiblePlacement).
    """
    angle_err, support_err, _ = scenario.boundary()
    for name, value in (("boundary_orthogonality", angle_err),
                        ("boundary_on_support", support_err)):
        if not value <= BOUNDARY_TOL:   # a NaN fails too
            raise ValidationFailed(
                name, f"value {value:.3e} violates threshold {BOUNDARY_TOL:.3e}")
    _check_admissible(scenario)


# -- canonical placements --------------------------------------------------------


def default_cap_spec(s: SupportSpec) -> CapSpec:
    """A comfortable placement for each support kind (used by CLI defaults).

    In the half space the cap's lowest point stays CHART_CLEARANCE radii above
    x_n = 0: where the anchor nearest the origin is lower (a steep equidistant
    plane), ``center_shift`` moves it up along the plane by the missing height.
    """
    if isinstance(s.shape, SphereShape):
        return CapSpec(support=s, radius=0.5 * s.shape.radius)
    r = {"euclidean_plane": 1.0, "sph_hyperplane": 0.6}.get(s.kind.value, 0.3)
    a = np.asarray(s.shape.normal_in, dtype=float)
    lift = CHART_CLEARANCE * r - _halfspace_ball_min_height(plane_anchor(s), r, a, s.shape.offset)
    if s.model.kind is not ModelKind.UPPER_HALF_SPACE or lift <= 0.0:
        return CapSpec(support=s, radius=r)
    up = np.eye(s.n)[-1] - a[-1] * a      # e_n projected onto the plane; raises x_n by up[-1]
    shift = axis_frame(a)[:, 1:].T @ (lift / up[-1] * up)
    return CapSpec(support=s, radius=r, center_shift=tuple(shift.tolist()))
