"""Umbilical support hypersurfaces and their chart realizations.

Every supported case realizes the support S as either a Euclidean sphere or a
Euclidean plane inside the conformal chart of its model.  ``B_int`` denotes
the region the support bounds (the side caps are carved from), and for the
geodesic-sphere supports and the spherical hyperplane an extra half-region
constraint restricts where the weight stays positive.

Sign conventions: ``signed_distance`` is negative inside ``B_int`` and zero on
S; ``outward_normal`` is the gbar-unit normal pointing out of ``B_int``.

The shape methods take points node-last, as the ambient module does: (n,) for
one point, (n, m) for m points, giving one value per point or one (n,) vector
per point along the same axes.  The samplers return (m, n) point lists.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ambient
from .ambient import ModelKind, SpaceFormModel
from .charts import axis_frame
from .errors import PointNotOnSupport

# Euclidean tolerance for "this point sits on the support realization".
ON_SUPPORT_TOL = 1e-10


class SupportKind(enum.Enum):
    EUCLIDEAN_SPHERE = "euclidean_sphere"
    EUCLIDEAN_PLANE = "euclidean_plane"
    HYP_GEODESIC_SPHERE = "hyp_geodesic_sphere"
    HOROSPHERE = "horosphere"
    EQUIDISTANT = "equidistant"
    HYP_GEODESIC_PLANE = "hyp_geodesic_plane"
    SPH_GEODESIC_SPHERE = "sph_geodesic_sphere"
    SPH_HYPERPLANE = "sph_hyperplane"


class HalfRegion(enum.Enum):
    """Extra constraint carving B_int^+ out of B_int, where one is required."""

    NONE = "none"
    LAST_COORD_POSITIVE = "last_coord_positive"
    UNIT_BALL = "unit_ball"


@dataclass(frozen=True)
class SphereShape:
    """Euclidean sphere |x - center| = radius; B_int is the inside."""

    center: tuple
    radius: float

    def signed_distance(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - _along(self.center, x), axis=0) - self.radius

    def euclidean_outward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = x - _along(self.center, x)
        return d / np.linalg.norm(d, axis=0)


@dataclass(frozen=True)
class PlaneShape:
    """Euclidean plane <normal_in, x> = offset; B_int is the normal_in side."""

    normal_in: tuple   # unit vector pointing into B_int
    offset: float

    def signed_distance(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.offset - np.sum(x * _along(self.normal_in, x), axis=0)

    def euclidean_outward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(-_along(self.normal_in, x), x.shape).copy()


def _along(v: tuple, x: np.ndarray) -> np.ndarray:
    """The vector v (n,) shaped to broadcast against node-last points x."""
    return np.reshape(np.asarray(v, dtype=float), (-1,) + (1,) * (x.ndim - 1))


@dataclass(frozen=True)
class SupportSpec:
    """A support hypersurface: model, chart realization, and curvature kappa."""

    kind: SupportKind
    model: SpaceFormModel
    kappa: float
    shape: object                      # SphereShape or PlaneShape
    half_region: HalfRegion

    @property
    def requires_half_region(self) -> bool:
        return self.half_region is not HalfRegion.NONE

    @property
    def n(self) -> int:
        return self.model.n

    # -- geometry ------------------------------------------------------------

    def signed_distance(self, x: np.ndarray) -> np.ndarray:
        """Negative strictly inside B_int, zero on S, positive outside."""
        return self.shape.signed_distance(x)

    def outward_normal(self, x: np.ndarray) -> np.ndarray:
        """gbar-unit normal along S pointing out of B_int (chart components)."""
        x = np.asarray(x, dtype=float)
        sd = np.abs(self.signed_distance(x))
        if np.any(sd > ON_SUPPORT_TOL):
            worst = float(np.max(sd))
            raise PointNotOnSupport(
                f"point is {worst:.3e} off the {self.kind.value} realization")
        unit = self.shape.euclidean_outward(x)
        # gbar-unit: |v|_gbar = exp(phi) |v|_delta
        return unit * np.exp(-self.model.phi(x))

    def half_region_margin(self, x: np.ndarray) -> np.ndarray:
        """Positive where the half-region constraint holds (inf if none)."""
        x = np.asarray(x, dtype=float)
        if self.half_region is HalfRegion.LAST_COORD_POSITIVE:
            return x[-1]
        if self.half_region is HalfRegion.UNIT_BALL:
            return 1.0 - np.linalg.norm(x, axis=0)
        return np.full(x.shape[1:], np.inf)

    def in_admissible_region(self, x: np.ndarray) -> np.ndarray:
        """Interior of B_int intersected with the half-region constraint."""
        x = np.asarray(x, dtype=float)
        ok = self.model.contains(x) & (self.signed_distance(x) < 0.0)
        if self.requires_half_region:
            ok = ok & (self.half_region_margin(x) > 0.0)
        return ok


def plane_anchor(s: SupportSpec) -> np.ndarray:
    """The point of a plane support nearest the origin, lifted by e_n when the
    plane is vertical in the half space: such a plane contains e_n, so the
    lifted anchor stays on it and clear of the chart boundary x_n = 0."""
    a = np.asarray(s.shape.normal_in, dtype=float)
    anchor = s.shape.offset * a
    if s.model.kind is ModelKind.UPPER_HALF_SPACE and abs(a[-1]) < 1e-12:
        anchor[-1] += 1.0
    return anchor


# -- constructors -------------------------------------------------------------


def _plane(kind: SupportKind, model: SpaceFormModel, normal_in: tuple, offset: float = 0.0,
           kappa: float = 0.0, half_region: HalfRegion = HalfRegion.NONE) -> SupportSpec:
    """A support realized as the chart plane <normal_in, x> = offset."""
    return SupportSpec(kind=kind, model=model, kappa=kappa,
                       shape=PlaneShape(normal_in=normal_in, offset=offset),
                       half_region=half_region)


def _sphere(kind: SupportKind, model: SpaceFormModel, radius: float,
            kappa: float) -> SupportSpec:
    """A support realized as the chart sphere of the given radius about the origin;
    B_int^+ is its upper half, x_n > 0."""
    return SupportSpec(kind=kind, model=model, kappa=kappa,
                       shape=SphereShape(center=(0.0,) * model.n, radius=radius),
                       half_region=HalfRegion.LAST_COORD_POSITIVE)


def _geodesic_sphere(kind: SupportKind, model: SpaceFormModel, rho: float) -> SupportSpec:
    """The geodesic sphere of chart radius rho about the origin of the ball or the
    sphere model: kappa = (1 - K rho^2) / (2 rho), coth R for K = -1, cot R for K = +1."""
    if not rho > 0.0:   # a tiny geodesic radius R rounds tanh(R/2) or tan(R/2) to 0
        raise ValueError(f"{kind.value}: geodesic radius too small, its chart radius is {rho!r}")
    return _sphere(kind, model, rho, (1.0 - model.K * rho * rho) / (2.0 * rho))


def euclidean_sphere(n: int, radius: float = 1.0) -> SupportSpec:
    if not 0.0 < radius < math.inf:   # a NaN fails too
        raise ValueError(f"sphere radius must be positive and finite, got {radius!r}")
    return _sphere(SupportKind.EUCLIDEAN_SPHERE, ambient.euclidean(n), radius, 1.0 / radius)


def euclidean_plane(n: int) -> SupportSpec:
    return _plane(SupportKind.EUCLIDEAN_PLANE, ambient.euclidean(n), (0.0,) * (n - 1) + (1.0,))


def hyp_geodesic_sphere(n: int, geodesic_radius: Optional[float] = None,
                        chart_radius: Optional[float] = None) -> SupportSpec:
    """Geodesic sphere in the Poincare ball, centered at the origin.

    Accepts either the intrinsic radius R (chart radius tanh(R/2)) or the
    chart radius directly.  kappa = coth R = (1 + rho^2) / (2 rho).
    """
    if (geodesic_radius is None) == (chart_radius is None):
        raise ValueError("give exactly one of geodesic_radius, chart_radius")
    if geodesic_radius is not None:
        if not geodesic_radius > 0:   # a NaN fails too
            raise ValueError("geodesic radius must be positive")
        rho = math.tanh(geodesic_radius / 2.0)
        if not rho < 1.0:   # tanh(R/2) rounds to 1 from R = 38.1231 on
            raise ValueError(f"geodesic radius {geodesic_radius!r} gives chart radius 1.0; "
                             "chart radius must lie in (0, 1)")
    else:
        rho = float(chart_radius)
        if not 0.0 < rho < 1.0:
            raise ValueError("chart radius must lie in (0, 1)")
    return _geodesic_sphere(SupportKind.HYP_GEODESIC_SPHERE, ambient.poincare_ball(n), rho)


def horosphere(n: int) -> SupportSpec:
    return _plane(SupportKind.HOROSPHERE, ambient.upper_half_space(n), (0.0,) * (n - 1) + (1.0,),
                  offset=1.0, kappa=1.0)


def equidistant(n: int, theta: float) -> SupportSpec:
    """Equidistant hypersurface {x_1 tan(theta) + x_n = 1} in the half space.

    theta in (0, pi/2); kappa = cos(theta) in (0, 1).  The inward direction
    (into B_int) is (sin theta, 0, ..., cos theta).
    """
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError("theta must lie in (0, pi/2)")
    a = [0.0] * n
    a[0] = math.sin(theta)
    a[-1] = math.cos(theta)
    return _plane(SupportKind.EQUIDISTANT, ambient.upper_half_space(n), tuple(a),
                  offset=math.cos(theta), kappa=math.cos(theta))


def hyp_geodesic_plane(n: int) -> SupportSpec:
    return _plane(SupportKind.HYP_GEODESIC_PLANE, ambient.upper_half_space(n),
                  (1.0,) + (0.0,) * (n - 1))


def sph_geodesic_sphere(n: int, geodesic_radius: Optional[float] = None,
                        chart_radius: Optional[float] = None) -> SupportSpec:
    """Geodesic sphere in the stereographic sphere model, centered at the origin.

    Intrinsic radius R must satisfy 0 < R < pi/2 (so that kappa = cot R > 0
    and the enclosed region stays in one hemisphere); the chart radius is
    tan(R/2), so chart_radius must lie in (0, tan(pi/4)) = (0, 1).
    """
    if (geodesic_radius is None) == (chart_radius is None):
        raise ValueError("give exactly one of geodesic_radius, chart_radius")
    if geodesic_radius is not None:
        if not 0.0 < geodesic_radius < math.pi / 2.0:
            raise ValueError("geodesic radius must lie in (0, pi/2)")
        rho = math.tan(geodesic_radius / 2.0)
    else:
        rho = float(chart_radius)
        if not 0.0 < rho < 1.0:
            raise ValueError("chart radius must lie in (0, 1), i.e. R < pi/2")
    return _geodesic_sphere(SupportKind.SPH_GEODESIC_SPHERE, ambient.sphere_stereographic(n), rho)


def sph_hyperplane(n: int) -> SupportSpec:
    return _plane(SupportKind.SPH_HYPERPLANE, ambient.sphere_stereographic(n),
                  (0.0,) * (n - 1) + (1.0,), half_region=HalfRegion.UNIT_BALL)


# constructor and accepted parameter names of each kind
_CONSTRUCTORS = {
    SupportKind.EUCLIDEAN_SPHERE: (euclidean_sphere, {"radius"}),
    SupportKind.EUCLIDEAN_PLANE: (euclidean_plane, set()),
    SupportKind.HYP_GEODESIC_SPHERE: (hyp_geodesic_sphere, {"geodesic_radius", "chart_radius"}),
    SupportKind.HOROSPHERE: (horosphere, set()),
    SupportKind.EQUIDISTANT: (equidistant, {"theta"}),
    SupportKind.HYP_GEODESIC_PLANE: (hyp_geodesic_plane, set()),
    SupportKind.SPH_GEODESIC_SPHERE: (sph_geodesic_sphere, {"geodesic_radius", "chart_radius"}),
    SupportKind.SPH_HYPERPLANE: (sph_hyperplane, set()),
}

# placements used when a caller passes no support parameters
CANONICAL_SUPPORT_PARAMS = {
    "euclidean_sphere": {"radius": 1.0},
    "hyp_geodesic_sphere": {"chart_radius": 0.5},
    "equidistant": {"theta": math.pi / 6.0},
    "sph_geodesic_sphere": {"chart_radius": 0.5},
}


def make_support(kind: SupportKind | str, n: int, **params) -> SupportSpec:
    """Uniform constructor; without params the canonical placement applies."""
    kind = SupportKind(kind) if not isinstance(kind, SupportKind) else kind
    constructor, allowed = _CONSTRUCTORS[kind]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {sorted(unknown)} for support {kind.value}; "
            f"allowed: {sorted(allowed)}")
    return constructor(n, **(params or CANONICAL_SUPPORT_PARAMS.get(kind.value, {})))


# -- samplers (seed-controlled, used by identity checks and tests) ------------


def sample_support_points(s: SupportSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    """Points on the chart realization of S, inside the model chart domain.

    The Neumann identity holds on all of S, so sampling is not restricted to
    the admissible region; it only avoids the chart boundary where conformal
    factors degenerate.
    """
    n = s.n
    if isinstance(s.shape, SphereShape):
        d = rng.normal(size=(count, n))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return np.asarray(s.shape.center, float) + s.shape.radius * d
    a = np.asarray(s.shape.normal_in, float)
    p0 = s.shape.offset * a
    frame = axis_frame(a)[:, 1:]
    pts = np.empty((count, n))
    have = 0
    while have < count:
        coeff = rng.uniform(-1.5, 1.5, size=(count, n - 1))
        cand = p0 + coeff @ frame.T
        keep = s.model.contains(cand.T)
        if s.model.kind is ModelKind.UPPER_HALF_SPACE:
            keep &= cand[:, -1] > 0.05     # stay away from the chart boundary
        cand = cand[keep]
        take = min(count - have, cand.shape[0])
        pts[have:have + take] = cand[:take]
        have += take
    return pts


def _sampling_box(s: SupportSpec) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box enclosing a healthy slice of the admissible region.

    Kept away from chart boundaries so that closed-form quantities stay well
    scaled and finite-difference oracles remain accurate.
    """
    n = s.n
    lo, hi = -np.ones(n), np.ones(n)
    if isinstance(s.shape, SphereShape):
        r = s.shape.radius
        lo, hi = -r * np.ones(n), r * np.ones(n)
    elif s.model.kind is ModelKind.UPPER_HALF_SPACE:
        lo, hi = -2.0 * np.ones(n), 2.0 * np.ones(n)
        lo[-1], hi[-1] = 0.3, 3.5
        if s.kind is SupportKind.HOROSPHERE:
            lo[-1], hi[-1] = 1.0, 4.0
    return lo, hi


def sample_admissible_points(s: SupportSpec, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample points of the admissible region of s."""
    lo, hi = _sampling_box(s)
    pts = np.empty((count, s.n))
    have = 0
    while have < count:
        cand = rng.uniform(lo, hi, size=(4 * count, s.n))
        cand = cand[s.in_admissible_region(cand.T)]
        take = min(count - have, cand.shape[0])
        pts[have:have + take] = cand[:take]
        have += take
    return pts
