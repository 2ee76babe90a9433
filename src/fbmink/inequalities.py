"""Weighted integral inequalities and the Reilly-type identity checker.

Every report evaluates both sides of one inequality with tensor-product
Gauss-Legendre quadrature on a cap scenario, audits the pointwise curvature
hypothesis the theorem assumes, and returns the signed deficit.  Deficits are
oriented so that a nonnegative value means the inequality holds:

* Minkowski:     deficit = (int_S V)^2 - n/(n-1) int_O V * int_S H V
* second order:  deficit = (int_S H V)^2 - 2(n-1)/(n-2) int_S V * int_S s2 V
* almost Schur:  deficit = C_n int_S |Ric0|^2 V - int_S (R - R^V)^2 V

The identity checker integrates every term of the weighted Reilly formula
for a supplied smooth test function; for static weights the interior
curvature term vanishes identically, so the residual isolates quadrature
and geometry errors.  Each call forms only its test function's own terms; the
static term is contracted from V's memoized jet, with no metric or static tensor.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import ambient
from .errors import DimensionTooLow, NonSmoothTestFunction
from .families import CapScenario
from .quadrature import QuadratureRule, SurfaceQuadrature, pairwise_sum
from .weights import WeightField, jet


# -- hypothesis audit -----------------------------------------------------------


@dataclass
class HypothesisAudit:
    """Pointwise margins of the curvature hypotheses over the cap nodes.

    ``convexity_min`` is the least eigenvalue of h - (V_nu / V) g and
    ``substatic_min`` the least eigenvalue of the boundary static tensor
    (V h - V_nu g)(H g - h); a theorem's hypothesis holds when the matching
    margin is nonnegative (up to quadrature-level noise).
    """

    convexity_min: float
    substatic_min: float
    weight_min: float
    orthogonality: float
    on_support: float
    principal_direction_residual: float

    def to_dict(self) -> dict:
        return asdict(self)


def hypothesis_audit(scenario: CapScenario, rule: QuadratureRule) -> HypothesisAudit:
    angle_err, support_err, principal_err = scenario.boundary()
    V, convexity, substatic = scenario.weight_data(rule.level)
    return HypothesisAudit(
        convexity_min=convexity,
        substatic_min=substatic,
        weight_min=float(np.min(V)),
        orthogonality=angle_err,
        on_support=support_err,
        principal_direction_residual=principal_err,
    )


# -- inequality reports ----------------------------------------------------------


DEFAULT_EQUALITY_TOL = 1e-6
HYPOTHESIS_TOL = 1e-9   # a hypothesis margin above -HYPOTHESIS_TOL counts as satisfied


@dataclass
class InequalityReport:
    theorem: str   # the public id: "Minkowski", "AF" or "AlmostSchur"
    n: int
    level: int
    lhs: float
    rhs: float
    deficit: float
    hypothesis: str
    hypothesis_margin: float
    equality_tolerance: float = DEFAULT_EQUALITY_TOL
    integrals: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def relative_deficit(self) -> float:
        return self.deficit / max(abs(self.lhs), abs(self.rhs), 1e-300)

    @property
    def hypothesis_ok(self) -> bool:
        return self.hypothesis_margin >= -HYPOTHESIS_TOL

    @property
    def equality_flag(self) -> bool:
        return abs(self.relative_deficit) <= self.equality_tolerance

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem,
            "n": self.n,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "deficit": self.deficit,
            "relative_deficit": self.relative_deficit,
            "equality_flag": self.equality_flag,
            "hypothesis": {"name": self.hypothesis,
                           "margin": self.hypothesis_margin,
                           "ok": self.hypothesis_ok},
            "integrals": dict(self.integrals),
            "extras": dict(self.extras),
            "quadrature_meta": {"level": self.level},
        }


def _cap_terms(scenario: CapScenario, rule: QuadratureRule):
    """(level, cap quadrature, cap curvature, V, convexity and substatic margins)
    for a report; the weight is checked before the region is built."""
    level = rule.level
    Vs, convexity, substatic = scenario.weight_data(level)
    sq = scenario.quadrature("cap", level)
    return level, sq, sq.curvature(), Vs, convexity, substatic


def minkowski_report(scenario: CapScenario, rule: QuadratureRule,
                     equality_tolerance: float = DEFAULT_EQUALITY_TOL) -> InequalityReport:
    """Weighted volumetric lower bound for (int_S V)^2 on free-boundary caps."""
    n = scenario.n
    level, sq, curv, Vs, margin, _ = _cap_terms(scenario, rule)
    rq = scenario.region(level)
    area_v = sq.integral(Vs)
    mean_v = sq.integral(curv.H * Vs)
    vol_v = rq.integral(scenario.weight.value(rq.points))
    lhs = area_v ** 2
    rhs = n / (n - 1.0) * vol_v * mean_v
    return InequalityReport(
        theorem="Minkowski", n=n, level=level, lhs=lhs, rhs=rhs, deficit=lhs - rhs,
        hypothesis="convexity", hypothesis_margin=margin,
        equality_tolerance=equality_tolerance,
        integrals={"weighted_area": area_v, "weighted_mean_curvature": mean_v,
                   "weighted_volume": vol_v},
    )


def af_report(scenario: CapScenario, rule: QuadratureRule,
              equality_tolerance: float = DEFAULT_EQUALITY_TOL) -> InequalityReport:
    """Second-order curvature-integral bound (quadratic in int H V)."""
    n = scenario.n
    if n < 3:
        raise DimensionTooLow("the second-order inequality needs ambient dimension >= 3")
    level, sq, curv, Vs, _, margin = _cap_terms(scenario, rule)
    area_v = sq.integral(Vs)
    mean_v = sq.integral(curv.H * Vs)
    sigma2_v = sq.integral(curv.sigma2 * Vs)
    lhs = mean_v ** 2
    rhs = 2.0 * (n - 1.0) / (n - 2.0) * area_v * sigma2_v

    # normalized restatement: int (H - Hbar_V)^2 V <= (n-1)/(n-2) int |h0|^2 V
    h_mean = mean_v / area_v
    spread = sq.integral((curv.H - h_mean) ** 2 * Vs)
    traceless = sq.integral((curv.norm_h_sq - curv.H ** 2 / (n - 1.0)) * Vs)
    normalized_deficit = (n - 1.0) / (n - 2.0) * traceless - spread

    return InequalityReport(
        theorem="AF", n=n, level=level, lhs=lhs, rhs=rhs, deficit=lhs - rhs,
        hypothesis="substatic", hypothesis_margin=margin,
        equality_tolerance=equality_tolerance,
        integrals={"weighted_area": area_v, "weighted_mean_curvature": mean_v,
                   "weighted_sigma2": sigma2_v},
        extras={"normalized_lhs": spread,
                "normalized_rhs": (n - 1.0) / (n - 2.0) * traceless,
                "normalized_deficit": normalized_deficit},
    )


def schur_report(scenario: CapScenario, rule: QuadratureRule,
                 equality_tolerance: float = DEFAULT_EQUALITY_TOL) -> InequalityReport:
    """Almost-constancy of the scalar curvature against the traceless Ricci."""
    n = scenario.n
    if n < 4:
        raise DimensionTooLow(
            f"the scalar-curvature bound needs ambient dimension >= 4, got {n}")
    level, sq, curv, Vs, _, margin = _cap_terms(scenario, rule)
    area_v = sq.integral(Vs)
    scal_mean = sq.integral(curv.scal * Vs) / area_v
    lhs = sq.integral((curv.scal - scal_mean) ** 2 * Vs)

    coeff = 4.0 * (n - 1.0) * (n - 2.0) / (n - 3.0) ** 2
    rhs = coeff * sq.integral(curv.ric0_sq * Vs)

    return InequalityReport(
        theorem="AlmostSchur", n=n, level=level, lhs=lhs, rhs=rhs, deficit=rhs - lhs,
        hypothesis="substatic", hypothesis_margin=margin,
        equality_tolerance=equality_tolerance,
        integrals={"weighted_area": area_v, "scal_mean": scal_mean},
        extras={"lhs_label": "weighted variance of scalar curvature",
                "rhs_label": "traceless Ricci bound"},
    )


REPORT_BUILDERS: dict[str, Callable[..., InequalityReport]] = {
    "minkowski": minkowski_report,
    "af": af_report,
    "schur": schur_report,
}


# -- smooth test functions for the identity checker -------------------------------


@dataclass(frozen=True)
class _Coordinate:
    """x_i, or x_i^2 when ``squared``, with exact flat derivatives behind the
    value / euclidean_gradient / euclidean_hessian interface of ``WeightField``
    (points coordinate first, as there); sparsely, its flat gradient is ``slope`` e_i
    and its flat Hessian ``second`` e_i e_i^T, as ``ambient.add_axis_hessian`` takes them."""

    i: int
    squared: bool

    @property
    def second(self) -> float:
        return 2.0 if self.squared else 0.0

    def slope(self, x: np.ndarray):
        return 2.0 * x[self.i] if self.squared else 1.0

    def value(self, x: np.ndarray) -> np.ndarray:
        xi = x[self.i]
        return xi * xi if self.squared else xi

    def euclidean_gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros_like(x)
        g[self.i] = self.slope(x)
        return g

    def euclidean_hessian(self, x: np.ndarray) -> np.ndarray:
        h = np.zeros(x.shape[:1] + x.shape)
        h[self.i, self.i] = self.second
        return h


def _test_function(name: str, scenario: CapScenario) -> tuple[str, WeightField | _Coordinate]:
    """The reported name and the function behind "V", "x<i>" or "x<i>^2"."""
    key = name.strip().lower().replace(" ", "")
    if key == "v":
        return "V", scenario.weight
    match = re.fullmatch(r"x([0-9]+)(\^2)?", key)
    if match is None:
        raise NonSmoothTestFunction(
            f"unknown test function {name!r}; choose V, x<i> or x<i>^2")
    i, squared = int(match[1]) - 1, match[2] is not None
    if not 0 <= i < scenario.n:
        raise NonSmoothTestFunction(f"coordinate index out of range in {name!r}")
    return f"x{i + 1}" + ("^2" if squared else ""), _Coordinate(i, squared)


# -- the weighted Reilly-type identity --------------------------------------------


@dataclass
class ReillyReport:
    function: str
    level: int
    residual: float
    relative_residual: float
    lhs_volume: float
    rhs_volume_static: float
    boundary: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _boundary_parts(sq: SurfaceQuadrature, fn_jet: tuple) -> tuple:
    """The normal derivative, the tangential gradient (parameter components, lower
    index), the intrinsic Laplacian through the ambient one, and the tangential
    derivative of the normal derivative, of one function over one smooth piece, from
    its ``weights.jet`` at the piece's nodes (node axis last)."""
    _, d1, d2, hess, lap = fn_jet
    nu, jac = sq.geo.nu, sq.geo.jac
    d_nu = np.einsum("im,mi->m", d1, nu)
    d_a = np.einsum("im,mia->ma", d1, jac)
    lap_p = (lap - np.einsum("im,mi->m", np.einsum("ijm,mj->im", hess, nu), nu)
             - sq.curvature().H * d_nu)
    d_nu_a = (np.einsum("im,mia->ma", np.einsum("ijm,mj->im", d2, nu), jac)
              + np.einsum("im,mai->ma", d1, sq.normal_derivatives()))
    return d_nu, d_a, lap_p, d_nu_a


def _boundary_piece_terms(sq: SurfaceQuadrature, V: np.ndarray, V_parts: tuple,
                          f: np.ndarray, f_parts: tuple) -> dict:
    """The three boundary integrals of the identity over one smooth piece, from the
    values and ``_boundary_parts`` of V and of the test function f at its nodes."""
    geo = sq.geo
    V_nu, V_a, lap_p_V, dVnu_a = V_parts
    f_nu, f_a, lap_p_f, dfnu_a = f_parts
    # with q = f / V: u = f_nu - q V_nu, w = df - q dV along the piece, and
    # d_a u = d_a f_nu - q d_a V_nu - (V_nu / V) w_a; for f = V, q is 1 and all vanish
    q, kappa = f / V, V_nu / V
    u = f_nu - V_nu * q
    w_a = f_a - V_a * q[:, None]
    w_up = np.einsum("mab,mb->ma", geo.g_inv, w_a)
    u_a = dfnu_a - dVnu_a * q[:, None] - kappa[:, None] * w_a

    term_mixed = V * u * (lap_p_f - lap_p_V * q)
    term_grad = -V * np.einsum("ma,ma->m", u_a, w_up)
    quad_form = geo.h - kappa[:, None, None] * geo.g
    term_h = V * (sq.curvature().H * u ** 2
                  + np.einsum("ma,ma->m", np.einsum("mab,mb->ma", quad_form, w_up), w_up))

    return {
        "mixed": float(pairwise_sum(term_mixed * sq.weights)),
        "gradient": float(pairwise_sum(term_grad * sq.weights)),
        "curvature": float(pairwise_sum(term_h * sq.weights)),
    }


def reilly_residual(scenario: CapScenario, function: str,
                    rule: QuadratureRule) -> ReillyReport:
    """Integrate every term of the weighted Reilly identity and report the gap.

    ``function`` names the smooth test function: "V", "x<i>" or "x<i>^2"; the
    checker does not solve boundary value problems.  For static weights the interior
    curvature term is zero in exact arithmetic and is still integrated as a
    cross-check.
    """
    name, f = _test_function(function, scenario)
    model, level = scenario.model, rule.level
    is_V = f is scenario.weight
    rq = scenario.region(level)
    V_jet = scenario.weight_jet("region", level)

    def volume_integrands(b: slice) -> tuple[np.ndarray, np.ndarray]:
        # both interior integrands on one block of region nodes, from V's jet there, with
        # q = f / V: T = Hess f - q Hess V, lap f - q lap V and d = df - q dV = e^{2 phi} w
        x = rq.points[:, b]
        model.require_inside(x)
        Vv, dV, _, hess_V, lap_V = (a if a is None else a[..., b] for a in V_jet)
        inv = np.exp(-2.0 * model.phi(x))      # gbar = e^{2 phi} I inverts by scaling
        q = Vv / Vv if is_V else f.value(x) / Vv
        tensor, amb_term, d = hess_V * -q, lap_V * -q, dV * -q
        if is_V:
            tensor += hess_V
            amb_term += lap_V
            d += dV
        else:
            slope = f.slope(x)
            d[f.i] += slope
            amb_term += inv * ambient.add_axis_hessian(tensor, model.phi_grad(x), f.i,
                                                       slope, f.second)
        tensor_norm_sq = inv * inv * np.einsum("ijm,ijm->m", tensor, tensor)
        # static(w, w) = (lap V + (n-1) K V) e^{2 phi} |w|^2 - Hess V(w, w), through d
        hess_d = np.einsum("im,im->m", np.einsum("ijm,jm->im", hess_V, d), d)
        static_ww = inv * ((lap_V + (model.n - 1.0) * model.K * Vv) * np.einsum("im,im->m", d, d)
                           - inv * hess_d)
        return Vv * (amb_term ** 2 - tensor_norm_sq), static_ww

    lhs_volume, rhs_volume = rq.integrals(volume_integrands)

    boundary = {}
    for label in ("cap", "support"):
        sq = scenario.quadrature(label, level)
        V_face = scenario.weight_jet(label, level)
        V_parts = scenario._once((label + " boundary", level),
                                 lambda: _boundary_parts(sq, V_face))
        f_jet = V_face if is_V else jet(model, sq.geo.x.T, f)
        f_parts = V_parts if is_V else _boundary_parts(sq, f_jet)
        boundary[label] = _boundary_piece_terms(sq, V_face[0], V_parts, f_jet[0], f_parts)
    boundary_total = sum(sum(d.values()) for d in boundary.values())

    residual = lhs_volume - rhs_volume - boundary_total
    scale = max(abs(lhs_volume), abs(rhs_volume),
                max((abs(v) for d in boundary.values() for v in d.values()), default=0.0))
    relative = residual / scale if scale > 1e-20 else 0.0
    return ReillyReport(
        function=name, level=rule.level,
        residual=float(residual), relative_residual=float(relative),
        lhs_volume=float(lhs_volume), rhs_volume_static=float(rhs_volume),
        boundary=boundary,
    )
