"""Weighted integral inequalities and the Reilly-type identity checker.

Every report evaluates both sides of one inequality with tensor-product
Gauss-Legendre quadrature on a cap scenario, audits the pointwise curvature
hypothesis the theorem assumes, and returns the signed deficit.  Deficits are
oriented so that a nonnegative value means the inequality holds:

* Minkowski:     deficit = (int_S V)^2 - n/(n-1) int_O V * int_S H V, with
                 n int_O V = int_S <X_a, nu> read off the cap alone
* second order:  deficit = (int_S H V)^2 - 2(n-1)/(n-2) int_S V * int_S s2 V
* almost Schur:  deficit = C_n int_S |Ric0|^2 V - int_S (R - R^V)^2 V

The identity checker integrates every term of the weighted Reilly formula
for a supplied smooth test function; for static weights the interior
curvature term vanishes identically, so the residual isolates quadrature
and geometry errors.  Each call forms only its test function's own terms.  On
the region both integrands are quadratics in q = f / V.  For one axis i, those
of x_i and of x_i^2 are formed together in one pass per cone block and reduced
at once; each region piece memoizes only their block sums, per axis, so x_i^2
after x_i (or x_i after x_i^2) forms nothing on the region.  Each block's pass
reads one flat jet of V and phi, formed from one |x|^2 (``ambient.Radial``),
and accumulates its coefficients in place in a few reused rows; it writes into
no block, since each block is a view into a cone its piece memoizes.  The V
row forms none, as its integrands are exactly 0; no metric, static tensor,
per-node row or (n, n, m) array is held.
"""

from __future__ import annotations

import functools
import re
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .ambient import Radial
from .errors import DimensionTooLow, NonSmoothTestFunction
from .families import CapScenario
from .quadrature import Piece, QuadratureRule, pairwise_sum, region_sum
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
    V, convexity, substatic = scenario.weight_data(rule)
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
    """(cap piece, cap curvature, V, convexity and substatic margins) for a report;
    the weight is checked before the curvature is formed."""
    Vs, convexity, substatic = scenario.weight_data(rule)
    cap = scenario.piece("cap", rule)
    return cap, cap.curvature(), Vs, convexity, substatic


def minkowski_report(scenario: CapScenario, rule: QuadratureRule,
                     equality_tolerance: float = DEFAULT_EQUALITY_TOL) -> InequalityReport:
    """Weighted volumetric lower bound for (int_S V)^2 on free-boundary caps.  Every
    integral is over the cap piece: int_O V is ``CapScenario.weighted_volume``, by the
    free-boundary Minkowski formula, so the report builds no region cone and no face."""
    n = scenario.n
    cap, curv, Vs, margin, _ = _cap_terms(scenario, rule)
    area_v = cap.integral(Vs)
    mean_v = cap.integral(curv.H * Vs)
    vol_v = scenario.weighted_volume(rule)
    lhs = area_v ** 2
    rhs = n / (n - 1.0) * vol_v * mean_v
    return InequalityReport(
        theorem="Minkowski", n=n, level=rule.level, lhs=lhs, rhs=rhs, deficit=lhs - rhs,
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
    cap, curv, Vs, _, margin = _cap_terms(scenario, rule)
    area_v = cap.integral(Vs)
    mean_v = cap.integral(curv.H * Vs)
    sigma2_v = cap.integral(curv.sigma2 * Vs)
    lhs = mean_v ** 2
    rhs = 2.0 * (n - 1.0) / (n - 2.0) * area_v * sigma2_v

    # normalized restatement: int (H - Hbar_V)^2 V <= (n-1)/(n-2) int |h0|^2 V
    h_mean = mean_v / area_v
    spread = cap.integral((curv.H - h_mean) ** 2 * Vs)
    traceless = cap.integral((curv.norm_h_sq - curv.H ** 2 / (n - 1.0)) * Vs)
    normalized_deficit = (n - 1.0) / (n - 2.0) * traceless - spread

    return InequalityReport(
        theorem="AF", n=n, level=rule.level, lhs=lhs, rhs=rhs, deficit=lhs - rhs,
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
    cap, curv, Vs, _, margin = _cap_terms(scenario, rule)
    area_v = cap.integral(Vs)
    scal_mean = cap.integral(curv.scal * Vs) / area_v
    lhs = cap.integral((curv.scal - scal_mean) ** 2 * Vs)

    coeff = 4.0 * (n - 1.0) * (n - 2.0) / (n - 3.0) ** 2
    rhs = coeff * cap.integral(curv.ric0_sq * Vs)

    return InequalityReport(
        theorem="AlmostSchur", n=n, level=rule.level, lhs=lhs, rhs=rhs, deficit=rhs - lhs,
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
    (points coordinate first, as there); its flat gradient is ``slope`` e_i and its
    flat Hessian ``second`` e_i e_i^T, the s and c of the region's quadratics in q."""

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


def _boundary_piece_terms(piece: Piece, V_parts: tuple, f_parts: tuple) -> dict:
    """The three boundary integrals of the identity over one smooth piece, from the
    ``Piece.boundary_parts`` of V and of the test function f at its nodes."""
    geo = piece.geo
    V, V_nu, V_a, lap_p_V, dVnu_a = V_parts
    f, f_nu, f_a, lap_p_f, dfnu_a = f_parts
    # with q = f / V: u = f_nu - q V_nu, w = df - q dV along the piece, and
    # d_a u = d_a f_nu - q d_a V_nu - (V_nu / V) w_a; for f = V, q is 1 and all vanish
    q, kappa = f / V, V_nu / V
    u = f_nu - V_nu * q
    w_a = f_a - V_a * q
    w_up = np.sum(geo.g_inv * w_a, axis=1)
    u_a = dfnu_a - dVnu_a * q - kappa * w_a

    term_mixed = V * u * (lap_p_f - lap_p_V * q)
    term_grad = -V * np.sum(u_a * w_up, axis=0)
    quad_form = geo.h - kappa * geo.g
    term_h = V * (piece.curvature().H * u ** 2
                  + np.sum(np.sum(quad_form * w_up, axis=1) * w_up, axis=0))

    return {
        "mixed": float(pairwise_sum(term_mixed * piece.weights)),
        "gradient": float(pairwise_sum(term_grad * piece.weights)),
        "curvature": float(pairwise_sum(term_h * piece.weights)),
    }


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> at each node of (n, m) rows."""
    return np.einsum("im,im->m", a, b)


def _flat_jet(weight: WeightField, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """V's flat value, gradient and Hessian, phi's gradient and e = exp(-2 phi) at the
    nodes x, (n, k), all from one |x|^2 and one 1 / (1 + K|x|^2) (``ambient.Radial``):
    the bits of ``value``, ``euclidean_gradient``, ``euclidean_hessian``, ``phi_grad``
    and exp(-2 phi(x)), each a fresh array."""
    model, r = weight.model, Radial(x)
    e = model.phi(r)
    e *= -2.0
    return (weight.value(r), weight.euclidean_gradient(r), weight.euclidean_hessian(r),
            model.phi_grad(r), np.exp(e))


def _axis_integrands(weight: WeightField, i: int, x: np.ndarray) -> np.ndarray:
    """Both interior integrands of the identity for x_i and for x_i^2 at the nodes x of
    one block, (4, k): lhs and rhs for x_i, then for x_i^2, formed in one pass from V's
    flat value, gradient g and Hessian H, phi's gradient p and e = exp(-2 phi), all
    from one ``_flat_jet``.

    The coefficients below: trH, pg = <p, g>, and S = lap V + (n-1) K V, the static
    tensor's trace part (static = S gbar - Hess V).  With q = x_i / V, x_i's terms are
    V e^2 (A2 q^2 + A1 q + S2) and e (E0 q^2 + E1 q + E2), and x_i^2's, at s = 2 x_i,
    c = 2 and x_i q for q, reuse their sub-expressions:
    V e^2 [x_i^2 (A2 q^2 + 2 A1 q + 4 S2) + 2 x_i (C1 q + (4n-4) p_i)] and
    e x_i^2 (E0 q^2 + 2 E1 q + 4 E2).

    Each coefficient is accumulated in place in its own row, with a scratch row t and
    the four output rows, in the association of the formulas in the comments.
    A step a op= b may stand for b op a only where op is + or *, which commute bit for
    bit, so the bits are those of the same expressions formed out of place.  x is a
    view into a memoized cone: nothing here writes into it, and every row written into
    is formed here."""
    n, K = weight.model.n, weight.model.K
    V, g, H, p, e = _flat_jet(weight, x)
    p_i, g_i, H_i, H_ii, x_i = p[i], g[i], H[i], H[i, i], x[i]
    trH, pg, pp, gg = np.trace(H), _dot(p, g), _dot(p, p), _dot(g, g)
    Hg = np.einsum("ijm,jm->im", H, g)
    out = np.empty((4, x.shape[1]))
    t = np.empty_like(V)
    cq = (n - 2.0) * (n - 3.0)
    # S = e (trH + (n-2) pg) + (n-1) K V
    S = np.multiply(pg, n - 2.0)
    S += trH
    S *= e
    S += np.multiply(V, (n - 1.0) * K, out=t)
    tH = np.multiply(trH, 2.0 * n - 6.0)   # (2n-6) trH, in A2 and A1
    # A2 = trH^2 - |H|^2 + pg ((2n-6) trH + cq pg) + 4 <Hg, p> - 2 pp gg
    A2 = np.multiply(trH, trH)
    A2 -= np.einsum("ijm,ijm->m", H, H)
    np.multiply(pg, cq, out=t)
    t += tH
    A2 += np.multiply(t, pg, out=t)
    t = _dot(Hg, p)
    A2 += np.multiply(t, 4.0, out=t)
    np.multiply(pp, 2.0, out=t)
    A2 -= np.multiply(t, gg, out=t)
    # E0 = gg (S + e pg) - e <Hg, g>
    E0 = np.multiply(e, pg)
    E0 += S
    E0 *= gg
    t = _dot(Hg, g)
    E0 -= np.multiply(t, e, out=t)
    # A1 = 4 (pp g_i - <H_i, p>) - p_i ((2n-6) trH + 2 cq pg)
    A1 = np.multiply(pp, g_i)
    A1 -= _dot(H_i, p)
    A1 *= 4.0
    np.multiply(pg, 2.0 * (n - 2.0) * (n - 3.0), out=t)
    t += tH
    A1 -= np.multiply(t, p_i, out=t)
    # C1 = 2 (H_ii - trH) - (2n-6) pg - 4 p_i g_i
    C1 = np.subtract(H_ii, trH)
    C1 *= 2.0
    C1 -= np.multiply(pg, 2.0 * n - 6.0, out=t)
    np.multiply(p_i, 4.0, out=t)
    C1 -= np.multiply(t, g_i, out=t)
    # S2 = cq p_i^2 - 2 pp
    S2 = np.multiply(p_i, cq)
    S2 *= p_i
    S2 -= np.multiply(pp, 2.0, out=t)
    # E1 = 2 (e (<H_i, g> - p_i gg) - g_i S)
    E1 = _dot(H_i, g)
    E1 -= np.multiply(p_i, gg, out=t)
    E1 *= e
    E1 -= np.multiply(g_i, S, out=t)
    E1 *= 2.0
    # E2 = S - e (pg + H_ii - 2 p_i g_i)
    E2 = np.add(pg, H_ii)
    np.multiply(p_i, 2.0, out=t)
    E2 -= np.multiply(t, g_i, out=t)
    E2 *= e
    np.subtract(S, E2, out=E2)
    # q = x_i / V, V e^2 and x_i^2; A2 and E0 become A2 q and E0 q
    q = np.divide(x_i, V)
    Ve2 = np.multiply(V, e)
    Ve2 *= e
    A2 *= q
    E0 *= q
    o = out[0]   # Ve2 ((A2q + A1) q + S2)
    np.add(A2, A1, out=o)
    o *= q
    o += S2
    o *= Ve2
    o = out[1]   # e ((E0q + E1) q + E2)
    np.add(E0, E1, out=o)
    o *= q
    o += E2
    o *= e
    o = out[2]   # Ve2 (x_i^2 ((A2q + 2 A1) q + 4 S2) + 2 x_i (C1 q + (4n-4) p_i))
    A1 *= 2.0
    np.add(A2, A1, out=o)
    o *= q
    S2 *= 4.0
    o += S2
    o *= np.multiply(x_i, x_i, out=t)   # t holds x_i^2 from here on
    C1 *= q
    C1 += (4.0 * n - 4.0) * p_i
    C1 *= 2.0 * x_i
    o += C1
    o *= Ve2
    o = out[3]   # e x_i^2 ((E0q + 2 E1) q + 4 E2)
    E1 *= 2.0
    np.add(E0, E1, out=o)
    o *= q
    E2 *= 4.0
    o += E2
    o *= np.multiply(t, e, out=t)
    return out


def reilly_residual(scenario: CapScenario, function: str,
                    rule: QuadratureRule) -> ReillyReport:
    """Integrate every term of the weighted Reilly identity and report the gap.

    ``function`` names the smooth test function: "V", "x<i>" or "x<i>^2"; the
    checker does not solve boundary value problems.  For static weights the interior
    curvature term is zero in exact arithmetic and is still integrated as a
    cross-check.

    Both interior integrands are quadratics in q = f / V at each region node.  With
    D = d2f - q d2V, d = df - q dV, p = dphi and e = exp(-2 phi), the tensor
    T = Hess f - q Hess V is D - (p d^T + d p^T) + <p, d> I, so
    |T|^2 = e^2 (|D|^2 - 4 D(p, d) + 2 <p, d> tr D + 2 |p|^2 |d|^2 + (n-2) <p, d>^2),
    and Hess V(d, d) = d2V(d, d) - 2 <p, d> <dV, d> + <p, dV> |d|^2.  For x_i or x_i^2,
    flat gradient s e_i and Hessian c e_i e_i^T, the integrands are
    V e^2 (A2 q^2 + (s A1 + c C1) q + s^2 S2 + (2n-2) s c p_i) and
    e (E0 q^2 + s E1 q + s^2 E2).  ``_axis_integrands`` forms x_i's and x_i^2's on one
    block in one pass, and each region piece memoizes the four lists of its
    ``Piece.block_sums`` under ("reilly axis", i): x_i reads lists 0-1, x_i^2 lists
    2-3.  Each volume term is the ``region_sum`` of one list over the pieces.  For V
    itself q is 1, so T, w and both integrands are exactly 0: its row forms nothing on
    the region and reads 0.0 for both volume terms, and still builds each region
    piece's cone, so it raises what the cones raise.  No (n, n, m) tensor and no
    per-node row is held.
    """
    name, f = _test_function(function, scenario)
    model = scenario.model
    is_V = f is scenario.weight
    pieces = [scenario.piece(label, rule) for label in scenario.pieces]
    for piece in pieces:   # the V row too raises what the cones raise
        piece.cone()
    lhs_volume = rhs_volume = 0.0
    if not is_V:
        sums = [piece._once(("reilly axis", f.i), lambda piece=piece: piece.block_sums(
            functools.partial(_axis_integrands, piece.weight, f.i))) for piece in pieces]
        first = 2 if f.squared else 0
        lhs_volume, rhs_volume = (region_sum([s[k] for s in sums]) for k in (first, first + 1))

    boundary = {}
    for label in ("cap", "support"):
        piece = scenario.piece(label, rule)
        V_parts = piece.weight_parts()
        f_parts = V_parts if is_V else piece.boundary_parts(jet(model, piece.geo.x, f))
        boundary[label] = _boundary_piece_terms(piece, V_parts, f_parts)
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
