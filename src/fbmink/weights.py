"""Closed-form weight functions paired with each support case.

Each weight V satisfies ``Hess V = -K V gbar`` in its model (so also
``lap V + n K V = 0``) and ``dV(N) = kappa V`` along its support, N the
gbar-unit normal of B_int.  Values and both flat derivatives are exact;
covariant quantities are assembled through the ambient module.  The
geodesic-ball weights of the Poincare ball (K = -1) and the stereographic
sphere (K = +1) are one formula, V = 2 x_n / (1 + K|x|^2), written once with
K read from the model.
Points are node-last as in the ambient module, (n,) or (n, m): ``jet`` returns
the value (m,), the gradient (n, m), both Hessians (n, n, m) and the Laplacian
(m,).  The identity residuals take sampled point lists (m, n) as ``supports`` does.
``minkowski_field`` gives each support's free-boundary Minkowski field X_a, from
which a scenario reads its weighted volume off the cap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import ambient
from .ambient import Radial, SpaceFormModel, radial
from .supports import SupportKind, SupportSpec


class WeightFormula(enum.Enum):
    EUCLID_XN = "euclid_xn"                  # V = x_n
    EUCLID_ONE = "euclid_one"                # V = 1
    HYP_BALL = "hyp_ball"                    # V = 2 x_n / (1 - |x|^2)
    HYP_HALFSPACE = "hyp_halfspace"          # V = 1 / x_n
    SPH_GEODESIC_BALL = "sph_geodesic_ball"  # V = 2 x_n / (1 + |x|^2)
    SPH_HYPERPLANE = "sph_hyperplane"        # V = (1 - |x|^2) / (1 + |x|^2)


_BALL = (WeightFormula.HYP_BALL, WeightFormula.SPH_GEODESIC_BALL)   # V = 2 x_n / (1 + K|x|^2)

_BINDING = {
    SupportKind.EUCLIDEAN_SPHERE: WeightFormula.EUCLID_XN,
    SupportKind.EUCLIDEAN_PLANE: WeightFormula.EUCLID_ONE,
    SupportKind.HYP_GEODESIC_SPHERE: WeightFormula.HYP_BALL,
    SupportKind.HOROSPHERE: WeightFormula.HYP_HALFSPACE,
    SupportKind.EQUIDISTANT: WeightFormula.HYP_HALFSPACE,
    SupportKind.HYP_GEODESIC_PLANE: WeightFormula.HYP_HALFSPACE,
    SupportKind.SPH_GEODESIC_SPHERE: WeightFormula.SPH_GEODESIC_BALL,
    SupportKind.SPH_HYPERPLANE: WeightFormula.SPH_HYPERPLANE,
}


@dataclass(frozen=True)
class WeightField:
    """A static weight V on a space-form model, with exact flat derivatives.  Each
    method takes points x or an ``ambient.Radial`` of them, whose |x|^2 and
    1 / (1 + K|x|^2) the model's phi reads too."""

    model: SpaceFormModel
    formula: WeightFormula

    def value(self, x: np.ndarray | Radial) -> np.ndarray:
        r = radial(x)
        x, f = r.x, self.formula
        if f is WeightFormula.EUCLID_XN:
            return x[-1].copy()
        if f is WeightFormula.EUCLID_ONE:
            return np.ones(x.shape[1:])
        if f is WeightFormula.HYP_HALFSPACE:
            return 1.0 / x[-1]
        if f in _BALL:
            return 2.0 * x[-1] / r.denominator(self.model.K)
        return (1.0 - r.sq) / r.denominator(1.0)

    def euclidean_gradient(self, x: np.ndarray | Radial) -> np.ndarray:
        r = radial(x)
        x, f = r.x, self.formula
        if f is WeightFormula.EUCLID_XN:
            g = np.zeros_like(x)
            g[-1] = 1.0
            return g
        if f is WeightFormula.EUCLID_ONE:
            return np.zeros_like(x)
        if f is WeightFormula.HYP_HALFSPACE:
            g = np.zeros_like(x)
            g[-1] = -1.0 / x[-1] ** 2
            return g
        if f in _BALL:
            K = self.model.K
            w = r.reciprocal(K)
            g = x * (-4.0 * K * x[-1])
            g *= w * w
            g[-1] += 2.0 * w
            return g
        u = r.reciprocal(1.0)
        g = -4.0 * x
        g *= u * u
        return g

    def euclidean_hessian(self, x: np.ndarray | Radial) -> np.ndarray:
        r = radial(x)
        x, f = r.x, self.formula
        if f in (WeightFormula.EUCLID_XN, WeightFormula.EUCLID_ONE, WeightFormula.HYP_HALFSPACE):
            h = np.zeros(x.shape[:1] + x.shape)
            if f is WeightFormula.HYP_HALFSPACE:
                h[-1, -1] = 2.0 / x[-1] ** 3
            return h
        # (c x) x^T into every entry, then the e_n row and column and the diagonal as
        # row updates
        h = np.empty(x.shape[:1] + x.shape)
        if f in _BALL:
            K, xn = self.model.K, x[-1]
            w = r.reciprocal(K)
            np.multiply((16.0 * xn * w ** 3) * x[:, None], x[None, :], out=h)
            scale = -4.0 * K * w * w
            edge, diag = scale * x, scale * xn
            h[-1] += edge
            h[:, -1] += edge
        else:
            u = r.reciprocal(1.0)
            np.multiply((16.0 * u ** 3) * x[:, None], x[None, :], out=h)
            diag = -4.0 * u * u
        for i in range(x.shape[0]):
            h[i, i] += diag
        return h

    def directional(self, x: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """dV applied to a chart-component vector (metric-free pairing)."""
        return np.sum(self.euclidean_gradient(x) * direction, axis=0)


def weight_for_support(s: SupportSpec) -> WeightField:
    """The statically paired weight for a support case (no overrides exist)."""
    return WeightField(model=s.model, formula=_BINDING[s.kind])


# -- the free-boundary Minkowski field -------------------------------------------


def _conformal(w: WeightField, x: np.ndarray) -> np.ndarray:
    """V's conformal field X = -grad V / K = -exp(-2 phi) grad_flat V / K, where K != 0."""
    return w.euclidean_gradient(x) * (-np.exp(-2.0 * w.model.phi(x)) / w.model.K)


def _geodesic_sphere_field(w: WeightField, s: SupportSpec, anchor: np.ndarray,
                           x: np.ndarray) -> np.ndarray:
    """X + c B on the sphere |x| = rho of the ball or the sphere model: B = (1 - K|x|^2)/2
    e_n + K x_n x is Killing, and c = K (1 - K rho^2) / (1 + K rho^2) cancels X's normal
    part on the support."""
    K, rho2 = w.model.K, s.shape.radius ** 2
    killing = K * x[-1] * x
    killing[-1] += 0.5 * (1.0 - K * np.sum(x * x, axis=0))
    return _conformal(w, x) + (K * (1.0 - K * rho2) / (1.0 + K * rho2)) * killing


def _euclidean_sphere_field(w: WeightField, s: SupportSpec, anchor: np.ndarray,
                            x: np.ndarray) -> np.ndarray:
    """x_n x - (|x|^2 + R^2)/2 e_n: V = x_n's conformal field plus a translation."""
    field = x[-1] * x
    field[-1] -= 0.5 * (np.sum(x * x, axis=0) + s.shape.radius ** 2)
    return field


def _anchored_field(w: WeightField, s: SupportSpec, anchor: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """(x - p) / p_n in the half space, p a point of the support plane: V = 1/x_n's
    conformal field -e_n plus the Killing field (x - p') / p_n, a dilation and a
    horizontal translation, p' = p - p_n e_n.  Centered at the face's anchor, the cap
    integrand is as accurate as the region cone; the uncentered x - e_n and -e_n read
    up to ten times its error at level 16 and 24."""
    return (x - anchor[:, None]) / anchor[-1]


# X_a = X + a Killing field, X V's conformal field (L_X gbar = 2 V gbar, so div X = n V),
# with X_a tangent to the support S along S
_MINKOWSKI_FIELD = {
    SupportKind.EUCLIDEAN_SPHERE: _euclidean_sphere_field,
    SupportKind.EUCLIDEAN_PLANE: lambda w, s, anchor, x: x.copy(),
    SupportKind.HYP_GEODESIC_SPHERE: _geodesic_sphere_field,
    SupportKind.HOROSPHERE: _anchored_field,
    SupportKind.EQUIDISTANT: _anchored_field,
    SupportKind.HYP_GEODESIC_PLANE: _anchored_field,
    SupportKind.SPH_GEODESIC_SPHERE: _geodesic_sphere_field,
    SupportKind.SPH_HYPERPLANE: lambda w, s, anchor, x: _conformal(w, x),
}


def minkowski_field(s: SupportSpec, anchor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X_a at points x (n, m), chart components: the conformal field of s's weight V
    plus a Killing field, tangent to S along S.  So <X_a, nu> vanishes on the support
    face, and n int_Omega V = int_Sigma <X_a, nu> over the cap alone, nu Omega's outward
    normal.  ``anchor`` is the face chart's center: the half-space fields, and only
    they, read it, a point of the support plane there."""
    x = np.asarray(x, dtype=float)
    return _MINKOWSKI_FIELD[s.kind](weight_for_support(s), s, np.asarray(anchor, dtype=float), x)


def jet(model: SpaceFormModel, x: np.ndarray, fn) -> tuple[np.ndarray, ...]:
    """Value, flat gradient and Hessian, covariant Hessian and ambient Laplacian at x
    of ``fn``: a ``WeightField`` or anything with its three flat-derivative methods."""
    d1, d2, dphi = fn.euclidean_gradient(x), fn.euclidean_hessian(x), model.phi_grad(x)
    return (fn.value(x), d1, d2, ambient.covariant_hessian(model, x, d1, d2, dphi),
            ambient.ambient_laplacian(model, x, d1, d2, dphi))


# -- identity residuals --------------------------------------------------------


def hessian_identity_residual(w: WeightField, points: np.ndarray) -> float:
    """max-abs chart components of Hess V + K V gbar over the given points (m, n)."""
    x = np.asarray(points, dtype=float).T
    value, _, _, hess, _ = jet(w.model, x, w)
    res = hess + w.model.K * value * ambient.metric_at(w.model, x)
    return float(np.max(np.abs(res)))


def neumann_identity_residual(w: WeightField, s: SupportSpec,
                              points: np.ndarray) -> float:
    """max |dV(N) - kappa V| over points (m, n) on S, N the outward gbar-unit normal."""
    x = np.asarray(points, dtype=float).T
    res = w.directional(x, s.outward_normal(x)) - s.kappa * w.value(x)
    return float(np.max(np.abs(res)))
