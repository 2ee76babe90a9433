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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import ambient
from .ambient import SpaceFormModel
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
    """A static weight V on a space-form model, with exact flat derivatives."""

    model: SpaceFormModel
    formula: WeightFormula

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = self.formula
        if f is WeightFormula.EUCLID_XN:
            return x[-1].copy()
        if f is WeightFormula.EUCLID_ONE:
            return np.ones(x.shape[1:])
        if f is WeightFormula.HYP_HALFSPACE:
            return 1.0 / x[-1]
        if f in _BALL:
            return 2.0 * x[-1] / (1.0 + self.model.K * np.sum(x * x, axis=0))
        r2 = np.sum(x * x, axis=0)
        return (1.0 - r2) / (1.0 + r2)

    def euclidean_gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = self.formula
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
            w = 1.0 / (1.0 + K * np.sum(x * x, axis=0))
            g = -4.0 * K * x[-1] * x * (w * w)
            g[-1] += 2.0 * w
            return g
        u = 1.0 / (1.0 + np.sum(x * x, axis=0))
        return -4.0 * x * (u * u)

    def euclidean_hessian(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = self.formula
        h = np.zeros(x.shape[:1] + x.shape)
        if f is WeightFormula.HYP_HALFSPACE:
            h[-1, -1] = 2.0 / x[-1] ** 3
        if f in (WeightFormula.EUCLID_XN, WeightFormula.EUCLID_ONE, WeightFormula.HYP_HALFSPACE):
            return h
        # (c x) x^T once, then the e_n row and column and the diagonal as row updates
        if f in _BALL:
            K, xn = self.model.K, x[-1]
            w = 1.0 / (1.0 + K * np.sum(x * x, axis=0))
            np.multiply((16.0 * xn * w ** 3) * x[:, None], x[None, :], out=h)
            scale = -4.0 * K * w * w
            edge, diag = scale * x, scale * xn
            h[-1] += edge
            h[:, -1] += edge
        else:
            u = 1.0 / (1.0 + np.sum(x * x, axis=0))
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
    x = np.asarray(points, dtype=float)
    nbar = s.outward_normal(x)
    res = w.directional(x.T, nbar.T) - s.kappa * w.value(x.T)
    return float(np.max(np.abs(res)))
