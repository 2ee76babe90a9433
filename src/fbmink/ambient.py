"""Conformal coordinate models of the simply connected space forms.

Each model presents the metric as ``gbar = exp(2*phi) * delta`` on an open
subset of R^n, with ``phi`` given in closed form:

* Euclidean space:          phi = 0                 on R^n,        K = 0
* Poincare ball:            phi = log(2/(1-|x|^2))  on |x| < 1,    K = -1
* upper half space:         phi = -log(x_n)         on x_n > 0,    K = -1
* stereographic sphere:     phi = log(2/(1+|x|^2))  on R^n,        K = +1

The ball and the sphere are one stereographic family,
phi = log 2 - log(1 + K|x|^2), and share one branch in K.  Multiplying by
K = +-1 is exact, so that branch gives the bits of one formula per model.

All geometric raw material downstream (Christoffel symbols, covariant
Hessians, normals, curvature probes) is assembled from ``phi`` and its first
two derivatives, which are exact here.  Points are node-last: (n,) for one
point, (n, m) for m points; tensors at them put their index axes first, e.g.
(n, n, m) for a Hessian, so every formula runs over long rows of nodes.
The curvature probe follows the same rule: one call on (n, m) points and
vectors returns (m,) curvatures, one call on (n,) ones a float.
``christoffel_apply`` alone contracts vectors along their last axis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlane, PointOutsideChart

# Open-domain membership slack: points this close to the chart boundary are
# treated as outside, since conformal factors blow up there.
CHART_MEMBERSHIP_TOL = 1e-12

# Finite-difference step of the sectional curvature probe.
PROBE_STEP = 1e-4


class ModelKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    POINCARE_BALL = "poincare_ball"
    UPPER_HALF_SPACE = "upper_half_space"
    SPHERE_STEREOGRAPHIC = "sphere_stereographic"


_SECTIONAL = {
    ModelKind.EUCLIDEAN: 0.0,
    ModelKind.POINCARE_BALL: -1.0,
    ModelKind.UPPER_HALF_SPACE: -1.0,
    ModelKind.SPHERE_STEREOGRAPHIC: 1.0,
}


@dataclass(frozen=True)
class SpaceFormModel:
    """A space form of curvature K presented as a conformal chart on R^n."""

    kind: ModelKind
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"ambient dimension must be at least 2, got {self.n}")

    @property
    def K(self) -> float:
        return _SECTIONAL[self.kind]

    # -- chart domain -------------------------------------------------------

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the open chart domain."""
        x = np.asarray(x, dtype=float)
        if self.kind is ModelKind.POINCARE_BALL:
            return np.sum(x * x, axis=0) < 1.0 - CHART_MEMBERSHIP_TOL
        if self.kind is ModelKind.UPPER_HALF_SPACE:
            return x[-1] > CHART_MEMBERSHIP_TOL
        return np.ones(x.shape[1:], dtype=bool)

    def require_inside(self, x: np.ndarray) -> None:
        ok = self.contains(x)
        if not np.all(ok):
            bad = np.reshape(np.asarray(x, dtype=float), (self.n, -1))[:, ~np.ravel(ok)][:, 0]
            raise PointOutsideChart(
                f"point {bad.tolist()} is outside the {self.kind.value} chart domain"
            )

    # -- conformal factor and its derivatives -------------------------------

    def phi(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind is ModelKind.EUCLIDEAN:
            return np.zeros(x.shape[1:])
        if self.kind is ModelKind.UPPER_HALF_SPACE:
            return -np.log(x[-1])
        return np.log(2.0) - np.log1p(self.K * np.sum(x * x, axis=0))

    def phi_grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind is ModelKind.EUCLIDEAN:
            return np.zeros_like(x)
        if self.kind is ModelKind.UPPER_HALF_SPACE:
            g = np.zeros_like(x)
            g[-1] = -1.0 / x[-1]
            return g
        K = self.K
        w = 1.0 / (1.0 + K * np.sum(x * x, axis=0))
        return -2.0 * K * x * w

    def phi_hess(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        eye = batch_eye(x)
        if self.kind is ModelKind.EUCLIDEAN:
            return np.zeros(x.shape[:1] + x.shape)
        if self.kind is ModelKind.UPPER_HALF_SPACE:
            h = np.zeros(x.shape[:1] + x.shape)
            h[-1, -1] = 1.0 / x[-1] ** 2
            return h
        K = self.K
        w = 1.0 / (1.0 + K * np.sum(x * x, axis=0))
        return -2.0 * K * w * eye + 4.0 * (w * w) * (x[:, None] * x[None, :])

    def conformal_factor(self, x: np.ndarray) -> np.ndarray:
        """The factor exp(2*phi) multiplying the flat metric."""
        return np.exp(2.0 * self.phi(x))


def euclidean(n: int) -> SpaceFormModel:
    return SpaceFormModel(ModelKind.EUCLIDEAN, n)


def poincare_ball(n: int) -> SpaceFormModel:
    return SpaceFormModel(ModelKind.POINCARE_BALL, n)


def upper_half_space(n: int) -> SpaceFormModel:
    return SpaceFormModel(ModelKind.UPPER_HALF_SPACE, n)


def sphere_stereographic(n: int) -> SpaceFormModel:
    return SpaceFormModel(ModelKind.SPHERE_STEREOGRAPHIC, n)


# -- metric-level helpers ----------------------------------------------------


def batch_eye(x: np.ndarray) -> np.ndarray:
    """The identity matrix with one unit axis per batch axis of the points x,
    so that it broadcasts against (n, n, m) tensors at them."""
    x = np.asarray(x)
    return np.eye(x.shape[0]).reshape(x.shape[:1] * 2 + (1,) * (x.ndim - 1))


def metric_at(model: SpaceFormModel, x: np.ndarray) -> np.ndarray:
    """Matrix of gbar at x, i.e. exp(2*phi) * identity."""
    model.require_inside(x)
    return model.conformal_factor(x) * batch_eye(x)


def christoffels_at(model: SpaceFormModel, x: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[k, i, j] of gbar at x.

    For a conformal metric these reduce to
    ``Gamma^k_ij = d_ik dphi_j + d_jk dphi_i - d_ij dphi_k``.
    Batched input (n, m) yields shape (n, n, n, m).
    """
    model.require_inside(x)
    dphi = model.phi_grad(x)
    eye = batch_eye(x)
    term1 = eye[:, :, None] * dphi[None, None, :]   # d_ki * dphi_j
    term2 = eye[:, None, :] * dphi[None, :, None]   # d_kj * dphi_i
    term3 = eye[None, :, :] * dphi[:, None, None]   # d_ij * dphi_k
    return term1 + term2 - term3


def christoffel_apply(dphi: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gamma(u, v) contracted in closed form, avoiding the full n^3 array.

    ``Gamma(u,v)^k = u^k (dphi.v) + v^k (dphi.u) - <u,v> dphi^k`` where dots
    are Euclidean.  Shapes broadcast over leading axes.
    """
    du = np.sum(dphi * v, axis=-1)[..., None]
    dv = np.sum(dphi * u, axis=-1)[..., None]
    uv = np.sum(u * v, axis=-1)[..., None]
    return u * du + v * dv - uv * dphi


def ambient_inner(model: SpaceFormModel, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """gbar(u, v) at x for chart-component vectors u, v."""
    model.require_inside(x)
    return model.conformal_factor(x) * np.sum(np.asarray(u, float) * np.asarray(v, float), axis=0)


def covariant_hessian(model: SpaceFormModel, x: np.ndarray, grad_euclidean: np.ndarray,
                      hess_euclidean: np.ndarray, dphi: np.ndarray | None = None) -> np.ndarray:
    """Covariant Hessian of a scalar from its flat derivatives (``dphi``: phi_grad at x).

    ``Hess f_ij = d2f_ij - Gamma^k_ij df_k``; the Christoffel contraction is
    expanded in closed form for the conformal metric.
    """
    dphi = model.phi_grad(x) if dphi is None else dphi
    df = np.asarray(grad_euclidean, float)
    d2f = np.asarray(hess_euclidean, float)
    # Gamma^k_ij df_k = dphi_i df_j + dphi_j df_i - d_ij <dphi, df>; the d_ij term
    # touches only the diagonal, whose entries are contiguous rows of nodes
    outer = dphi[:, None] * df[None, :]
    hess = d2f - (outer + np.swapaxes(outer, 0, 1))
    dot = np.sum(dphi * df, axis=0)
    for i in range(model.n):
        hess[i, i] += dot
    return hess


def add_axis_hessian(hess: np.ndarray, dphi: np.ndarray, i: int, slope, second: float):
    """Add onto ``hess`` (n, n, m) the covariant Hessian of a function of x_i alone,
    whose flat gradient is ``slope`` e_i and flat Hessian ``second`` e_i e_i^T, and
    return the flat trace of what was added, which exp(-2 phi) turns into its Laplacian.

    With df = slope e_i, ``Gamma^k_jl df_k`` touches only row i, column i and the
    diagonal, so the (n, n, m) terms of ``covariant_hessian`` are never formed.
    """
    term = slope * dphi
    hess[:, i] -= term
    hess[i] -= term
    for j in range(hess.shape[0]):
        hess[j, j] += term[i]
    hess[i, i] += second
    return second + (hess.shape[0] - 2.0) * term[i]


def ambient_laplacian(model: SpaceFormModel, x: np.ndarray, grad_euclidean: np.ndarray,
                      hess_euclidean: np.ndarray, dphi: np.ndarray | None = None) -> np.ndarray:
    """Laplace-Beltrami value from flat derivatives (``dphi``: phi_grad at x).

    For gbar = exp(2 phi) delta in dimension n,
    ``lap f = exp(-2 phi) (lap_delta f + (n-2) <dphi, df>)``.
    """
    dphi = model.phi_grad(x) if dphi is None else dphi
    lap_flat = np.trace(np.asarray(hess_euclidean, float), axis1=0, axis2=1)
    drift = np.sum(dphi * grad_euclidean, axis=0)
    return np.exp(-2.0 * model.phi(x)) * (lap_flat + (model.n - 2.0) * drift)


# -- curvature probe ---------------------------------------------------------


def _riemann_up(model: SpaceFormModel, x: np.ndarray, step: float) -> np.ndarray:
    """R[l, k, i, j, ...] with R(e_i, e_j) e_k = R[l,k,i,j] e_l, by differencing Gamma.

    Central differences at two step sizes Richardson-combined to O(step^4),
    over the whole batch of points x, (n,) or (n, m), at once.
    """
    n = model.n
    batch = tuple(range(4, 3 + x.ndim))

    def dgamma(h: float) -> np.ndarray:
        out = np.empty((n,) * 3 + x.shape)  # out[i, l, j, k, ...] = d_i Gamma^l_jk
        for i in range(n):
            e = np.zeros(x.shape[:1] + (1,) * (x.ndim - 1))
            e[i] = h
            out[i] = (christoffels_at(model, x + e) - christoffels_at(model, x - e)) / (2.0 * h)
        return out

    d1 = dgamma(step)
    d2 = dgamma(step / 2.0)
    dg = (4.0 * d2 - d1) / 3.0

    gam = christoffels_at(model, x)
    term = np.einsum("lim...,mjk...->lkij...", gam, gam)
    r = (np.transpose(dg, (1, 3, 0, 2) + batch)        # d_i Gamma^l_jk -> [l,k,i,j]
         - np.transpose(dg, (1, 3, 2, 0) + batch)      # d_j Gamma^l_ik
         + term
         - np.transpose(term, (0, 1, 3, 2) + batch))
    return r


def sectional_curvature_probe(model: SpaceFormModel, x: np.ndarray,
                              u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Numeric sectional curvature of span(u, v) at x.

    The curvature tensor is assembled from finite differences of the exact
    Christoffel symbols, so this is an oracle for the model's constant K
    rather than a restatement of it.  x, u and v are node-last, (n,) for one
    probe or (n, m) for m probes; the result is a float for one probe and
    an (m,) array for a batch.
    """
    model.require_inside(x)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    guu = ambient_inner(model, x, u, u)
    gvv = ambient_inner(model, x, v, v)
    guv = ambient_inner(model, x, u, v)
    denom = guu * gvv - guv * guv
    bad = np.ravel(denom <= 1e-12 * np.maximum(guu * gvv, 1e-300))
    if np.any(bad):
        j = int(np.argmax(bad))
        where = f"probe {j} of {bad.size}, " if x.ndim > 1 else ""
        raise DegeneratePlane(f"probe vectors are gbar-parallel or null at {where}"
                              f"x = {np.reshape(x, (model.n, -1))[:, j].tolist()}")
    r = _riemann_up(model, x, PROBE_STEP)
    z = np.einsum("lkij...,i...,j...,k...->l...", r, u, v, v)
    k = ambient_inner(model, x, z, u) / denom
    return float(k) if x.ndim == 1 else k
