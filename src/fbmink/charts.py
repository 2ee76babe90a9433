"""Parametric charts with exact first and second derivatives.

The surface engine consumes charts through a single batched interface:
``evaluate(U)`` maps parameter points (m, k), the rows ``QuadratureRule.grid``
returns, to node-last arrays: positions X (n, m), Jacobians J (n, k, m) and
second derivatives H (k, k, n, m), so J[i, a] and H[a, b, i] are contiguous
rows over the m nodes.  Each chart also carries its ``dim``, parameter box
``domain``, ``boundary_axes`` and an orienting ``normal_hint(U, X)`` (n, m).
Everything downstream (fundamental forms, quadrature, the Reilly terms)
differentiates nothing itself, so charts are the only place derivative
bookkeeping lives.

Spherical caps use standard polar coordinates on S^{n-1}: with angles
theta_0..theta_{q-1} (q = n-1) the unit vector has components

    c_j = prod_{a<j} sin(theta_a) * (cos(theta_j) if j < q else 1),

a pure product of single-angle factors F_a, so first and second derivatives
follow from the product rule with no quotients (safe at small angles): a
derivative swaps each factor it differentiates for that factor's derivative
and keeps the rest, and since F_a'' = -F_a, the second derivative on the
diagonal is -F_a times the rest.  The rest multiply in angle order from
ones, one (m,) row at a time, and the embedding's derivatives come out in the
layouts of J and H, so a chart maps them to its frame with one matrix product
per (m,)-long block.  The bump profile and ``conformal_scale`` are node-last
too: a value (m,), a gradient (k, m) and a Hessian (k, k, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def sphere_embedding(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Polar coordinates on S^q embedded in R^{q+1}, with two derivatives.

    Parameters: angles (m, q).  Returns (c, dc, d2c) node-last, in the layouts of
    a chart's X, J and H: (q+1, m), (q+1, q, m) and (q, q, q+1, m).
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    m, q = angles.shape
    sin, cos = np.ascontiguousarray(np.sin(angles).T), np.ascontiguousarray(np.cos(angles).T)

    def rest(factors: list, skip: tuple = ()) -> np.ndarray:
        # the factors not skipped, multiplied in angle order starting from ones
        out = np.ones(m)
        for a, f in enumerate(factors):
            if a not in skip:
                out *= f
        return out

    c = np.empty((q + 1, m))
    dc = np.zeros((q + 1, q, m))
    d2c = np.zeros((q, q, q + 1, m))
    for j in range(q + 1):
        # component j: sin(theta_a) for a < j, then cos(theta_j) when j < q
        F = [*sin[:j], cos[j]] if j < q else list(sin)
        F1 = [*cos[:j], -sin[j]] if j < q else list(cos)
        c[j] = rest(F)
        for a in range(len(F)):
            others = rest(F, (a,))
            dc[j, a] = F1[a] * others
            d2c[a, a, j] = -F[a] * others
            for b in range(a + 1, len(F)):
                d2c[a, b, j] = d2c[b, a, j] = F1[a] * F1[b] * rest(F, (a, b))
    return c, dc, d2c


def _framed(frame: np.ndarray, c, dc, d2c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sphere_embedding``'s (c, dc, d2c) carried into R^n by the columns of
    ``frame`` (n, q+1), one matrix product per block, H's symmetric blocks once."""
    q, m = dc.shape[1:]
    n = frame.shape[0]
    X = frame @ c
    J = (frame @ dc.reshape(q + 1, q * m)).reshape(n, q, m)
    H = np.empty((q, q, n, m))
    for a in range(q):
        for b in range(a, q):
            H[a, b] = frame @ d2c[a, b]
            H[b, a] = H[a, b]
    return X, J, H


def full_sphere_box(q: int) -> list[tuple[float, float]]:
    """Angle box covering all of S^q: q-1 colatitudes in [0,pi], one in [0,2pi]."""
    if q == 0:
        return []
    return [(0.0, math.pi)] * (q - 1) + [(0.0, 2.0 * math.pi)]


def sphere_param_box(q: int, t_min: float, t_max: float) -> list[tuple[float, float]]:
    """Parameter box for a polar cap of S^q: restricted polar angle, rest full.  On
    the circle (q = 1) a cap about the axis (t_min = 0) is the arc [-t_max, t_max]."""
    if q == 1 and t_min == 0.0:
        return [(-t_max, t_max)]
    return [(t_min, t_max)] + full_sphere_box(q - 1)


@dataclass
class SphericalCapChart:
    """Cap of a Euclidean sphere: center + radius * omega(angles).

    ``frame`` has orthonormal columns, the first being the polar axis.  The
    cap spans polar angles [t_min, t_max] (an arc about the axis, [-t_max,
    t_max]); when used as a free-boundary surface the face t = t_max (both
    ends of an arc) is the ring on the support.
    """

    center: np.ndarray
    radius: float
    frame: np.ndarray          # (n, n), columns orthonormal, frame[:, 0] = axis
    t_max: float
    t_min: float = 0.0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.frame = np.asarray(self.frame, dtype=float)
        self.dim = self.center.shape[0] - 1
        self.domain = sphere_param_box(self.dim, self.t_min, self.t_max)
        self.boundary_axes = [0]

    def evaluate(self, U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        X, J, H = _framed(self.radius * self.frame, *sphere_embedding(U))
        return self.center[:, None] + X, J, H

    def normal_hint(self, U, X):
        return X - self.center[:, None]


def axis_frame(axis: np.ndarray) -> np.ndarray:
    """Orthonormal frame whose first column is the given unit axis."""
    axis = np.asarray(axis, dtype=float)
    n = axis.shape[0]
    cols = [axis / np.linalg.norm(axis)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        v = e.copy()
        for _ in range(2):   # a second pass where the first cancelled most of e
            for b in cols:
                v -= np.dot(v, b) * b
            nv = np.linalg.norm(v)
            if nv >= 0.5 ** 0.5:
                break
        if nv > 1e-8:
            cols.append(v / nv)
        if len(cols) == n:
            break
    return np.stack(cols, axis=1)


@dataclass
class RadialBumpProfile:
    """Rotationally symmetric bump p(t) = (1 - (t/t_max)^2)^power.

    Vanishes together with its first and second derivative at t = t_max for
    power >= 3, so the perturbed cap keeps its boundary ring, the free
    boundary angle, and the boundary second fundamental form exactly.
    """

    t_max: float
    power: int = 3

    def value(self, U):
        """p (m,) at parameter points U (m, k)."""
        return self._base(np.atleast_2d(np.asarray(U, dtype=float))[:, 0]) ** self.power

    def _base(self, t):
        # t_max squared as t is, so 1 - t^2 / t_max^2 is exactly 0 at t = t_max
        return 1.0 - t * t / (self.t_max * self.t_max)

    def evaluate(self, U):
        """p (m,), its gradient (k, m) and its Hessian (k, k, m) at parameter points U (m, k)."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m, q = U.shape
        t = U[:, 0]
        tm2 = self.t_max * self.t_max
        base = self._base(t)
        p = self.value(U)
        dp = np.zeros((q, m))
        dp[0] = self.power * base ** (self.power - 1) * (-2.0 * t / tm2)
        d2p = np.zeros((q, q, m))
        d2p[0, 0] = (self.power * (self.power - 1) * base ** (self.power - 2)
                     * (4.0 * t * t / tm2 ** 2)
                     - self.power * base ** (self.power - 1) * 2.0 / tm2)
        return p, dp, d2p


def conformal_scale(model, X, J, H) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s = exp(-phi(X)) (m,) and its first (k, m) and second (k, k, m) chart
    derivatives, from the chart values (X, J, H); with them, the terms of a normal
    perturbation free of epsilon.  Each contraction sums over the n coordinates."""
    n = X.shape[0]
    phi, dphi, d2phi = model.phi(X), model.phi_grad(X), model.phi_hess(X)
    s = np.exp(-phi)                                  # conformal unit scale
    # chain rule for s(X(u)): ds_a = -s <dphi, J_a>
    dphi_J = sum(dphi[i] * J[i] for i in range(n))
    ds = -s * dphi_J
    # d2s_ab = s (dphi_J_a dphi_J_b - <dphi, H_ab> - J_a^T d2phi J_b)
    dphi_H = sum(dphi[i] * H[:, :, i] for i in range(n))
    d2phi_J = [sum(d2phi[i, j] * J[i] for i in range(n)) for j in range(n)]
    JdJ = sum(J[j][:, None] * d2phi_J[j] for j in range(n))
    d2s = s * (dphi_J[:, None] * dphi_J - dphi_H - JdJ)
    return s, ds, d2s


@dataclass
class PerturbedCapChart:
    """Cap displaced along its gbar-unit normal by epsilon * profile.

    The base cap's chart normal is exp(-phi(X)) * (X - center)/radius, which
    is radial from the cap center, so the perturbed surface stays a radial
    graph about that center and all derivatives remain closed-form.  ``model``
    supplies phi and its two derivative tensors.
    """

    base: SphericalCapChart
    model: object              # SpaceFormModel
    epsilon: float
    profile: RadialBumpProfile

    def __post_init__(self):
        self.dim = self.base.dim
        self.domain = self.base.domain
        self.boundary_axes = self.base.boundary_axes

    def evaluate(self, U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        X, J, H = self.base.evaluate(U)
        return self.displace(U, (X, J, H, *conformal_scale(self.model, X, J, H)))

    def displace(self, U, terms):
        """The chart values at U from the base cap's epsilon-free terms (X, J, H, s, ds,
        d2s) there: ``displace_caps`` of this one epsilon."""
        return displace_caps(self.base, self.profile, (self.epsilon,), U, terms)

    def normal_hint(self, U, X):
        return X - self.base.center[:, None]


def displace_caps(base: SphericalCapChart, profile: RadialBumpProfile, epsilons, U, terms):
    """The chart values (X, J, H) at U of each cap that displaces ``base`` along its
    gbar-unit normal by epsilon times ``profile``, from the base's epsilon-free terms
    (X, J, H, s, ds, d2s) there.  The E epsilons stack on the node axis, the m nodes of
    each in turn: (n, E m), (n, k, E m) and (k, k, n, E m).  Only the bump, the
    amplitude and the displacement are formed here, node by node, so each epsilon's
    values are the bits of its cap alone (E = 1, ``PerturbedCapChart.displace``)."""
    # an epsilon axis before the node axis: each term (..., 1, m), the epsilons (E, 1)
    X, J, H, s, ds, d2s = (t[..., None, :] for t in terms)
    p, dp, d2p = (t[..., None, :] for t in profile.evaluate(U))
    eps = np.asarray(epsilons, dtype=float)[:, None]

    # amplitude A(u) = eps/r * p(u) * s(u); X_eps = X + A (X - center)
    r = base.radius
    A = (eps / r) * p * s
    dA = (eps / r) * (dp * s + p * ds)
    d2A = (eps / r) * (d2p * s + dp[:, None] * ds + ds[:, None] * dp + p * d2s)

    Q = X - base.center[:, None, None]
    Xp = X + A * Q
    Jp = J * (1.0 + A) + Q[:, None] * dA
    Jt = J.swapaxes(0, 1)              # (k, n, 1, m): rows are d_a X
    Hp = (H * (1.0 + A)
          + dA[:, None, None] * Jt
          + dA[None, :, None] * Jt[:, None]
          + d2A[:, :, None] * Q)
    nodes = A.size
    return (Xp.reshape(*Xp.shape[:-2], nodes), Jp.reshape(*Jp.shape[:-2], nodes),
            Hp.reshape(*Hp.shape[:-2], nodes))


@dataclass
class PolarPlanarChart:
    """Polar patch of a hyperplane: center + s * (in-plane unit direction).

    Parameters are (s, sphere angles of S^{n-2}); for n = 3 that is (s, psi).
    ``hint`` fixes the orientation of the constant plane normal.
    """

    center: np.ndarray
    plane_frame: np.ndarray    # (n, n-1), orthonormal columns spanning the plane
    radius: float
    hint: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.plane_frame = np.asarray(self.plane_frame, dtype=float)
        self.hint = np.asarray(self.hint, dtype=float)
        n = self.center.shape[0]
        if n < 3:
            raise ValueError("polar planar patches need ambient dimension >= 3")
        self.dim = n - 1
        self.domain = [(0.0, self.radius)] + full_sphere_box(n - 2)
        self.boundary_axes = [0]

    def evaluate(self, U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m, k = U.shape
        s = U[:, 0].copy()
        # the unit in-plane direction w on S^{n-2} and its angle derivatives
        w, dw, d2w = _framed(self.plane_frame, *sphere_embedding(U[:, 1:]))
        X = self.center[:, None] + s * w
        J = np.empty((self.center.shape[0], k, m))
        J[:, 0] = w
        J[:, 1:] = s * dw
        H = np.zeros((k, k) + w.shape)
        H[0, 1:] = H[1:, 0] = dw.swapaxes(0, 1)
        H[1:, 1:] = s * d2w
        return X, J, H

    def normal_hint(self, U, X):
        return np.broadcast_to(self.hint[:, None], X.shape).copy()


@dataclass
class PlanarBoxChart:
    """Affine box patch of a hyperplane (used for umbilicity certification)."""

    origin: np.ndarray
    plane_frame: np.ndarray    # (n, n-1) orthonormal columns
    extent: float
    hint: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.plane_frame = np.asarray(self.plane_frame, dtype=float)
        self.hint = np.asarray(self.hint, dtype=float)
        self.dim = self.origin.shape[0] - 1
        self.domain = [(-self.extent, self.extent)] * self.dim
        self.boundary_axes = []

    def evaluate(self, U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m, k = U.shape
        X = self.origin[:, None] + np.einsum("ia,ma->im", self.plane_frame, U)
        J = np.repeat(self.plane_frame[:, :, None], m, axis=2)
        H = np.zeros((k, k, self.origin.shape[0], m))
        return X, J, H

    def normal_hint(self, U, X):
        return np.broadcast_to(self.hint[:, None], X.shape).copy()
