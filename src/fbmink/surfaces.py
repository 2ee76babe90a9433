"""Immersed hypersurface geometry in a conformal space-form chart.

The engine evaluates, on batches of parameter points: induced metric,
gbar-unit normal, second fundamental form, mean and intrinsic curvature, and
the boundary quantities of free-boundary surfaces (conormal, orthogonality
against the support, principal-direction residual).

Sign convention for the second fundamental form:

    h_ab = -gbar( d2X_ab + Gamma(d_aX, d_bX), nu )

which makes H = (n-1)/r > 0 for the Euclidean r-sphere with outward normal.
Tangent vectors are Euclidean-orthogonal to nu, so of the conformal
Gamma(u, v) = u <dphi, v> + v <dphi, u> - <u, v> dphi only the last term
survives: h_ab = -e^{phi} (<d2X_ab, nu_delta> - <d_aX, d_bX> <dphi, nu_delta>).
The Euclidean unit normal nu_delta is the normalized cross product w of the
Jacobian columns; by Cauchy-Binet det g = e^{2 k phi} |w|^2 (k = n-1).  g is
factored once, g = L L^T, the geometry keeps L^{-1}, and g^{-1} = L^{-T} L^{-1}.
The shape operator is stored as ``SurfaceGeometry.shape``, in one convention

    S[a, b] = S^a_b = g^{ac} h_cb.

Every curvature quantity reads it (H = tr S, |h|^2 = tr S^2, the Ricci
endomorphism of the Gauss equation), and so does the Weingarten relation in
chart components,

    d_a nu = S^b_a d_bX - Gamma(d_aX, nu),
    Gamma(d_aX, nu) = d_aX <dphi, nu> + nu <dphi, d_aX>,

used wherever exact normal derivatives are needed.  The index order matters:
g and h commute only where the cap is umbilical or symmetric about the
conformal factor.  Principal curvatures are the eigenvalues of the symmetric
L^{-1} h L^{-T}, from the same factor, and never form S.

Every per-node array is node-last, from the chart's X (n, m), J (n, k, m) and
H (k, k, n, m) up: a vector is (n, m), a tensor in the k parameter indices
(k, k, m), the normal derivatives (k, n, m).  Only the parameter points U stay
(m, k) rows.  Every contraction is a sum over the small index of products of
contiguous (m,)-long rows, and L and L^{-1} come from the Cholesky recurrence
and forward substitution written out over those rows, and the principal
curvatures from cyclic Jacobi rotations on them, so no small-matrix routine
runs once per node and no LAPACK routine runs at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambient import ModelKind, SpaceFormModel
from .errors import DegenerateImmersion, NoBoundary, WeightNonpositive
from .supports import SupportSpec, SphereShape, plane_anchor
from .charts import PlanarBoxChart, SphericalCapChart, axis_frame

DEGENERACY_FLOOR = 1e-12   # det(g) below this aborts with DegenerateImmersion
JACOBI_TOLERANCE = 1e-36   # rotations stop once each node's off-diagonal squares are this share
JACOBI_SWEEPS = 20         # sweep cap of the rotations; caps and stress stacks need at most 6
BOUNDARY_SAMPLES_PER_AXIS = 24   # boundary-ring grid for the free-boundary checks
SUPPORT_PATCH_EXTENT = 0.6       # parameter half-width of a support patch (0.4 in the half space)


@dataclass(frozen=True)
class FreeBoundarySurface:
    """A parametrized hypersurface immersed in a space-form chart.

    ``support`` may be None for auxiliary patches (the support faces of an
    integration region); free-boundary checks then refuse to run.
    Orientation is carried by the chart's normal hint.
    """

    model: SpaceFormModel
    chart: object
    support: Optional[SupportSpec] = None


@dataclass
class SurfaceGeometry:
    """Batched first/second fundamental data at parameter points, node axis last."""

    params: np.ndarray          # (m, k)
    x: np.ndarray               # (n, m)
    jac: np.ndarray             # (n, k, m)
    g: np.ndarray               # (k, k, m)
    g_inv: np.ndarray           # (k, k, m)
    chol_inv: np.ndarray        # (k, k, m) L^{-1} for the Cholesky factor g = L L^T
    area_element: np.ndarray    # (m,)  sqrt(det g)
    flat_area: np.ndarray       # (m,)  sqrt(det J^T J) = |w|, w the cross product of J's columns
    nu_delta: np.ndarray        # (n, m) Euclidean unit normal
    nu: np.ndarray              # (n, m) gbar-unit normal, chart components
    h: np.ndarray               # (k, k, m)
    shape: np.ndarray           # (k, k, m) shape operator S^a_b = g^{ac} h_cb

    @property
    def count(self) -> int:
        return self.x.shape[1]


def _cross_normal(jac: np.ndarray) -> np.ndarray:
    """Generalized cross product (n, m) of the k = n-1 Jacobian columns of jac (n, k, m):
    component i is (-1)^i det(jac with row i removed), each minor of a row set on the
    first c + 1 columns expanded along column c (Laplace), with no factorization."""
    n, k, _ = jac.shape
    if k != n - 1:
        raise ValueError("normal requires a codimension-one immersion")
    minors = {(r,): jac[r, 0] for r in range(n)}
    for c in range(1, k):
        minors = {rows: sum((-1.0) ** (j + c) * jac[r, c] * minors[rows[:j] + rows[j + 1:]]
                            for j, r in enumerate(rows))
                  for rows in itertools.combinations(range(n), c + 1)}
    rows = tuple(range(n))
    return np.stack([(-1.0) ** i * minors[rows[:i] + rows[i + 1:]] for i in range(n)])


def _parameter_point(U: np.ndarray, node) -> str:
    return "(" + ", ".join(f"{u:.6g}" for u in U[int(node)]) + ")"


def _degenerate(det_g: np.ndarray, U: np.ndarray, node) -> DegenerateImmersion:
    return DegenerateImmersion(f"induced metric degenerate: min det g = {float(np.min(det_g)):.3e}"
                               f" at parameter point {_parameter_point(U, node)}")


def _inverse_metric_factor(g: np.ndarray, det_g: np.ndarray, U: np.ndarray) -> np.ndarray:
    """L^{-1} (k, k, m) for the Cholesky factor g = L L^T, L column by column and then
    its inverse by forward substitution on L's rows.  A metric under the floor, or
    with a pivot that is not positive (where LAPACK's factorization fails), is
    degenerate, named at the node of least det g or of the failed pivot."""
    k = g.shape[0]
    if np.any(det_g < DEGENERACY_FLOOR):
        raise _degenerate(det_g, U, np.argmin(det_g))
    L = np.zeros_like(g)
    for j in range(k):
        pivot = g[j, j] - np.sum(L[j, :j] * L[j, :j], axis=0)
        if not np.all(pivot > 0.0):   # a NaN pivot fails too
            raise _degenerate(det_g, U, np.argmin(np.where(pivot > 0.0, np.inf, pivot)))
        L[j, j] = np.sqrt(pivot)
        L[j + 1:, j] = (g[j + 1:, j] - np.sum(L[j + 1:, :j] * L[j, :j], axis=1)) / L[j, j]
    inv = np.zeros_like(L)
    for i in range(k):
        inv[i, i] = 1.0 / L[i, i]
        inv[i, :i] = -inv[i, i] * np.sum(L[i, :i, None] * inv[:i, :i], axis=0)
    return inv


def surface_geometry(surf: FreeBoundarySurface, U: np.ndarray,
                     values: Optional[tuple] = None) -> SurfaceGeometry:
    """Fundamental data at parameter points U (m, k), from the chart's (X, J, H) there if given."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    model = surf.model
    X, J, H2 = surf.chart.evaluate(U) if values is None else values
    model.require_inside(X)

    phi = model.phi(X)
    gram = np.sum(J[:, :, None] * J[:, None], axis=0)
    g = np.exp(2.0 * phi) * gram
    # Cauchy-Binet: det(J^T J) = |w|^2 for the cross product w of J's columns
    w = _cross_normal(J)
    flat_sq = np.sum(w * w, axis=0)
    det_g = np.exp(2.0 * J.shape[1] * phi) * flat_sq
    chol_inv = _inverse_metric_factor(g, det_g, U)
    g_inv = np.sum(chol_inv[:, :, None] * chol_inv[:, None], axis=0)

    hint = surf.chart.normal_hint(U, X)
    sgn = np.sign(np.sum(w * hint, axis=0))
    if np.any(sgn == 0.0):
        raise DegenerateImmersion("orientation hint is tangent to the surface")
    flat_area = np.sqrt(flat_sq)
    nu_delta = w * (sgn / flat_area)
    nu = np.exp(-phi) * nu_delta

    # h_ab = -e^{phi} (<d2X_ab, nu_delta> - gram_ab <dphi, nu_delta>), see the module docstring
    dphi_nu = np.sum(model.phi_grad(X) * nu_delta, axis=0)
    accel = np.sum(H2 * nu_delta, axis=2)
    h = -np.exp(phi) * (accel - dphi_nu * gram)

    return SurfaceGeometry(
        params=U, x=X, jac=J, g=g, g_inv=g_inv, chol_inv=chol_inv,
        area_element=np.sqrt(det_g), flat_area=flat_area, nu_delta=nu_delta, nu=nu, h=h,
        shape=np.sum(g_inv[:, :, None] * h, axis=1),
    )


# -- curvature ----------------------------------------------------------------


@dataclass
class CurvatureArrays:
    H: np.ndarray               # (m,)
    norm_h_sq: np.ndarray       # (m,)
    sigma2: np.ndarray          # (m,)
    ric0_sq: np.ndarray         # (m,) |Ric - scal g / (n-1)|^2
    scal: np.ndarray            # (m,)


def curvature_arrays(surf: FreeBoundarySurface, geo: SurfaceGeometry) -> CurvatureArrays:
    """Mean curvature, |h|^2, sigma_2, scalar curvature and |traceless Ricci|^2.

    For a hypersurface of a space form the Gauss equation gives the Ricci
    endomorphism (n-2) K + H S - S^2 and scal = (n-1)(n-2) K + H^2 - |h|^2.
    """
    K = surf.model.K
    n = surf.model.n
    S = geo.shape
    k = S.shape[0]
    S2 = np.sum(S[:, :, None] * S, axis=1)
    H = sum(S[a, a] for a in range(k))
    norm_h_sq = sum(S2[a, a] for a in range(k))
    sigma2 = 0.5 * (H * H - norm_h_sq)
    scal = (n - 1.0) * (n - 2.0) * K + H * H - norm_h_sq
    ric0 = H * S - S2
    for a in range(k):
        ric0[a, a] += (n - 2.0) * K - scal / (n - 1.0)
    ric0_sq = np.sum(ric0 * ric0.swapaxes(0, 1), axis=(0, 1))
    return CurvatureArrays(H=H, norm_h_sq=norm_h_sq, sigma2=sigma2, ric0_sq=ric0_sq, scal=scal)


def _jacobi_eigenvalues(A: np.ndarray) -> tuple[np.ndarray, int]:
    """(eigenvalues (k, m) ascending at each node, sweeps run) of the symmetric A (k, k, m),
    by cyclic Jacobi rotations on (m,) rows of A - mu I, mu the mean of A's diagonal, so that
    near-equal eigenvalues keep their differences to full precision.  One sweep is exact at
    k = 2; a NaN entry fills its node's diagonal.  At k = 1, A[0] is returned as it is."""
    k = A.shape[0]
    if k == 1:
        return A[0], 0
    pairs = list(itertools.combinations(range(k), 2))
    mu = sum(A[p, p] for p in range(k)) / k
    state = np.stack([A[p, p] - mu for p in range(k)] + [A[pair] for pair in pairs])
    diag, off = state[:k], dict(zip(pairs, state[k:]))
    bound = JACOBI_TOLERANCE * np.sum(A * A, axis=(0, 1))
    for sweeps in range(1, JACOBI_SWEEPS + 1):
        for p, q in pairs:
            apq, d = off[p, q], diag[q] - diag[p]
            den = np.abs(d) + np.sqrt(d * d + 4.0 * (apq * apq))    # |d| + hypot(d, 2 a_pq)
            t = np.copysign(2.0, d) * apq / np.where(den == 0.0, 1.0, den)
            diag[p] -= t * apq
            diag[q] += t * apq
            apq[...] = 0.0
            if k > 2:
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                for r in (r for r in range(k) if r != p and r != q):
                    arp, arq = off[min(r, p), max(r, p)], off[min(r, q), max(r, q)]
                    arp[...], arq[...] = c * arp - s * arq, s * arp + c * arq
        if not np.any(2.0 * np.sum(state[k:] ** 2, axis=0) > bound):
            break
    rows = list(diag + mu)
    for j in (j for i in range(1, k) for j in range(i, 0, -1)):   # an insertion sorting network
        rows[j - 1], rows[j] = np.minimum(rows[j - 1], rows[j]), np.maximum(rows[j - 1], rows[j])
    return np.stack(rows), sweeps


def principal_curvatures(geo: SurfaceGeometry) -> np.ndarray:
    """Eigenvalues of the shape operator, (k, m), ascending at each node.

    Solved as the symmetric generalized problem (h, g) through the congruence
    L^{-1} h L^{-T} by the geometry's one Cholesky factor, formed on (m,) rows and
    diagonalized there by ``_jacobi_eigenvalues``, with no per-node LAPACK call.
    """
    C = geo.chol_inv
    Ch = np.sum(C[:, :, None] * geo.h, axis=1)
    A = np.sum(Ch[:, None] * C, axis=2)
    return _jacobi_eigenvalues(0.5 * (A + A.swapaxes(0, 1)))[0]


def normal_derivatives(surf: FreeBoundarySurface, geo: SurfaceGeometry) -> np.ndarray:
    """Chart partials d_a nu^i via the Weingarten relation, shape (k, n, m)."""
    jac_rows = geo.jac.swapaxes(0, 1)                                     # (k, n, m): d_aX
    tangent = np.sum(geo.shape[:, :, None] * jac_rows[:, None], axis=0)   # S^b_a d_bX
    dphi = surf.model.phi_grad(geo.x)
    dphi_nu = np.sum(dphi * geo.nu, axis=0)
    dphi_a = np.sum(dphi[:, None] * geo.jac, axis=0)
    return tangent - (jac_rows * dphi_nu + dphi_a[:, None] * geo.nu)


# -- boundary operations --------------------------------------------------------


def boundary_parameters(surf: FreeBoundarySurface) -> np.ndarray:
    """Parameter grid on the boundary face (the max end of the first axis); the ring
    of a chart with one parameter, an arc, is both its ends."""
    dom = surf.chart.domain
    if surf.chart.dim == 1:
        return np.array(dom, dtype=float).reshape(2, 1)
    axes = [np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), BOUNDARY_SAMPLES_PER_AXIS)
            for lo, hi in dom[1:]]
    mesh = np.meshgrid(np.array([dom[0][1]], dtype=float), *axes, indexing="ij")
    return np.stack([mm.ravel() for mm in mesh], axis=1)


def boundary_checks(surf: FreeBoundarySurface) -> tuple[float, float, float]:
    """Free-boundary checks along the boundary ring, from one evaluation of it.

    Returns (max |gbar(nu, N)|, max |signed distance| to the support,
    max |h(e, mu)| over normalized boundary tangents e and the conormal mu).
    Conformality makes gbar angles equal Euclidean chart angles, so the
    cosine is evaluated on the Euclidean unit vectors.  The last value is
    zero (to rounding) whenever the free-boundary surface meets an umbilical
    support orthogonally; a nonzero value flags a broken hypothesis.
    """
    if not surf.chart.boundary_axes:
        raise NoBoundary("surface chart has no boundary face")
    if surf.support is None:
        raise NoBoundary("surface carries no support to be orthogonal to")
    geo = surface_geometry(surf, boundary_parameters(surf))
    s = surf.support
    sd = np.abs(s.signed_distance(geo.x))
    unit_out = s.shape.euclidean_outward(geo.x)
    cosang = np.abs(np.sum(geo.nu_delta * unit_out, axis=0))
    # outward unit conormal mu = grad t / |grad t| in parameter components:
    # g(mu, d_psi) = 0 along the ring and g(mu, mu) = 1
    mu = geo.g_inv[:, 0] / np.sqrt(geo.g_inv[0, 0])
    h_mu = np.sum(geo.h * mu, axis=1)
    worst = 0.0
    for a in range(1, geo.params.shape[1]):
        vals = np.abs(h_mu[a]) / np.sqrt(geo.g[a, a])
        worst = max(worst, float(np.max(vals)))
    return float(np.max(cosang)), float(np.max(sd)), worst


# -- hypothesis fields -----------------------------------------------------------


def hypothesis_margins(weight, geo: SurfaceGeometry) -> tuple[np.ndarray, float, float]:
    """(V at the nodes, convexity margin, substatic margin) of a surface.

    The convexity margin is the least eigenvalue of h - (V_nu / V) g against
    g, the numerical margin of the weighted convexity hypothesis
    h >= (V_nu / V) g.  The substatic margin is the least value of
    (V kappa_i - V_nu)(H - kappa_i) over nodes and principal directions.
    A V that is not positive (or NaN) raises WeightNonpositive at its least node.
    On an umbilical cap both fields are constant and their minima fall where rounding
    is largest, often at the innermost polar nodes, where cond g ~ 1/sin^2 t amplifies
    it about a thousandfold (4.1e-13 relative on ``equidistant``, n = 3, level 32), and
    they carry no error bar.  Jacobi rotations in place of ``eigvalsh`` moved them by at
    most 9.8e-16 relative."""
    V = weight.value(geo.x)
    if not np.min(V) > 0.0:
        node = np.argmin(V)
        raise WeightNonpositive(
            f"weight reaches {V[node]:.3e} on the cap at parameter point "
            f"{_parameter_point(geo.params, node)}; placement must keep it positive")
    Vnu = weight.directional(geo.x, geo.nu)
    kappas = principal_curvatures(geo)
    convexity = kappas - Vnu / V
    H = np.sum(kappas, axis=0)
    substatic = (V * kappas - Vnu) * (H - kappas)
    return V, float(np.min(convexity)), float(np.min(substatic))


# -- support patches ---------------------------------------------------------------


def support_patch(s: SupportSpec) -> FreeBoundarySurface:
    """The support's own realization as a surface, oriented out of B_int.

    Running this through the curvature pipeline certifies h = kappa g.
    """
    n = s.n
    extent = SUPPORT_PATCH_EXTENT
    if isinstance(s.shape, SphereShape):
        center = np.asarray(s.shape.center, dtype=float)
        axis = np.zeros(n)
        axis[-1] = 1.0
        chart = SphericalCapChart(center=center, radius=s.shape.radius,
                                  frame=axis_frame(axis), t_min=0.15,
                                  t_max=0.15 + extent)
        return FreeBoundarySurface(model=s.model, chart=chart, support=s)
    a = np.asarray(s.shape.normal_in, dtype=float)
    if s.model.kind is ModelKind.UPPER_HALF_SPACE:
        extent = min(extent, 0.4)   # keep the patch clear of the chart boundary x_n = 0
    chart = PlanarBoxChart(origin=plane_anchor(s), plane_frame=axis_frame(a)[:, 1:],
                           extent=extent, hint=-a)
    return FreeBoundarySurface(model=s.model, chart=chart, support=s)


def support_umbilicity_residual(s: SupportSpec, samples: int = 50,
                                seed: int = 0) -> float:
    """max over sampled patch points of ||h - kappa g|| (max-abs entries)."""
    surf = support_patch(s)
    rng = np.random.default_rng(seed)
    dom = surf.chart.domain
    U = np.column_stack([rng.uniform(lo, hi, samples) for lo, hi in dom])
    geo = surface_geometry(surf, U)
    res = geo.h - s.kappa * geo.g
    return float(np.max(np.abs(res)))
