"""Surface geometry against a reference kept here, in tests only.

The reference is the geometry layer in its generic form: the normal's cross
product from numpy's LU determinants of the Jacobian's minors, h and the
normal derivatives through the full Christoffel contraction Gamma(u, v), det g
and g^{-1} from numpy's LU determinant and inverse, principal curvatures from
the (h, g) pencil by a Cholesky factor and two general solves, and each cone's
Jacobian as the determinant det[X - x0 | J].  The library forms the same
quantities from closed-form identities (Laplace expansion, the tangent terms
of Gamma dropping against the normal, Cauchy-Binet, one Cholesky factor), so
the two must agree to rounding.  The reference runs node-first, (m, ...), as
the geometry layer once did; the library's node-last arrays are moved to that
layout where the two are compared.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from fbmink import QuadratureRule, SupportKind
from fbmink.quadrature import cone
from fbmink.surfaces import normal_derivatives, principal_curvatures, surface_geometry

from conftest import SPHERE_KINDS, interior_params, unchecked_scenario


def christoffel_apply(dphi, u, v):
    """Gamma(u, v)^k = u^k (dphi.v) + v^k (dphi.u) - <u,v> dphi^k, over the last axis."""
    du = np.sum(dphi * v, axis=-1)[..., None]
    dv = np.sum(dphi * u, axis=-1)[..., None]
    uv = np.sum(u * v, axis=-1)[..., None]
    return u * du + v * dv - uv * dphi


def cross_normal(jac):
    """Component i is (-1)^i det(jac with row i removed)."""
    n = jac.shape[1]
    rows = np.arange(n)
    return np.stack([(-1.0) ** i * np.linalg.det(jac[:, rows != i, :]) for i in range(n)], axis=1)


def node_first(a: np.ndarray) -> np.ndarray:
    """A node-last array (..., m) with its node axis moved to the front."""
    return np.moveaxis(a, -1, 0)


def reference_geometry(surf, U) -> dict:
    model = surf.model
    values = surf.chart.evaluate(U)
    hint = node_first(surf.chart.normal_hint(U, values[0]))
    X, J, H2 = (node_first(a) for a in values)     # (m, n), (m, n, k), (m, k, k, n)
    phi = model.phi(X.T)
    g = np.exp(2.0 * phi)[:, None, None] * np.einsum("mia,mib->mab", J, J)
    g_inv = np.linalg.inv(g)
    w = cross_normal(J)
    sgn = np.sign(np.einsum("mi,mi->m", w, hint))
    nu_delta = w * (sgn / np.linalg.norm(w, axis=1))[:, None]
    nu = np.exp(-phi)[:, None] * nu_delta
    dphi = model.phi_grad(X.T).T
    Jt = np.transpose(J, (0, 2, 1))
    gam = christoffel_apply(dphi[:, None, None, :], Jt[:, :, None, :], Jt[:, None, :, :])
    h = -np.exp(phi)[:, None, None] * np.einsum("mabi,mi->mab", H2 + gam, nu_delta)
    shape = np.einsum("mab,mbc->mac", g_inv, h)
    dnu = (np.einsum("mba,mib->mai", shape, J)
           - christoffel_apply(dphi[:, None, :], Jt, nu[:, None, :]))
    L = np.linalg.cholesky(g)
    tmp = np.linalg.solve(L, h)
    A = np.linalg.solve(L, np.transpose(tmp, (0, 2, 1)))
    kappa = np.linalg.eigvalsh(0.5 * (A + np.transpose(A, (0, 2, 1))))
    return {"h": h, "g_inv": g_inv, "area_element": np.sqrt(np.linalg.det(g)), "nu": nu,
            "normal_derivatives": dnu, "principal_curvatures": kappa}


def reference_cone_weights(x0, piece) -> np.ndarray:
    geo = piece.geo
    s_nodes, s_w = piece.rule.nodes(0.0, 1.0)
    spread = node_first(geo.x) - x0
    cone_jac = np.abs(np.linalg.det(np.concatenate([spread[:, :, None], node_first(geo.jac)],
                                                   axis=2)))
    radial = (s_nodes ** (x0.shape[0] - 1)) * s_w
    return (radial[:, None] * (piece.box_weights * cone_jac)[None, :]).ravel()


def _assert_close(new, ref, what, floor=0.0):
    scale = max(np.max(np.abs(ref)), floor)
    assert scale > 0.0, what
    gap = np.max(np.abs(new - ref))
    assert gap <= 1e-12 * scale, (what, gap, scale)


# a field that vanishes identically, as h and d nu do on a flat support face, is
# measured against the scale of g and of nu
FLOORS = {"h": "g", "principal_curvatures": "g", "normal_derivatives": "nu"}


def _check_surface(surf, U, what):
    geo = surface_geometry(surf, U)
    ref = reference_geometry(surf, U)
    new = {"h": geo.h, "g_inv": geo.g_inv, "area_element": geo.area_element, "nu": geo.nu,
           "normal_derivatives": normal_derivatives(surf, geo),
           "principal_curvatures": principal_curvatures(geo)}
    new = {key: node_first(value) for key, value in new.items()}
    for key in ref:
        floor = np.max(np.abs(getattr(geo, FLOORS[key]))) if key in FLOORS else 0.0
        _assert_close(new[key], ref[key], (what, key), floor)
    return geo


def _check_cone(sc, label, piece):
    _, wt = cone(sc.star_center, label, piece)
    _assert_close(wt, reference_cone_weights(sc.star_center, piece), (label, "cone weights"))


# the 8 supports at n = 3 and 4, where the scenario builds at quadrature nodes too,
# and the sphere kinds at n = 2, each umbilical and perturbed both ways; every support
# at n = 5 and 6 at interior parameters (built without the admissibility check, see
# conftest), umbilical and perturbed once, since a perturbation's level-8 probe of
# the base cap is most of the cost there
CASES = ([(kind, 2, eps) for kind in SPHERE_KINDS for eps in (0.0, 0.05, -0.05)]
         + [(kind, n, eps) for n in (3, 4) for kind in SupportKind for eps in (0.0, 0.05, -0.05)]
         + [(kind, n, eps) for n in (5, 6) for kind in SupportKind for eps in (0.0, 0.05)])


@pytest.mark.parametrize("kind,n,eps", CASES)
def test_geometry_matches_the_generic_reference(kind, n, eps):
    sc = unchecked_scenario(kind, n, eps)
    for label, surf in (("cap", sc.surface), ("support", sc.face)):
        U = interior_params(surf, m=4, margin=0.3)   # clear of the det g floor at n = 6
        geo = _check_surface(surf, U, label)
        if label in sc.pieces:
            _check_cone(sc, label, SimpleNamespace(
                geo=geo, rule=QuadratureRule(4), box_weights=np.full(len(U), 0.5)))
        if n <= 4:
            # the nodes every report reads, polar nodes next to the axis included
            sq = sc.piece(label, QuadratureRule(6)).quadrature
            _check_surface(surf, sq.geo.params, (label, "level 6"))
            if label in sc.pieces:
                _check_cone(sc, label, sq)
