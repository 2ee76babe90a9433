"""Fundamental forms, curvature conventions, and intrinsic-curvature oracles."""

import math

import numpy as np
import pytest

from fbmink import CapSpec, SupportKind, make_perturbed_cap, make_umbilical_cap
from fbmink import PerturbationSpec
from fbmink.surfaces import (
    boundary_checks,
    curvature_arrays,
    hypothesis_margins,
    normal_derivatives,
    principal_curvatures,
    surface_geometry,
)

from conftest import ASYMMETRIC_CAPS, asymmetric_scenario, canonical_scenario, canonical_support


def interior_params(surf, m=7, margin=0.15):
    """A small grid strictly inside the parameter box."""
    axes = [np.linspace(lo + margin * (hi - lo), hi - margin * (hi - lo), m)
            for lo, hi in surf.chart.domain]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def test_unit_hemisphere_sign_conventions(hemisphere):
    """Outward-normal unit sphere in flat space: kappa_i = +1, H = n-1."""
    surf = hemisphere.surface
    U = interior_params(surf)
    geo = surface_geometry(surf, U)
    kappas = principal_curvatures(geo)
    assert np.allclose(kappas, 1.0, atol=1e-12)
    arr = curvature_arrays(surf, geo)
    assert np.allclose(arr.H, 2.0, atol=1e-12)
    assert np.allclose(arr.sigma2, 1.0, atol=1e-12)
    # normal points away from the cap center (outward of the half-ball)
    assert np.all(np.sum(geo.nu * geo.x, axis=-1) > 0.0)


def test_scaled_sphere_mean_curvature():
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    for r in (0.5, 2.0):
        sc = make_umbilical_cap(CapSpec(support=support, radius=r))
        geo = surface_geometry(sc.surface, interior_params(sc.surface))
        assert np.allclose(curvature_arrays(sc.surface, geo).H, 2.0 / r, rtol=1e-12)


@pytest.mark.parametrize("kind", list(SupportKind))
def test_caps_are_umbilical_in_every_geometry(kind):
    sc = canonical_scenario(kind)
    geo = surface_geometry(sc.surface, interior_params(sc.surface))
    kappas = principal_curvatures(geo)
    spread = np.max(kappas, axis=1) - np.min(kappas, axis=1)
    assert np.max(spread) < 1e-10


@pytest.mark.parametrize("kind", list(SupportKind))
def test_boundary_orthogonality_canonical(kind):
    sc = canonical_scenario(kind)
    angle, on_support, _ = boundary_checks(sc.surface)
    assert angle <= 1e-10
    assert on_support <= 1e-10


def test_tilted_cap_orthogonality_defect_is_sine_of_tilt():
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    tilt = 0.15
    sc = make_umbilical_cap(CapSpec(support=support, radius=1.0, tilt=tilt))
    angle, on_support, _ = boundary_checks(sc.surface)
    assert np.isclose(angle, math.sin(tilt), atol=1e-10)
    assert on_support <= 1e-10  # the ring still lies on the support


def brioschi_gauss_curvature(surf, u0, step=1e-4):
    """Intrinsic Gauss curvature of the induced metric by the Brioschi formula.

    E, F, G and their parameter derivatives are taken by finite differences
    of the first fundamental form only, so this oracle never touches the
    second-fundamental-form code path it cross-checks.
    """

    def efg(du, dv):
        u = np.array([[u0[0] + du, u0[1] + dv]])
        g = surface_geometry(surf, u).g[0]
        return g[0, 0], g[0, 1], g[1, 1]

    s = step
    E0, F0, G0 = efg(0, 0)
    Eu = (efg(s, 0)[0] - efg(-s, 0)[0]) / (2 * s)
    Ev = (efg(0, s)[0] - efg(0, -s)[0]) / (2 * s)
    Fu = (efg(s, 0)[1] - efg(-s, 0)[1]) / (2 * s)
    Fv = (efg(0, s)[1] - efg(0, -s)[1]) / (2 * s)
    Gu = (efg(s, 0)[2] - efg(-s, 0)[2]) / (2 * s)
    Gv = (efg(0, s)[2] - efg(0, -s)[2]) / (2 * s)
    Evv = (efg(0, s)[0] - 2 * E0 + efg(0, -s)[0]) / s**2
    Guu = (efg(s, 0)[2] - 2 * G0 + efg(-s, 0)[2]) / s**2
    Fuv = (efg(s, s)[1] - efg(s, -s)[1] - efg(-s, s)[1] + efg(-s, -s)[1]) / (4 * s**2)
    m1 = np.array([
        [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
        [Fv - 0.5 * Gu, E0, F0],
        [0.5 * Gv, F0, G0],
    ])
    m2 = np.array([
        [0.0, 0.5 * Ev, 0.5 * Gu],
        [0.5 * Ev, E0, F0],
        [0.5 * Gu, F0, G0],
    ])
    det_g = E0 * G0 - F0 * F0
    return (np.linalg.det(m1) - np.linalg.det(m2)) / det_g**2


@pytest.mark.parametrize("kind", [
    SupportKind.EUCLIDEAN_PLANE,
    SupportKind.EQUIDISTANT,
    SupportKind.SPH_GEODESIC_SPHERE,
])
def test_gauss_equation_against_brioschi_oracle(kind):
    """scal = 2 K_intrinsic for surfaces in 3-space, K_int = K + kappa^2 at caps."""
    sc = canonical_scenario(kind)
    surf = sc.surface
    pts = interior_params(surf, m=3, margin=0.3)
    geo = surface_geometry(surf, pts)
    scal = curvature_arrays(surf, geo).scal
    for u0, s_code in zip(pts, scal):
        k_fd = brioschi_gauss_curvature(surf, u0)
        assert abs(s_code - 2.0 * k_fd) < 2e-5 * max(1.0, abs(s_code))


def test_brioschi_oracle_on_perturbed_cap():
    # non-umbilic points exercise the full h computation
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    sc = make_perturbed_cap(CapSpec(support=support, radius=1.0),
                            PerturbationSpec(epsilon=0.08, power=3))
    surf = sc.surface
    pts = interior_params(surf, m=3, margin=0.25)
    geo = surface_geometry(surf, pts)
    scal = curvature_arrays(surf, geo).scal
    for u0, s_code in zip(pts, scal):
        k_fd = brioschi_gauss_curvature(surf, u0)
        assert abs(s_code - 2.0 * k_fd) < 5e-5 * max(1.0, abs(s_code))


def _weingarten_fd_gap(surf):
    """max |normal_derivatives - central difference of nu| at interior nodes."""
    pts = interior_params(surf, m=3, margin=0.3)
    dn = normal_derivatives(surf, surface_geometry(surf, pts))
    step = 1e-6
    gap = 0.0
    for a in range(surf.param_dim):
        e = np.zeros(surf.param_dim)
        e[a] = step
        nu_p = surface_geometry(surf, pts + e).nu
        nu_m = surface_geometry(surf, pts - e).nu
        fd = (nu_p - nu_m) / (2 * step)
        gap = max(gap, float(np.max(np.abs(fd - dn[:, a, :]))))
    return gap


def test_weingarten_matches_fd_of_normal(hemisphere):
    assert _weingarten_fd_gap(hemisphere.surface) < 1e-7


@pytest.mark.parametrize("kind,placement", ASYMMETRIC_CAPS)
def test_weingarten_matches_fd_of_normal_on_asymmetric_caps(kind, placement):
    # g and h do not commute here, so h_a^b = h_ac g^{cb} differs from g^{ac} h_cb
    assert _weingarten_fd_gap(asymmetric_scenario(kind, placement).surface) < 1e-7


def test_convexity_and_substatic_margins_on_hemisphere(hemisphere):
    surf = hemisphere.surface
    w = hemisphere.weight
    U = interior_params(surf)
    # V = 1: convexity margin is min principal curvature = 1,
    # substatic eigenvalues are kappa_i (H - kappa_i) = 1
    assert np.isclose(hypothesis_margins(w, surface_geometry(surf, U))[1], 1.0, atol=1e-12)
    assert np.isclose(hypothesis_margins(w, surface_geometry(surf, U))[2], 1.0, atol=1e-12)


def test_dimpled_cap_violates_convexity():
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    sc = make_perturbed_cap(CapSpec(support=support, radius=1.0),
                            PerturbationSpec(epsilon=0.6, power=3))
    U = interior_params(sc.surface, m=15, margin=0.02)
    assert hypothesis_margins(sc.weight, surface_geometry(sc.surface, U))[1] < 0.0
    # boundary data survives the dimple: it is a free-boundary perturbation
    assert boundary_checks(sc.surface)[0] <= 1e-10


@pytest.mark.parametrize("kind", list(SupportKind))
def test_hypothesis_margins_positive_on_canonical_caps(kind):
    sc = canonical_scenario(kind)
    U = interior_params(sc.surface, m=9, margin=0.05)
    assert hypothesis_margins(sc.weight, surface_geometry(sc.surface, U))[1] > 0.0
    assert hypothesis_margins(sc.weight, surface_geometry(sc.surface, U))[2] > -1e-12
