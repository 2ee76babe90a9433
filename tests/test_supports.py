"""Support hypersurface catalogue: realizations, curvatures, sampling."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmink import SupportKind, make_support
from fbmink.supports import (
    equidistant,
    hyp_geodesic_sphere,
    sample_admissible_points,
    sph_geodesic_sphere,
    sample_support_points,
)
from fbmink.surfaces import support_umbilicity_residual

from conftest import canonical_support

ALL_KINDS = list(SupportKind)


def test_catalogue_has_eight_kinds():
    assert len(ALL_KINDS) == 8


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_make_support_accepts_string_names(kind):
    s = make_support(kind.value, 3)
    assert s.kind is kind


def test_make_support_rejects_unknown_parameters():
    with pytest.raises(ValueError, match="allowed"):
        make_support("euclidean_plane", 3, radius=2.0)
    with pytest.raises(ValueError, match="allowed"):
        make_support("horosphere", 3, height=1.0)


def test_kappa_values():
    assert canonical_support(SupportKind.EUCLIDEAN_SPHERE).kappa == 1.0
    assert canonical_support(SupportKind.EUCLIDEAN_PLANE).kappa == 0.0
    assert canonical_support(SupportKind.HOROSPHERE).kappa == 1.0
    assert canonical_support(SupportKind.HYP_GEODESIC_PLANE).kappa == 0.0
    assert canonical_support(SupportKind.SPH_HYPERPLANE).kappa == 0.0
    # equidistant plane meeting the ideal boundary at angle theta: kappa = cos(theta)
    th = math.pi / 6.0
    assert np.isclose(canonical_support(SupportKind.EQUIDISTANT).kappa, math.cos(th))


def test_hyperbolic_sphere_kappa_is_coth_of_geodesic_radius():
    # chart radius rho <-> geodesic radius R = 2 artanh(rho), kappa = coth R
    s = hyp_geodesic_sphere(3, chart_radius=0.5)
    R = 2.0 * math.atanh(0.5)
    assert np.isclose(s.kappa, 1.0 / math.tanh(R), rtol=1e-14)
    s2 = hyp_geodesic_sphere(3, geodesic_radius=R)
    assert np.isclose(s2.kappa, s.kappa, rtol=1e-14)
    assert np.isclose(s2.shape.radius, 0.5, rtol=1e-14)
    # through make_support: a given radius replaces the canonical chart radius
    s3 = make_support(SupportKind.HYP_GEODESIC_SPHERE, 3, geodesic_radius=R)
    assert np.isclose(s3.kappa, s.kappa, rtol=1e-14)
    assert np.isclose(s3.shape.radius, 0.5, rtol=1e-14)
    R_sph = 2.0 * math.atan(0.3)
    s4 = make_support(SupportKind.SPH_GEODESIC_SPHERE, 3, geodesic_radius=R_sph)
    assert np.isclose(s4.kappa, 1.0 / math.tan(R_sph), rtol=1e-14)
    assert np.isclose(s4.shape.radius, 0.3, rtol=1e-14)


@pytest.mark.parametrize("kind", ["hyp_geodesic_sphere", "sph_geodesic_sphere"])
def test_geodesic_radius_that_underflows_is_rejected(kind):
    # tanh(R/2) and tan(R/2) round to 0 for the least positive double R
    with pytest.raises(ValueError, match=f"{kind}: geodesic radius too small"):
        make_support(kind, 3, geodesic_radius=5e-324)


@pytest.mark.parametrize("radius", [38.13, 40.0, math.inf])
def test_hyperbolic_geodesic_radius_whose_chart_radius_rounds_to_one_is_rejected(radius):
    # tanh(R/2) rounds to 1.0, the ball's ideal boundary, where the Minkowski field's
    # 1 - rho^2 is 0; the chart_radius path names the same range
    assert math.tanh(radius / 2.0) == 1.0
    with pytest.raises(ValueError, match=r"chart radius 1\.0; chart radius must lie in \(0, 1\)$"):
        hyp_geodesic_sphere(3, geodesic_radius=radius)
    with pytest.raises(ValueError, match=r"^chart radius must lie in \(0, 1\)$"):
        hyp_geodesic_sphere(3, chart_radius=1.0)
    assert hyp_geodesic_sphere(3, geodesic_radius=38.12).shape.radius < 1.0


@pytest.mark.parametrize("make,message", [(hyp_geodesic_sphere, "must be positive"),
                                          (sph_geodesic_sphere, "must lie in")])
def test_nan_geodesic_radius_is_rejected_as_out_of_range(make, message):
    with pytest.raises(ValueError, match=f"^geodesic radius {message}"):
        make(3, geodesic_radius=math.nan)


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
def test_euclidean_sphere_rejects_a_radius_that_is_not_positive_and_finite(radius):
    # a NaN or infinite radius would build a support of kappa nan or 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^sphere radius must be positive and finite"):
            make_support("euclidean_sphere", 3, radius=radius)


def test_equidistant_kappa_bounds():
    for th in (0.1, 0.4, 1.2):
        s = equidistant(3, th)
        assert 0.0 < s.kappa < 1.0


def test_sph_geodesic_sphere_kappa():
    # kappa = cot of the geodesic radius: rho = tan(R/2), kappa = (1 - rho^2)/(2 rho)
    s = canonical_support(SupportKind.SPH_GEODESIC_SPHERE)
    rho = 0.5
    assert np.isclose(s.kappa, (1.0 - rho * rho) / (2.0 * rho), rtol=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_support_points_lie_on_realization(kind):
    s = canonical_support(kind)
    rng = np.random.default_rng(1)
    pts = sample_support_points(s, 50, rng)
    assert np.max(np.abs(s.signed_distance(pts.T))) < 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_admissible_points_are_interior(kind):
    s = canonical_support(kind)
    rng = np.random.default_rng(2)
    pts = sample_admissible_points(s, 200, rng).T
    assert np.all(s.in_admissible_region(pts))
    # strictly inside B_int, not on the wall
    assert np.min(np.abs(s.signed_distance(pts))) > 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_outward_normal_is_unit_and_points_out(kind):
    s = canonical_support(kind)
    rng = np.random.default_rng(3)
    pts = sample_support_points(s, 20, rng).T
    nbar = s.outward_normal(pts)
    assert nbar.shape == pts.shape
    norms = np.exp(s.model.phi(pts)) * np.linalg.norm(nbar, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)
    # stepping outward leaves B_int
    step = 1e-6
    outside = s.signed_distance(pts + step * nbar)
    inside = s.signed_distance(pts - step * nbar)
    assert np.all(outside > 0.0)
    assert np.all(inside < 0.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_support_realizations_are_umbilical(kind):
    s = canonical_support(kind)
    assert support_umbilicity_residual(s, samples=50, seed=0) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(min_value=0.05, max_value=1.5))
def test_equidistant_plane_tilt_matches_theta(theta):
    """The chart plane of an equidistant surface makes angle theta with the wall."""
    s = equidistant(3, theta)
    a = np.asarray(s.shape.normal_in, dtype=float)
    assert np.isclose(np.linalg.norm(a), 1.0, rtol=1e-12)
    assert np.isclose(abs(a[-1]), math.cos(theta), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(rho=st.floats(min_value=0.05, max_value=0.9))
def test_hyperbolic_sphere_umbilical_for_any_radius(rho):
    s = hyp_geodesic_sphere(3, chart_radius=rho)
    assert s.kappa > 1.0  # geodesic spheres are the kappa > 1 range
    assert support_umbilicity_residual(s, samples=20, seed=1) <= 1e-8
