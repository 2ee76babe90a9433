"""The free-boundary Minkowski field X_a and the weighted volume read off the cap.

X_a is V's conformal field (L_X gbar = 2 V gbar) plus a Killing field, tangent to
the support S along S.  The field is checked pointwise by finite differences and
on S; the Minkowski formulas int_Sigma (H_{k-1} V - H_k <X_a, nu>) = 0 are checked
as an oracle of nu, H, sigma_2, V and the cap's area element; and the cap form
``CapScenario.weighted_volume`` = int_Sigma <X_a, nu> / n is pitted against the
region cone (``conftest.region_integrals``).
"""

import dataclasses
import math

import numpy as np
import pytest

from fbmink import (
    PerturbationSpec,
    QuadratureRule,
    SupportKind,
    default_cap_spec,
    make_support,
    make_umbilical_cap,
    perturb_cap,
)
from fbmink.errors import DegenerateImmersion
from fbmink.supports import (
    PlaneShape,
    plane_anchor,
    sample_admissible_points,
    sample_support_points,
)
from fbmink.weights import minkowski_field, weight_for_support

from conftest import SPHERE_KINDS, canonical_support, region_integrals

ALL_KINDS = list(SupportKind)


def _anchor(s) -> np.ndarray:
    """A point of a plane support, as a face's anchor is; sphere fields read none."""
    return plane_anchor(s) if isinstance(s.shape, PlaneShape) else np.zeros(s.n)


def _scenario(kind: SupportKind, n: int, eps: float, **placement):
    spec = dataclasses.replace(default_cap_spec(canonical_support(kind, n)), **placement)
    base = make_umbilical_cap(spec)
    return perturb_cap(base, PerturbationSpec(epsilon=eps)) if eps else base


def _flux(sc, rule) -> np.ndarray:
    """<X_a, nu> at the cap nodes."""
    cap = sc.piece("cap", rule)
    x = cap.geo.x
    field = minkowski_field(sc.support, sc.face.chart.center, x)
    return sc.model.conformal_factor(x) * np.sum(field * cap.geo.nu, axis=0)


def _cone_volume(sc, rule) -> float:
    return region_integrals(sc, rule, lambda x: (sc.weight.value(x),))[0]


# -- the field, pointwise ------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("n", [3, 4])
def test_the_field_is_conformal_with_factor_v(kind, n, rng):
    # L_X gbar = 2 V gbar, gbar = exp(2 phi) delta, reads sym(DX) + <X, dphi> I = V I
    # in chart components; a Killing field adds 0 to both sides
    s = canonical_support(kind, n)
    w, anchor = weight_for_support(s), _anchor(s)
    x = sample_admissible_points(s, 20, rng).T            # (n, m)
    h = 1e-5
    jac = np.stack([(minkowski_field(s, anchor, x + h * e[:, None])
                     - minkowski_field(s, anchor, x - h * e[:, None])) / (2.0 * h)
                    for e in np.eye(n)])                  # (j, i, m): d_j X^i
    sym = 0.5 * (jac + jac.transpose(1, 0, 2))
    X = minkowski_field(s, anchor, x)
    lhs = sym + np.sum(X * s.model.phi_grad(x), axis=0) * np.eye(n)[:, :, None]
    rhs = w.value(x) * np.eye(n)[:, :, None]
    assert np.max(np.abs(lhs - rhs)) <= 1e-7 * max(1.0, np.max(np.abs(rhs)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_the_field_is_tangent_to_its_support(kind, rng):
    s = canonical_support(kind)
    x = sample_support_points(s, 50, rng).T
    X = minkowski_field(s, _anchor(s), x)
    normal = s.outward_normal(x)
    assert np.max(np.abs(np.sum(X * normal, axis=0))) <= 1e-13 * max(1.0, np.max(np.abs(X)))


# -- the Minkowski formulas: a live oracle on the cap ---------------------------------


def _minkowski_formula_gaps(sc, rule) -> list:
    """int_Sigma (H_{k-1} V - H_k <X_a, nu>) relative to its larger side, for k = 1 and,
    where n >= 3, k = 2; H_k is the normalized k-th mean curvature."""
    n, cap = sc.n, sc.piece("cap", rule)
    curv, V, flux = cap.curvature(), sc.weight.value(cap.geo.x), _flux(sc, rule)
    H = [np.ones_like(V), curv.H / (n - 1)]
    if n >= 3:
        H.append(curv.sigma2 / math.comb(n - 1, 2))
    gaps = []
    for k in range(1, len(H)):
        a, b = cap.integral(H[k - 1] * V), cap.integral(H[k] * flux)
        gaps.append((a - b) / max(abs(a), abs(b)))
    return gaps


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_minkowski_formulas_hold_on_every_support_at_n3(kind, eps):
    sc = _scenario(kind, 3, eps)
    for level in (24, 32):
        gaps = _minkowski_formula_gaps(sc, QuadratureRule(level))
        assert len(gaps) == 2 and max(map(abs, gaps)) <= 1e-13, (level, gaps)


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("kind", SPHERE_KINDS)
def test_minkowski_formula_holds_on_arcs(kind, eps):
    gaps = _minkowski_formula_gaps(_scenario(kind, 2, eps), QuadratureRule(32))
    assert len(gaps) == 1 and abs(gaps[0]) <= 2e-15


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("kind", [SupportKind.EUCLIDEAN_PLANE, SupportKind.SPH_HYPERPLANE])
def test_minkowski_formulas_hold_at_n4(kind, eps):
    # at level 12 only the caps over the two planes build (ROADMAP item 1)
    gaps = _minkowski_formula_gaps(_scenario(kind, 4, eps), QuadratureRule(12))
    assert len(gaps) == 2 and max(map(abs, gaps)) <= 5e-13, gaps


def test_a_field_with_a_normal_part_on_the_support_breaks_the_formula():
    # the oracle is sharp: V's conformal field x_n x - |x|^2/2 e_n alone, with no
    # translation, is not tangent to the sphere support, and its face term is missing
    sc = _scenario(SupportKind.EUCLIDEAN_SPHERE, 3, 0.05)
    rule = QuadratureRule(24)
    cap = sc.piece("cap", rule)
    x = cap.geo.x
    field = minkowski_field(sc.support, sc.face.chart.center, x)
    field[-1] += 0.5 * sc.support.shape.radius ** 2
    flux = np.sum(field * cap.geo.nu, axis=0)
    assert abs(cap.integral(flux) / sc.n - _cone_volume(sc, rule)) > 1e-3 * _cone_volume(sc, rule)


# -- the weighted volume: the cap form against the cone oracle ------------------------


@pytest.mark.parametrize("eps", [0.0, 0.05, -0.05])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cap_volume_matches_the_cone_at_n3(kind, eps):
    sc = _scenario(kind, 3, eps)
    for level in (16, 24, 32):
        rule = QuadratureRule(level)
        cone = _cone_volume(sc, rule)
        assert abs(sc.weighted_volume(rule) - cone) <= 4e-15 * abs(cone), level


@pytest.mark.parametrize("eps", [0.0, 0.05, -0.05])
@pytest.mark.parametrize("kind, n, level, placement", [
    (SupportKind.SPH_HYPERPLANE, 3, 16, {"center_shift": (0.3, 0.0)}),
    (SupportKind.EUCLIDEAN_PLANE, 3, 16, {"tilt": 0.2}),
    *((kind, 2, 32, {"axis": (1.0, 1.0)}) for kind in SPHERE_KINDS)])
def test_cap_volume_matches_the_cone_off_the_default_placement(kind, n, level, placement, eps):
    # the shifted, tilted and off-axis caps of tools/report_identity.py; a tilted cap
    # meets its plane at an angle, and the face term still vanishes, X_a being tangent.
    # Against a level-64 cone, the cap form is as accurate as the cone at this level or
    # more: on the shifted cap its error is about a third of the cone's (4e-8 against
    # 1.3e-7 relative), elsewhere the two agree at rounding
    sc = _scenario(kind, n, eps, **placement)
    rule = QuadratureRule(level)
    reference = _cone_volume(sc, QuadratureRule(64))
    cone_error = abs(_cone_volume(sc, rule) - reference)
    floor = 4e-15 * abs(reference)
    assert abs(sc.weighted_volume(rule) - reference) <= 1.5 * max(cone_error, floor)


@pytest.mark.parametrize("level, bound", [(8, 2e-8), (12, 4e-15)])
def test_cap_volume_matches_the_cone_at_n4_where_the_cap_builds(level, bound):
    # both are quadrature values: at level 8 they differ by their quadrature errors, up
    # to 7.6e-9 relative (perturbed sph_geodesic_sphere); at level 12 only the caps over
    # the two planes build (ROADMAP item 1), and they agree at rounding
    rule, built = QuadratureRule(level), []
    for kind in ALL_KINDS:
        for eps in (0.0, 0.05, -0.05):
            try:
                sc = _scenario(kind, 4, eps)
                volume, cone = sc.weighted_volume(rule), _cone_volume(sc, rule)
            except DegenerateImmersion:
                continue
            built.append(kind)
            assert abs(volume - cone) <= bound * abs(cone), (kind, eps)
    assert {SupportKind.EUCLIDEAN_PLANE, SupportKind.SPH_HYPERPLANE} <= set(built)
    assert len(built) >= (20 if level == 8 else 6)


@pytest.mark.parametrize("kind", [SupportKind.HYP_GEODESIC_PLANE, SupportKind.EQUIDISTANT])
def test_the_centered_field_is_as_accurate_as_the_cone(kind):
    # against a level-64 cone, the cap form's error stays within 1.5 times the cone's
    # own at levels 16 and 24 (or at rounding, where the cone's is); the uncentered
    # fields -e_n and x - e_n read 4 to 10 times the cone's error at level 16
    sc = _scenario(kind, 3, 0.05)
    reference = _cone_volume(sc, QuadratureRule(64))
    floor = 4e-15 * abs(reference)
    for level in (16, 24):
        rule = QuadratureRule(level)
        cone_error = abs(_cone_volume(sc, rule) - reference)
        assert abs(sc.weighted_volume(rule) - reference) <= 1.5 * max(cone_error, floor), level
    rule = QuadratureRule(16)
    cap = sc.piece("cap", rule)
    x = cap.geo.x
    e_n = np.eye(3)[:, -1:]
    uncentered = -e_n if kind is SupportKind.HYP_GEODESIC_PLANE else x - e_n
    flux = sc.model.conformal_factor(x) * np.sum(uncentered * cap.geo.nu, axis=0)
    cone_error = abs(_cone_volume(sc, rule) - reference)
    assert abs(cap.integral(flux) / 3 - reference) > 3.0 * cone_error


def test_cap_volume_matches_the_cone_on_a_wide_geodesic_sphere():
    # the field's Killing part grows as (1 + rho^2) / (1 - rho^2); here rho = tanh(1.5)
    s = make_support(SupportKind.HYP_GEODESIC_SPHERE, 3, geodesic_radius=3.0)
    sc = make_umbilical_cap(default_cap_spec(s))
    rule = QuadratureRule(32)
    cone = _cone_volume(sc, rule)
    assert abs(sc.weighted_volume(rule) - cone) <= 4e-15 * abs(cone)
