"""Fundamental forms, curvature conventions, and intrinsic-curvature oracles."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from fbmink import CapSpec, SupportKind, default_cap_spec, make_perturbed_cap, make_umbilical_cap
from fbmink import DegenerateImmersion, PerturbationSpec, QuadratureRule, validate_scenario
from fbmink import WeightNonpositive, surfaces
from fbmink.surfaces import (
    DEGENERACY_FLOOR,
    JACOBI_SWEEPS,
    SurfaceGeometry,
    boundary_checks,
    boundary_parameters,
    curvature_arrays,
    hypothesis_margins,
    normal_derivatives,
    principal_curvatures,
    support_patch,
    surface_geometry,
)

from conftest import (
    ASYMMETRIC_CAPS,
    SPHERE_KINDS,
    AngularBumpProfile,
    angular_bump_scenario,
    asymmetric_scenario,
    canonical_scenario,
    canonical_support,
    interior_params,
    unchecked_scenario,
)

ANGULAR_BUMP_KINDS = [SupportKind.EUCLIDEAN_PLANE, SupportKind.EUCLIDEAN_SPHERE,
                      SupportKind.EQUIDISTANT, SupportKind.SPH_HYPERPLANE]


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
    assert np.all(np.sum(geo.nu * geo.x, axis=0) > 0.0)


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
    spread = np.max(kappas, axis=0) - np.min(kappas, axis=0)
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
        g = surface_geometry(surf, u).g[:, :, 0]
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
    for a in range(surf.chart.dim):
        e = np.zeros(surf.chart.dim)
        e[a] = step
        nu_p = surface_geometry(surf, pts + e).nu
        nu_m = surface_geometry(surf, pts - e).nu
        fd = (nu_p - nu_m) / (2 * step)
        gap = max(gap, float(np.max(np.abs(fd - dn[a]))))
    return gap


def test_weingarten_matches_fd_of_normal(hemisphere):
    assert _weingarten_fd_gap(hemisphere.surface) < 1e-7


# every support at n = 3, 4 and 5 (the caps at n = 5 are built without the
# admissibility check, see conftest), the sphere kinds at n = 2, each umbilical
# and perturbed: an independent check of h and of Gamma(d_aX, nu)
WEINGARTEN_CAPS = [(kind, 2) for kind in SPHERE_KINDS] + [
    (kind, n) for n in (3, 4, 5) for kind in SupportKind]


@pytest.mark.parametrize("eps", [0.0, 0.05])
@pytest.mark.parametrize("kind,n", WEINGARTEN_CAPS)
def test_weingarten_matches_fd_of_normal_in_every_dimension(kind, n, eps):
    assert _weingarten_fd_gap(unchecked_scenario(kind, n, eps).surface) < 1e-7


@pytest.mark.parametrize("kind,placement", ASYMMETRIC_CAPS)
def test_weingarten_matches_fd_of_normal_on_asymmetric_caps(kind, placement):
    # g and h do not commute here, so contracting S^a_b = g^{ac} h_cb on the wrong index fails
    assert _weingarten_fd_gap(asymmetric_scenario(kind, placement).surface) < 1e-7


def test_angular_bump_profile_derivatives_match_finite_differences():
    profile = AngularBumpProfile(t_max=1.2)
    U = np.array([[0.3, 0.7], [0.9, 2.5], [0.05, 4.0], [1.1, 5.9]])
    _, dp, d2p = profile.evaluate(U)
    step = 1e-6
    for a in range(2):
        e = np.zeros(2)
        e[a] = step
        (p_plus, dp_plus, _), (p_minus, dp_minus, _) = profile.evaluate(U + e), profile.evaluate(U - e)
        assert np.max(np.abs((p_plus - p_minus) / (2 * step) - dp[a])) < 1e-8
        assert np.max(np.abs((dp_plus - dp_minus) / (2 * step) - d2p[a])) < 1e-8


@pytest.mark.parametrize("kind", ANGULAR_BUMP_KINDS)
def test_weingarten_matches_fd_of_normal_on_angular_bump_caps(kind):
    # the bump varies with the angle, so g and h do not commute even over
    # euclidean_plane, whose conformal factor is trivial
    sc = angular_bump_scenario(kind)
    validate_scenario(sc)
    geo = sc.piece("cap", QuadratureRule(16)).geo
    g, h = np.moveaxis(geo.g, -1, 0), np.moveaxis(geo.h, -1, 0)
    assert np.max(np.abs(g @ h - h @ g)) > 5e-4
    assert _weingarten_fd_gap(sc.surface) < 1e-7


# perturbed caps at n=4, where the traceless Ricci is not zero, and at n=3
ORACLE_CAPS = [
    *[(kind, 4, {}, eps) for kind in (SupportKind.EUCLIDEAN_PLANE, SupportKind.SPH_HYPERPLANE)
      for eps in (0.05, 0.1)],
    *[(kind, 3, placement, 0.05) for kind, placement in ASYMMETRIC_CAPS],
]


@pytest.mark.parametrize("kind,n,placement,eps", ORACLE_CAPS)
def test_curvature_arrays_match_principal_curvatures(kind, n, placement, eps):
    """Pointwise oracle from the Cholesky eigenvalues kappa of (h, g): H, |h|^2,
    sigma_2, scal and |Ric0|^2 with Ric_i = (n-2) K + kappa_i (H - kappa_i)."""
    spec = dataclasses.replace(default_cap_spec(canonical_support(kind, n)), **placement)
    surf = make_perturbed_cap(spec, PerturbationSpec(epsilon=eps)).surface
    geo = surface_geometry(surf, interior_params(surf, m=5))
    kappa = principal_curvatures(geo)
    H = np.sum(kappa, axis=0)
    ric = (n - 2.0) * surf.model.K + kappa * (H - kappa)
    scal = np.sum(ric, axis=0)
    oracle = {
        "H": H,
        "norm_h_sq": np.sum(kappa * kappa, axis=0),
        "sigma2": sum(kappa[i] * kappa[j] for i in range(n - 1) for j in range(i)),
        "scal": scal,
        "ric0_sq": np.sum((ric - scal / (n - 1.0)) ** 2, axis=0),
    }
    if n == 4:
        assert np.max(oracle["ric0_sq"]) > 1e-3
    curv = curvature_arrays(surf, geo)
    for name, want in oracle.items():
        gap = np.abs(getattr(curv, name) - want)
        assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(want))), name


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


class CollapsedChart:
    """A cap chart whose Jacobian column ``column`` is multiplied by ``scale``, with
    ``shear`` times column 0 added to column 1, at every node or at the one node
    ``node`` (X and H are the base chart's)."""

    def __init__(self, base, column=0, scale=1.0, shear=0.0, node=None):
        self.base, self.column, self.scale, self.shear = base, column, scale, shear
        self.nodes = slice(None) if node is None else node

    def evaluate(self, U):
        X, J, H2 = self.base.evaluate(U)
        J = J.copy()
        J[:, self.column, self.nodes] *= self.scale
        J[:, 1, self.nodes] += self.shear * J[:, 0, self.nodes]
        return X, J, H2

    def __getattr__(self, name):
        return getattr(self.base, name)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("column,scale", [(0, 0.0), (1, 0.0), (0, 1e-14), (1, 1e-14)])
def test_collapsed_immersion_is_named(n, column, scale):
    surf = canonical_scenario(SupportKind.EUCLIDEAN_PLANE, n).surface
    surf = dataclasses.replace(surf, chart=CollapsedChart(surf.chart, column, scale))
    with pytest.raises(DegenerateImmersion, match="min det g = "):
        surface_geometry(surf, interior_params(surf, m=3))


@pytest.mark.parametrize("n", [3, 4])
def test_metric_that_fails_cholesky_above_the_floor_is_named(n):
    # a shear keeps the cross product, so det g = e^{2 k phi} |w|^2 clears the floor,
    # but g's entries near 1e20 leave no positive definite factor in floating point
    surf = canonical_scenario(SupportKind.EUCLIDEAN_PLANE, n).surface
    sheared = dataclasses.replace(surf, chart=CollapsedChart(surf.chart, shear=1e10))
    with pytest.raises(DegenerateImmersion, match="min det g = ") as caught:
        surface_geometry(sheared, interior_params(surf, m=3))
    assert float(str(caught.value).split("= ")[1].split()[0]) >= DEGENERACY_FLOOR


def _named_point(error) -> np.ndarray:
    """The parameter point a DegenerateImmersion or WeightNonpositive message names."""
    text = str(error)
    assert "at parameter point (" in text, text
    return np.array([float(u) for u in text.split("at parameter point (")[1].split(")")[0].split(",")])


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("node", [0, 5, 8])
def test_degenerate_immersion_names_the_collapsed_node(n, node):
    # only this node's first Jacobian column collapses, so it alone has det g = 0
    surf = canonical_scenario(SupportKind.EUCLIDEAN_PLANE, n).surface
    U = interior_params(surf, m=3)
    collapsed = dataclasses.replace(surf, chart=CollapsedChart(surf.chart, scale=0.0, node=node))
    with pytest.raises(DegenerateImmersion, match="min det g = 0.000e[+]00 at parameter point") as caught:
        surface_geometry(collapsed, U)
    np.testing.assert_allclose(_named_point(caught.value), U[node], rtol=1e-5, atol=0)


@pytest.mark.parametrize("n", [3, 4])
def test_degenerate_immersion_names_the_node_whose_pivot_fails(n):
    # the shear at one node clears the det g floor but leaves g there no Cholesky factor
    surf = canonical_scenario(SupportKind.EUCLIDEAN_PLANE, n).surface
    U = interior_params(surf, m=3)
    sheared = dataclasses.replace(surf, chart=CollapsedChart(surf.chart, shear=1e10, node=4))
    with pytest.raises(DegenerateImmersion, match="min det g = ") as caught:
        surface_geometry(sheared, U)
    np.testing.assert_allclose(_named_point(caught.value), U[4], rtol=1e-5, atol=0)


def _charted_surfaces():
    """A cap, a perturbed cap and their support faces, and a support patch, at n = 2..6."""
    for n in (2, 3, 4, 5, 6):
        kinds = SPHERE_KINDS if n == 2 else [SupportKind.EUCLIDEAN_SPHERE, SupportKind.HOROSPHERE]
        for kind in kinds:
            for eps in (0.0, 0.05):
                sc = unchecked_scenario(kind, n, eps)
                yield n, sc.surface
                yield n, sc.face
            yield n, support_patch(sc.support)


def test_geometry_fields_are_node_last_and_contiguous():
    fields = [f.name for f in dataclasses.fields(SurfaceGeometry) if f.name != "params"]
    for n, surf in _charted_surfaces():
        U = interior_params(surf, m=3, margin=0.3)
        m, k = U.shape
        geo = surface_geometry(surf, U)
        assert geo.params.shape == (m, k) and geo.count == m
        shapes = {"x": (n, m), "jac": (n, k, m), "nu_delta": (n, m), "nu": (n, m),
                  "area_element": (m,), "flat_area": (m,)}
        for name in fields:
            value = getattr(geo, name)
            assert value.shape == shapes.get(name, (k, k, m)), (n, name, value.shape)
            assert value.flags.c_contiguous, (n, name)
        assert normal_derivatives(surf, geo).shape == (k, n, m)
        assert principal_curvatures(geo).shape == (k, m)


def test_arc_ring_is_both_ends():
    # an n = 2 cap is an arc about its axis, and both ends lie on the support
    sc = canonical_scenario(SupportKind.EUCLIDEAN_SPHERE, n=2)
    t_max = sc.surface.chart.t_max
    np.testing.assert_array_equal(boundary_parameters(sc.surface), [[-t_max], [t_max]])
    geo = surface_geometry(sc.surface, boundary_parameters(sc.surface))
    np.testing.assert_allclose(np.linalg.norm(geo.x, axis=0), sc.support.shape.radius, rtol=1e-14)
    assert max(boundary_checks(sc.surface)) <= 1e-14


def test_weight_nonpositive_names_the_node_of_least_weight():
    # V = x_n on the Euclidean sphere support: the cap moved down dips below x_n = 0
    sc = canonical_scenario(SupportKind.EUCLIDEAN_SPHERE)
    chart = sc.surface.chart
    U = interior_params(sc.surface)
    low = float(np.min(surface_geometry(sc.surface, U).x[-1]))
    lowered = dataclasses.replace(chart, center=chart.center - (low + 0.05) * np.eye(3)[2])
    geo = surface_geometry(dataclasses.replace(sc.surface, chart=lowered), U)
    node = int(np.argmin(geo.x[-1]))
    assert geo.x[-1, node] < 0.0
    with pytest.raises(WeightNonpositive, match=f"weight reaches {geo.x[-1, node]:.3e} on the cap "
                                                f"at parameter point") as caught:
        hypothesis_margins(sc.weight, geo)
    np.testing.assert_allclose(_named_point(caught.value), U[node], rtol=1e-5, atol=0)


def test_weight_nonpositive_names_a_nan_weight():
    sc = canonical_scenario(SupportKind.EUCLIDEAN_SPHERE)
    U = interior_params(sc.surface)
    geo = surface_geometry(sc.surface, U)
    geo.x[-1, 10] = np.nan
    with pytest.raises(WeightNonpositive, match="weight reaches nan") as caught:
        hypothesis_margins(sc.weight, geo)
    np.testing.assert_allclose(_named_point(caught.value), U[10], rtol=1e-5, atol=0)


# -- principal curvatures by Jacobi rotations -----------------------------------------


def _symmetric(stack: np.ndarray) -> np.ndarray:
    return 0.5 * (stack + stack.swapaxes(0, 1))


def _stress_stacks(k: int, m: int = 48):
    """Seeded symmetric (k, k, m) stacks, by name, for k = 1..5 (n = 2..6)."""
    rng = np.random.default_rng(k)
    eye = np.eye(k)[:, :, None]
    frames = np.linalg.qr(rng.standard_normal((m, k, k)))[0]          # (m, k, k) orthogonal

    def conjugated(values):   # Q diag(values) Q^T at each node, values (k, m)
        return _symmetric(np.einsum("mab,bm,mcb->acm", frames, values, frames))

    spread = rng.uniform(-3.0, 3.0, (k, m))
    stacks = {
        "generic": _symmetric(rng.standard_normal((k, k, m))),
        "umbilical": eye * rng.uniform(-3.0, 3.0, m),
        "diagonal": eye * spread[:, None],
        "wide": _symmetric(rng.choice([-1.0, 1.0], (k, k, m))
                           * 10.0 ** rng.uniform(-8.0, 8.0, (k, k, m))),
    }
    for rel in (1e-9, 1e-15):
        split = spread.copy()
        split[1 % k] = split[0] * (1.0 + rel)
        stacks[f"split {rel:g}"] = conjugated(split)
    return stacks


def _rotated(A: np.ndarray):
    """_jacobi_eigenvalues(A) with warnings raised as errors, checking A is left as it was."""
    before = A.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, sweeps = surfaces._jacobi_eigenvalues(A)
    np.testing.assert_array_equal(A, before)
    return values, sweeps


def _assert_eigenvalues(A: np.ndarray, values: np.ndarray):
    """Ascending (k, m) values within 32 eps max|A| of eigvalsh at each node."""
    k, _, m = A.shape
    assert values.shape == (k, m)
    assert np.all(np.diff(values, axis=0) >= 0.0)
    want = np.linalg.eigvalsh(np.moveaxis(A, -1, 0)).T
    scale = np.max(np.abs(A), axis=(0, 1))
    assert np.all(np.abs(values - want) <= 32.0 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_jacobi_eigenvalues_match_eigvalsh_on_stress_stacks(k):
    for name, A in _stress_stacks(k).items():
        values, sweeps = _rotated(A)
        _assert_eigenvalues(A, values)
        assert sweeps <= 6 < JACOBI_SWEEPS, (name, sweeps)
        if k == 1:
            assert values.tobytes() == A[0].tobytes()


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_nan_node_reads_nan_and_moves_no_other_node(k):
    A = _stress_stacks(k)["generic"]
    clean, _ = _rotated(A)
    node, others = 7, np.arange(A.shape[-1]) != 7
    for p in range(k):
        for q in range(p, k):
            bad = A.copy()
            bad[p, q, node] = bad[q, p, node] = np.nan
            values, sweeps = _rotated(bad)
            assert np.all(np.isnan(values[:, node])), (p, q)
            assert values[:, others].tobytes() == clean[:, others].tobytes()
            assert sweeps < JACOBI_SWEEPS


def test_principal_curvatures_of_caps_take_few_sweeps(monkeypatch):
    kernel, runs = surfaces._jacobi_eigenvalues, []

    def recorded(A):
        values, sweeps = kernel(A)
        runs.append((A.shape[0], sweeps))
        _assert_eigenvalues(A, values)
        return values, sweeps

    monkeypatch.setattr(surfaces, "_jacobi_eigenvalues", recorded)
    for n, surf in _charted_surfaces():
        geo = surface_geometry(surf, interior_params(surf, m=4, margin=0.3))
        kappas = principal_curvatures(geo)
        assert kappas.shape == (n - 1, geo.count)
    worst = {}
    for k, sweeps in runs:
        worst[k] = max(worst.get(k, 0), sweeps)
    assert worst[1] == 0 and worst[2] == 1
    assert worst[3] <= 3 and max(worst.values()) <= 6 < JACOBI_SWEEPS, worst
