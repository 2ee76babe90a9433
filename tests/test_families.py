"""Scenario factory: placements, perturbations, validation failure modes."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmink import (
    CapSpec,
    InadmissiblePlacement,
    OrthogonalityInfeasible,
    PerturbationSpec,
    PointOutsideChart,
    QuadratureRule,
    SupportKind,
    ValidationFailed,
    af_report,
    default_cap_spec,
    hypothesis_audit,
    make_perturbed_cap,
    make_support,
    make_umbilical_cap,
    minkowski_report,
    perturb_cap,
    region_margins,
    reilly_residual,
    schur_report,
    validate_scenario,
)
from fbmink import families, quadrature
from fbmink.ambient import radial
from fbmink.charts import PerturbedCapChart, RadialBumpProfile
from fbmink.families import CHART_CLEARANCE, _check_profile_conforms, placement_margins
from fbmink.quadrature import REGION_BLOCK
from fbmink.supports import plane_anchor
from fbmink.surfaces import boundary_checks, surface_geometry
from fbmink.weights import WeightField, jet

from conftest import canonical_support, region_integrals


def test_all_canonical_scenarios_validate():
    from conftest import canonical_scenario
    for kind in SupportKind:
        validate_scenario(canonical_scenario(kind))


def test_tilted_cap_rejected_naming_the_check():
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    sc = make_umbilical_cap(CapSpec(support=support, radius=1.0, tilt=0.2))
    with pytest.raises(ValidationFailed) as exc:
        validate_scenario(sc)
    assert exc.value.check == "boundary_orthogonality"


def test_sphere_support_off_orthogonal_distance_rejected():
    support = canonical_support(SupportKind.EUCLIDEAN_SPHERE)
    sc = make_umbilical_cap(
        CapSpec(support=support, radius=0.5, center_distance=1.2))
    with pytest.raises(ValidationFailed) as exc:
        validate_scenario(sc)
    assert exc.value.check == "boundary_orthogonality"


def test_disjoint_sphere_placement_infeasible():
    support = canonical_support(SupportKind.EUCLIDEAN_SPHERE)
    with pytest.raises(OrthogonalityInfeasible):
        make_umbilical_cap(
            CapSpec(support=support, radius=0.2, center_distance=5.0))


@pytest.mark.parametrize("radius, extra", [
    (float("nan"), {}),
    (-0.5, {}),
    (1.0, {"axis": (0.0, 1.0)}),
    (1.0, {"axis": (0.0, 0.0, 0.0)}),
    (1.0, {"axis": (0.0, 0.0, float("nan"))}),
    (1.0, {"center_shift": (0.1,)}),
    (1.0, {"center_shift": (0.1, float("inf"))}),
    (1.0, {"tilt": float("inf")}),
])
def test_malformed_placement_infeasible(radius, extra):
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    with pytest.raises(OrthogonalityInfeasible):
        make_umbilical_cap(CapSpec(support=support, radius=radius, **extra))


@pytest.mark.parametrize("theta", [1.57078, 1.570796])
def test_nearly_vertical_equidistant_cap_stays_on_its_support(theta):
    # the support plane is nearly vertical but not vertical, so its anchor is
    # not lifted off the plane; a cap there crosses the chart wall x_n = 0, so
    # the default cap's anchor moves up along the plane
    support = make_support("equidistant", 3, theta=theta)
    assert abs(float(support.signed_distance(plane_anchor(support)))) <= 1e-15
    with pytest.raises(InadmissiblePlacement, match="chart margin -3.000e-01"):
        make_umbilical_cap(CapSpec(support=support, radius=0.3))
    validate_scenario(make_umbilical_cap(default_cap_spec(support)))


@pytest.mark.parametrize("theta", [k / 10 for k in range(1, 16)])
def test_default_equidistant_cap_builds_at_every_angle(theta):
    """Every default cap builds, validates and keeps CHART_CLEARANCE radii over x_n = 0;
    the anchor moves only where the cap at the plane point nearest the origin would not."""
    support = make_support("equidistant", 3, theta=theta)
    spec = default_cap_spec(support)
    sc = make_umbilical_cap(spec)
    validate_scenario(sc)
    chart = sc.surface.chart
    lowest = placement_margins(support, chart.center, chart.radius)["chart"]
    assert lowest >= CHART_CLEARANCE * spec.radius - 1e-12
    at_nearest = placement_margins(support, plane_anchor(support), spec.radius)["chart"]
    assert (spec.center_shift is None) == (at_nearest >= CHART_CLEARANCE * spec.radius)
    if spec.center_shift is not None:
        assert lowest == pytest.approx(CHART_CLEARANCE * spec.radius, abs=1e-12)


def test_placements_leaving_half_region_rejected():
    # cap pokes out of the unit-ball half region
    with pytest.raises(InadmissiblePlacement):
        make_umbilical_cap(
            CapSpec(support=canonical_support(SupportKind.SPH_HYPERPLANE), radius=1.0))
    # cap reaches the hyperbolic chart wall x_n = 0
    with pytest.raises(InadmissiblePlacement):
        make_umbilical_cap(
            CapSpec(support=canonical_support(SupportKind.HYP_GEODESIC_PLANE), radius=1.0))
    with pytest.raises(InadmissiblePlacement):
        make_umbilical_cap(
            CapSpec(support=canonical_support(SupportKind.EQUIDISTANT), radius=2.5))


def test_perturbation_requires_smooth_profile_order():
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    spec = CapSpec(support=support, radius=1.0)
    with pytest.raises(Exception):
        make_perturbed_cap(spec, PerturbationSpec(epsilon=0.05, power=2))


@pytest.mark.parametrize("kind", [SupportKind.EUCLIDEAN_PLANE, SupportKind.HOROSPHERE,
                                  SupportKind.EUCLIDEAN_SPHERE])
@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_a_non_finite_cap_radius_is_infeasible_before_any_evaluation(kind, radius):
    # rejected before any chart evaluation: an infinite radius there warns, then
    # raises DegenerateImmersion (plane) or PointOutsideChart (horosphere)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OrthogonalityInfeasible, match="^cap radius must be positive and finite"):
            make_umbilical_cap(CapSpec(support=canonical_support(kind), radius=radius))


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_a_non_finite_epsilon_is_rejected_up_front(epsilon):
    # rejected before the chart is displaced, which would raise DegenerateImmersion
    base = make_umbilical_cap(default_cap_spec(canonical_support(SupportKind.EUCLIDEAN_PLANE)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationFailed, match="^perturbation_epsilon: epsilon must be finite") as info:
            perturb_cap(base, PerturbationSpec(epsilon=epsilon))
    assert info.value.check == "perturbation_epsilon"


def test_only_an_umbilical_cap_is_perturbed():
    dimple = make_perturbed_cap(default_cap_spec(canonical_support(SupportKind.EUCLIDEAN_PLANE)),
                                PerturbationSpec(epsilon=0.05))
    with pytest.raises(ValidationFailed, match="perturbation_base"):
        perturb_cap(dimple, PerturbationSpec(epsilon=0.05))


def test_zero_perturbation_is_bitwise_identical_to_base():
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    spec = CapSpec(support=support, radius=1.0)
    base = make_umbilical_cap(spec)
    pert = make_perturbed_cap(spec, PerturbationSpec(epsilon=0.0, power=3))
    U = np.array([[0.4, 1.1], [1.2, 3.0], [0.9, 5.5]])
    xb = surface_geometry(base.surface, U).x
    xp = surface_geometry(pert.surface, U).x
    assert np.array_equal(xb, xp)


def test_perturbation_is_linear_in_epsilon_at_fixed_point():
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    spec = CapSpec(support=support, radius=1.0)
    base = make_umbilical_cap(spec)
    U = np.array([[0.5, 0.7]])
    x0 = surface_geometry(base.surface, U).x[0]
    deltas = {}
    for eps in (0.03, -0.03):
        sc = make_perturbed_cap(spec, PerturbationSpec(epsilon=eps, power=3))
        deltas[eps] = surface_geometry(sc.surface, U).x[0] - x0
    # graph displacement is eps * p(t) * direction: odd in eps
    assert np.allclose(deltas[0.03], -deltas[-0.03], atol=1e-15)


@pytest.mark.parametrize("kind", list(SupportKind))
def test_perturbed_caps_keep_free_boundary_data(kind):
    from fbmink import default_cap_spec
    support = canonical_support(kind)
    spec = default_cap_spec(support)
    sc = make_perturbed_cap(spec, PerturbationSpec(epsilon=0.04, power=3))
    angle, on_support, _ = boundary_checks(sc.surface)
    assert angle <= 1e-8
    assert on_support <= 1e-8


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", list(SupportKind))
def test_perturbed_cap_reads_its_base_caps_ring(kind, n):
    # the bump and its first two derivatives vanish on the ring, so the perturbed
    # ring's X, J and H are the base's and its checks agree bit for bit
    base = make_umbilical_cap(default_cap_spec(canonical_support(kind, n)))
    for eps in (0.05, -0.05):
        pert = perturb_cap(base, PerturbationSpec(epsilon=eps, power=3))
        bits = [[x.hex() for x in checks] for checks in
                (pert.boundary(), base.boundary(), boundary_checks(pert.surface))]
        assert bits[0] == bits[1] == bits[2]


def test_perturbations_read_their_base_caps_face_jet(monkeypatch):
    # V's boundary parts on the support face are epsilon-free, so every perturbation
    # of one base cap reads the base's: the face's nodes take one jet
    base = make_umbilical_cap(default_cap_spec(canonical_support(SupportKind.EUCLIDEAN_SPHERE)))
    rule = QuadratureRule(16)
    face_x = base.piece("support", rule).geo.x
    face_jets = []

    def recording_jet(model, x, fn):
        if np.shares_memory(x, face_x):
            face_jets.append(x)
        return jet(model, x, fn)

    monkeypatch.setattr(quadrature, "jet", recording_jet)
    perturbed = [perturb_cap(base, PerturbationSpec(epsilon=eps)) for eps in (0.05, -0.03)]
    for sc in perturbed:
        reilly_residual(sc, "x1", rule)
    assert len(face_jets) == 1
    for sc in perturbed:
        assert sc.piece("support", rule).weight_parts() is base.piece("support", rule).weight_parts()


def test_perturbations_read_their_base_caps_face_rows(monkeypatch):
    # a perturbation's face piece is its base cap's, and the Reilly block sums on the
    # face's cone are epsilon-free: two perturbations of one base cap run V and V's flat
    # Hessian once on each block of that cone, in the one pass that forms x1's and
    # x1^2's integrands
    rule = QuadratureRule(24)
    spec = default_cap_spec(canonical_support(SupportKind.EUCLIDEAN_SPHERE))
    base = make_umbilical_cap(spec)
    face = base.piece("support", rule).cone()[0]
    calls = {"value": [], "euclidean_hessian": []}

    def record(name):
        fn = getattr(WeightField, name)

        def recording(weight, x):
            pts = radial(x).x   # the kernel passes a Radial of its block
            if np.shares_memory(pts, face):
                calls[name].append(((pts.__array_interface__["data"][0]
                                     - face.__array_interface__["data"][0]) // face.itemsize,
                                    pts.shape[1]))
            return fn(weight, x)
        monkeypatch.setattr(WeightField, name, recording)

    for name in calls:
        record(name)
    perturbed = [perturb_cap(base, PerturbationSpec(epsilon=eps)) for eps in (0.05, -0.03)]
    reports = [reilly_residual(sc, "x1", rule).to_dict() for sc in perturbed]
    monkeypatch.undo()
    assert all(sc.piece("support", rule) is base.piece("support", rule) for sc in perturbed)
    count = face.shape[1]
    blocks = [(lo, min(REGION_BLOCK, count - lo)) for lo in range(0, count, REGION_BLOCK)]
    assert len(blocks) == 2
    assert calls == {name: blocks for name in calls}
    fresh = make_umbilical_cap(spec)
    reilly_residual(fresh, "x1", rule)
    key = ("reilly axis", 0)
    sums, expected = (cap.piece("support", rule)._cache[key] for cap in (base, fresh))
    assert sums == expected and len(sums) == 4
    # the reports are those of perturbations that form every row themselves
    unshared = [reilly_residual(make_perturbed_cap(spec, PerturbationSpec(epsilon=eps)), "x1",
                                rule).to_dict() for eps in (0.05, -0.03)]
    assert reports == unshared


def test_region_nodes_outside_the_chart_fail_every_consumer_alike():
    # each cone's star center is checked as the cone is built, so every Reilly row, the
    # V row that forms no region rows included, names the star center outside the
    # chart (the weighted volume reads the cap alone): below x_n = 0 for the one cone
    # of a horosphere cap, and, for the two cones of a cap over a geodesic sphere of
    # chart radius 0.99, past the unit sphere beyond the corner ring, midway between two
    # of the level-8 azimuthal nodes, where every node of both pieces still faces it
    horosphere = make_umbilical_cap(default_cap_spec(canonical_support(SupportKind.HOROSPHERE)))
    below = horosphere.star_center.copy()
    below[-1] = -1.0
    sphere = make_umbilical_cap(default_cap_spec(
        make_support(SupportKind.HYP_GEODESIC_SPHERE, 3, chart_radius=0.99)))
    beyond = np.array([-0.505, 0.0, 0.87])
    assert sphere.pieces == ("cap", "support") and np.linalg.norm(beyond) > 1.0
    rule = QuadratureRule(8)
    for sc, star in ((horosphere, below), (sphere, beyond)):
        chart = sc.model.kind.value
        messages = set()
        for consumer in (lambda bad: reilly_residual(bad, "V", rule),
                         lambda bad: reilly_residual(bad, "x1", rule),
                         lambda bad: reilly_residual(bad, "x1^2", rule)):
            with pytest.raises(PointOutsideChart, match=f"{chart} chart domain") as info:
                consumer(dataclasses.replace(sc, star_center=star))
            messages.add(str(info.value))
        assert messages == {f"point {star.tolist()} is outside the {chart} chart domain"}
        # at its own star center, the V row builds the cone of every region piece
        reilly_residual(sc, "V", rule)
        assert all("cone" in sc.piece(label, rule)._cache for label in sc.pieces)


def test_the_face_of_a_plane_cap_is_no_piece_of_its_region():
    # the face of a plane cap passes through the star center: its piece carries the
    # identity's boundary terms, but the region is the cap's cone alone; the Minkowski
    # report reads its volume off the cap, and builds neither a cone nor the face piece
    sc = make_umbilical_cap(default_cap_spec(canonical_support(SupportKind.EUCLIDEAN_PLANE)))
    rule = QuadratureRule(8)
    assert sc.pieces == ("cap",)
    report = minkowski_report(sc, rule)
    cap = sc.piece("cap", rule)
    assert ("support", rule) not in sc._cache and "cone" not in cap._cache
    assert report.integrals["weighted_volume"] == sc.weighted_volume(rule)
    reilly_residual(sc, "x1", rule)
    assert "cone" in cap._cache
    assert report.integrals["weighted_volume"] == pytest.approx(
        region_integrals(sc, rule, lambda x: (sc.weight.value(x),))[0], rel=4e-15, abs=0.0)
    face = sc.piece("support", rule)
    assert set(face._cache) == {"curvature", "dnu", "weight parts"}
    # admissibility reads no node of the face
    assert ("support", families.ADMISSIBILITY_RULE) not in sc._cache


def _memo_kind(key):
    return key[0] if isinstance(key, tuple) else key


def _base_arrays(sc, rule) -> list:
    """The arrays a perturbation reads of its base cap, in the order asked: the cap's
    grid, and the face piece's nodes, weights, V's parts there and, where the face is
    a piece of the region, its cone."""
    face = sc.piece("support", rule)
    arrays = [*sc.grid(rule), face.geo.x, face.weights]
    if "support" in sc.pieces:
        arrays += [*face.cone()]
    return arrays + list(face.weight_parts())


# n=3 level 24: the face's cone has two blocks; n=4 level 8: one
@pytest.mark.parametrize("n, level", [(3, 24), (4, 8)])
@pytest.mark.parametrize("kind", [SupportKind.EUCLIDEAN_SPHERE, SupportKind.EUCLIDEAN_PLANE])
def test_perturbations_hold_their_base_caps_face_piece(kind, n, level):
    # asked first, a perturbation builds its base cap's face piece, grid and ring
    rule = QuadratureRule(level)
    spec = default_cap_spec(canonical_support(kind, n))
    sc = perturb_cap(make_umbilical_cap(spec), PerturbationSpec(epsilon=0.05))
    first, ring = _base_arrays(sc, rule), sc.boundary()
    assert sc.piece("support", rule) is sc.base.piece("support", rule)
    assert all(a is b for a, b in zip(first, _base_arrays(sc.base, rule), strict=True))
    assert ring is sc.base.boundary()
    fresh = make_umbilical_cap(spec)
    assert [a.tobytes() for a in first] == [a.tobytes() for a in _base_arrays(fresh, rule)]
    assert [x.hex() for x in ring] == [x.hex() for x in fresh.boundary()]

    # a full verification: the perturbed cap memoizes only its own cap's sets, and its
    # face piece at each rule is its base cap's; the reports and the audit read the cap
    # alone, so the Reilly rows are the first to build a cone or the face at this rule
    sc = perturb_cap(make_umbilical_cap(spec), PerturbationSpec(epsilon=0.05))
    for cap in (sc, sc.base):
        validate_scenario(cap)
        for report in (minkowski_report, af_report, hypothesis_audit,
                       *((schur_report,) if n >= 4 else ())):
            report(cap, rule)
    assert ("support", rule) not in sc.base._cache
    assert all("cone" not in cap.piece("cap", rule)._cache for cap in (sc, sc.base))
    for cap in (sc, sc.base):
        for name in ("V", "x1", "x1^2"):
            reilly_residual(cap, name, rule)
    assert {_memo_kind(key) for key in sc._cache} == {"cap", "weight", "margins"}
    assert {_memo_kind(key) for key in sc.base._cache} >= {"grid", "boundary", "support"}
    for r in (rule, families.ADMISSIBILITY_RULE):
        assert sc.piece("support", r) is sc.base._cache[("support", r)]
    face = sc.piece("support", rule)
    assert {_memo_kind(key) for key in face._cache} == {"curvature", "dnu", "weight parts"} | (
        {"cone", "reilly axis"} if "support" in sc.pieces else set())


@pytest.mark.parametrize("kind, n", [*((kind, 3) for kind in SupportKind),
                                     (SupportKind.EUCLIDEAN_PLANE, 4),
                                     (SupportKind.SPH_HYPERPLANE, 4)])
def test_reach_bounds_every_admissibility_node_of_a_perturbed_cap(kind, n):
    # a node moves by |eps| |p| exp(-phi) along the radial normal, so the ball
    # B(center, r + |eps| reach) the placement precheck tests holds every level-6 cap
    # node of each perturbation, the nodes the admissibility check then evaluates
    base = make_umbilical_cap(default_cap_spec(canonical_support(kind, n)))
    chart = base.surface.chart
    reach = base.reach(3)
    for eps in (-0.1, -0.05, 0.05, 0.1):   # all of them build on every case here
        sc = perturb_cap(base, PerturbationSpec(epsilon=eps))
        X = sc.cap_terms(families.ADMISSIBILITY_RULE)[0]
        bound = chart.radius + abs(eps) * reach
        assert np.max(np.linalg.norm(X - chart.center[:, None], axis=0)) <= bound * (1.0 + 1e-12)


def test_perturbed_cap_terms_displace_the_cap_once(monkeypatch):
    # a perturbed cap's chart values are not memoized, so its terms form them once
    sc = make_perturbed_cap(default_cap_spec(canonical_support(SupportKind.EUCLIDEAN_PLANE)),
                            PerturbationSpec(epsilon=0.05))
    displace, points = PerturbedCapChart.displace, []

    def recording_displace(chart, params, terms):
        points.append(len(params))
        return displace(chart, params, terms)

    monkeypatch.setattr(PerturbedCapChart, "displace", recording_displace)
    sc.cap_terms(families.ADMISSIBILITY_RULE)
    assert points == [6 * 6]


def test_profile_with_curvature_on_the_ring_rejected():
    # a bump that vanishes with its gradient but not its second derivative would
    # change the ring's second fundamental form, which perturbed caps read from the base
    class CurvedAtRing:
        def evaluate(self, U):
            m, q = np.atleast_2d(U).shape
            d2p = np.zeros((q, q, m))
            d2p[0, 0] = 1.0
            return np.zeros(m), np.zeros((q, m)), d2p

    base = make_umbilical_cap(default_cap_spec(canonical_support(SupportKind.EUCLIDEAN_PLANE)))
    with pytest.raises(ValidationFailed, match="first two derivatives"):
        _check_profile_conforms(CurvedAtRing(), base.surface.chart)


def test_profile_nonzero_at_the_arcs_other_end_rejected():
    # an n = 2 cap is an arc whose ring is both its ends, t = -t_max and t = t_max;
    # this bump vanishes to second order at t_max alone
    class OneSided:
        def __init__(self, t_max):
            self.t_max = t_max

        def evaluate(self, U):
            t = np.atleast_2d(U)[:, 0]
            z = (self.t_max - t) / (2.0 * self.t_max)
            return z ** 3, (-1.5 * z ** 2 / self.t_max)[None], (1.5 * z / self.t_max ** 2)[None, None]

    base = make_umbilical_cap(default_cap_spec(canonical_support(SupportKind.EUCLIDEAN_SPHERE, 2)))
    chart = base.surface.chart
    assert chart.domain == [(-chart.t_max, chart.t_max)]
    with pytest.raises(ValidationFailed, match="first two derivatives"):
        _check_profile_conforms(OneSided(chart.t_max), chart)


def test_bump_vanishes_exactly_where_pow_and_product_round_apart():
    # for this cap's t_max, t_max ** 2 (libm pow) and t_max * t_max differ in the last
    # bit; the bump squares both t and t_max by multiplication, so it and its first two
    # derivatives are exactly 0 on the ring, the cap builds and reads its base's ring
    spec = CapSpec(support=canonical_support(SupportKind.EUCLIDEAN_SPHERE), radius=14.046895)
    base = make_umbilical_cap(spec)
    t_max = base.surface.chart.t_max
    assert t_max == 0.0710702097898708 and t_max * t_max != t_max ** 2
    ring = np.array([[t_max, 0.5], [t_max, 4.0]])
    for power in (3, 4):
        p, dp, d2p = RadialBumpProfile(t_max, power).evaluate(ring)
        assert not (p.any() or dp.any() or d2p.any())
    pert = perturb_cap(base, PerturbationSpec(epsilon=0.001))
    bits = [[x.hex() for x in checks] for checks in (pert.boundary(), boundary_checks(pert.surface))]
    assert bits[0] == bits[1]


@pytest.mark.parametrize("power", [3, 4, 7])
def test_bump_value_is_the_p_of_evaluate_bit_for_bit(power):
    # the reach of a perturbation reads the value alone; it must be evaluate's p
    t_max = 0.0710702097898708
    rng = np.random.default_rng(power)
    U = np.column_stack([rng.uniform(-t_max, t_max, 50), rng.uniform(0.0, 6.3, 50)])
    U[0, 0] = t_max
    profile = RadialBumpProfile(t_max, power)
    p = profile.value(U)
    assert p.shape == (50,) and p[0] == 0.0
    assert p.tobytes() == profile.evaluate(U)[0].tobytes()


def test_perturbed_cap_near_wall_rejected():
    # base cap fits, the perturbed envelope does not
    support = canonical_support(SupportKind.SPH_HYPERPLANE)
    spec = CapSpec(support=support, radius=0.78)
    make_umbilical_cap(spec)  # base is fine
    with pytest.raises(InadmissiblePlacement):
        make_perturbed_cap(spec, PerturbationSpec(epsilon=0.4, power=3))


def test_region_margins_are_positive_for_canonical_caps():
    from conftest import canonical_scenario
    for kind in SupportKind:
        sc = canonical_scenario(kind)
        margins = region_margins(sc)
        for name, value in margins.items():
            assert value > 0.0, f"{kind} margin {name} = {value}"
        # callers get a copy of the memoized margins
        margins.clear()
        assert region_margins(sc)


def test_scenario_metadata():
    from conftest import canonical_scenario
    sc = canonical_scenario(SupportKind.EQUIDISTANT)
    assert sc.n == 3
    assert sc.epsilon == 0.0
    assert "equidistant" in sc.description


@settings(max_examples=20, deadline=None)
@given(
    radius=st.floats(min_value=0.1, max_value=0.45),
    eps=st.floats(min_value=-0.1, max_value=0.1),
)
def test_hyperbolic_ball_caps_validate_across_radii(radius, eps):
    support = canonical_support(SupportKind.HYP_GEODESIC_SPHERE)
    spec = CapSpec(support=support, radius=radius)
    if abs(eps) < 1e-12:
        sc = make_umbilical_cap(spec)
    else:
        sc = make_perturbed_cap(spec, PerturbationSpec(epsilon=eps, power=3))
    validate_scenario(sc)


def test_axis_must_not_be_antiparallel_to_feasibility():
    # tilt >= pi/2 has no orthogonal spherical cap over a plane
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    with pytest.raises(OrthogonalityInfeasible):
        make_umbilical_cap(CapSpec(support=support, radius=1.0, tilt=math.pi / 2))
