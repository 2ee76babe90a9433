"""Quadrature: exactness, convergence bookkeeping, bit-stable reductions."""

import functools
import gc
import json
import math
import sys
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fbmink.charts as charts
import fbmink.cli as cli
import fbmink.families as families
import fbmink.inequalities as inequalities
import fbmink.quadrature as quadrature
import fbmink.surfaces as surfaces
import fbmink.weights as weights
from fbmink import (
    PerturbationSpec,
    QuadratureRule,
    SurfaceQuadrature,
    af_report,
    default_cap_spec,
    default_level,
    hypothesis_audit,
    make_perturbed_cap,
    minkowski_report,
    refine_study,
    reilly_residual,
    schur_report,
    validate_scenario,
)
from fbmink.ambient import euclidean
from fbmink.quadrature import REGION_BLOCK, RegionQuadrature, gauss_nodes, pairwise_sum, tensor_grid

from conftest import canonical_scenario, canonical_support
from fbmink import SupportKind


def test_gauss_exact_on_polynomials():
    # level q integrates degree 2q-1 exactly
    nodes, weights = gauss_nodes(5, 0.0, 2.0)
    for deg in range(10):
        got = float(np.sum(weights * nodes**deg))
        assert np.isclose(got, 2.0 ** (deg + 1) / (deg + 1), rtol=1e-13)


def test_gauss_nodes_strictly_interior():
    nodes, _ = gauss_nodes(16, -1.0, 1.0)
    assert np.all(nodes > -1.0) and np.all(nodes < 1.0)


def test_tensor_grid_weights_sum_to_box_volume():
    box = [(0.0, 1.0), (-1.0, 2.0), (0.5, 0.75)]
    pts, w = tensor_grid(4, box)
    assert np.isclose(np.sum(w), 1.0 * 3.0 * 0.25, rtol=1e-14)
    assert pts.shape == (4**3, 3)


def test_default_levels_keyed_by_ambient_dimension():
    assert default_level(2) == 32
    assert default_level(3) == 24
    assert default_level(4) == 12
    assert default_level(5) == 8
    assert default_level(6) == 6
    # every n the config schema accepts has its own entry
    n_schema = cli.load_schema()["properties"]["n"]
    assert sorted(quadrature.DEFAULT_LEVELS) == list(range(n_schema["minimum"],
                                                           n_schema["maximum"] + 1))


def test_hemisphere_area_and_volume(hemisphere):
    sq = SurfaceQuadrature(hemisphere.surface, QuadratureRule(16))
    assert np.isclose(sq.integral(np.ones(sq.geo.count)), 2.0 * math.pi, rtol=1e-12)
    rq = hemisphere.region(16)
    assert np.isclose(rq.volume(), 2.0 * math.pi / 3.0, rtol=1e-12)


def test_lens_region_volume_matches_cap_sum():
    """Sphere-support region: cap volume + spherical-lens face piece."""
    sc = canonical_scenario(SupportKind.EUCLIDEAN_SPHERE)
    rq = sc.region(24)
    # Euclidean lens volume between the two sphere caps, closed form:
    # each spherical cap of height h on radius a contributes
    # pi h^2 (3a - h) / 3.
    r = sc.spec.radius
    R = sc.support.shape.radius
    d = math.sqrt(R * R + r * r)
    # heights of the two caps cut by the radical plane at distance
    # x = (d^2 - r^2 + R^2) / (2 d) from the support center
    x_support = (d * d - r * r + R * R) / (2.0 * d)
    h_support = R - x_support
    h_cap = r - (d - x_support)
    vol = (math.pi / 3.0) * (h_support**2 * (3 * R - h_support)
                             + h_cap**2 * (3 * r - h_cap))
    assert np.isclose(rq.volume(), vol, rtol=1e-10)


def test_surface_integral_linearity(hemisphere):
    sq = SurfaceQuadrature(hemisphere.surface, QuadratureRule(10))
    z = sq.geo.x[:, 2]
    a, b = 2.5, -1.25
    assert np.isclose(sq.integral(a * z + b),
                      a * sq.integral(z) + b * sq.integral(np.ones_like(z)),
                      rtol=1e-13)


def test_moment_of_hemisphere(hemisphere):
    # int_{S^2_+} z dA = pi for the unit upper hemisphere
    sq = SurfaceQuadrature(hemisphere.surface, QuadratureRule(16))
    assert np.isclose(sq.integral(sq.geo.x[:, 2]), math.pi, rtol=1e-12)


def test_pairwise_sum_matches_math_fsum():
    rng = np.random.default_rng(0)
    v = rng.uniform(-1.0, 1.0, size=1537) * 10.0 ** rng.integers(-8, 8, size=1537)
    assert pairwise_sum(v) == pytest.approx(math.fsum(v), rel=1e-15)


def test_pairwise_sum_is_deterministic_under_copies():
    rng = np.random.default_rng(1)
    v = rng.normal(size=4096)
    assert pairwise_sum(v) == pairwise_sum(v.copy())
    # fixed reduction order: reversing the array may change the result,
    # but identical inputs always reduce identically
    assert pairwise_sum(v[::-1].copy()) == pairwise_sum(v[::-1].copy())


def test_refine_study_reports_order_and_floor():
    # a synthetic functional with exact order-4 error decay
    def fn(level):
        return 1.0 + level ** -4.0

    table = refine_study(fn, [4, 8, 16, 32])
    assert table.observed_order >= 3.5
    # constant functional: errors vanish, order saturates to inf
    flat = refine_study(lambda level: 2.0, [4, 8, 16])
    assert math.isinf(flat.observed_order)


def test_refine_study_rejects_bad_level_lists():
    with pytest.raises(ValueError):
        refine_study(lambda level: 1.0, [8])
    with pytest.raises(ValueError):
        refine_study(lambda level: 1.0, [8, 8])


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=3),
    level=st.integers(min_value=6, max_value=20),
)
def test_region_integral_linear_in_integrand(coeffs, level):
    rq = canonical_scenario(SupportKind.EUCLIDEAN_PLANE).region(level)
    a, b, c = coeffs
    f = a * rq.points[0] + b * rq.points[2] + c
    split = (a * rq.integral(rq.points[0]) + b * rq.integral(rq.points[2])
             + c * rq.volume())
    assert np.isclose(rq.integral(f), split, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    m=st.one_of(st.integers(min_value=1, max_value=2 ** 17 + 3),
                st.builds(lambda k, d: k * REGION_BLOCK + d,
                          st.integers(min_value=1, max_value=16), st.integers(min_value=-1, max_value=1))),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@example(m=1, seed=0)
@example(m=REGION_BLOCK, seed=0)
@example(m=2 ** 17, seed=0)
@example(m=2 ** 17 + 3, seed=0)
def test_blocked_region_sums_equal_one_flat_pairwise_sum(m, seed):
    # a Euclidean region keeps its cone weights as given (exp(n * 0) = 1), so the
    # blocked reduction is compared with a flat pairwise sum of the same products
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(-8.0, 8.0, m)
    weights = rng.uniform(0.0, 1.0, m)
    rq = RegionQuadrature(euclidean(2), [(np.zeros((2, m)), weights)])
    assert np.array_equal(rq.weights, weights)
    assert [b.start for b in rq.blocks] == list(range(0, m, REGION_BLOCK))
    assert [b.stop for b in rq.blocks] == [min(b.start + REGION_BLOCK, m) for b in rq.blocks]
    squares = values * values
    flat = pairwise_sum(values * weights)
    assert rq.integral(values) == flat
    assert rq.integrals(lambda b: (values[b], squares[b])) == (flat, pairwise_sum(squares * weights))
    assert rq.volume() == pairwise_sum(weights)


def test_reilly_set_holds_one_region_block_of_temporaries():
    # a perturbed hyp_geodesic_sphere cap at n=3 level 32 has 65,536 region nodes, so
    # each full-size (3, 3, m) tensor is 4.5 MiB; unblocked, the set peaked at 38 MiB
    sc = _perturbed_scenario(SupportKind.HYP_GEODESIC_SPHERE)
    tracemalloc.start()
    try:
        for name in ("V", "x1", "x1^2"):
            reilly_residual(sc, name, QuadratureRule(32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sc.region(32).count == 2 * 32 ** 3
    assert peak < 24 * 2 ** 20


def _perturbed_scenario(kind, n=3):
    return make_perturbed_cap(default_cap_spec(canonical_support(kind, n)),
                              PerturbationSpec(epsilon=0.05, power=3))


def _report_bytes(reports):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]


def test_quadrature_values_independent_of_construction_count(hemisphere):
    # rebuilding the same rule gives bit-identical integrals
    a1 = SurfaceQuadrature(hemisphere.surface, QuadratureRule(12)).integral(
        np.ones(12 * 12))
    a2 = SurfaceQuadrature(hemisphere.surface, QuadratureRule(12)).integral(
        np.ones(12 * 12))
    assert a1 == a2
    # a scenario's cached nodes give the same bits whichever consumer fills them
    rule = QuadratureRule(10)
    forward = _perturbed_scenario(SupportKind.EUCLIDEAN_SPHERE)
    forward_reports = [minkowski_report(forward, rule), af_report(forward, rule),
                       hypothesis_audit(forward, rule), reilly_residual(forward, "x1^2", rule)]
    reverse = _perturbed_scenario(SupportKind.EUCLIDEAN_SPHERE)
    reverse_reports = [reilly_residual(reverse, "x1^2", rule), hypothesis_audit(reverse, rule),
                       af_report(reverse, rule), minkowski_report(reverse, rule)]
    assert _report_bytes(reverse_reports[::-1]) == _report_bytes(forward_reports)
    # the memoized weight jets give the same Reilly rows whichever function comes first
    names = ("V", "x1", "x1^2")
    forward_rows = [reilly_residual(_perturbed_scenario(SupportKind.EUCLIDEAN_SPHERE), name, rule)
                    for name in names]
    shuffled = _perturbed_scenario(SupportKind.EUCLIDEAN_SPHERE)
    rows = {name: reilly_residual(shuffled, name, rule) for name in ("x1^2", "V", "x1")}
    assert _report_bytes(rows[name] for name in names) == _report_bytes(forward_rows)


def _patch_imports(monkeypatch, original, replacement):
    """Bind ``replacement`` at every fbmink module global that holds ``original``."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("fbmink") and getattr(mod, original.__name__, None) is original:
            monkeypatch.setattr(mod, original.__name__, replacement)


def _recording_geometry(monkeypatch, faces: list):
    """Patch ``surface_geometry`` to append the point count of each support-face call."""
    geometry = surfaces.surface_geometry

    @functools.wraps(geometry)
    def recording(surf, U, *args):
        if surf.support is None:
            faces.append(len(U))
        return geometry(surf, U, *args)

    _patch_imports(monkeypatch, geometry, recording)


def _arrays(obj, depth: int = 3):
    """The arrays reachable from obj through containers and object attributes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif depth and isinstance(obj, (dict, tuple, list)):
        for item in (obj.values() if isinstance(obj, dict) else obj):
            yield from _arrays(item, depth - 1)
    elif depth and hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj), depth - 1)


def test_each_node_set_is_evaluated_once(monkeypatch):
    """One perturbed n=4 verification: every consumer shares the node bundles."""
    counts = {"geometry": 0, "region": 0, "principal": 0, "surface": 0, "ring": 0,
              "margins": 0, "weight jet": 0, "dnu": 0}

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch_imports(original, replacement):
        _patch_imports(monkeypatch, original, replacement)

    jet = weights.jet
    jet_points = []   # the points of every jet of the weight
    boundary_parts = inequalities._boundary_parts
    coordinate_hessian = inequalities._Coordinate.euclidean_hessian

    def weight_jet(model, x, fn):
        if isinstance(fn, weights.WeightField):
            counts["weight jet"] += 1
            jet_points.append(x)
        return jet(model, x, fn)

    faces = []
    _recording_geometry(monkeypatch, faces)
    patch_imports(jet, weight_jet)
    boundary_jets = []   # the jet behind every set of boundary parts formed
    flat_points = []     # the points of every flat Hessian of a coordinate

    def recording_parts(sq, fn_jet):
        boundary_jets.append(fn_jet)
        return boundary_parts(sq, fn_jet)

    def recording_hessian(self, x):
        flat_points.append(x)
        return coordinate_hessian(self, x)

    monkeypatch.setattr(inequalities, "_boundary_parts", recording_parts)
    monkeypatch.setattr(inequalities._Coordinate, "euclidean_hessian", recording_hessian)
    patch_imports(surfaces.surface_geometry, counting("geometry", surfaces.surface_geometry))
    patch_imports(surfaces.normal_derivatives, counting("dnu", surfaces.normal_derivatives))
    monkeypatch.setattr(quadrature.RegionQuadrature, "__init__",
                        counting("region", quadrature.RegionQuadrature.__init__))
    monkeypatch.setattr(quadrature.SurfaceQuadrature, "__init__",
                        counting("surface", quadrature.SurfaceQuadrature.__init__))
    monkeypatch.setattr(surfaces, "principal_curvatures",
                        counting("principal", surfaces.principal_curvatures))
    monkeypatch.setattr(families, "boundary_checks", counting("ring", surfaces.boundary_checks))
    monkeypatch.setattr(families, "_margins", counting("margins", families._margins))

    rule = QuadratureRule(12)
    sc = _perturbed_scenario(SupportKind.EUCLIDEAN_PLANE, n=4)
    validate_scenario(sc)
    for report in (minkowski_report, af_report, schur_report, hypothesis_audit):
        report(sc, rule)
    for name in ("V", "x1", "x1^2"):
        reilly_residual(sc, name, rule)
    # base and perturbed admissibility regions, the level-12 cap, region and
    # face, and one boundary ring shared by validation and the audit
    assert counts["geometry"] == 5
    assert counts["region"] == 3
    assert counts["ring"] == 1
    # the base cap's admissibility check, then the perturbed cap's, shared by validation
    assert counts["margins"] == 2
    assert counts["principal"] == 1
    # one per node set: the two admissibility caps and the level-12 cap and face;
    # the boundary ring is the one geometry that is not a quadrature node set
    assert counts["surface"] == 4
    # one dnu per face, for all three test functions
    assert counts["dnu"] == 2
    # V's jet once on the cap and once on the face; on the region, one jet per
    # block, each on a column view of the region's one C-contiguous (n, m) node
    # array, the views consecutive and covering every node once, in order
    region = sc.region(rule.level)
    points = region.points
    n, m = points.shape
    assert (n, m) == (4, region.count) and points.flags.c_contiguous
    region_views = [x for x in jet_points if x.base is points]
    assert counts["weight jet"] == 2 + len(region_views)
    assert len(region_views) > 1
    starts = [(x.__array_interface__["data"][0] - points.__array_interface__["data"][0])
              // points.itemsize for x in region_views]
    ends = [start + x.shape[1] for start, x in zip(starts, region_views)]
    assert starts == [0, *ends[:-1]] and ends[-1] == m
    assert all(x.shape[0] == n and x.strides == points.strides for x in region_views)
    # the scenario's level-12 sets keep no (m, n) copy of the region nodes and, of
    # the (n, n, m) tensors, only V's covariant Hessian: no full-size static tensor
    held = list(_arrays({key: value for key, value in sc._cache.items()
                         if isinstance(key, tuple) and key[-1] == rule.level}))
    assert any(a is points for a in held)
    assert [a.shape for a in held if a.shape == (m, n)] == []
    hess_V = sc.weight_jet("region", rule.level)[3]
    assert [a is hess_V for a in held if a.shape == (n, n, m)] == [True]
    # V's boundary parts once per face over the three test functions, and one set for
    # each coordinate on each face; no coordinate forms a flat Hessian on region nodes
    V_jets = [sc.weight_jet(label, rule.level) for label in ("cap", "support")]
    assert [sum(j is V_jet for j in boundary_jets) for V_jet in V_jets] == [1, 1]
    assert len(boundary_jets) == 2 + 2 * 2
    assert [x.shape[-1] for x in flat_points] == [geo.x.shape[0] for geo in (
        sc.quadrature(label, rule.level).geo for label in ("cap", "support"))] * 2
    # a perturbed cap over a sphere reads the level-6 face nodes and cone of its
    # base cap's admissibility check
    faces.clear()
    validate_scenario(_perturbed_scenario(SupportKind.EUCLIDEAN_SPHERE))
    assert faces == [6 * 6]


@pytest.mark.parametrize("jobs", [1, 2, 8])
def test_sweep_builds_its_base_cap_once(monkeypatch, tmp_path, jobs):
    """A five-epsilon sweep over a sphere at level 16 builds and checks one base
    cap and evaluates its epsilon-free node sets once, with any job count (8 jobs
    on a short thread switch interval stress the workers sharing the base cap)."""
    margins, faces, caps = [], [], []    # list.append is atomic, so workers may share them
    margins_fn, evaluate = families._margins, charts.SphericalCapChart.evaluate

    def recording_margins(scenario):
        margins.append(scenario.epsilon)
        return margins_fn(scenario)

    def recording_evaluate(chart, U):
        if np.any(chart.center):    # the cap's chart; the face's is centered at the origin
            caps.append(len(np.atleast_2d(U)))
        return evaluate(chart, U)

    monkeypatch.setattr(families, "_margins", recording_margins)
    monkeypatch.setattr(charts.SphericalCapChart, "evaluate", recording_evaluate)
    _recording_geometry(monkeypatch, faces)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"version": 1, "support": {"kind": "euclidean_sphere"},
                               "quadrature": {"level": 16}}))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert cli.main(["sweep", "--config", str(cfg), "--jobs", str(jobs),
                         "--out", str(tmp_path / "sweep.csv")]) == 0
    finally:
        sys.setswitchinterval(interval)
    epsilons = cli.DEFAULT_SWEEP_EPSILONS
    # the base cap's admissibility once, then each perturbed cap's
    assert sorted(margins) == [0.0, *epsilons]
    # the face once at level 16 and once at the admissibility level 6
    assert sorted(faces) == [6 * 6, 16 * 16]
    # the base cap once per node grid: levels 6, 8 (the reach probe) and 16, and once
    # on its 24-point boundary ring, which every perturbed cap reads
    assert Counter(caps) == {6 * 6: 1, 8 * 8: 1, 16 * 16: 1, 24: 1}


def test_node_bundle_is_freed_with_its_scenario():
    # a memoized node set referring back to its scenario, or a base cap to its
    # perturbations, would wait for the cyclic collector
    gc.disable()
    try:
        sc = _perturbed_scenario(SupportKind.EUCLIDEAN_SPHERE)
        rule = QuadratureRule(8)
        minkowski_report(sc, rule)
        reilly_residual(sc, "V", rule)
        region = weakref.ref(sc.region(rule.level))
        # the perturbed cap, its base and their node sets at levels 6 and 8 (the
        # admissibility check and this rule): the perturbed cap's cap and region at
        # both levels, and the base's cap and region at 6 and its face at 6 and 8
        held = [sc, sc.base, *sc._cache.values(), *sc.base._cache.values()]
        refs = [weakref.ref(x) for x in held
                if isinstance(x, (families.CapScenario, SurfaceQuadrature, RegionQuadrature))]
        assert len(refs) == 10
        del sc, held
        assert region() is None
        assert [ref() for ref in refs] == [None] * 10
    finally:
        gc.enable()
