"""Quadrature: exactness, convergence bookkeeping, bit-stable reductions."""

import functools
import gc
import json
import math
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fbmink.ambient as ambient
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
from fbmink.quadrature import REGION_BLOCK, pairwise_sum, region_sum

from conftest import canonical_scenario, canonical_support, region_integrals, region_volume
from fbmink import SupportKind


def test_gauss_exact_on_polynomials():
    # level q integrates degree 2q-1 exactly
    nodes, weights = QuadratureRule(5).nodes(0.0, 2.0)
    for deg in range(10):
        got = float(np.sum(weights * nodes**deg))
        assert np.isclose(got, 2.0 ** (deg + 1) / (deg + 1), rtol=1e-13)


def test_gauss_nodes_strictly_interior():
    nodes, _ = QuadratureRule(16).nodes(-1.0, 1.0)
    assert np.all(nodes > -1.0) and np.all(nodes < 1.0)


def test_tensor_grid_weights_sum_to_box_volume():
    box = [(0.0, 1.0), (-1.0, 2.0), (0.5, 0.75)]
    pts, w = QuadratureRule(4).grid(box)
    assert np.isclose(np.sum(w), 1.0 * 3.0 * 0.25, rtol=1e-14)
    assert pts.shape == (4**3, 3)


@pytest.mark.parametrize("level", [2.5, 12.0, "12", None])
def test_rule_rejects_a_non_integer_level(level):
    with pytest.raises(ValueError, match="must be an integer"):
        QuadratureRule(level)


def test_rule_rejects_a_level_below_two_and_keys_by_level():
    with pytest.raises(ValueError, match="at least 2"):
        QuadratureRule(1)
    # any integer type gives the same memo key
    rule = QuadratureRule(np.int64(12))
    assert rule == QuadratureRule(12) and hash(rule) == hash(QuadratureRule(12))


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
    assert np.isclose(region_volume(hemisphere, QuadratureRule(16)), 2.0 * math.pi / 3.0,
                      rtol=1e-12)


def test_lens_region_volume_matches_cap_sum():
    """Sphere-support region: cap volume + spherical-lens face piece."""
    sc = canonical_scenario(SupportKind.EUCLIDEAN_SPHERE)
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
    assert np.isclose(region_volume(sc, QuadratureRule(24)), vol, rtol=1e-10)


def test_surface_integral_linearity(hemisphere):
    sq = SurfaceQuadrature(hemisphere.surface, QuadratureRule(10))
    z = sq.geo.x[2]
    a, b = 2.5, -1.25
    assert np.isclose(sq.integral(a * z + b),
                      a * sq.integral(z) + b * sq.integral(np.ones_like(z)),
                      rtol=1e-13)


def test_moment_of_hemisphere(hemisphere):
    # int_{S^2_+} z dA = pi for the unit upper hemisphere
    sq = SurfaceQuadrature(hemisphere.surface, QuadratureRule(16))
    assert np.isclose(sq.integral(sq.geo.x[2]), math.pi, rtol=1e-12)


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
    sc, rule = canonical_scenario(SupportKind.EUCLIDEAN_PLANE), QuadratureRule(level)
    a, b, c = coeffs
    f, x0, x2 = region_integrals(sc, rule, lambda j, x: (a * x[0] + b * x[2] + c, x[0], x[2]))
    split = a * x0 + b * x2 + c * region_volume(sc, rule)
    assert np.isclose(f, split, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    m=st.one_of(st.integers(min_value=1, max_value=2 ** 17 + 3),
                st.builds(lambda k, d: k * REGION_BLOCK + d,
                          st.integers(min_value=1, max_value=16), st.integers(min_value=-1, max_value=1))),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
@example(m=1, seed=0, cut=0.0)
@example(m=REGION_BLOCK, seed=0, cut=0.0)
@example(m=2 ** 17, seed=0, cut=0.0)
@example(m=2 ** 17 + 3, seed=0, cut=0.0)
@example(m=3 * 24 ** 3, seed=0, cut=0.5)     # n=3 level 24 sphere caps: partial blocks in both
@example(m=2 * REGION_BLOCK, seed=0, cut=0.5)   # pieces that meet on a block boundary
def test_blocked_region_sums_equal_pairwise_sums_over_pieces(m, seed, cut):
    # the nodes come as one piece, or as two cut at node int(cut * m); each piece's cone
    # is kept as given and ``cut`` into blocks from its own first node, each a view into
    # it; a piece's ``block_sums`` reduce to one flat pairwise sum over its nodes, and
    # ``region_sum`` is the pairwise sum of those over the pieces
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(-8.0, 8.0, m)
    weights = rng.uniform(0.0, 1.0, m)
    points = rng.uniform(-1.0, 1.0, (2, m))
    bounds = sorted({0, int(cut * m), m})
    spans = list(zip(bounds, bounds[1:]))
    pieces = [(points[:, lo:hi].copy(), weights[lo:hi].copy()) for lo, hi in spans]
    assert sum(wt.size for piece in pieces for _, wt in quadrature.cut(*piece)) == m
    for (pts, wt), (lo, hi) in zip(pieces, spans, strict=True):
        blocks = quadrature.cut(pts, wt)
        starts = range(lo, hi, REGION_BLOCK)
        assert len(blocks) == len(starts)
        for start, (x, w) in zip(starts, blocks):
            stop = min(start + REGION_BLOCK, hi)
            assert x.tobytes() == points[:, start:stop].tobytes()
            assert w.tobytes() == weights[start:stop].tobytes()
            assert x.base is pts and w.base is wt

    def over_pieces(v):
        return pairwise_sum(np.array([pairwise_sum(v[lo:hi] * weights[lo:hi]) for lo, hi in spans]))

    def block(v, i, j, x):
        lo = spans[i][0] + j * REGION_BLOCK
        return v[lo:lo + x.shape[1]]

    def integrals(integrands):   # block_sums reads no more of a piece than its cone()
        sums = [families.Piece.block_sums(SimpleNamespace(cone=lambda piece=piece: piece),
                                          functools.partial(integrands, i))
                for i, piece in enumerate(pieces)]
        return tuple(region_sum(terms) for terms in zip(*sums))

    squares = values * values
    sums = integrals(lambda i, j, x: (block(values, i, j, x), block(squares, i, j, x)))
    assert sums == (over_pieces(values), over_pieces(squares))
    assert integrals(lambda i, j, x: (np.ones(x.shape[1]),)) == (over_pieces(np.ones(m)),)
    if len(pieces) == 1:
        assert sums[0] == pairwise_sum(values * weights)


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
    assert sum(sc.piece(label, QuadratureRule(32)).cone()[1].size
               for label in sc.pieces) == 2 * 32 ** 3
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
    counts = {"geometry": 0, "principal": 0, "surface": 0, "ring": 0,
              "margins": 0, "weight jet": 0, "dnu": 0}
    cones = []   # (label, level) of every flat cone
    flat_cone = quadrature.cone

    def counting(key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch_imports(original, replacement):
        _patch_imports(monkeypatch, original, replacement)

    jet = weights.jet
    boundary_parts = quadrature.SurfaceQuadrature.boundary_parts
    coordinate_hessian = inequalities._Coordinate.euclidean_hessian
    V_derivatives = {"euclidean_gradient": [], "euclidean_hessian": []}   # their points
    V_jets = []   # V's jets, as the patched ``jet`` returns them

    def weight_jet(model, x, fn):
        if isinstance(fn, weights.WeightField):
            counts["weight jet"] += 1
            V_jets.append(jet(model, x, fn))
            return V_jets[-1]
        return jet(model, x, fn)

    def recording_derivative(name):
        derivative = getattr(weights.WeightField, name)

        @functools.wraps(derivative)
        def recording(self, x):
            V_derivatives[name].append(x)
            return derivative(self, x)
        monkeypatch.setattr(weights.WeightField, name, recording)

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

    def recording_cone(x0, label, piece):
        cones.append((label, piece.rule.level))
        return flat_cone(x0, label, piece)

    monkeypatch.setattr(quadrature.SurfaceQuadrature, "boundary_parts", recording_parts)
    monkeypatch.setattr(inequalities._Coordinate, "euclidean_hessian", recording_hessian)
    for name in V_derivatives:
        recording_derivative(name)
    patch_imports(surfaces.surface_geometry, counting("geometry", surfaces.surface_geometry))
    patch_imports(surfaces.normal_derivatives, counting("dnu", surfaces.normal_derivatives))
    monkeypatch.setattr(quadrature, "cone", recording_cone)
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
    reilly_residual(sc, "V", rule)
    # the V row forms no region rows: it leaves no ("rows", key) memo on the cap's piece
    cap = sc.piece("cap", rule)
    assert not [key for key in cap._cache if isinstance(key, tuple)]
    for name in ("x1", "x1^2"):
        reilly_residual(sc, name, rule)
    # base and perturbed admissibility caps, the level-12 cap, region and face,
    # and one boundary ring shared by validation and the audit
    assert counts["geometry"] == 5
    # the level-12 cap cone once, and the level-6 cone of each admissibility check
    assert Counter(cones) == {("cap", 12): 1, ("cap", 6): 2}
    assert counts["ring"] == 1
    # the base cap's admissibility check, then the perturbed cap's, shared by validation
    assert counts["margins"] == 2
    assert counts["principal"] == 1
    # one per node set: the two admissibility caps and the level-12 cap and face;
    # the boundary ring is the one geometry that is not a quadrature node set
    assert counts["surface"] == 4
    # one dnu per face, for all three test functions
    assert counts["dnu"] == 2
    # V's jet once on the cap and once on the face, and none on the region
    assert counts["weight jet"] == 2
    # on the region, V's flat gradient and Hessian once per block over V, x1 and x1^2:
    # in the one pass that forms V's rows and axis 1's, which x1 and x1^2 share, and
    # none for V; the region is its cap's cone, kept as given, each block is a column
    # view of that piece's one C-contiguous (n, m) node array, and the views are
    # consecutive and cover every node once, in order
    assert sc.pieces == ("cap",)
    points, wt = cap.cone()
    blocks = quadrature.cut(points, wt)
    n, m = points.shape
    assert (n, m) == (4, wt.size) and points.flags.c_contiguous
    assert len(blocks) > 1
    for name, calls in V_derivatives.items():
        views = [x for x in calls if x.base is points]
        assert len(views) == len(blocks), name
        starts = [(x.__array_interface__["data"][0] - points.__array_interface__["data"][0])
                  // points.itemsize for x in views]
        ends = [start + x.shape[1] for start, x in zip(starts, views)]
        assert starts == list(range(0, m, REGION_BLOCK)), name
        assert ends == [min(start + REGION_BLOCK, m) for start in starts], name
        assert all(x.shape[0] == n and x.strides == points.strides for x in views)
    # the scenario's level-12 sets keep no (m, n) copy of the region nodes and no
    # (n, n, m) tensor at full size: the Reilly rows are 10 per node for the one axis
    # asked for, V's 4 and the axis's 6, one array per block
    held = list(_arrays({key: value for key, value in sc._cache.items()
                         if isinstance(key, tuple) and key[-1] == rule}, depth=7))
    # every node set of the cap and of its base is keyed by its rule, never a bare level
    keys = [key for cache in (sc._cache, sc.base._cache) for key in cache if key not in (
        "margins", "boundary")]
    assert keys and all(isinstance(key[-1], QuadratureRule) for key in keys)
    assert any(a is points for a in held)
    assert [a.shape for a in held if a.shape == (m, n)] == []
    assert [a.shape for a in held if a.ndim > 2 and a.shape[-1] == m] == []
    axis_keys = [key for key in cap._cache if isinstance(key, tuple)]
    assert axis_keys == [("rows", ("reilly axis", 0))]
    assert [a.shape for a in cap._cache[axis_keys[0]]] == [(10, x.shape[1]) for x, _ in blocks]
    # V's boundary parts once per face over the three test functions, and one set for
    # each coordinate on each face; no coordinate forms a flat Hessian on region nodes
    assert [sum(j is V_jet for j in boundary_jets) for V_jet in V_jets] == [1, 1]
    assert len(boundary_jets) == 2 + 2 * 2
    assert [x.shape[-1] for x in flat_points] == [geo.count for geo in (
        sc.piece(label, rule).quadrature.geo for label in ("cap", "support"))] * 2
    # a perturbed cap over a sphere reads the level-6 face nodes and the face cone's
    # margins of its base cap's admissibility check
    faces.clear()
    validate_scenario(_perturbed_scenario(SupportKind.EUCLIDEAN_SPHERE))
    assert faces == [6 * 6]


@pytest.mark.parametrize("jobs", [1, 2, 8])
def test_sweep_builds_its_base_cap_once(monkeypatch, tmp_path, jobs):
    """A five-epsilon sweep over a sphere at level 16 builds and checks one base
    cap and evaluates its epsilon-free node sets once, with any job count (the flag
    is still accepted and has no effect)."""
    margins, faces, caps = [], [], []
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
    assert cli.main(["sweep", "--config", str(cfg), "--jobs", str(jobs),
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    epsilons = cli.DEFAULT_SWEEP_EPSILONS
    # the base cap's admissibility once, then each perturbed cap's
    assert sorted(margins) == [0.0, *epsilons]
    # the face once at level 16 and once at the admissibility level 6
    assert sorted(faces) == [6 * 6, 16 * 16]
    # the base cap once per node grid: levels 6 and 16, and once on its 24-point
    # boundary ring, which every perturbed cap reads
    assert Counter(caps) == {6 * 6: 1, 16 * 16: 1, 24: 1}


@pytest.mark.parametrize("level", [16, 24, 32])
def test_sweep_rows_weight_the_face_cone_once(monkeypatch, level):
    """Ten sweep rows on one euclidean_sphere base cap (each perturbed cap validated,
    reported and audited) build the face's cone once per rule, at level 6 for the
    admissibility margins and at the report's level, evaluate phi and exp(n phi) on it
    once and V on each of its blocks once; no memo joins the pieces.  Each weighted
    volume is the pairwise sum over the two cones of their flat pairwise sums, and at
    levels 16 and 32, where each cone's blocks are whole subtrees of the joined
    nodes' pairwise tree, it has the bits of one flat pairwise sum over them."""
    phi, value, flat_cone = ambient.SpaceFormModel.phi, weights.WeightField.value, quadrature.cone
    phi_points, value_points, cones = [], [], []

    def recording_phi(model, x):
        phi_points.append(x)
        return phi(model, x)

    def recording_value(weight, x):
        value_points.append(x)
        return value(weight, x)

    def recording_cone(x0, label, piece):
        cones.append((label, piece.rule.level))
        return flat_cone(x0, label, piece)

    monkeypatch.setattr(ambient.SpaceFormModel, "phi", recording_phi)
    monkeypatch.setattr(weights.WeightField, "value", recording_value)
    monkeypatch.setattr(quadrature, "cone", recording_cone)
    rule = QuadratureRule(level)
    base = families.make_umbilical_cap(default_cap_spec(canonical_support(SupportKind.EUCLIDEAN_SPHERE)))
    rows = []
    for eps in (-0.05, -0.04, -0.03, -0.02, -0.01, 0.01, 0.02, 0.03, 0.04, 0.05):
        sc = families.perturb_cap(base, PerturbationSpec(epsilon=eps))
        validate_scenario(sc)
        rows.append((sc, minkowski_report(sc, rule)))
        hypothesis_audit(sc, rule)
    rows.append((base, minkowski_report(base, rule)))
    monkeypatch.undo()
    face = base.piece("support", rule).cone()[0]
    assert sum(x is face for x in phi_points) == 1
    assert Counter(cones) == {("support", 6): 1, ("support", level): 1,
                              ("cap", 6): 11, ("cap", level): 11}
    # V on the face cone: once on each of its blocks, which start at its first node,
    # over eleven reports on eleven caps; every V call runs on one block at most
    on_face = [((x.__array_interface__["data"][0] - face.__array_interface__["data"][0])
                // face.itemsize, x.shape[-1])
               for x in value_points if np.shares_memory(x, face)]
    count = face.shape[1]
    assert on_face == [(lo, min(REGION_BLOCK, count - lo)) for lo in range(0, count, REGION_BLOCK)]
    assert max(x.shape[-1] for x in value_points) <= REGION_BLOCK
    assert max(x.shape[-1] for x in phi_points) <= count

    def weighted_cones(sc):   # the reference: each flat cone, then weighted
        return [(pts, wt * np.exp(sc.model.n * sc.model.phi(pts))) for pts, wt in (
            quadrature.cone(sc.star_center, label, sc.piece(label, rule).quadrature)
            for label in sc.pieces)]

    for sc, report in rows:
        held_cones = [sc.piece(label, rule).cone() for label in sc.pieces]
        cones_ = weighted_cones(sc)
        assert [[a.tobytes() for a in piece] for piece in held_cones] == [
            [a.tobytes() for a in piece] for piece in cones_]
        volume = report.integrals["weighted_volume"]
        assert volume == pairwise_sum(np.array([pairwise_sum(sc.weight.value(pts) * wt)
                                                for pts, wt in cones_]))
        points, weights_ = (np.concatenate(parts, axis=-1) for parts in zip(*cones_))
        flat = pairwise_sum(sc.weight.value(points) * weights_)
        if level in (16, 32):
            assert volume == flat
        else:
            assert abs(volume - flat) <= 1e-15 * abs(flat)
        assert held_cones[-1][0] is face
        # no memo of the row or of its base holds an array as long as the joined region
        held = list(_arrays([sc._cache, base._cache], depth=8))
        assert any(a is face for a in held)
        assert [a.shape for a in held if weights_.size in a.shape] == []


def test_jobs_sweep_builds_every_memo_on_the_calling_thread(monkeypatch, tmp_path):
    """A --jobs 2 sweep on hyp_geodesic_sphere at level 24 builds every memo on the
    main thread and starts no thread, builds each memo once, among them those its rows
    share of the base cap (the grid and the face's piece with its cone, its margins
    and V's sums over its blocks), and writes the bytes of the --jobs 1 sweep."""
    once = quadrature.Memo._once
    built, threads, counts = [], set(), set()

    def recording_once(memo, key, build):
        def counted():
            threads.add(threading.current_thread())
            counts.add(threading.active_count())
            built.append((memo, key))   # keeps every memo alive, so no id is reused
            return build()
        return once(memo, key, counted)

    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"version": 1, "support": {"kind": "hyp_geodesic_sphere"},
                               "quadrature": {"level": 24}}))
    out = {}
    running = threading.active_count()
    for jobs in (2, 1):
        with monkeypatch.context() as patch:
            if jobs == 2:
                patch.setattr(quadrature.Memo, "_once", recording_once)
            path = tmp_path / f"sweep{jobs}.csv"
            assert cli.main(["sweep", "--config", str(cfg), "--jobs", str(jobs),
                             "--out", str(path)]) == 0
            out[jobs] = path.read_bytes()
    assert threads == {threading.main_thread()}
    assert counts == {running} and threading.active_count() == running
    rule, admissibility = QuadratureRule(24), families.ADMISSIBILITY_RULE
    base = Counter(key for memo, key in built if isinstance(memo, families.CapScenario)
                   and memo.base is None and key[0] in ("grid", "support"))
    assert base == {("grid", admissibility): 1, ("grid", rule): 1,
                    ("support", admissibility): 1, ("support", rule): 1}
    face = Counter((memo.quadrature.rule, key) for memo, key in built
                   if isinstance(memo, families.Piece) and memo.label == "support")
    assert face == {(admissibility, "margins"): 1, (rule, "cone"): 1, (rule, "volume"): 1}
    assert max(Counter((id(memo), key) for memo, key in built).values()) == 1
    assert out[2] == out[1]


def test_node_bundle_is_freed_with_its_scenario():
    # a memoized node set referring back to its scenario, or a base cap to its
    # perturbations, would wait for the cyclic collector
    gc.disable()
    try:
        sc = _perturbed_scenario(SupportKind.EUCLIDEAN_SPHERE)
        rule = QuadratureRule(8)
        minkowski_report(sc, rule)
        reilly_residual(sc, "V", rule)
        # the perturbed cap, its base and their node sets at levels 6 and 8 (the
        # admissibility check and this rule): the perturbed cap's cap piece at both
        # levels, and the base's cap piece at 6 and its face piece at 6 and 8, each
        # piece with its surface quadrature
        held = [sc, sc.base, *sc._cache.values(), *sc.base._cache.values()]
        held += [x.quadrature for x in held if isinstance(x, families.Piece)]
        refs = [weakref.ref(x) for x in held if isinstance(x, (
            families.CapScenario, families.Piece, SurfaceQuadrature))]
        assert len(refs) == 12
        del sc, held
        assert [ref() for ref in refs] == [None] * 12
    finally:
        gc.enable()
