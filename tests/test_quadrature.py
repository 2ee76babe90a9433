"""Quadrature: exactness, convergence bookkeeping, bit-stable reductions."""

import dataclasses
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
from fbmink.errors import StarShapeViolated
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
    cap = hemisphere.piece("cap", QuadratureRule(16))
    assert np.isclose(cap.integral(np.ones(cap.geo.count)), 2.0 * math.pi, rtol=1e-12)
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
    cap = hemisphere.piece("cap", QuadratureRule(10))
    z = cap.geo.x[2]
    a, b = 2.5, -1.25
    assert np.isclose(cap.integral(a * z + b),
                      a * cap.integral(z) + b * cap.integral(np.ones_like(z)),
                      rtol=1e-13)


def test_moment_of_hemisphere(hemisphere):
    # int_{S^2_+} z dA = pi for the unit upper hemisphere
    cap = hemisphere.piece("cap", QuadratureRule(16))
    assert np.isclose(cap.integral(cap.geo.x[2]), math.pi, rtol=1e-12)


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
    f, x0, x2 = region_integrals(sc, rule, lambda x: (a * x[0] + b * x[2] + c, x[0], x[2]))
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
    # it; a piece's ``block_sums`` reduce each row of a block's stack to the row's own
    # pairwise sum, bit for bit, and so each row to one flat pairwise sum over the
    # piece's nodes, and ``region_sum`` is the pairwise sum of those over the pieces; a
    # node's first coordinate is its index, so an integrand reads a block's values
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, m) * 10.0 ** rng.uniform(-8.0, 8.0, m)
    weights = rng.uniform(0.0, 1.0, m)
    points = np.stack([np.arange(m, dtype=float), rng.uniform(-1.0, 1.0, m)])
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

    def integrals(integrands):   # block_sums reads no more of a piece than its cone()
        sums = [quadrature.Piece.block_sums(SimpleNamespace(cone=lambda piece=piece: piece),
                                            integrands) for piece in pieces]
        return tuple(region_sum(terms) for terms in zip(*sums))

    def block(v, x):
        return v[x[0].astype(np.intp)]

    squares = values * values
    sums = integrals(lambda x: (block(values, x), block(squares, x)))
    assert sums == (over_pieces(values), over_pieces(squares))
    assert integrals(lambda x: (np.ones(x.shape[1]),)) == (over_pieces(np.ones(m)),)
    if len(pieces) == 1:
        assert sums[0] == pairwise_sum(values * weights)


def test_reilly_set_holds_one_region_block_of_temporaries():
    # a perturbed hyp_geodesic_sphere cap at n=3 level 32 has 65,536 region nodes, so
    # each full-size (3, 3, m) tensor is 4.5 MiB; the set peaks at 10.5 MiB, and at
    # 16.4 MiB with one block per piece (REGION_BLOCK = 2**30)
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
    # rebuilding the same rule gives bit-identical integrals: two copies of the
    # scenario, with empty memos, build the cap's piece afresh
    a1, a2 = (dataclasses.replace(hemisphere).piece("cap", QuadratureRule(12)).integral(
        np.ones(12 * 12)) for _ in range(2))
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
    counts = {"geometry": 0, "principal": 0, "piece": 0, "ring": 0,
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
    boundary_parts = quadrature.Piece.boundary_parts
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
            V_derivatives[name].append(ambient.radial(x).x)   # the points of a Radial
            return derivative(self, x)
        monkeypatch.setattr(weights.WeightField, name, recording)

    faces = []
    _recording_geometry(monkeypatch, faces)
    patch_imports(jet, weight_jet)
    boundary_jets = []   # the jet behind every set of boundary parts formed
    flat_points = []     # the points of every flat Hessian of a coordinate

    def recording_parts(piece, fn_jet):
        boundary_jets.append(fn_jet)
        return boundary_parts(piece, fn_jet)

    def recording_hessian(self, x):
        flat_points.append(x)
        return coordinate_hessian(self, x)

    def recording_cone(x0, label, piece):
        cones.append((label, piece.rule.level))
        return flat_cone(x0, label, piece)

    monkeypatch.setattr(quadrature.Piece, "boundary_parts", recording_parts)
    monkeypatch.setattr(inequalities._Coordinate, "euclidean_hessian", recording_hessian)
    for name in V_derivatives:
        recording_derivative(name)
    patch_imports(surfaces.surface_geometry, counting("geometry", surfaces.surface_geometry))
    patch_imports(surfaces.normal_derivatives, counting("dnu", surfaces.normal_derivatives))
    monkeypatch.setattr(quadrature, "cone", recording_cone)
    monkeypatch.setattr(quadrature.Piece, "__init__",
                        counting("piece", quadrature.Piece.__init__))
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
    # the V row forms nothing on the region: it leaves no ("reilly axis", i) memo on the
    # cap's piece
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
    assert counts["piece"] == 4
    # one dnu per face, for all three test functions
    assert counts["dnu"] == 2
    # V's jet once on the cap and once on the face, and none on the region
    assert counts["weight jet"] == 2
    # on the region, V's flat gradient and Hessian once per block over V, x1 and x1^2:
    # in the one pass that forms x1's and x1^2's integrands, and none for V; the region is its cap's cone, kept as given, each block is a column
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
    # (n, n, m) tensor at full size, and the Reilly checker keeps no per-node row: the
    # one axis asked for holds four lists of one float per block, x1's two volume
    # terms and x1^2's
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
    assert axis_keys == [("reilly axis", 0)]
    sums = cap._cache[axis_keys[0]]
    assert len(sums) == 4 and all(len(terms) == len(blocks) for terms in sums)
    assert all(type(v) is float for terms in sums for v in terms)
    long = [a for a in _arrays(cap._cache, depth=7) if a.shape[-1] >= REGION_BLOCK]
    assert sorted(map(id, long)) == sorted(map(id, (points, wt)))
    # V's boundary parts once per face over the three test functions, and one set for
    # each coordinate on each face; no coordinate forms a flat Hessian on region nodes
    assert [sum(j is V_jet for j in boundary_jets) for V_jet in V_jets] == [1, 1]
    assert len(boundary_jets) == 2 + 2 * 2
    assert [x.shape[-1] for x in flat_points] == [geo.count for geo in (
        sc.piece(label, rule).geo for label in ("cap", "support"))] * 2
    # a perturbed cap over a sphere reads the level-6 face nodes and the face cone's
    # margins of its base cap's admissibility check
    faces.clear()
    validate_scenario(_perturbed_scenario(SupportKind.EUCLIDEAN_SPHERE))
    assert faces == [6 * 6]


def test_star_center_past_the_cap_names_piece_level_and_node():
    # moving the star center of a plane cap past its apex turns the cap's nodes near the
    # apex towards it: the cone over the cap fails at the admissibility rule in
    # validation, and at a report's rule in the Reilly checker, each naming the piece,
    # the level and the parameter point of the node of least <X - x0, nu>
    sc = canonical_scenario(SupportKind.EUCLIDEAN_PLANE)
    x = sc.piece("cap", QuadratureRule(8)).geo.x
    apex = x[:, np.argmax(np.linalg.norm(x - sc.star_center[:, None], axis=0))]
    moved = dataclasses.replace(sc, star_center=sc.star_center + 2.0 * (apex - sc.star_center))
    for rule, check in ((families.ADMISSIBILITY_RULE, validate_scenario),
                        (QuadratureRule(8), lambda cap: reilly_residual(cap, "x1", QuadratureRule(8)))):
        geo = moved.piece("cap", rule).geo
        facing = np.sum((geo.x - moved.star_center[:, None]) * geo.nu_delta, axis=0)
        node = np.argmin(facing)
        assert facing[node] < 0.0
        point = ", ".join(f"{u:.6g}" for u in geo.params[node])
        with pytest.raises(StarShapeViolated) as err:
            check(moved)
        assert str(err.value) == (
            f"piece 'cap' faces the star center at level {rule.level} "
            f"(min <X - x0, nu> = {facing[node]:.3e} at parameter point ({point}))")


@pytest.mark.parametrize("first, second", [("x2", "x2^2"), ("x2^2", "x2")])
def test_second_function_on_an_axis_forms_nothing_on_the_region(monkeypatch, first, second):
    # x_i and x_i^2 share one memo of block sums per region piece, so the second of them
    # runs V's flat Hessian on no block of either cone of a geodesic-sphere cap, and
    # reads the bits that it reads when it comes first
    rule = QuadratureRule(16)
    sc = canonical_scenario(SupportKind.HYP_GEODESIC_SPHERE)
    hessian, points = weights.WeightField.euclidean_hessian, []

    def recording(weight, x):
        points.append(ambient.radial(x).x)
        return hessian(weight, x)

    monkeypatch.setattr(weights.WeightField, "euclidean_hessian", recording)
    reilly_residual(sc, first, rule)
    cones = [sc.piece(label, rule).cone()[0] for label in sc.pieces]
    blocks = sum(len(quadrature.cut(*sc.piece(label, rule).cone())) for label in sc.pieces)

    def on_cones():
        return [x for x in points for pts in cones if np.shares_memory(x, pts)]

    assert len(cones) == 2 and len(on_cones()) == blocks
    points.clear()
    report = reilly_residual(sc, second, rule)
    assert on_cones() == []
    monkeypatch.undo()
    fresh = canonical_scenario(SupportKind.HYP_GEODESIC_SPHERE)
    assert report.to_dict() == reilly_residual(fresh, second, rule).to_dict()


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
    # the face once, at the admissibility level 6: each row reads its volume off its cap
    assert faces == [6 * 6]
    # the base cap once per node grid: levels 6 and 16, and once on its 24-point
    # boundary ring, which every perturbed cap reads
    assert Counter(caps) == {6 * 6: 1, 16 * 16: 1, 24: 1}


@pytest.mark.parametrize("level", [16, 24, 32])
def test_sweep_rows_weight_the_face_cone_once(monkeypatch, level):
    """Ten sweep rows on one euclidean_sphere base cap (each perturbed cap validated,
    reported and audited), and the base cap's own row, build no cone and no face piece
    at the report's level: each weighted volume is read off its cap, and the only cones
    are the level-6 ones of the admissibility margins, the face's once.  No array the
    rows evaluate or hold is as long as a region cone at the report's level, and each
    volume is the cone oracle's within rounding."""
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
    assert Counter(cones) == {("support", 6): 1, ("cap", 6): 11}
    region = level ** 3    # the nodes of one region cone at the report's level
    assert max(x.shape[-1] for x in phi_points + value_points) < region
    assert ("support", rule) not in base._cache
    held = list(_arrays([sc._cache for sc, _ in rows], depth=8))
    assert held and max(a.shape[-1] for a in held) < region
    for sc, report in rows:
        assert "cone" not in sc.piece("cap", rule)._cache
        volume = report.integrals["weighted_volume"]
        assert volume == sc.weighted_volume(rule)
        cone_volume = region_integrals(sc, rule, lambda x: (sc.weight.value(x),))[0]
        assert abs(volume - cone_volume) <= 4e-15 * abs(cone_volume)


def test_jobs_sweep_builds_every_memo_on_the_calling_thread(monkeypatch, tmp_path):
    """A --jobs 2 sweep on hyp_geodesic_sphere at level 24 builds every memo on the
    main thread and starts no thread, builds each memo once, among them those its rows
    share of the base cap (the grid at both rules and the level-6 face piece with its
    margins), builds no face piece and no cone at the report's rule, and writes the
    bytes of the --jobs 1 sweep."""
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
    assert base == {("grid", admissibility): 1, ("grid", rule): 1, ("support", admissibility): 1}
    face = Counter((memo.rule, key) for memo, key in built
                   if isinstance(memo, quadrature.Piece) and memo.label == "support")
    assert face == {(admissibility, "margins"): 1}
    assert not [key for memo, key in built if key == "cone" or (
        isinstance(memo, families.CapScenario) and key == ("support", rule))]
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
        # levels, and the base's cap piece at 6 and its face piece at 6 and 8
        held = [sc, sc.base, *sc._cache.values(), *sc.base._cache.values()]
        refs = [weakref.ref(x) for x in held if isinstance(x, (
            families.CapScenario, quadrature.Piece))]
        assert len(refs) == 7
        del sc, held
        assert [ref() for ref in refs] == [None] * 7
    finally:
        gc.enable()
