"""Acceptance suite: one test per release criterion, with PASS/FAIL lines.

Each criterion prints ``ACCEPTANCE n: PASS`` or ``ACCEPTANCE n: FAIL`` and
is repeated in the terminal summary (see conftest).  Checks are grouped so
a failure reports every violated sub-condition, not only the first."""

import json
import math
import time

import numpy as np

import conftest
from conftest import canonical_scenario, canonical_support, region_integrals, region_volume

from fbmink import (
    CapSpec,
    DimensionTooLow,
    PerturbationSpec,
    QuadratureRule,
    SupportKind,
    SurfaceQuadrature,
    af_report,
    hypothesis_audit,
    make_perturbed_cap,
    make_support,
    make_umbilical_cap,
    minkowski_report,
    perturb_cap,
    reilly_residual,
    schur_report,
    sectional_curvature_probe,
    weight_for_support,
)
from fbmink.ambient import (
    ModelKind,
    euclidean,
    poincare_ball,
    sphere_stereographic,
    upper_half_space,
)
from fbmink.cli import main as cli_main
from fbmink.supports import PlaneShape, sample_admissible_points, sample_support_points
from fbmink.surfaces import support_umbilicity_residual
from fbmink.weights import hessian_identity_residual, neumann_identity_residual

from test_weights import fd_covariant_hessian
from fbmink.ambient import metric_at

RULE24 = QuadratureRule(24)
ALL_KINDS = list(SupportKind)

# deficits already at quadrature noise count as converged under refinement
ROUNDING_FLOOR = 1e-12


def finish(criterion: int, checks: dict):
    ok = all(checks.values())
    conftest.ACCEPTANCE_RESULTS[criterion] = ok
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {criterion} failed: {failed}"


def test_acceptance_1_weight_identity_suite():
    """Closed-form and FD residuals of the two weight identities, all kinds."""
    start = time.perf_counter()
    checks = {}
    pairs = set()
    for idx, kind in enumerate(ALL_KINDS):
        s = canonical_support(kind)
        w = weight_for_support(s)
        pairs.add((s.model.kind, w.formula))
        rng = np.random.default_rng([0, idx])
        interior = sample_admissible_points(s, 100, rng)
        boundary = sample_support_points(s, 100, rng)
        checks[f"{kind.value}_hessian_closed"] = (
            hessian_identity_residual(w, interior) <= 1e-10)
        checks[f"{kind.value}_neumann_closed"] = (
            neumann_identity_residual(w, s, boundary) <= 1e-10)
        K = s.model.K
        fd_worst = 0.0
        for x in interior:
            target = -K * w.value(x) * metric_at(s.model, x)
            fd_worst = max(fd_worst, float(np.max(np.abs(
                fd_covariant_hessian(w, x, step=1e-4) - target))))
        checks[f"{kind.value}_hessian_fd"] = fd_worst <= 1e-5
    checks["six_model_weight_pairs"] = len(pairs) == 6
    checks["runtime_under_5s"] = (time.perf_counter() - start) < 5.0
    finish(1, checks)


def test_acceptance_2_curvature_certification():
    """h = kappa g on every support; sectional probe recovers K per model."""
    start = time.perf_counter()
    checks = {}
    for kind in ALL_KINDS:
        res = support_umbilicity_residual(canonical_support(kind), samples=50, seed=0)
        checks[f"{kind.value}_umbilical"] = res <= 1e-8
    for idx, (name, factory) in enumerate((("euclidean", euclidean),
                                           ("poincare_ball", poincare_ball),
                                           ("upper_half_space", upper_half_space),
                                           ("sphere_stereographic", sphere_stereographic))):
        model = factory(3)
        rng = np.random.default_rng([2, idx])
        if name == "poincare_ball":
            x = rng.normal(size=(3, 100))
            x *= 0.65 * rng.uniform(0.1, 1.0, size=100) / np.linalg.norm(x, axis=0)
        else:
            x = rng.uniform(-0.8, 0.8, size=(3, 100))
            if name == "upper_half_space":
                x[-1] = rng.uniform(0.4, 1.6, size=100)
        u, v = rng.normal(size=(2, 3, 100))
        worst = float(np.max(np.abs(sectional_curvature_probe(model, x, u, v) - model.K)))
        checks[f"{name}_probe"] = worst <= 1e-5
    checks["runtime_under_10s"] = (time.perf_counter() - start) < 10.0
    finish(2, checks)


def test_acceptance_3_minkowski_equality_cases():
    """Equality at level 24 on all eight umbilical caps, plus refinement."""
    start = time.perf_counter()
    checks = {}
    for kind in ALL_KINDS:
        sc = canonical_scenario(kind)
        report = minkowski_report(sc, RULE24)
        checks[f"{kind.value}_equality"] = abs(report.relative_deficit) <= 1e-6
        deficits = [abs(minkowski_report(sc, QuadratureRule(level)).relative_deficit)
                    for level in (12, 24, 48)]
        # monotone decrease, treating anything at quadrature noise as converged
        monotone = all(
            later <= max(earlier, ROUNDING_FLOOR)
            for earlier, later in zip(deficits, deficits[1:]))
        checks[f"{kind.value}_refinement_monotone"] = monotone
    hemi = minkowski_report(canonical_scenario(SupportKind.EUCLIDEAN_PLANE), RULE24)
    four_pi_sq = 4.0 * math.pi**2
    checks["hemisphere_lhs_4pi2"] = abs(hemi.lhs - four_pi_sq) <= 1e-10 * four_pi_sq
    checks["hemisphere_rhs_4pi2"] = abs(hemi.rhs - four_pi_sq) <= 1e-10 * four_pi_sq
    checks["runtime_under_2min"] = (time.perf_counter() - start) < 120.0
    finish(3, checks)


def test_acceptance_4_strictness_sweep():
    """Perturbed hemisphere: positive deficits, quadratic growth, hypotheses hold."""
    start = time.perf_counter()
    checks = {}
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    epsilons = np.array([0.02, 0.04, 0.06, 0.08, 0.10])
    mink = np.empty_like(epsilons)
    af = np.empty_like(epsilons)
    convexity = np.empty_like(epsilons)
    for i, eps in enumerate(epsilons):
        sc = make_perturbed_cap(CapSpec(support=support, radius=1.0),
                                PerturbationSpec(epsilon=float(eps), power=3))
        mink[i] = minkowski_report(sc, RULE24).deficit
        af[i] = af_report(sc, RULE24).deficit
        convexity[i] = hypothesis_audit(sc, RULE24).convexity_min
    checks["minkowski_deficits_positive"] = bool(np.all(mink > 0.0))
    checks["af_deficits_positive"] = bool(np.all(af > 0.0))
    checks["convexity_nonnegative"] = bool(np.all(convexity >= 0.0))
    for name, deficits in (("minkowski", mink), ("af", af)):
        coeffs = np.polyfit(epsilons, deficits, 2)
        fitted = np.polyval(coeffs, epsilons)
        ss_res = float(np.sum((deficits - fitted) ** 2))
        ss_tot = float(np.sum((deficits - np.mean(deficits)) ** 2))
        r2 = 1.0 - ss_res / ss_tot
        checks[f"{name}_quadratic_coefficient_positive"] = coeffs[0] > 0.0
        checks[f"{name}_fit_r2"] = r2 >= 0.99
    checks["runtime_under_1min"] = (time.perf_counter() - start) < 60.0
    finish(4, checks)


def test_acceptance_5_af_equality_and_sign_agreement():
    """16 pi^2 on the unit hemisphere; normalized deficit sign matches."""
    checks = {}
    report = af_report(canonical_scenario(SupportKind.EUCLIDEAN_PLANE), RULE24)
    sixteen_pi_sq = 16.0 * math.pi**2
    checks["hemisphere_lhs"] = abs(report.lhs - sixteen_pi_sq) <= 1e-6 * sixteen_pi_sq
    checks["hemisphere_rhs"] = abs(report.rhs - sixteen_pi_sq) <= 1e-6 * sixteen_pi_sq
    checks["hemisphere_relative"] = abs(report.relative_deficit) <= 1e-6
    rng = np.random.default_rng(2026)
    kinds = [SupportKind.EUCLIDEAN_PLANE, SupportKind.EUCLIDEAN_SPHERE,
             SupportKind.HOROSPHERE, SupportKind.EQUIDISTANT,
             SupportKind.SPH_GEODESIC_SPHERE]
    agreements = 0
    for i in range(20):
        kind = kinds[i % len(kinds)]
        support = canonical_support(kind)
        from fbmink import default_cap_spec
        radius = default_cap_spec(support).radius * float(rng.uniform(0.8, 1.1))
        eps = float(rng.uniform(0.02, 0.10)) * (1.0 if rng.uniform() < 0.5 else -1.0)
        sc = make_perturbed_cap(CapSpec(support=support, radius=radius),
                                PerturbationSpec(epsilon=eps, power=int(rng.integers(3, 6))))
        rep = af_report(sc, QuadratureRule(16))
        if np.sign(rep.extras["normalized_deficit"]) == np.sign(rep.deficit):
            agreements += 1
    checks["sign_agreement_20_of_20"] = agreements == 20
    finish(5, checks)


def test_acceptance_6_almost_schur():
    """Dimension-four equality and strictness; low dimensions rejected."""
    checks = {}
    support4 = make_support(SupportKind.EUCLIDEAN_PLANE, 4)
    umbilical = make_umbilical_cap(CapSpec(support=support4, radius=1.0))
    report = schur_report(umbilical, QuadratureRule(12))
    checks["umbilical_lhs_zero"] = abs(report.lhs) <= 1e-10
    checks["umbilical_rhs_zero"] = abs(report.rhs) <= 1e-10
    perturbed = make_perturbed_cap(CapSpec(support=support4, radius=1.0),
                                   PerturbationSpec(epsilon=0.08, power=3))
    strict = schur_report(perturbed, QuadratureRule(12))
    checks["perturbed_strict"] = strict.lhs < strict.rhs and strict.deficit > 0.0
    try:
        schur_report(canonical_scenario(SupportKind.EUCLIDEAN_PLANE), QuadratureRule(8))
        checks["n3_rejected"] = False
    except DimensionTooLow:
        checks["n3_rejected"] = True
    finish(6, checks)


def test_acceptance_7_integral_identity_residuals():
    """Boundary-term identity closes at level 24 in flat and hyperbolic space."""
    checks = {}
    flat = canonical_scenario(SupportKind.EUCLIDEAN_PLANE)
    hyp = canonical_scenario(SupportKind.EQUIDISTANT)
    for label, sc in (("euclidean", flat), ("hyperbolic", hyp)):
        for fname in ("V", "x1", "x1^2"):
            residual = abs(reilly_residual(sc, fname, RULE24).residual)
            checks[f"{label}_{fname}"] = residual <= 1e-5
        checks[f"{label}_V_exact"] = abs(reilly_residual(sc, "V", RULE24).residual) <= 1e-12
    finish(7, checks)


def test_acceptance_8_quadrature_convergence_and_monte_carlo():
    """Order >= 3 against closed forms; seeded Monte Carlo weighted-volume oracles at
    n=3 (1e7 samples), n=4 and on a perturbed cap."""
    checks = {}
    hemi = canonical_scenario(SupportKind.EUCLIDEAN_PLANE)
    levels = [2, 3, 4, 5]

    def observed_orders(errors):
        orders = []
        for (l1, e1), (l2, e2) in zip(zip(levels, errors), zip(levels[1:], errors[1:])):
            if e1 <= 1e-13 and e2 <= 1e-13:
                orders.append(math.inf)
            else:
                orders.append(math.log(max(e1, 1e-300) / max(e2, 1e-300))
                              / math.log(l2 / l1))
        return orders

    area_errors = []
    volume_errors = []
    for level in levels:
        sq = SurfaceQuadrature(hemi.surface, QuadratureRule(level))
        area_errors.append(abs(sq.integral(np.ones(sq.geo.count)) - 2.0 * math.pi))
        volume = region_volume(hemi, QuadratureRule(level))
        volume_errors.append(abs(volume - 2.0 * math.pi / 3.0))
    checks["area_order_ge_3"] = min(observed_orders(area_errors)) >= 3.0
    checks["volume_order_ge_3"] = min(observed_orders(volume_errors)) >= 3.0

    # Monte Carlo cross-checks of the weighted volume, Omega's membership written
    # here from the cap's placement, not read from the package
    equidistant = canonical_scenario(SupportKind.EQUIDISTANT)
    cases = {
        "equidistant": (equidistant, RULE24, 10_000_000),
        "sph_hyperplane_n4": (canonical_scenario(SupportKind.SPH_HYPERPLANE, n=4),
                              QuadratureRule(12), 2_000_000),
        "equidistant_eps": (perturb_cap(equidistant, PerturbationSpec(epsilon=0.05, power=3)),
                            RULE24, 4_000_000),
    }
    for label, (sc, rule, n_samples) in cases.items():
        quad_value = _weighted_volume(sc, rule)
        mc_value, mc_stderr = _monte_carlo_weighted_volume(sc, n_samples)
        checks[f"{label}_mc_within_3_sigma"] = abs(mc_value - quad_value) <= 3.0 * mc_stderr
        checks[f"{label}_mc_resolution"] = mc_stderr < 0.01 * quad_value
        if sc.base is not None:
            # the samples resolve the bump: Omega moved by far more than their noise
            moved = abs(mc_value - _weighted_volume(sc.base, rule))
            checks[f"{label}_mc_separates_base"] = moved > 10.0 * mc_stderr
    finish(8, checks)


def _weighted_volume(sc, rule):
    weight = weight_for_support(sc.support)
    return region_integrals(sc, rule, lambda j, x: (weight.value(x),))[0]


def _omega_membership(sc):
    """Membership of Omega written from the cap's placement alone, and the corners
    (lo, hi) of a box about the cap's center that holds Omega.

    Omega is the part of B_int (the normal_in side of a plane support, the inside of
    a sphere one) within the cap's radial graph about the center c of its chart
    sphere S(c, r).  A bump eps (1 - (t / t_max)^2)^power moves the sphere point y at
    polar angle t out to r + eps (1 - (t / t_max)^2)^power exp(-phi(y)) along its ray;
    exp(-phi(y)) = y_n in the upper half space, the one model perturbed here.
    """
    chart = (sc.base or sc).surface.chart
    c, r, axis, t_max = chart.center, chart.radius, chart.frame[:, 0], chart.t_max
    bump_spec = sc.perturbation or PerturbationSpec(epsilon=0.0)
    eps, power = bump_spec.epsilon, bump_spec.power
    assert eps == 0.0 or sc.model.kind is ModelKind.UPPER_HALF_SPACE
    shape = sc.support.shape

    def inside(x):
        ray = x - c
        dist = np.linalg.norm(ray, axis=1)
        unit = ray / dist[:, None]
        t = np.arccos(np.clip(unit @ axis, -1.0, 1.0))
        bump = np.where(t < t_max, (1.0 - (t / t_max) ** 2) ** power, 0.0)
        y_n = c[-1] + r * unit[:, -1]
        if isinstance(shape, PlaneShape):
            in_support = x @ np.asarray(shape.normal_in) >= shape.offset
        else:
            in_support = np.linalg.norm(x - np.asarray(shape.center), axis=1) <= shape.radius
        return in_support & (dist <= r + eps * bump * y_n)

    half_width = r + abs(eps) * (c[-1] + r)    # the bump moves no point by more than eps y_n
    return inside, (c - half_width, c + half_width)


def _monte_carlo_weighted_volume(sc, n_samples, seed=7, chunk=1_000_000):
    """Estimate and standard error of int_Omega V dvol from uniform samples of a box."""
    inside, (lo, hi) = _omega_membership(sc)
    n = sc.n
    box_vol = float(np.prod(hi - lo))
    V = weight_for_support(sc.support)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    for _ in range(n_samples // chunk):
        pts = rng.uniform(lo, hi, size=(chunk, n))
        mask = inside(pts)
        vals = np.zeros(chunk)
        if np.any(mask):
            p_in = pts[mask].T   # coordinate first, as the weight and the model take points
            vals[mask] = V.value(p_in) * np.exp(n * sc.model.phi(p_in))
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals * vals))
    mean = total / n_samples
    var = total_sq / n_samples - mean * mean
    return box_vol * mean, box_vol * math.sqrt(var / n_samples)


def test_acceptance_9_determinism_across_workers(tmp_path):
    """Identical configs give identical bytes with --jobs 1 and --jobs 8."""
    checks = {}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "version": 1,
        "sweep": {"epsilons": [0.02, 0.05, 0.08], "theorem": "af"},
    }))
    csv1 = tmp_path / "a.csv"
    csv8 = tmp_path / "b.csv"
    code1 = cli_main(["sweep", "--config", str(cfg), "--jobs", "1", "--out", str(csv1)])
    code8 = cli_main(["sweep", "--config", str(cfg), "--jobs", "8", "--out", str(csv8)])
    checks["exit_codes"] = code1 == 0 and code8 == 0
    checks["csv_bytes_identical"] = csv1.read_bytes() == csv8.read_bytes()
    j1 = tmp_path / "a.json"
    j8 = tmp_path / "b.json"
    cli_main(["sweep", "--config", str(cfg), "--format", "json",
              "--jobs", "1", "--out", str(j1)])
    cli_main(["sweep", "--config", str(cfg), "--format", "json",
              "--jobs", "8", "--out", str(j8)])
    d1 = json.loads(j1.read_text())
    d8 = json.loads(j8.read_text())
    d1.pop("generated_unix_time")
    d8.pop("generated_unix_time")
    checks["json_identical_modulo_timestamp"] = d1 == d8
    finish(9, checks)
