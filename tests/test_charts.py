"""Polar charts: the product-rule derivatives against central differences.

Every cap and every polar support face is built on ``sphere_embedding``, so
its two derivative tensors are checked here in every sphere dimension a
scenario can reach (q = 1..5), with angles at and near the poles 0 and pi,
and so are the cap and planar-patch charts that embed it.  Every chart
returns node-last arrays: X (n, m), J (n, k, m) and H (k, k, n, m).
"""

import math

import numpy as np
import pytest

from fbmink.ambient import euclidean, poincare_ball
from fbmink.charts import (
    PerturbedCapChart,
    PlanarBoxChart,
    PolarPlanarChart,
    RadialBumpProfile,
    SphericalCapChart,
    axis_frame,
    sphere_embedding,
)

STEP = 1e-5


def _angles(q: int, rng) -> np.ndarray:
    """Seeded angles (m, q): random ones, and rows at and near 0 and pi."""
    random = rng.uniform(0.0, math.pi, size=(6, q))
    poles = np.array([[0.0] * q, [math.pi] * q, [1e-6] * q, [math.pi - 1e-6] * q,
                      [(0.0, math.pi)[a % 2] for a in range(q)]])
    return np.vstack([random, poles])


def _central(fn, U: np.ndarray, a: int) -> np.ndarray:
    e = np.zeros(U.shape[1])
    e[a] = STEP
    return (fn(U + e) - fn(U - e)) / (2.0 * STEP)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_sphere_embedding_derivatives_match_finite_differences(q):
    U = _angles(q, np.random.default_rng(40 + q))
    c, dc, d2c = sphere_embedding(U)
    m = U.shape[0]
    assert (c.shape, dc.shape, d2c.shape) == ((q + 1, m), (q + 1, q, m), (q, q, q + 1, m))
    np.testing.assert_allclose(np.linalg.norm(c, axis=0), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(d2c, np.swapaxes(d2c, 0, 1))
    for a in range(q):
        fd_c = _central(lambda V: sphere_embedding(V)[0], U, a)
        np.testing.assert_allclose(dc[:, a], fd_c, rtol=0, atol=1e-9)
        fd_dc = _central(lambda V: sphere_embedding(V)[1], U, a)
        np.testing.assert_allclose(d2c[a], np.swapaxes(fd_dc, 0, 1), rtol=0, atol=1e-9)


def _check_chart(chart, U: np.ndarray, exact_symmetry: bool = True) -> None:
    """J and H against central differences of X and J; H symmetric in its
    parameter axes (to rounding where the chart sums its terms in index order)."""
    X, J, H = chart.evaluate(U)
    scale = max(1.0, float(np.max(np.abs(X))))
    if exact_symmetry:
        np.testing.assert_array_equal(H, np.swapaxes(H, 0, 1))
    np.testing.assert_allclose(H, np.swapaxes(H, 0, 1), rtol=0, atol=1e-14 * scale)
    for a in range(chart.dim):
        fd_X = _central(lambda V: chart.evaluate(V)[0], U, a)
        np.testing.assert_allclose(J[:, a], fd_X, rtol=0, atol=1e-9 * scale)
        fd_J = _central(lambda V: chart.evaluate(V)[1], U, a)
        np.testing.assert_allclose(H[a], np.swapaxes(fd_J, 0, 1), rtol=0, atol=1e-9 * scale)


def _params(chart, rng, count: int = 6) -> np.ndarray:
    """Random points of the chart's parameter box, plus its two corners."""
    lo, hi = np.array(chart.domain).T
    return np.vstack([rng.uniform(lo, hi, size=(count, lo.size)), lo, hi])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_spherical_cap_chart_matches_finite_differences(n):
    rng = np.random.default_rng(60 + n)
    chart = SphericalCapChart(center=rng.normal(size=n), radius=1.7,
                              frame=axis_frame(rng.normal(size=n)), t_max=2.0, t_min=0.0)
    _check_chart(chart, _params(chart, rng))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_polar_planar_chart_matches_finite_differences(n):
    rng = np.random.default_rng(70 + n)
    normal = rng.normal(size=n)
    chart = PolarPlanarChart(center=rng.normal(size=n), plane_frame=axis_frame(normal)[:, 1:],
                             radius=0.8, hint=normal)
    _check_chart(chart, _params(chart, rng))


def _charts(n: int, rng):
    """One chart of every class that supports ambient dimension n, at random placements."""
    normal = rng.normal(size=n)
    cap = SphericalCapChart(center=rng.normal(size=n), radius=1.3,
                            frame=axis_frame(rng.normal(size=n)), t_max=1.0)
    model = poincare_ball(n) if n % 2 else euclidean(n)
    charts = [cap,
              PerturbedCapChart(base=SphericalCapChart(center=0.1 * normal, radius=0.3,
                                                       frame=axis_frame(normal), t_max=1.0),
                                model=model, epsilon=0.05, profile=RadialBumpProfile(1.0)),
              PlanarBoxChart(origin=rng.normal(size=n), plane_frame=axis_frame(normal)[:, 1:],
                             extent=0.6, hint=normal)]
    if n >= 3:
        charts.append(PolarPlanarChart(center=rng.normal(size=n),
                                       plane_frame=axis_frame(normal)[:, 1:],
                                       radius=0.8, hint=normal))
    return charts


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_chart_evaluates_node_last(n):
    rng = np.random.default_rng(80 + n)
    charts = _charts(n, rng)
    assert len(charts) == (3 if n == 2 else 4)
    for chart in charts:
        U = _params(chart, rng, count=5)
        m, k = U.shape
        X, J, H = chart.evaluate(U)
        assert (X.shape, J.shape, H.shape) == ((n, m), (n, k, m), (k, k, n, m)), chart
        assert X.flags.c_contiguous and J.flags.c_contiguous and H.flags.c_contiguous, chart
        assert chart.normal_hint(U, X).shape == (n, m)
        if isinstance(chart, PerturbedCapChart):
            p, dp, d2p = chart.profile.evaluate(U)
            assert (p.shape, dp.shape, d2p.shape) == ((m,), (k, m), (k, k, m))
            _check_chart(chart, U, exact_symmetry=False)
