"""Space-form chart models: metric, Christoffels, curvature probes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmink import (
    DegeneratePlane,
    PointOutsideChart,
    euclidean,
    poincare_ball,
    sectional_curvature_probe,
    sphere_stereographic,
    upper_half_space,
)
from fbmink.ambient import (
    ambient_inner,
    ambient_laplacian,
    christoffels_at,
    covariant_hessian,
    metric_at,
)

MODELS = [
    (euclidean, 0.0),
    (poincare_ball, -1.0),
    (upper_half_space, -1.0),
    (sphere_stereographic, 1.0),
]


def probe_point(model, rng):
    kind = model.kind.value
    if kind == "poincare_ball":
        v = rng.normal(size=model.n)
        return 0.6 * rng.uniform(0.1, 1.0) * v / np.linalg.norm(v)
    x = rng.uniform(-0.8, 0.8, size=model.n)
    if kind == "upper_half_space":
        x[-1] = rng.uniform(0.4, 1.6)
    return x


@pytest.mark.parametrize("factory,K", MODELS)
def test_curvature_constant_matches_model(factory, K):
    assert factory(3).K == K


def test_euclidean_metric_is_identity():
    m = euclidean(3)
    pts = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 3.0]]).T   # two points, coordinate first
    g = metric_at(m, pts)
    assert g.shape == (3, 3, 2)
    assert np.allclose(np.moveaxis(g, -1, 0), np.eye(3))
    assert np.allclose(christoffels_at(m, pts), 0.0)


def test_poincare_ball_conformal_factor():
    # e^{2 phi} = (2 / (1 - |x|^2))^2
    m = poincare_ball(3)
    x = np.array([0.3, -0.1, 0.2])
    expected = (2.0 / (1.0 - np.dot(x, x))) ** 2
    assert np.isclose(metric_at(m, x)[0, 0], expected, rtol=1e-14)


def test_upper_half_space_conformal_factor():
    m = upper_half_space(3)
    x = np.array([0.5, -1.0, 0.25])
    assert np.isclose(metric_at(m, x)[2, 2], 1.0 / 0.25**2, rtol=1e-14)


def test_stereographic_conformal_factor():
    m = sphere_stereographic(3)
    x = np.array([0.4, 0.0, -0.3])
    expected = (2.0 / (1.0 + np.dot(x, x))) ** 2
    assert np.isclose(metric_at(m, x)[1, 1], expected, rtol=1e-14)


@pytest.mark.parametrize("factory,K", MODELS)
def test_christoffels_match_metric_finite_differences(factory, K):
    """Gamma^k_ij = 0.5 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij), FD in the chart."""
    model = factory(3)
    rng = np.random.default_rng(7)
    step = 1e-5
    for _ in range(5):
        x = probe_point(model, rng)
        n = model.n
        dg = np.zeros((n, n, n))
        for a in range(n):
            e = np.zeros(n)
            e[a] = step
            dg[a] = (metric_at(model, x + e) - metric_at(model, x - e)) / (2 * step)
        g_inv = np.linalg.inv(metric_at(model, x))
        gamma_fd = 0.5 * np.einsum(
            "kl,ilj->kij", g_inv, dg + np.transpose(dg, (2, 1, 0)) - np.transpose(dg, (1, 0, 2)))
        assert np.max(np.abs(gamma_fd - christoffels_at(model, x))) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("factory,K", MODELS)
def test_phi_derivatives_match_finite_differences(factory, K, n):
    """phi_grad and phi_hess against central differences of phi and phi_grad."""
    model = factory(n)
    rng = np.random.default_rng(300 + n)
    step = 1e-5
    for _ in range(4):
        x = probe_point(model, rng)
        grad, hess = model.phi_grad(x), model.phi_hess(x)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd_grad = (model.phi(x + e) - model.phi(x - e)) / (2 * step)
            assert abs(fd_grad - grad[i]) < 1e-8
            fd_hess = (model.phi_grad(x + e) - model.phi_grad(x - e)) / (2 * step)
            np.testing.assert_allclose(hess[i], fd_hess, rtol=0, atol=1e-8)


@pytest.mark.parametrize("factory,K", MODELS)
def test_sectional_probe_recovers_constant(factory, K):
    model = factory(3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = probe_point(model, rng)
        u, v = rng.normal(size=(2, 3))
        assert abs(sectional_curvature_probe(model, x, u, v) - K) < 1e-6


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("factory,K", MODELS)
def test_batched_probe_matches_pointwise_probe(factory, K, n):
    """One (n, m) probe call equals m single-point calls bit for bit, and each recovers K."""
    model = factory(n)
    rng = np.random.default_rng([n, 17])
    x = np.stack([probe_point(model, rng) for _ in range(7)], axis=1)
    u, v = rng.normal(size=(2, n, 7))
    batched = sectional_curvature_probe(model, x, u, v)
    assert isinstance(batched, np.ndarray) and batched.shape == (7,)
    single = [sectional_curvature_probe(model, x[:, j], u[:, j], v[:, j]) for j in range(7)]
    assert all(type(k) is float for k in single)
    assert np.array_equal(batched, np.array(single))
    assert np.max(np.abs(batched - K)) < 1e-6


def test_batched_probe_rejects_a_bad_column():
    model = poincare_ball(3)
    rng = np.random.default_rng(5)
    x = np.stack([probe_point(model, rng) for _ in range(4)], axis=1)
    u, v = rng.normal(size=(2, 3, 4))
    v[:, -1] = -3.0 * u[:, -1]
    with pytest.raises(DegeneratePlane, match=r"gbar-parallel or null at probe 3 of 4, x = \["):
        sectional_curvature_probe(model, x, u, v)
    v[:, -1] = rng.normal(size=3)
    x[:, 1] = [0.9, 0.0, 0.5]
    with pytest.raises(PointOutsideChart):
        sectional_curvature_probe(model, x, u, v)


def test_sectional_probe_rejects_parallel_vectors():
    model = euclidean(3)
    u = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegeneratePlane):
        sectional_curvature_probe(model, np.zeros(3), u, 2.0 * u)


def test_points_outside_chart_rejected():
    with pytest.raises(PointOutsideChart):
        metric_at(poincare_ball(3), np.array([0.9, 0.9, 0.9]))
    with pytest.raises(PointOutsideChart):
        metric_at(upper_half_space(3), np.array([0.0, 0.0, -0.1]))


def test_covariant_hessian_of_linear_function_euclidean():
    # flat chart: covariant Hessian of a linear function vanishes
    m = euclidean(3)
    x = np.array([0.2, 0.5, -0.4])
    grad = np.array([1.0, -2.0, 0.5])
    hess = np.zeros((3, 3))
    assert np.allclose(covariant_hessian(m, x, grad, hess, m.phi_grad(x)), 0.0)


def test_laplacian_traces_hessian():
    """g^{ij} Hess_ij equals the reported Laplace-Beltrami value."""
    rng = np.random.default_rng(3)
    for factory, _ in MODELS:
        model = factory(3)
        x = probe_point(model, rng)
        grad = rng.normal(size=3)
        hess_flat = rng.normal(size=(3, 3))
        hess_flat = 0.5 * (hess_flat + hess_flat.T)
        cov = covariant_hessian(model, x, grad, hess_flat, model.phi_grad(x))
        g_inv = np.linalg.inv(metric_at(model, x))
        lap = ambient_laplacian(model, x, grad, hess_flat, model.phi_grad(x))
        assert np.isclose(np.einsum("ij,ij->", g_inv, cov), lap, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    idx=st.integers(min_value=0, max_value=3),
)
def test_inner_product_is_bilinear_symmetric_positive(seed, idx):
    factory, _ = MODELS[idx]
    model = factory(3)
    rng = np.random.default_rng(seed)
    x = probe_point(model, rng)
    u, v, w = rng.normal(size=(3, 3))
    a = float(rng.uniform(-2.0, 2.0))
    assert np.isclose(
        ambient_inner(model, x, u + a * w, v),
        ambient_inner(model, x, u, v) + a * ambient_inner(model, x, w, v),
        rtol=1e-12, atol=1e-12)
    assert np.isclose(ambient_inner(model, x, u, v),
                      ambient_inner(model, x, v, u), rtol=1e-12)
    assert ambient_inner(model, x, u, u) >= 0.0
