"""Static weights: closed-form identities checked against FD oracles.

Each support kind carries one weight V with Hess V = -K V g in the bulk
and dV(N) = kappa V on the support.  The closed-form residual helpers are
exercised at tight tolerance; an independent finite-difference oracle
(Christoffels rebuilt from FD of the metric itself) bounds the same
tensor at FD accuracy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmink import (
    SupportKind,
    WeightField,
    WeightFormula,
    euclidean,
    hessian_identity_residual,
    neumann_identity_residual,
    poincare_ball,
    sphere_stereographic,
    upper_half_space,
    weight_for_support,
)
from fbmink.ambient import (
    ambient_laplacian,
    christoffels_at,
    covariant_hessian,
    metric_at,
)
from fbmink.inequalities import _axis_rows, _Coordinate, _volume_integrands
from fbmink.supports import sample_admissible_points, sample_support_points
from fbmink.weights import jet

from conftest import canonical_support

ALL_KINDS = list(SupportKind)


def fd_covariant_hessian(weight, x, step=1e-4):
    """Hess_ij = d_i d_j V - Gamma^k_ij d_k V with every piece from FD.

    Christoffels come from central differences of metric_at, so this path
    shares no derivative code with the closed forms under test.
    """
    model = weight.model
    n = model.n
    V = weight.value
    hess = np.zeros((n, n))
    grad = np.zeros(n)
    basis = np.eye(n) * step
    for i in range(n):
        grad[i] = (V(x + basis[i]) - V(x - basis[i])) / (2 * step)
        hess[i, i] = (V(x + basis[i]) - 2 * V(x) + V(x - basis[i])) / step**2
        for j in range(i):
            hess[i, j] = hess[j, i] = (
                V(x + basis[i] + basis[j]) - V(x + basis[i] - basis[j])
                - V(x - basis[i] + basis[j]) + V(x - basis[i] - basis[j])
            ) / (4 * step**2)
    dg = np.zeros((n, n, n))
    for a in range(n):
        dg[a] = (metric_at(model, x + basis[a]) - metric_at(model, x - basis[a])) / (2 * step)
    g_inv = np.linalg.inv(metric_at(model, x))
    gamma = 0.5 * np.einsum(
        "kl,ilj->kij", g_inv,
        dg + np.transpose(dg, (2, 1, 0)) - np.transpose(dg, (1, 0, 2)))
    return hess - np.einsum("kij,k->ij", gamma, grad)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_hessian_identity_closed_form(kind):
    s = canonical_support(kind)
    w = weight_for_support(s)
    rng = np.random.default_rng(5)
    pts = sample_admissible_points(s, 100, rng)
    assert hessian_identity_residual(w, pts) <= 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_neumann_identity_closed_form(kind):
    s = canonical_support(kind)
    w = weight_for_support(s)
    rng = np.random.default_rng(6)
    pts = sample_support_points(s, 100, rng)
    assert neumann_identity_residual(w, s, pts) <= 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_hessian_identity_fd_oracle(kind):
    """|FD Hess V + K V g| stays at FD accuracy, step 1e-4."""
    s = canonical_support(kind)
    w = weight_for_support(s)
    K = s.model.K
    rng = np.random.default_rng(7)
    pts = sample_admissible_points(s, 10, rng)
    for x in pts:
        target = -K * w.value(x) * metric_at(s.model, x)
        assert np.max(np.abs(fd_covariant_hessian(w, x) - target)) < 1e-5


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_neumann_identity_fd_oracle(kind):
    s = canonical_support(kind)
    w = weight_for_support(s)
    rng = np.random.default_rng(8)
    step = 1e-6
    for x in sample_support_points(s, 10, rng):
        nbar = s.outward_normal(x)  # g-unit, chart components
        fd = (w.value(x + step * nbar) - w.value(x - step * nbar)) / (2 * step)
        assert abs(fd - s.kappa * w.value(x)) < 1e-5


def test_binding_covers_six_model_weight_pairs():
    pairs = set()
    for kind in ALL_KINDS:
        s = canonical_support(kind)
        w = weight_for_support(s)
        pairs.add((s.model.kind, w.formula))
    assert len(pairs) == 6


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_weight_positive_on_admissible_region(kind):
    s = canonical_support(kind)
    w = weight_for_support(s)
    rng = np.random.default_rng(9)
    pts = sample_admissible_points(s, 200, rng)
    assert np.min(w.value(pts.T)) > 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_closed_form_gradient_and_hessian_match_fd(n):
    # spot-check the flat derivatives driving every covariant quantity
    rng = np.random.default_rng(10)
    step = 1e-5
    for kind in ALL_KINDS:
        s = canonical_support(kind, n)
        w = weight_for_support(s)
        x = sample_admissible_points(s, 1, rng)[0]
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd_g = (w.value(x + e) - w.value(x - e)) / (2 * step)
            assert abs(fd_g - w.euclidean_gradient(x)[i]) < 1e-7
            fd_h = (w.euclidean_gradient(x + e) - w.euclidean_gradient(x - e)) / (2 * step)
            assert np.max(np.abs(fd_h - w.euclidean_hessian(x)[i])) < 1e-7


@settings(max_examples=30, deadline=None)
@given(
    kind_idx=st.integers(min_value=0, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_identity_residuals_invariant_under_point_resampling(kind_idx, seed):
    """The identities are pointwise exact, so any admissible sample passes."""
    s = canonical_support(ALL_KINDS[kind_idx])
    w = weight_for_support(s)
    rng = np.random.default_rng(seed)
    assert hessian_identity_residual(w, sample_admissible_points(s, 20, rng)) <= 1e-10
    assert neumann_identity_residual(w, s, sample_support_points(s, 20, rng)) <= 1e-10


ORACLE_MODELS = [euclidean, poincare_ball, upper_half_space, sphere_stereographic]


def _oracle_points(model, m: int, rng) -> np.ndarray:
    """A seeded batch (n, m) inside the model's chart, coordinate first."""
    x = rng.uniform(-0.3, 0.3, size=(model.n, m))
    if model.kind.value == "upper_half_space":
        x[-1] = rng.uniform(0.4, 1.6, size=m)
    return x


class _NodeSet:
    """What the Reilly checker's coefficient rows read of a region piece, on one batch
    of points: its weight and per-node rows, formed here without a memo."""

    def __init__(self, weight: WeightField, x: np.ndarray):
        self.weight, self.x = weight, x

    def rows(self, key, count, rows):
        block = np.array(rows(self.x))   # the batch is the piece's one block
        assert block.shape == (count, self.x.shape[1])
        return [block]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("factory", ORACLE_MODELS)
def test_reilly_quadratics_match_dense_tensors_at_points(factory, n):
    """The Reilly checker's interior integrands, quadratics in q = f / V from per-node
    coefficient rows, against the dense tensors: T = Hess f - q Hess V, the Laplacians
    and the static tensor from ``metric_at``.  Every axis and every weight formula, at
    every n the schema accepts, including the dimensions whose caps do not build yet;
    the identity behind the rows holds for any V, static or not.  The rows of V and of
    axis i come in one array, formed in one pass."""
    model = factory(n)
    rng = np.random.default_rng(20261020 + n)
    m = 9
    x = _oracle_points(model, m, rng)
    if model.kind.value != "upper_half_space":
        x[-1] = rng.uniform(0.15, 0.3, size=m)   # keep every V away from 0
    e = np.exp(-2.0 * model.phi(x))
    gbar = metric_at(model, x)
    for formula in WeightFormula:
        weight = WeightField(model, formula)
        nodes = _NodeSet(weight, x)
        Vv, dV, _, hess_V, lap_V = jet(model, x, weight)
        static_tensor = (lap_V + (n - 1.0) * model.K * Vv) * gbar - hess_V
        for f in (_Coordinate(i, squared) for i in range(n) for squared in (False, True)):
            fv, df, _, hess_f, lap_f = jet(model, x, f)
            q = fv / Vv
            amb_sq = (lap_f - q * lap_V) ** 2
            T_sq = e * e * np.einsum("ijm,ijm->m", hess_f - q * hess_V, hess_f - q * hess_V)
            w = e * (df - q * dV)
            ref_static = np.einsum("ijm,im,jm->m", static_tensor, w, w)
            lhs, static = _volume_integrands(f, x, _axis_rows(nodes, f.i)[0])
            where = (formula, f)
            np.testing.assert_allclose(lhs, Vv * (amb_sq - T_sq), rtol=0, err_msg=repr(where),
                                       atol=1e-13 * float(np.max(np.abs(Vv) * (amb_sq + T_sq))))
            # for a static V the static tensor is rounding noise: scale by its two parts
            parts = np.abs(lap_V + (n - 1.0) * model.K * Vv) * gbar + np.abs(hess_V)
            scale = np.einsum("ijm,im,jm->m", parts, np.abs(w), np.abs(w))
            np.testing.assert_allclose(static, ref_static, rtol=0, err_msg=repr(where),
                                       atol=1e-13 * float(np.max(scale)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("factory", ORACLE_MODELS)
def test_node_last_jets_match_pointwise_oracles(factory, n):
    """The batched (n, m) kernels against single points: the covariant Hessian against
    the Christoffel contraction, the Laplacian against g^ij Hess_ij, and every jet
    against the jet of each (n,) point.  Random flat derivatives and m != n make an
    axis mix-up visible: it moves entries by O(1).  The jets agree to rounding, not
    bit for bit: numpy's vectorized ``**`` may round differently from its scalar
    ``**``, and the covariant Hessian's cancellations carry that to near-zero entries."""
    model = factory(n)
    rng = np.random.default_rng(20261018 + n)
    m = 7
    x = _oracle_points(model, m, rng)
    df = rng.normal(size=(n, m))
    d2f = rng.normal(size=(n, n, m))
    d2f = d2f + np.swapaxes(d2f, 0, 1)
    hess = covariant_hessian(model, x, df, d2f, model.phi_grad(x))
    lap = ambient_laplacian(model, x, df, d2f, model.phi_grad(x))
    assert hess.shape == (n, n, m) and lap.shape == (m,)
    for k in range(m):
        p = x[:, k]
        oracle = d2f[..., k] - np.einsum("kij,k->ij", christoffels_at(model, p), df[:, k])
        np.testing.assert_allclose(hess[..., k], oracle, rtol=1e-12, atol=1e-12)
        traced = np.einsum("ij,ij->", np.linalg.inv(metric_at(model, p)), oracle)
        np.testing.assert_allclose(lap[k], traced, rtol=1e-12, atol=1e-12)

    functions = [WeightField(model, formula) for formula in WeightFormula]
    functions += [_Coordinate(i, squared) for i in range(n) for squared in (False, True)]
    shapes = [(m,), (n, m), (n, n, m), (n, n, m), (m,)]
    for fn in functions:
        batch = jet(model, x, fn)
        assert [np.shape(part) for part in batch] == shapes, fn
        for k in range(m):
            for part, single in zip(batch, jet(model, x[:, k], fn)):
                scale = max(1.0, float(np.max(np.abs(single))))
                np.testing.assert_allclose(part[..., k], single, rtol=0, atol=1e-14 * scale,
                                           err_msg=repr(fn))
