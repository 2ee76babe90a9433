"""The Reilly checker's region kernel against a copy kept here, in tests only.

``inequalities._axis_integrands`` forms V's flat jet and phi's from one |x|^2 and
one 1 / (1 + K|x|^2) per block (``ambient.Radial``) and accumulates its rows in
place.  ``_kept_axis_integrands`` below is the kernel as it was before: each jet
through the public methods, every coefficient a fresh array.  Both evaluate the
same expressions in the same association, so they must agree bit for bit, on
contiguous nodes and on the column views of a wider array that ``quadrature.cut``
hands the kernel.  The dense-tensor oracle of the integrands themselves is
``tests/test_weights.py::test_reilly_quadratics_match_dense_tensors_at_points``.
"""

import numpy as np
import pytest

from fbmink import (
    PerturbationSpec,
    QuadratureRule,
    SupportKind,
    WeightField,
    WeightFormula,
    default_cap_spec,
    euclidean,
    make_perturbed_cap,
    poincare_ball,
    reilly_residual,
    sphere_stereographic,
    upper_half_space,
)
from fbmink import ambient
from fbmink.ambient import Radial
from fbmink.inequalities import _Coordinate, _axis_integrands, _dot, _flat_jet
from fbmink.weights import jet
from fbmink.quadrature import cut

from conftest import canonical_support

MODELS = [euclidean, poincare_ball, upper_half_space, sphere_stereographic]


def _kept_axis_integrands(weight, i, x):
    """The (4, k) integrands of x_i and x_i^2 as the kernel formed them out of place."""
    model, n = weight.model, weight.model.n
    V, g, H = weight.value(x), weight.euclidean_gradient(x), weight.euclidean_hessian(x)
    p, e = model.phi_grad(x), np.exp(-2.0 * model.phi(x))
    trH, pg, pp, gg = np.trace(H), _dot(p, g), _dot(p, p), _dot(g, g)
    Hg = np.einsum("ijm,jm->im", H, g)
    S = e * (trH + (n - 2.0) * pg) + (n - 1.0) * model.K * V
    A2 = (trH * trH - np.einsum("ijm,ijm->m", H, H)
          + pg * ((2.0 * n - 6.0) * trH + (n - 2.0) * (n - 3.0) * pg)
          + 4.0 * _dot(Hg, p) - 2.0 * pp * gg)
    E0 = gg * (S + e * pg) - e * _dot(Hg, g)
    p_i, g_i, H_i, x_i = p[i], g[i], H[i], x[i]
    A1 = 4.0 * (pp * g_i - _dot(H_i, p)) - p_i * (
        (2.0 * n - 6.0) * trH + 2.0 * (n - 2.0) * (n - 3.0) * pg)
    C1 = 2.0 * (H_i[i] - trH) - (2.0 * n - 6.0) * pg - 4.0 * p_i * g_i
    S2 = (n - 2.0) * (n - 3.0) * p_i * p_i - 2.0 * pp
    E1 = 2.0 * (e * (_dot(H_i, g) - p_i * gg) - g_i * S)
    E2 = S - e * (pg + H_i[i] - 2.0 * p_i * g_i)
    q, Ve2, x_sq = x_i / V, V * e * e, x_i * x_i
    A2q, E0q = A2 * q, E0 * q
    out = np.empty((4, x.shape[1]))
    out[0] = Ve2 * ((A2q + A1) * q + S2)
    out[1] = e * ((E0q + E1) * q + E2)
    out[2] = Ve2 * (x_sq * ((A2q + 2.0 * A1) * q + 4.0 * S2)
                    + 2.0 * x_i * (C1 * q + (4.0 * n - 4.0) * p_i))
    out[3] = e * x_sq * ((E0q + 2.0 * E1) * q + 4.0 * E2)
    return out


def _points(model, m: int, rng) -> np.ndarray:
    """A seeded batch (n, m) inside the model's chart, every weight away from 0."""
    x = rng.uniform(-0.3, 0.3, size=(model.n, m))
    x[-1] = rng.uniform(0.4, 1.6, size=m) if model.kind.value == "upper_half_space" \
        else rng.uniform(0.15, 0.3, size=m)
    return x


# 1,001 nodes: whole SIMD strides and a ragged tail in every row
M = 1001


@pytest.mark.parametrize("layout", ["contiguous", "column view"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("factory", MODELS)
def test_axis_integrands_match_the_kept_kernel_bit_for_bit(factory, n, layout):
    model = factory(n)
    x = _points(model, M, np.random.default_rng(20261020 + n))
    if layout == "column view":   # a block of a cone, as quadrature.cut cuts it
        wide = np.zeros((n, 3 * M))
        wide[:, M:2 * M] = x
        x = wide[:, M:2 * M]
        assert not x.flags.c_contiguous
    for formula in WeightFormula:
        weight = WeightField(model, formula)
        for i in range(n):   # every axis, the last one i = n-1 included
            new, kept = _axis_integrands(weight, i, x), _kept_axis_integrands(weight, i, x)
            assert new.shape == (4, M)
            assert np.array_equal(new, kept), (formula, i)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("factory", MODELS)
def test_flat_jet_equals_the_public_methods_bit_for_bit(factory, n):
    """One ``Radial`` shared by the weight and the model reads the bits each public
    method forms alone on the plain points, whichever weight formula sits on the
    model (the sphere hyperplane's 1 / (1 + |x|^2) is the sphere model's w)."""
    model = factory(n)
    x = _points(model, M, np.random.default_rng(20261021 + n))
    for formula in WeightFormula:
        weight = WeightField(model, formula)
        V, g, H, p, e = _flat_jet(weight, x)
        assert np.array_equal(V, weight.value(x)), formula
        assert np.array_equal(g, weight.euclidean_gradient(x)), formula
        assert np.array_equal(H, weight.euclidean_hessian(x)), formula
        assert np.array_equal(p, model.phi_grad(x)), formula
        assert np.array_equal(e, np.exp(-2.0 * model.phi(x))), formula
        r = Radial(x)
        assert np.array_equal(model.phi_hess(r), model.phi_hess(x))
        assert np.array_equal(model.phi(r), model.phi(x))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("factory", MODELS)
def test_jet_on_a_radial_equals_the_jet_on_plain_points_bit_for_bit(factory, n):
    """``weights.jet`` hands one ``Radial`` to the function's three methods, to
    phi_grad and to the Laplacian's phi.  On a ``Radial`` and on the plain points it
    reads the bits each public method forms alone on the plain points, for every
    weight formula on the model and for x_i and x_i^2 on every axis."""
    model = factory(n)
    x = _points(model, M, np.random.default_rng(20261022 + n))
    functions = [*(WeightField(model, formula) for formula in WeightFormula),
                 *(_Coordinate(i, squared) for i in range(n) for squared in (False, True))]
    for fn in functions:
        d1, d2, dphi = fn.euclidean_gradient(x), fn.euclidean_hessian(x), model.phi_grad(x)
        alone = (fn.value(x), d1, d2, ambient.covariant_hessian(model, x, d1, d2, dphi),
                 ambient.ambient_laplacian(model, x, d1, d2, dphi))
        for points in (Radial(x), x):
            got = jet(model, points, fn)
            assert len(got) == len(alone)
            assert all(np.array_equal(a, b) for a, b in zip(got, alone)), (fn, type(points))


@pytest.mark.parametrize("kind", [SupportKind.HYP_GEODESIC_SPHERE, SupportKind.SPH_HYPERPLANE,
                                  SupportKind.HOROSPHERE])
def test_kernel_leaves_its_block_and_the_cone_it_views_unchanged(kind):
    """Each block is a view into a cone memoized on its piece: the in-place kernel
    writes into neither, on any axis, and the checker's rows read the same cone after."""
    n, rule = 3, QuadratureRule(32)
    sc = make_perturbed_cap(default_cap_spec(canonical_support(kind, n)),
                            PerturbationSpec(epsilon=0.05))
    pieces = [sc.piece(label, rule) for label in sc.pieces]
    kept = [tuple(a.copy() for a in piece.cone()) for piece in pieces]
    for piece in pieces:
        for x, _ in cut(*piece.cone()):
            block = x.copy()
            for i in range(n):
                _axis_integrands(piece.weight, i, x)
                assert np.array_equal(x, block)
    for name in ("x1", "x1^2", f"x{n}", f"x{n}^2"):
        reilly_residual(sc, name, rule)
    for piece, (pts, wt) in zip(pieces, kept):
        now_pts, now_wt = piece.cone()
        assert np.array_equal(now_pts, pts) and np.array_equal(now_wt, wt)
