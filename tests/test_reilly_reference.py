"""The Reilly checker against a reference kept here, in tests only.

The reference is the checker as it was before it was cut down to each test
function's own work: it forms the static tensor from ``metric_at`` on every
region block, takes the generic ``weights.jet`` of every test function, and
contracts with three-operand einsums.  Both evaluate the same integrals, so
they must agree to rounding.  The reference contracts the surface arrays
node-first, (m, ...), as the geometry layer once laid them out; the library's
node-last arrays are moved to that layout as the reference reads them.
"""

import numpy as np
import pytest

from fbmink import (
    PerturbationSpec,
    QuadratureRule,
    SupportKind,
    default_cap_spec,
    make_perturbed_cap,
    make_umbilical_cap,
    reilly_residual,
)
from fbmink.ambient import metric_at
from fbmink.inequalities import _test_function
from fbmink.quadrature import pairwise_sum
from fbmink.weights import jet

from conftest import SPHERE_KINDS, canonical_support, region_integrals


def _node_first(a: np.ndarray) -> np.ndarray:
    return np.moveaxis(a, -1, 0)


def _reference_boundary_terms(piece, V_jet, f_jet) -> dict:
    geo = piece.geo
    nu, jac = _node_first(geo.nu), _node_first(geo.jac)
    g, g_inv, h = _node_first(geo.g), _node_first(geo.g_inv), _node_first(geo.h)
    curv = piece.curvature()
    dnu = _node_first(piece.normal_derivatives())

    def boundary_parts(fn_jet):
        _, d1, d2, hess, lap = fn_jet
        d_nu = np.einsum("im,mi->m", d1, nu)
        d_a = np.einsum("im,mia->ma", d1, jac)
        lap_p = lap - np.einsum("ijm,mi,mj->m", hess, nu, nu) - curv.H * d_nu
        d_nu_a = (np.einsum("ijm,mia,mj->ma", d2, jac, nu)
                  + np.einsum("im,mai->ma", d1, dnu))
        return d_nu, d_a, lap_p, d_nu_a

    Vv, fv = V_jet[0], f_jet[0]
    V_nu, V_a, lap_p_V, dVnu_a = boundary_parts(V_jet)
    f_nu, f_a, lap_p_f, dfnu_a = boundary_parts(f_jet)
    u = f_nu - V_nu / Vv * fv
    w_a = f_a - (V_a * fv[:, None]) / Vv[:, None]
    w_up = np.einsum("mab,mb->ma", g_inv, w_a)
    ratio_a = (dVnu_a * Vv[:, None] - V_nu[:, None] * V_a) / Vv[:, None] ** 2
    u_a = dfnu_a - ratio_a * fv[:, None] - (V_nu / Vv)[:, None] * f_a
    term_mixed = Vv * u * (lap_p_f - lap_p_V / Vv * fv)
    term_grad = -Vv * np.einsum("ma,ma->m", u_a, w_up)
    quad_form = h - (V_nu / Vv)[:, None, None] * g
    term_h = Vv * curv.H * u ** 2 + np.einsum("mab,ma,mb->m", quad_form, w_up, w_up) * Vv
    return {"mixed": float(pairwise_sum(term_mixed * piece.weights)),
            "gradient": float(pairwise_sum(term_grad * piece.weights)),
            "curvature": float(pairwise_sum(term_h * piece.weights))}


def reference_reilly(scenario, function: str, rule) -> dict:
    """The ``ReillyReport.to_dict()`` of the reference checker."""
    name, f = _test_function(function, scenario)
    model = scenario.model

    def volume_integrands(x):
        Vv, dV, _, hess_V, lap_V = jet(model, x, scenario.weight)
        fv, df, _, hess_f, lap_f = jet(model, x, f)
        gbar = metric_at(model, x)
        static = lap_V * gbar - hess_V + (model.n - 1.0) * model.K * Vv * gbar
        gbar_inv_diag = np.exp(-2.0 * model.phi(x))
        amb_term = lap_f - lap_V / Vv * fv
        tensor = hess_f - hess_V / Vv * fv
        tensor_norm_sq = gbar_inv_diag ** 2 * np.einsum("ijm,ijm->m", tensor, tensor)
        w_chart = gbar_inv_diag * (df - dV * (fv / Vv))
        return (Vv * (amb_term ** 2 - tensor_norm_sq),
                np.einsum("ijm,im,jm->m", static, w_chart, w_chart))

    lhs_volume, rhs_volume = region_integrals(scenario, rule, volume_integrands)
    boundary = {}
    for label in ("cap", "support"):
        piece = scenario.piece(label, rule)
        x = piece.geo.x
        boundary[label] = _reference_boundary_terms(piece, jet(model, x, scenario.weight),
                                                    jet(model, x, f))
    residual = lhs_volume - rhs_volume - sum(sum(d.values()) for d in boundary.values())
    scale = max(abs(lhs_volume), abs(rhs_volume),
                max(abs(v) for d in boundary.values() for v in d.values()))
    return {"function": name, "level": rule.level, "residual": residual,
            "relative_residual": residual / scale if scale > 1e-20 else 0.0,
            "lhs_volume": lhs_volume, "rhs_volume_static": rhs_volume, "boundary": boundary}


def _fields(row: dict) -> dict:
    """The numeric fields of a Reilly row, boundary terms as "piece/term"."""
    out = {key: row[key] for key in ("residual", "relative_residual",
                                     "lhs_volume", "rhs_volume_static")}
    out.update({f"{label}/{term}": value for label, terms in row["boundary"].items()
                for term, value in terms.items()})
    return out


# n=4 at level 8 covers every support whose cap builds there: the two planes and the
# three spheres, whose regions have a face cone
CASES = ([(3, 16, kind) for kind in SupportKind]
         + [(4, 8, SupportKind.EUCLIDEAN_PLANE), (4, 8, SupportKind.SPH_HYPERPLANE)]
         + [(4, 8, kind) for kind in SPHERE_KINDS]
         + [(2, 32, kind) for kind in SPHERE_KINDS])


@pytest.mark.parametrize("eps", [0.0, 0.05, -0.05])
@pytest.mark.parametrize("n,level,kind", CASES)
def test_reilly_rows_match_the_reference_checker(n, level, kind, eps):
    spec = default_cap_spec(canonical_support(kind, n))
    sc = (make_perturbed_cap(spec, PerturbationSpec(epsilon=eps, power=3)) if eps
          else make_umbilical_cap(spec))
    rule = QuadratureRule(level)
    # the first, a middle and the last axis (at n=2 the middle axis is the last)
    names = tuple(dict.fromkeys(("V", "x1", "x2", f"x{n}", "x1^2", "x2^2", f"x{n}^2")))
    rows = {name: reilly_residual(sc, name, rule).to_dict() for name in names}
    refs = {name: reference_reilly(sc, name, rule) for name in names}
    magnitude = {name: max(abs(v) for v in _fields(ref).values()) for name, ref in refs.items()}
    for name in names:
        assert rows[name]["function"] == refs[name]["function"]
        new, ref = _fields(rows[name]), _fields(refs[name])
        # the terms of V, and of x_n where V = x_n, vanish identically: the reference
        # reads rounding noise below the checker's 1e-20 floor there, so the scenario's
        # largest row sets the scale; with q = V / V exactly 1, V's row is exactly 0
        scale = magnitude[name] if magnitude[name] > 1e-20 else max(magnitude.values())
        if name == "V":
            assert all(v == 0.0 for v in new.values())
        for key in ref:
            assert abs(new[key] - ref[key]) <= 1e-13 * scale, (name, key, new[key], ref[key])
