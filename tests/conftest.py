"""Shared fixtures and the acceptance-summary terminal hook."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from fbmink import families
from fbmink import (
    CapSpec,
    PerturbationSpec,
    SupportKind,
    default_cap_spec,
    make_perturbed_cap,
    make_support,
    make_umbilical_cap,
)
from fbmink.charts import RadialBumpProfile
from fbmink.quadrature import region_sum

SPHERE_KINDS = [SupportKind.EUCLIDEAN_SPHERE, SupportKind.HYP_GEODESIC_SPHERE,
                SupportKind.SPH_GEODESIC_SPHERE]


def canonical_support(kind: SupportKind, n: int = 3):
    return make_support(kind, n)


def canonical_scenario(kind: SupportKind, n: int = 3):
    support = canonical_support(kind, n)
    return make_umbilical_cap(default_cap_spec(support))


def region_integrals(scenario, rule, integrands) -> tuple:
    """The integral over Omega of each array ``integrands(x)`` gives on a block of a
    region piece's cone, x its nodes: the ``region_sum`` of the pieces' ``block_sums``."""
    sums = [scenario.piece(label, rule).block_sums(integrands) for label in scenario.pieces]
    return tuple(region_sum(terms) for terms in zip(*sums))


def region_volume(scenario, rule) -> float:
    """The gbar volume of Omega."""
    return region_integrals(scenario, rule, lambda x: (np.ones(x.shape[1]),))[0]


def unchecked_scenario(kind: SupportKind, n: int, eps: float = 0.0):
    """The canonical cap, perturbed by the radial bump of size eps if eps is nonzero,
    built without the admissibility check.  At n >= 5 that check raises
    DegenerateImmersion on its level-6 region nodes, whose innermost polar nodes fall
    under the absolute det g floor; the cap's geometry at interior parameters is
    still well defined there."""
    with mock.patch.object(families, "_check_admissible", lambda scenario: None):
        spec = default_cap_spec(canonical_support(kind, n))
        if eps:
            return make_perturbed_cap(spec, PerturbationSpec(epsilon=eps))
        return make_umbilical_cap(spec)


def interior_params(surf, m=7, margin=0.15):
    """A small grid strictly inside the parameter box."""
    axes = [np.linspace(lo + margin * (hi - lo), hi - margin * (hi - lo), m)
            for lo, hi in surf.chart.domain]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


# perturbed caps on which g and h do not commute in chart coordinates: the
# conformal factor varies across a plane-type support, or the cap is shifted
ASYMMETRIC_CAPS = [
    (SupportKind.EQUIDISTANT, {}),
    (SupportKind.HYP_GEODESIC_PLANE, {}),
    (SupportKind.SPH_HYPERPLANE, {"center_shift": (0.3, 0.0)}),
]


def asymmetric_scenario(kind: SupportKind, placement: dict):
    spec = dataclasses.replace(default_cap_spec(canonical_support(kind)), **placement)
    return make_perturbed_cap(spec, PerturbationSpec(epsilon=0.05))


@dataclasses.dataclass
class AngularBumpProfile:
    """The bump (1 - (t/t_max)^2)^3 (1 + c sin t cos psi), psi the second chart angle,
    with exact first and second derivatives: it also varies with the angle, so g and h
    fail to commute in chart coordinates even where the conformal factor is symmetric.

    sin t cos psi is a linear coordinate of the unit sphere, so the bump stays smooth
    at the pole t = 0, where a bare cos psi factor would not; like the radial bump it
    vanishes to second order at the boundary ring t = t_max.
    """

    t_max: float
    c: float = 0.5

    def evaluate(self, U):
        """p (m,), its gradient (k, m) and its Hessian (k, k, m), node-last as the
        radial bump's."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        radial, d_radial, d2_radial = RadialBumpProfile(self.t_max).evaluate(U)
        rt, rtt = d_radial[0], d2_radial[0, 0]
        t, psi = U[:, 0], U[:, 1]
        c = self.c
        a = 1.0 + c * np.sin(t) * np.cos(psi)
        a_t, a_psi = c * np.cos(t) * np.cos(psi), -c * np.sin(t) * np.sin(psi)
        a_tt = a_psi_psi = -c * np.sin(t) * np.cos(psi)
        a_t_psi = -c * np.cos(t) * np.sin(psi)
        dp = np.zeros_like(d_radial)
        dp[0] = rt * a + radial * a_t
        dp[1] = radial * a_psi
        d2p = np.zeros_like(d2_radial)
        d2p[0, 0] = rtt * a + 2.0 * rt * a_t + radial * a_tt
        d2p[0, 1] = d2p[1, 0] = rt * a_psi + radial * a_t_psi
        d2p[1, 1] = radial * a_psi_psi
        return radial * a, dp, d2p


def angular_bump_scenario(kind: SupportKind, epsilon: float = 0.05, c: float = 0.5):
    """The canonical n=3 cap perturbed by ``AngularBumpProfile`` instead of the radial bump."""
    sc = make_perturbed_cap(default_cap_spec(canonical_support(kind)),
                            PerturbationSpec(epsilon=epsilon))
    chart = dataclasses.replace(sc.surface.chart,
                                profile=AngularBumpProfile(sc.surface.chart.base.t_max, c))
    return dataclasses.replace(sc, surface=dataclasses.replace(sc.surface, chart=chart))


@pytest.fixture
def hemisphere():
    """Unit upper hemisphere over the flat plane in R^3, weight 1."""
    support = canonical_support(SupportKind.EUCLIDEAN_PLANE)
    return make_umbilical_cap(CapSpec(support=support, radius=1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


# -- acceptance summary -----------------------------------------------------------
#
# test_acceptance.py records one verdict per criterion here; the hook below
# repeats them after the pytest summary so the lines survive output capture.

ACCEPTANCE_RESULTS: dict = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ACCEPTANCE_RESULTS[key] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {key}: {verdict}")
