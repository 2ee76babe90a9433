"""Shared fixtures and the acceptance-summary terminal hook."""

import dataclasses

import numpy as np
import pytest

from fbmink import (
    CapSpec,
    PerturbationSpec,
    SupportKind,
    default_cap_spec,
    make_perturbed_cap,
    make_support,
    make_umbilical_cap,
)

def canonical_support(kind: SupportKind, n: int = 3):
    return make_support(kind, n)


def canonical_scenario(kind: SupportKind, n: int = 3):
    support = canonical_support(kind, n)
    return make_umbilical_cap(default_cap_spec(support))


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
