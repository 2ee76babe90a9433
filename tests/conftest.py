"""Shared fixtures and the acceptance-summary terminal hook."""

import numpy as np
import pytest

from fbmink import (
    CapSpec,
    SupportKind,
    default_cap_spec,
    make_support,
    make_umbilical_cap,
)

def canonical_support(kind: SupportKind, n: int = 3):
    return make_support(kind, n)


def canonical_scenario(kind: SupportKind, n: int = 3):
    support = canonical_support(kind, n)
    return make_umbilical_cap(default_cap_spec(support))


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
