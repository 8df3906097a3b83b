"""Shared fixtures: one band structure per potential, computed once.

Everything expensive (band edges up to the ceiling, the window report,
branch points, actions) is session scoped; individual tests treat these
objects as read-only.
"""

from __future__ import annotations

import pytest

from adiaspec import (
    AnalyticPotential,
    PeriodicPotential,
    analyze_window,
    band_edges,
    best_window_energy,
    branch_points,
    compute_actions,
)

# reference modulation amplitude; chosen so the n = 1, m = 0 window
# checks pass with a wide margin over the admissible energy interval
AMPLITUDE = 4.8
CEILING = 45.0


@pytest.fixture(scope="session")
def V_ref() -> PeriodicPotential:
    return PeriodicPotential.trig([(1, 2.0, 0.0)])


@pytest.fixture(scope="session")
def V_kp() -> PeriodicPotential:
    return PeriodicPotential.piecewise([(0.0, 0.0), (0.5, 6.0)])


@pytest.fixture(scope="session")
def V_mix() -> PeriodicPotential:
    return PeriodicPotential.trig([(1, 1.5, 0.5), (2, 0.0, -0.8)])


@pytest.fixture(scope="session")
def V_zero() -> PeriodicPotential:
    return PeriodicPotential.zero()


@pytest.fixture(scope="session")
def W_ref() -> AnalyticPotential:
    return AnalyticPotential.cosine(AMPLITUDE, 0.5)


@pytest.fixture(scope="session")
def bands_ref(V_ref):
    return band_edges(V_ref, CEILING)


@pytest.fixture(scope="session")
def bands_kp(V_kp):
    return band_edges(V_kp, 30.0)


@pytest.fixture(scope="session")
def E_ref(W_ref, bands_ref) -> float:
    return best_window_energy(W_ref, bands_ref, 1, 0)


@pytest.fixture(scope="session")
def report_ref(W_ref, bands_ref, E_ref):
    rep = analyze_window(W_ref, bands_ref, E_ref, 1, 0)
    assert rep.all_ok
    return rep


@pytest.fixture(scope="session")
def geom_ref(W_ref, bands_ref, report_ref):
    return branch_points(W_ref, bands_ref, report_ref)


@pytest.fixture(scope="session")
def acts_ref(geom_ref):
    return compute_actions(geom_ref, tol=1e-10)
