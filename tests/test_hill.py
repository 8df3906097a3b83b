"""Floquet layer: fundamental matrices, discriminant, bands, quasi-momentum.

Cross-checks run against the fixed-step integrators in oracles.py, which
share no code with the adaptive machinery inside the package.
"""

from __future__ import annotations

import cmath
import gc
import math
import time
import warnings
import weakref
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from adiaspec import (
    ComplexDiscriminantModel,
    ConsistencyError,
    DiscriminantModel,
    InvalidInputError,
    PeriodicPotential,
    ResolutionFailure,
    _ode,
    band_edges,
    branch_points,
    compute_actions,
    discriminant,
    fundamental_matrix,
    hill,
    quasimomentum_main,
    real_branch,
)

from oracles import (
    kp_band_edges,
    kp_discriminant,
    mp_discriminant,
    oracle_discriminant,
    oracle_fundamental,
)

KP_SEGMENTS = [(0.0, 0.5, 0.0), (0.5, 1.0, 6.0)]


# ---------------------------------------------------------------------------
# fundamental matrices


def test_free_period_map_at_antiperiodic_energy(V_zero):
    got = fundamental_matrix(V_zero, math.pi**2)
    assert np.allclose(got, [[-1.0, 0.0], [0.0, -1.0]], atol=1e-9)


def test_free_period_map_at_zero_energy(V_zero):
    got = fundamental_matrix(V_zero, 0.0)
    assert np.allclose(got, [[1.0, 1.0], [0.0, 1.0]], atol=1e-9)


def test_period_map_matches_fixed_step_oracle(V_ref):
    got = fundamental_matrix(V_ref, 1.0, tol=1e-11)
    want = oracle_fundamental(V_ref, np.array([1.0]), steps=100_000)[..., 0]
    assert np.max(np.abs(got - want)) < 1e-9


def test_unit_wronskian_on_random_draws():
    rng = np.random.default_rng(20260815)
    tol = 1e-10
    for _ in range(100):
        if rng.random() < 0.5:
            V = PeriodicPotential.trig(
                [(1, rng.uniform(-3, 3), rng.uniform(-3, 3)),
                 (2, rng.uniform(-2, 2), 0.0)])
        else:
            b = float(rng.uniform(0.2, 0.8))
            V = PeriodicPotential.piecewise(
                [(0.0, rng.uniform(0, 8)), (b, rng.uniform(0, 8))])
        E = complex(rng.uniform(-5, 40), rng.uniform(-2, 2))
        M = fundamental_matrix(V, E, tol=tol)
        assert abs(np.linalg.det(M) - 1.0) <= 10 * tol


def test_real_energy_gives_real_entries(V_ref, V_kp):
    for V in (V_ref, V_kp):
        M = fundamental_matrix(V, 7.3)
        assert np.max(np.abs(np.imag(M))) < 1e-10


def test_non_finite_energy_rejected(V_ref, bands_ref):
    with pytest.raises(InvalidInputError):
        fundamental_matrix(V_ref, float("nan"))
    with pytest.raises(InvalidInputError):
        fundamental_matrix(V_ref, float("inf"))
    for E in (float("nan"), -float("inf")):
        with pytest.raises(InvalidInputError):
            quasimomentum_main(bands_ref, E)


def test_piecewise_breakpoint_validation():
    with pytest.raises(InvalidInputError):
        PeriodicPotential.piecewise([(0.2, 1.0)])
    with pytest.raises(InvalidInputError):
        PeriodicPotential.piecewise([(0.0, 1.0), (0.7, 2.0), (0.4, 3.0)])


def test_potentials_are_one_periodic(V_mix, V_kp):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-4.0, 4.0, size=200)
    for V in (V_mix, V_kp):
        vals = np.array([V(x) for x in xs])
        shifted = np.array([V(x + 1.0) for x in xs])
        assert np.allclose(vals, shifted, atol=1e-10)


# ---------------------------------------------------------------------------
# discriminant


@given(st.floats(min_value=0.5, max_value=120.0))
@settings(max_examples=40, deadline=None)
def test_free_discriminant_closed_form(E):
    V = PeriodicPotential.zero()
    assert discriminant(V, E) == pytest.approx(2.0 * math.cos(math.sqrt(E)),
                                               abs=1e-9)


def test_free_discriminant_at_zero(V_zero):
    assert discriminant(V_zero, 0.0) == pytest.approx(2.0, abs=1e-10)


def test_discriminant_real_for_real_energy(V_ref, V_kp):
    for V in (V_ref, V_kp):
        for E in (-4.0, 0.7, 13.9, 31.2):
            d = discriminant(V, E)
            assert isinstance(d, float) or abs(d.imag) < 1e-12


def test_discriminant_is_analytic(V_ref):
    # Cauchy-Riemann spot check with central differences
    E0, h = 3.7 + 0.4j, 1e-5
    ddx = (discriminant(V_ref, E0 + h) - discriminant(V_ref, E0 - h)) / (2 * h)
    ddy = (discriminant(V_ref, E0 + 1j * h)
           - discriminant(V_ref, E0 - 1j * h)) / (2j * h)
    assert ddx == pytest.approx(ddy, rel=1e-5)


def test_discriminant_vs_oracle_on_energy_sweep(V_ref, V_kp, V_mix):
    # fixed-step cross-check on 50 energies for all three potentials
    Es = np.linspace(-5.0, 40.0, 50)
    for V in (V_ref, V_kp, V_mix):
        want = oracle_discriminant(V, Es, steps=6000)
        got = np.array([discriminant(V, float(e), tol=1e-11) for e in Es])
        assert np.max(np.abs(got - want)) < 1e-9


def test_discriminant_vs_oracle_complex_energies(V_ref):
    for E in (2.0 + 1.5j, -1.0 - 0.4j, 20.0 + 3.0j):
        want = oracle_discriminant(V_ref, np.array([E]), steps=6000)[0]
        assert discriminant(V_ref, E, tol=1e-11) == pytest.approx(want,
                                                                  abs=1e-9)


def test_public_discriminant_is_the_batched_kernel_to_mpmath(V_ref):
    # one-energy reads go through the batched DOP853 period map: at tol
    # 1e-10 within 2e-11 of mpmath at real and complex energies, where
    # adaptive DOPRI5 steps missed by 8.6e-11
    for E in (4.4, 1.0, 30.0, 4.4 + 2.5j, -1.0 + 2.5j, 9.8 - 2.5j):
        got = discriminant(V_ref, E, 1e-10)
        assert abs(got - mp_discriminant(V_ref, E, dps=18)) < 2e-11


def test_one_energy_reads_at_a_tight_tolerance_are_accepted():
    # entries up to ~1e4 below the spectrum: the unimodularity bound of a
    # one-energy read scales with |ad| + |bc| and refuses none of them
    V = PeriodicPotential.trig([(1, 120.0, 0.0), (2, 36.0, 12.0)])
    for E in np.linspace(-98.13, 53.0, 201):
        assert math.isfinite(discriminant(V, float(E), 1e-14))


def test_kronig_penney_closed_form_discriminant(V_kp):
    for E in (1.3, 8.0, 25.0, 4.0 + 2.0j):
        want = kp_discriminant(KP_SEGMENTS, E)
        got = discriminant(V_kp, E, tol=1e-11)
        assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("name", ["V_ref", "V_kp"])
@pytest.mark.parametrize("E, tol", [(math.nan, 1e-10), (math.inf, 1e-10),
                                    (1.3, -1.0), (1.3, 0.0)])
def test_discriminant_refuses_bad_input_for_every_potential(name, E, tol,
                                                            request):
    # piecewise-constant V goes through fundamental_matrix's checks too
    with pytest.raises(InvalidInputError):
        discriminant(request.getfixturevalue(name), E, tol)


def test_strong_barrier_discriminant_is_checked_relative_to_its_products(
        monkeypatch):
    # entries of ~1e7 and more, whose d - b c rounds by ~eps |a d|: the
    # direct discriminant still returns, at real and complex E, and the
    # band-edge polish refuses none of its calls
    for v0 in (1500.0, 2000.0):
        V = PeriodicPotential.piecewise([(0.0, 0.0), (0.5, v0)])
        for E in (1.3, -50.0, 3.0 + 40.0j, 20.0 + 300.0j):
            want = kp_discriminant([(0.0, 0.5, 0.0), (0.5, 1.0, v0)], E)
            assert discriminant(V, E) == pytest.approx(want, rel=1e-9)
    refused = []

    def spy(*args, **kwargs):
        try:
            return discriminant(*args, **kwargs)
        except ConsistencyError:
            refused.append(args[1])
            raise

    monkeypatch.setattr(hill, "discriminant", spy)
    bands = band_edges(PeriodicPotential.piecewise([(0.0, 0.0), (0.5, 1500.0)]),
                       150.0)
    assert len(bands.edges) == 4 and refused == []


# ---------------------------------------------------------------------------
# Chebyshev discriminant model (batched node fill)


def test_model_fill_crosses_a_chunk_and_matches_scalar_and_oracle(
        V_ref, V_mix, monkeypatch):
    batches = []
    real = _ode._fixed_steps

    def counted(*args):
        out = real(*args)
        if out[1] is None:
            batches.append(args[5].shape[1:])  # (segments, members)
        return out

    monkeypatch.setattr(_ode, "_fixed_steps", counted)
    # 136 panels of 17 nodes: 2312 energies, more than one chunk; the
    # first chunk fills it alone, the rest runs as 4 segments
    lo, hi = -4.0, 13.0
    Es = np.concatenate([np.linspace(lo, hi, 25),
                         # around the first chunk boundary, node 2048
                         np.linspace(lo + 120 * 0.125, lo + 121 * 0.125, 5)])
    monkeypatch.setattr(hill, "_PANEL_WIDTH", 0.125)
    for V in (V_ref, V_mix):
        batches.clear()
        model = DiscriminantModel(V, lo, hi, degree=16)
        rest = 136 * 17 - _ode.CHUNK
        assert batches == [(1, _ode.CHUNK), (4, rest)]
        assert all(S * m <= _ode.CHUNK for S, m in batches)
        got = model(Es)
        scalar = np.array([discriminant(V, float(e), tol=1e-12) for e in Es])
        assert np.max(np.abs(got - scalar)) < 1e-10
        assert np.max(np.abs(got - oracle_discriminant(V, Es, steps=6000))) < 1e-9


def test_unresolved_panels_are_refilled_at_twice_the_degree(V_ref, monkeypatch):
    # with panels of width 6 the six lowest need degree 32, the two highest
    # reach their plateau at 16; only the six go through the second fill
    fills = []
    real = hill._discriminant_batch

    def counted(V, energies, tol):
        fills.append(len(energies))
        return real(V, energies, tol)

    monkeypatch.setattr(hill, "_discriminant_batch", counted)
    monkeypatch.setattr(hill, "_PANEL_WIDTH", 6.0)
    model = DiscriminantModel(V_ref, -2.5, 45.5, degree=16)
    assert fills == [8 * 17, 6 * 33]
    assert [len(p.coef) - 1 for p in model._panels] == [32] * 6 + [16] * 2
    Es = np.linspace(-2.5, 45.5, 41)
    scalar = np.array([discriminant(V_ref, float(e), tol=1e-12) for e in Es])
    assert np.max(np.abs(model(Es) - scalar)) < 1e-10
    # the array path sums the zero-padded degree-16 panels bit for bit, as
    # each panel's own Chebyshev does; a single energy takes the same path
    panels = [model._panels[min(bisect_right(model._bounds, e) - 1, 7)]
              for e in Es.tolist()]
    assert np.array_equal(model(Es), [p(e) for p, e in zip(panels, Es)])
    assert np.array_equal(model(Es), [model(float(e)) for e in Es])


def test_panel_unresolved_at_the_highest_degree_is_refused(V_ref, monkeypatch):
    # 2 cos sqrt(E) oscillates ~36 times over [0, 5e4]: more than a
    # degree-128 series resolves
    monkeypatch.setattr(hill, "_PANEL_WIDTH", 5e4)
    with pytest.raises(ResolutionFailure, match="unresolved at degree 128"):
        DiscriminantModel(V_ref, 0.0, 5e4)


def test_array_evaluator_matches_the_scalar_potential(V_ref, V_mix, V_kp):
    xs = np.concatenate([np.linspace(-1.5, 2.5, 401), [0.0, 0.5, 1.0, -0.5]])
    for V in (V_ref, V_mix, V_kp, PeriodicPotential.trig([])):
        got = V.array_evaluator()(xs.reshape(-1, 1))
        assert got.shape == (xs.size, 1)
        want = np.array([V(float(x)) for x in xs])
        assert np.max(np.abs(got[:, 0] - want)) <= 1e-14


def test_model_fill_matches_high_precision_oracle(V_ref):
    # the band-scan model of the reference bands, at three energies:
    # below the spectrum, inside the first gaps, high up
    model = DiscriminantModel(V_ref, -2.5, 45.5)
    for E in (-1.0, 7.3, 40.0):
        assert abs(model(E) - mp_discriminant(V_ref, E)) < 1e-11


def test_model_fill_rejects_a_drifted_determinant(V_ref, monkeypatch):
    real = _ode.transfer_batch

    def corrupted(*args, **kwargs):
        y = real(*args, **kwargs)
        y[1, 7] *= 1.0 + 1e-6  # one energy's b entry
        return y

    monkeypatch.setattr(_ode, "transfer_batch", corrupted)
    with pytest.raises(ConsistencyError, match="determinant"):
        DiscriminantModel(V_ref, 0.0, 8.0)


def test_model_fill_accepts_large_entries_of_a_strong_potential():
    # below the spectrum the period map has entries ~1e4 whose products
    # ad and bc cancel to 1 only at their own rounding scale
    V = PeriodicPotential.trig([(1, 120.0, 0.0), (2, 36.0, 12.0)])
    lo = V.min_value() - 0.5
    model = DiscriminantModel(V, lo, lo + 40.0)
    for E in (lo + 0.1, lo + 20.0, lo + 39.0):
        assert model(E) == pytest.approx(discriminant(V, E, tol=1e-12),
                                         rel=1e-10, abs=1e-10)


def test_reference_band_scan_fills_its_model_in_one_batch(V_ref, monkeypatch):
    # the scan interval [-2.55, 45.5] is one panel of 33 nodes, which
    # pass together as 16 segments of the period
    passed = []
    real = _ode._fixed_steps

    def counted(*args):
        out = real(*args)
        if out[1] is None:
            passed.append(args[5].shape[1:])  # (segments, members)
        return out

    monkeypatch.setattr(_ode, "_fixed_steps", counted)
    band_edges(V_ref, 45.0)
    # the edge polish integrates by the adaptive propagate, not in batches
    assert passed == [(16, 33)]


def test_narrow_gap_edges_at_a_high_ceiling(V_ref):
    # gap 2 of V_ref is 0.05 wide and its edges keep the model's roots;
    # with width-64 panels they stay within 5e-11 of the roots of a
    # tol-1e-14 integration, where one degree-64 series over the whole
    # scan is 1.2e-10 off
    bands = band_edges(V_ref, 1800.0)

    def f(E):
        return hill._discriminant_batch(V_ref, np.array([E]), 1e-14)[0] - 2.0

    for j in (4, 5):
        e = bands.edge(j)
        assert abs(e - brentq(f, e - 1e-7, e + 1e-7, xtol=1e-15)) < 5e-11


@pytest.mark.parametrize("coefficients", [
    [(1, 2.0, 0.0)], [(1, 1.5, 0.5), (2, 0.0, -0.8)],
    [(1, 120.0, 0.0), (2, 36.0, 12.0)]], ids=["V_ref", "V_mix", "strong"])
def test_polished_edges_match_brentq_on_the_direct_discriminant(coefficients):
    # each simple edge takes one Newton step from its model root; where the
    # direct f = trace^2 - 4 changes sign in the polish window, the edge
    # is its root there, found here independently
    V = PeriodicPotential.trig(coefficients)
    tol = 1e-10
    bands = band_edges(V, 45.0, tol)

    def f(E):
        return hill._polish_trace(V, E, tol) ** 2 - 4.0

    polished = 0
    for e in bands.edges:
        assert type(e) is float
        w = 100.0 * tol * max(1.0, abs(e))
        if f(e - w) * f(e + w) < 0.0:
            assert abs(e - brentq(f, e - w, e + w, xtol=1e-15)) < 0.5 * tol
            polished += 1
    # all but V_ref's narrow gap 2 (edges 4 and 5)
    assert polished == (3 if coefficients == [(1, 2.0, 0.0)] else len(bands.edges))


@pytest.mark.parametrize("direct", ["refused", "nan"])
def test_polish_keeps_the_model_root_without_a_direct_step(V_ref, bands_ref,
                                                           direct, monkeypatch):
    # a refused or non-finite direct value keeps every edge at its model
    # root; so do the narrow-gap edges 4 and 5 of V_ref, whose Newton
    # steps leave the polish window, while edges 1-3 move
    def unusable(*args, **kwargs):
        if direct == "refused":
            raise ConsistencyError("propagator determinant drifted")
        return math.nan

    monkeypatch.setattr(hill, "_polish_trace", unusable)
    roots = band_edges(V_ref, 45.0).edges
    assert all(type(r) is float for r in roots)
    assert bands_ref.edges[3:] == roots[3:]
    assert all(e != r for e, r in zip(bands_ref.edges[:3], roots[:3]))


def test_polish_reads_every_slope_in_one_model_call(V_ref, bands_ref,
                                                    monkeypatch):
    # the model's slopes at the five simple edges below 45 come from one
    # array read before the Newton steps, and the edges stay as they were
    sizes = []
    real = DiscriminantModel.derivative

    def counted(self, E):
        sizes.append(np.size(E))
        return real(self, E)

    monkeypatch.setattr(DiscriminantModel, "derivative", counted)
    assert band_edges(V_ref, 45.0).edges == bands_ref.edges
    assert sizes == [5]


def test_band_model_keeps_band_accuracy_on_a_strong_potential():
    # this V's discriminant reaches ~7e3 below the spectrum, on the same
    # width-64 panel as band 1; one degree-64 series over the whole scan is
    # off by 1.6e-11 in band 1 and 9e-12 at the top of band 2.  Band 1 is
    # held to mpmath: there two tol-1e-14 integrations differ by up to
    # 7e-12 (roundoff of solutions that grow through the barrier)
    V = PeriodicPotential.trig([(1, 120.0, 0.0), (2, 36.0, 12.0)])
    bands = band_edges(V, 52.5)
    model = bands.discriminant_model()
    assert bands.num_complete_bands == 2
    E = float(np.mean(bands.band(1)))
    assert abs(model(E) - mp_discriminant(V, E, dps=18)) < 3e-12
    lo, hi = bands.band(2)
    Es = np.linspace(lo - 0.05, hi + 0.05, 101)
    ref = hill._discriminant_batch(V, Es, 1e-14)
    inside = np.abs(ref) <= 2.5
    assert inside.sum() > 90
    assert np.max(np.abs(model(Es[inside]) - ref[inside])) < 3e-12


def test_scalar_model_calls_match_the_array_path_bit_for_bit(V_ref, V_kp):
    # Python floats and np.float64 take the scalar route: seeded points,
    # every panel boundary and both ends of the range slack; an array of
    # any shape is read point by point as the flat one
    rng = np.random.default_rng(20)
    for V in (V_ref, V_kp):
        model = DiscriminantModel(V, -2.5, 17.5)
        Es = np.concatenate([rng.uniform(model.lo, model.hi, 500),
                             model._bounds,
                             [model.lo - 1e-9, model.hi + 1e-9]])
        want = model(Es)
        grid = model(Es[:500].reshape(20, 25))
        assert grid.shape == (20, 25)
        assert grid.tobytes() == want[:500].tobytes()
        for cast in (float, np.float64):
            got = np.array([model(cast(E)) for E in Es])
            assert got.tobytes() == want.tobytes()
            assert all(type(model(cast(E))) is float for E in Es[:3])
        for E in (model.lo - 1e-6, model.hi + 1e-6):
            for cast in (float, np.float64):
                with pytest.raises(InvalidInputError):
                    model(cast(E))
    # piecewise-constant V fills its panels from the exact product
    model = DiscriminantModel(V_kp, 0.0, 12.0)
    for E in (0.3, 5.0, 11.9):
        exact = discriminant(V_kp, E)
        assert abs(model(E) - exact) <= 1e-12 * max(1.0, abs(exact))


def test_model_users_keep_no_potential_alive(W_ref, bands_ref, report_ref):
    # a fresh potential equal to V_ref: nothing may hold it once the
    # actions and the real branches are computed
    V = PeriodicPotential.trig([(1, 2.0, 0.0)])
    bands = band_edges(V, bands_ref.ceiling)
    geom = branch_points(W_ref, bands, report_ref)
    assert compute_actions(geom).total_action > 0
    for label in geom.band_labels:
        real_branch(geom, label, points=16)
    ref = weakref.ref(V)
    del V, bands, geom
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# complex-energy Chebyshev model

# the strip panel of the reference geometry: E - W over |Im zeta| <= 0.5
# for W = 4.8 cos at E = 4.4 projects onto E -+ 4.8 cosh 0.5 on the real axis
STRIP_E, STRIP_REACH = 4.4, 4.8 * math.cosh(0.5)


@pytest.fixture(scope="module")
def strip_model(bands_ref):
    return ComplexDiscriminantModel(bands_ref.model, STRIP_E - STRIP_REACH,
                                    STRIP_E + STRIP_REACH, tol=1e-9)


def test_complex_model_matches_scalar_and_mpmath(V_ref, strip_model):
    # |Im E| <= 0.1 covers the energies the reference Stokes traces visit
    rng = np.random.default_rng(6)
    Es = (rng.uniform(STRIP_E - STRIP_REACH, STRIP_E + STRIP_REACH, 40)
          + 1j * rng.uniform(-0.1, 0.1, 40))
    for E in Es:
        value, bound = strip_model.bound(complex(E))
        scalar = discriminant(V_ref, complex(E), tol=1e-13)
        assert bound <= 1e-9 * max(1.0, abs(value))
        assert abs(value - scalar) <= min(bound, 1e-12 * max(1.0, abs(scalar)))
    for E in (complex(Es[0]), complex(Es[1])):
        assert abs(strip_model(E) - mp_discriminant(V_ref, E, dps=20)) < 1e-12
    assert strip_model.fallbacks == 0


def test_complex_model_falls_back_deep_in_the_strip(V_ref, strip_model):
    # |Im E| = 2.5 is the edge of the reference strip, where rounding in the
    # coefficients grows past tol: the bound must hand the point over
    before = strip_model.fallbacks
    E = complex(STRIP_E + 0.3, 2.5)
    _, bound = strip_model.bound(E)
    assert bound > 1e-9 * abs(discriminant(V_ref, E, tol=1e-9))
    assert strip_model(E) == discriminant(V_ref, E, tol=1e-9)
    assert strip_model.fallbacks == before + 1


def test_complex_model_panel_matches_the_kp_closed_form(bands_kp):
    # the panel read from the piecewise scan model, with no fallback
    model = ComplexDiscriminantModel(bands_kp.model, 0.0, 12.0, tol=1e-9)
    for E in (3.0 + 0.05j, 9.0 - 2.0j):
        assert abs(model(E) - kp_discriminant(KP_SEGMENTS, E)) < 1e-12
    assert model.fallbacks == 0


def test_chop_cuts_at_the_noise_plateau():
    rng = np.random.default_rng(2)
    n = np.arange(65)
    coeffs = 0.5 ** n + 1e-13 * rng.standard_normal(65)
    keep = hill._chop(coeffs, 1e-13)
    # 0.5^n reaches the noise near n = 43
    assert 38 <= keep <= 48
    # a series still decaying at its last coefficient is not resolved
    assert hill._chop(0.9 ** n, 1e-13) == 65


# ---------------------------------------------------------------------------
# band edges


def test_free_band_edges_all_gaps_closed(V_zero):
    bands = band_edges(V_zero, 42.0)
    pis = [0.0, math.pi**2, math.pi**2, 4 * math.pi**2, 4 * math.pi**2]
    assert np.allclose(bands.edges[:5], pis, atol=1e-8)
    for k in range(1, len(bands.gap_open) + 1):
        assert not bands.is_gap_open(k)


def test_free_band_edges_stay_on_the_squares_up_to_four_hundred(V_zero):
    # the closed gaps' double edges come from the panels' derivative
    bands = band_edges(V_zero, 400.0)
    edges = np.array(bands.edges)
    assert len(edges) == 13
    n = (np.arange(13) + 1) // 2  # 0, 1, 1, 2, 2, ..., 6, 6
    assert np.max(np.abs(edges - (math.pi * n) ** 2)) < 1e-11
    assert not any(bands.gap_open)


def test_strong_kronig_penney_barrier_edges_match_closed_form():
    segments = [(0.0, 0.5, 0.0), (0.5, 1.0, 400.0)]
    V = PeriodicPotential.piecewise([(0.0, 0.0), (0.5, 400.0)])
    got = band_edges(V, 600.0).edges
    want = kp_band_edges(segments, ceiling=600.0, vmin=0.0)
    assert len(got) == len(want)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-9


def _step_closed_form(w: complex, length: float):
    if w == 0:
        return 1.0, length
    z = cmath.sqrt(-w) * length
    return cmath.cos(z), length * cmath.sin(z) / z


@pytest.mark.parametrize("dtype", [float, complex])
def test_constant_coefficient_step_branch_by_branch(dtype):
    # w < 0 and w > 0 on both sides of |u| = |w| length^2 = 1e-4, w = 0,
    # and strong w on both sides; complex w off the axis too
    length = 0.5
    w = [-100.0, -40.0, -4.4e-4, -3.6e-4, 0.0, 3.6e-4, 4.4e-4, 60.0, 100.0]
    if dtype is complex:
        w += [30.0 + 20.0j, -50.0 + 1.0j, 2e-4j, -3e-4 - 2e-4j]
    w = np.array(w, dtype=dtype)
    C, S = _ode.constant_coefficient_step(w, length)
    assert C.dtype == S.dtype == w.dtype
    for wi, c, s in zip(w, C, S):
        c_want, s_want = _step_closed_form(complex(wi), length)
        assert abs(c - c_want) <= 1e-14 * abs(c_want)
        assert abs(s - s_want) <= 1e-14 * abs(s_want)
    unit = np.abs(w) * length ** 2 <= 25.0
    drift = np.abs(C * C - w * S * S - 1.0)
    assert np.all(drift[unit] <= 1e-13 * (np.abs(C * C) + np.abs(w * S * S))[unit])


def test_constant_coefficient_step_silences_the_unused_branch():
    # cosh(1581) overflows, but w < 0 takes cos/sin
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        C, S = _ode.constant_coefficient_step(np.array([-1e7, 4.0]), 0.5)
    z = math.sqrt(1e7) * 0.5
    assert C[0] == pytest.approx(math.cos(z), rel=1e-14)
    assert S[0] == pytest.approx(math.sin(z) / math.sqrt(1e7), rel=1e-14)
    assert C[1] == pytest.approx(math.cosh(1.0), rel=1e-14)


def test_huge_ceiling_rejected_before_any_model_build(V_ref, monkeypatch):
    # the panel cap must fire before the discriminant model lays out
    # ceiling / 64 panels
    def no_model(*args, **kwargs):
        raise AssertionError("DiscriminantModel built before the panel cap")

    monkeypatch.setattr(hill, "DiscriminantModel", no_model)
    with pytest.raises(ResolutionFailure, match="panels, over the limit"):
        band_edges(V_ref, 1e9)


def test_huge_piecewise_ceiling_rejected_before_any_model_build(V_kp, monkeypatch):
    # piecewise-constant V skips the fill-size estimate, not the panel cap
    def no_model(*args, **kwargs):
        raise AssertionError("DiscriminantModel built before the panel cap")

    monkeypatch.setattr(hill, "DiscriminantModel", no_model)
    start = time.perf_counter()
    with pytest.raises(ResolutionFailure, match="panels, over the limit"):
        band_edges(V_kp, 1e9)
    assert time.perf_counter() - start < 0.5


def test_model_fill_size_counts_the_retry(V_ref, monkeypatch):
    # one energy chunk of 33 nodes in 16 segments; its first step count
    # fails at the first step and the retry passes, and the estimate
    # counts both: within 1.5x of the node-steps executed
    executed = []
    real = _ode._fixed_steps

    def spy(w, w0, t, ends, n, y, rtol, atol):
        out = real(w, w0, t, ends, n, y, rtol, atol)
        steps = n if out[1] is None else out[2] + 1
        executed.append((steps, y.shape[1:]))
        return out

    monkeypatch.setattr(_ode, "_fixed_steps", spy)
    hill.DiscriminantModel(V_ref, -2.5, 45.5)
    assert {shape for _, shape in executed} == {(16, 33)}
    assert len(executed) == 2
    steps = sum(n * 16 * 33 for n, _ in executed)
    size = hill._model_fill_size(V_ref, -2.5, 45.5)
    assert steps / 1.5 <= size <= 1.5 * steps


def test_fill_limit_admits_a_ceiling_of_ten_thousand(V_ref, monkeypatch):
    # the pre-check only: the scan itself would take about a second

    def no_model(*args, **kwargs):
        raise AssertionError("past the pre-check")

    monkeypatch.setattr(hill, "DiscriminantModel", no_model)
    assert (hill._model_fill_size(V_ref, -2.5, 10000.5)
            <= hill._FILL_NODE_STEPS_MAX)
    with pytest.raises(AssertionError, match="past the pre-check"):
        band_edges(V_ref, 10000.0)


def test_band_model_fill_limit(V_ref, V_kp, bands_kp, monkeypatch):
    # a reference-V scan to 400 stays under the limit
    assert hill._model_fill_size(V_ref, -2.5, 400.5) <= hill._FILL_NODE_STEPS_MAX
    monkeypatch.setattr(hill, "_FILL_NODE_STEPS_MAX", 0)
    with pytest.raises(ResolutionFailure, match="band model fill"):
        band_edges(V_ref, 5.0)
    # piecewise-constant V is exempt: its fill takes no ODE steps
    assert band_edges(V_kp, 30.0).edges == bands_kp.edges


@pytest.mark.parametrize("lo, hi", [
    (-2.1, 45.0), (0.0, 0.5), (-10.0, 3.0), (5.0, 6.0), (3.0, 200.0),
    (-1.0, 1000.0), (-3.0, 12.0),
])
def test_panel_count_is_the_models_panels(V_kp, lo, hi):
    # the cap's closed form counts the panels the model lays
    model = DiscriminantModel(V_kp, lo, hi)
    assert len(model._panels) == hill._panel_count(lo, hi)
    assert max(np.diff(model._bounds)) <= hill._PANEL_WIDTH * (1.0 + 1e-15)


def test_panel_cap_admits_ceilings_up_to_about_160000():
    # 2,500 panels of width 64
    assert hill._panel_count(-2.5, 159_000.5) <= hill._PANELS_MAX
    assert hill._panel_count(-2.5, 161_000.5) > hill._PANELS_MAX


def test_kronig_penney_edges_match_closed_form(bands_kp):
    want = kp_band_edges(KP_SEGMENTS, ceiling=30.0, vmin=0.0)
    got = bands_kp.edges[: len(want)]
    assert len(got) == len(want)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-8


def test_mathieu_first_two_gaps_open(bands_ref):
    assert bands_ref.is_gap_open(1)
    assert bands_ref.is_gap_open(2)


def test_edge_discriminant_alternation(V_ref, bands_ref):
    # +2, -2, -2, +2, +2, ... pattern of periodic/antiperiodic edges
    for j, e in enumerate(bands_ref.edges, start=1):
        want = 2.0 if (j % 4) in (0, 1) else -2.0
        assert discriminant(V_ref, e) == pytest.approx(want, abs=1e-8)


# the ten scans whose edge structure the Chebyshev panel roots reproduce
# from the earlier grid scan: (V, ceiling, edge count, closed gaps)
SEVEN_HARMONICS = [(1, 3.0, 0.0), (2, 0.0, 1.5), (3, 1.0, 0.5), (4, -0.8, 0.0),
                   (5, 0.0, 0.6), (6, 0.4, 0.3), (7, 0.3, -0.2)]
EDGE_SCANS = {
    "V_ref": (PeriodicPotential.trig([(1, 2.0, 0.0)]), 45.0, 5, []),
    "V_mix": (PeriodicPotential.trig([(1, 1.5, 0.5), (2, 0.0, -0.8)]), 200.0, 9, []),
    "zero": (PeriodicPotential.zero(), 400.0, 13, [1, 2, 3, 4, 5, 6]),
    "kp30": (PeriodicPotential.piecewise([(0.0, 0.0), (0.5, 6.0)]), 30.0, 3, []),
    "kp100": (PeriodicPotential.piecewise([(0.0, 0.0), (0.5, 6.0)]), 100.0, 7, []),
    "strong": (PeriodicPotential.trig([(1, 120.0, 0.0), (2, 36.0, 12.0)]), 400.0, 13, []),
    "seven": (PeriodicPotential.trig(SEVEN_HARMONICS), 400.0, 13, []),
    "well": (PeriodicPotential.piecewise([(0.0, 0.0), (0.5, -400.0)]), 300.0, 14, []),
    "barrier": (PeriodicPotential.piecewise([(0.0, 0.0), (0.5, 400.0)]), 600.0, 13, []),
    "cos20": (PeriodicPotential.trig([(1, 20.0, 0.0)]), 200.0, 9, []),
}


@pytest.mark.parametrize("name", EDGE_SCANS)
def test_panel_roots_keep_the_edge_structure(name):
    V, ceiling, count, closed = EDGE_SCANS[name]
    bands = band_edges(V, ceiling)
    assert len(bands.edges) == count
    assert [k for k in range(1, len(bands.gap_open) + 1)
            if not bands.is_gap_open(k)] == closed


@pytest.mark.parametrize("name", ["V_ref", "V_mix", "strong", "kp100", "well"])
def test_unpolished_edges_are_the_model_roots(name, monkeypatch):
    # with the direct discriminant refused the polish keeps every panel
    # root, which brentq finds again on the model's own trace -+ 2
    def refused(*args, **kwargs):
        raise ConsistencyError("propagator determinant drifted")

    monkeypatch.setattr(hill, "_polish_trace", refused)
    V, ceiling, count, _ = EDGE_SCANS[name]
    bands = band_edges(V, ceiling)
    model = bands.discriminant_model()
    assert len(bands.edges) == count
    for j, e in enumerate(bands.edges, start=1):
        level = 2.0 if j % 4 in (0, 1) else -2.0
        h = 1e-9 * max(1.0, abs(e))
        root = brentq(lambda E: model(E) - level, e - h, e + h, xtol=1e-15)
        assert abs(e - root) <= 1e-12 * max(1.0, abs(e))


# ---------------------------------------------------------------------------
# quasi-momentum


def six_candidate_branch(w: complex, k_ref: complex) -> complex:
    """The nearest solution of cos k = w to k_ref among the lattice points
    l - 1, l, l + 1 around the rounded one, for each sign of acos w."""
    p, best, best_dist = cmath.acos(w), None, math.inf
    for s in (1.0, -1.0):
        base = s * p
        l = round((k_ref.real - base.real) / (2 * math.pi))
        for dl in (-1, 0, 1):
            cand = base + 2 * math.pi * (l + dl)
            if abs(cand - k_ref) < best_dist:
                best, best_dist = cand, abs(cand - k_ref)
    return best


def test_branch_candidates_match_the_six_candidate_rule():
    # complex w over six decades and real w around [-1, 1], where acos w
    # has a zero part; the reprs compare signed zeros too
    rng = np.random.default_rng(5)
    n = 20_000
    ws = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** \
        rng.uniform(-3, 3, n)
    ws[::2] = rng.uniform(-1.5, 1.5, n // 2)
    ks = (rng.uniform(-40, 40, n) + 1j * rng.uniform(-5, 5, n))
    for w, k in zip(ws.tolist(), ks.tolist()):
        assert (repr(hill._acos_branch_candidates(w, k))
                == repr(six_candidate_branch(w, k))), (w, k)


def test_free_quasimomentum_closed_forms(V_zero):
    bands = band_edges(V_zero, 42.0)
    k = quasimomentum_main(bands, math.pi**2 / 4.0).value
    assert k == pytest.approx(math.pi / 2.0, abs=1e-10)
    k = quasimomentum_main(bands, -1.0).value
    assert k == pytest.approx(1j, abs=1e-10)
    for E in (3.0, 20.0):
        k = quasimomentum_main(bands, E).value
        assert k == pytest.approx(math.sqrt(E), abs=1e-9)


def test_band_momentum_monotone_onto_interval(bands_ref):
    for n in (1, 2):
        lo, hi = bands_ref.edges[2 * n - 2], bands_ref.edges[2 * n - 1]
        Es = np.linspace(lo, hi, 102)[1:-1]
        ks = [quasimomentum_main(bands_ref, float(e)).value for e in Es]
        assert all(abs(k.imag) < 1e-12 for k in ks)
        vals = [k.real for k in ks]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert math.pi * (n - 1) < vals[0] and vals[-1] < math.pi * n


def test_gap_momentum_profile(bands_ref):
    # constant real part, positive imaginary part with a single maximum
    lo, hi = bands_ref.edges[1], bands_ref.edges[2]
    Es = np.linspace(lo, hi, 102)[1:-1]
    ks = [quasimomentum_main(bands_ref, float(e)).value for e in Es]
    assert all(k.real == pytest.approx(math.pi, abs=1e-10) for k in ks)
    ims = np.array([k.imag for k in ks])
    assert np.all(ims > 0)
    signs = np.sign(np.diff(ims))
    flips = np.count_nonzero(signs[:-1] != signs[1:])
    assert flips == 1


def test_edge_returns_exact_multiple_of_pi(bands_ref):
    got = quasimomentum_main(bands_ref, bands_ref.edges[1])
    assert got.at_edge
    assert got.value == math.pi


def test_square_root_edge_exponent(bands_ref):
    edge = bands_ref.edges[1]
    deltas = np.array([10.0**-k for k in range(3, 8)])
    gaps = [abs(quasimomentum_main(bands_ref, edge + d).value - math.pi)
            for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(gaps), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)


def test_below_spectrum_momentum_is_imaginary(V_ref, bands_ref):
    k = quasimomentum_main(bands_ref, -3.0).value
    assert k.real == 0.0
    assert k.imag > 0
    assert 2.0 * cmath.cos(k) == pytest.approx(discriminant(V_ref, -3.0),
                                               abs=1e-8)


def test_momentum_below_the_band_scan(V_ref, bands_ref, V_kp, bands_kp):
    # energies under the scan's model read an extension of it, which
    # agrees with the scalar discriminant, for piecewise-constant V too
    for V, bands in ((V_ref, bands_ref), (V_kp, bands_kp)):
        for E in (bands.model.lo - 0.3, bands.model.lo - 6.0):
            k = quasimomentum_main(bands, E).value
            assert k.real == 0.0
            assert 2.0 * math.cosh(k.imag) == pytest.approx(
                discriminant(V, E, tol=1e-12), rel=1e-11)
    ext = bands_kp.model.reaching(-5.0)
    assert ext.lo < -5.0 and ext.hi == bands_kp.model.hi
    assert ext(-5.0) == pytest.approx(discriminant(V_kp, -5.0), rel=1e-12)


def test_momentum_below_the_scan_fills_its_extension_once(V_ref, monkeypatch):
    # the extension lives on the model: its one width-64 panel under the
    # scan serves every energy it covers, and each panel it adds later is
    # filled alone, so its values are those of a fresh extension bit for bit
    fills = []
    real = hill._discriminant_batch

    def counted(V, energies, tol):
        fills.append(len(energies))
        return real(V, energies, tol)

    bands = band_edges(V_ref, 45.0)
    monkeypatch.setattr(hill, "_discriminant_batch", counted)
    ks = [quasimomentum_main(bands, E).value for E in (-3.0, -3.0, -8.0)]
    assert fills == [33]
    ext = bands.model.reaching(-8.0)
    assert ext is bands.model.reaching(-3.0)
    assert ext.lo == bands.model.lo - 64.0
    fresh = band_edges(V_ref, 45.0).model.reaching(-8.0)
    assert ext._coef.tobytes() == fresh._coef.tobytes()
    assert ks[0] == ks[1] == quasimomentum_main(bands, -3.0).value
    fills.clear()
    grown = bands.model.reaching(-100.0)
    assert fills == [33]
    fresh = band_edges(V_ref, 45.0).model.reaching(-100.0)
    assert grown._coef.tobytes() == fresh._coef.tobytes()
    assert grown._coef[:, 1:].tobytes() == ext._coef.tobytes()


def test_gap_midpoint_against_acosh_oracle(V_ref, bands_ref):
    mid = 0.5 * (bands_ref.edges[1] + bands_ref.edges[2])
    k = quasimomentum_main(bands_ref, mid).value
    assert k.real == math.pi
    assert k.imag > 0
    delta = oracle_discriminant(V_ref, np.array([mid]), steps=6000)[0]
    assert k.imag == pytest.approx(math.acosh(abs(delta) / 2.0), abs=1e-8)


def test_momentum_inverts_discriminant_at_random_points(V_ref, bands_ref):
    rng = np.random.default_rng(41)
    edges = np.array(bands_ref.edges)
    picked = 0
    while picked < 30:
        E = float(rng.uniform(edges[0] + 0.05, edges[-1] - 0.05))
        if np.min(np.abs(edges - E)) < 1e-3:
            continue
        picked += 1
        k = quasimomentum_main(bands_ref, E).value
        assert 2.0 * cmath.cos(k) == pytest.approx(discriminant(V_ref, E),
                                                   abs=1e-8)


@pytest.mark.parametrize("E", [2.0 + 0.3j, 7.0 + 1.0j, -2.5 + 0.2j,
                               20.0 + 3.0j])
def test_complex_energy_momentum_continues_the_main_branch(V_ref, bands_ref,
                                                           V_kp, bands_kp, E):
    # off the axis k continues cos k = trace/2 of the band table's own V
    # from a band anchor: it solves the dispersion relation, stays in the
    # upper half-plane and is Schwarz symmetric
    for V, bands in ((V_ref, bands_ref), (V_kp, bands_kp)):
        k = quasimomentum_main(bands, E).value
        delta = discriminant(V, E, tol=1e-13)
        assert abs(2.0 * cmath.cos(k) - delta) <= 1e-9 * max(1.0, abs(delta))
        assert k.imag > 0
        assert quasimomentum_main(bands, E.conjugate()).value \
            == k.conjugate()


def test_complex_energy_momentum_meets_the_gap_boundary_value(bands_ref):
    # inside a gap the continuation from above approaches the '+i0' value
    # linearly in Im E
    mid = 0.5 * (bands_ref.edges[1] + bands_ref.edges[2])
    upper = quasimomentum_main(bands_ref, mid, side="+i0").value
    dist = [abs(quasimomentum_main(bands_ref, complex(mid, eta)).value
                - upper) for eta in (1e-2, 1e-4, 1e-6)]
    assert dist[0] > dist[1] > dist[2]
    assert dist[2] < 1e-7

