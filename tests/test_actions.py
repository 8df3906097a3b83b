"""Tunneling actions, coefficients, and the asymptotic exponent."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiaspec import actions as actions_mod
from adiaspec import (
    ActionSet,
    AnalyticPotential,
    ConvergenceFailure,
    DiscriminantModel,
    GapLabel,
    InvalidInputError,
    action_with_error,
    analyze_window,
    best_window_energy,
    branch_points,
    compute_actions,
    lyapunov_asymptotic,
    total_T,
    tunneling_action,
    tunneling_coefficient,
    window_model,
)

from oracles import chebyshev_discriminant, midpoint_action

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# the actions themselves


def test_actions_positive_with_matching_labels(W_ref, bands_ref):
    for E in np.linspace(4.10, 4.70, 20):
        rep = analyze_window(W_ref, bands_ref, float(E), 1, 0)
        geom = branch_points(W_ref, bands_ref, rep)
        acts = compute_actions(geom, tol=1e-9)
        assert acts.labels == geom.gap_labels
        for _, S, _ in acts.entries:
            assert S > 0.0
        total = sum(S for _, S, _ in acts.entries)
        assert acts.total_action == pytest.approx(total, rel=1e-12)


def test_both_integration_sides_agree(geom_ref):
    for label in geom_ref.gap_labels:
        up = tunneling_action(geom_ref, label, side="+i0")
        dn = tunneling_action(geom_ref, label, side="-i0")
        assert up == pytest.approx(dn, abs=1e-8)


def test_cross_check_side_refuses_an_unreachable_tolerance(geom_ref):
    # rtol 1e-18 is below what the doubled Gauss-Legendre sums of g1 settle
    # to (successive levels keep changing by ~1e-16): all levels run, and
    # the last estimate must not come back as if it had converged
    label = geom_ref.gap_labels[1]
    with pytest.raises(ConvergenceFailure, match="Gauss-Legendre"):
        tunneling_action(geom_ref, label, side="-i0", tol=1e-16)


def test_cross_check_side_refuses_a_tolerance_below_rounding(geom_ref):
    # as above on g0, whose left half ties exactly at levels 4 and 5: at
    # rtol 1e-18 an exact tie of rounded sums must not pass for convergence
    label = geom_ref.gap_labels[0]
    with pytest.raises(ConvergenceFailure, match="after 10 levels"):
        tunneling_action(geom_ref, label, side="-i0", tol=1e-16)


def test_gauss_doubling_raises_when_levels_keep_changing():
    # a kink off every panel edge: the error falls only like h^2, far
    # above rtol after ten levels, whatever the rounding
    with pytest.raises(ConvergenceFailure, match="after 10 levels"):
        actions_mod._gauss_doubling(lambda u: abs(u - 1.0 / 3.0), 0.0, 1.0)
    value, err = actions_mod._gauss_doubling(np.exp, 0.0, 1.0)
    assert abs(value - (math.e - 1.0)) <= 1e-14 and err <= 1e-12


def test_cross_check_side_reads_the_model_once_per_rule_level(
        W_ref, bands_ref, geom_ref):
    # each half-interval's rule reads all 16 * 2^level nodes of a level in
    # one call: two gaps, two halves, two levels each on the reference
    model = window_model(bands_ref, W_ref, geom_ref.energy)
    counted = _RipplingModel(model, ripple=0.0)
    acts = compute_actions(geom_ref, side="-i0", model=counted)
    assert counted.reads <= 10
    assert acts.total_action == pytest.approx(
        compute_actions(geom_ref).total_action, rel=1e-12)


def test_plus_side_reads_the_model_once_per_geometry(W_ref, bands_ref,
                                                    geom_ref):
    # the first panel of both halves of every pre-gap goes through one
    # model read, and meets the default tolerance on the reference
    counted = _RipplingModel(window_model(bands_ref, W_ref, geom_ref.energy),
                             ripple=0.0)
    acts = compute_actions(geom_ref, model=counted)
    assert counted.reads == 1
    assert counted.calls == 21 * 2 * len(geom_ref.gap_labels)
    assert acts == compute_actions(geom_ref)


def test_unreachable_plus_side_tolerance_is_refused_before_bisecting(
        W_ref, bands_ref, geom_ref):
    # tol 1e-13 asks rtol 1e-14 of the pre-gap halves, below QK21's error
    # floor of 50 eps |S| on g0's: refused from the first panels (it took
    # 399 reads to reach the subinterval limit); at 2e-13 the first panels
    # meet the target, and the actions are those of the default tol
    model = window_model(bands_ref, W_ref, geom_ref.energy)
    counted = _RipplingModel(model, ripple=0.0)
    with pytest.raises(ConvergenceFailure, match="cannot reach"):
        compute_actions(geom_ref, tol=1e-13, model=counted)
    assert counted.reads <= 2
    counted = _RipplingModel(model, ripple=0.0)
    tight = compute_actions(geom_ref, tol=2e-13, model=counted)
    assert counted.reads == 1
    assert tight.entries == compute_actions(geom_ref).entries


def test_actions_against_brute_force_oracle(V_ref, W_ref, bands_ref, E_ref,
                                            geom_ref, acts_ref):
    model = chebyshev_discriminant(V_ref, E_ref - 4.8, E_ref + 4.8,
                                   degree=128, steps=3000)
    for label, S, _ in acts_ref.entries:
        interval = dict(geom_ref.pre_gaps)[label]
        want = midpoint_action(model, W_ref, E_ref, interval[0], interval[1],
                               n=1_000_000)
        assert abs(S - want) < 1e-6 * S


def test_reported_quadrature_error_bound(geom_ref):
    for label in geom_ref.gap_labels:
        S, err = action_with_error(geom_ref, label)
        assert err <= 1e-8 * S


def test_quadrature_converged_in_tolerance(geom_ref):
    label = geom_ref.gap_labels[0]
    coarse = tunneling_action(geom_ref, label, tol=1e-9)
    fine = tunneling_action(geom_ref, label, tol=1e-12)
    assert abs(coarse - fine) < 1e-8 * fine


class _RipplingModel:
    """A window model with a small ripple on the discriminant, so the
    quadrature must subdivide to resolve it; counts the energies it is
    evaluated at (one per scalar call, one per element of an array) in
    `calls` and the calls themselves in `reads`."""

    def __init__(self, model, ripple: float = 1e-6):
        self.model, self.ripple, self.calls, self.reads = model, ripple, 0, 0

    def __call__(self, E):
        self.calls += np.size(E)
        self.reads += 1
        return self.model(E) * (1.0 + self.ripple * np.sin(200.0 * E))


@pytest.mark.parametrize("side", ["+i0", "-i0"])
def test_looser_quadrature_tol_makes_fewer_integrand_calls(
        W_ref, bands_ref, geom_ref, side):
    # the reference integrand alone is resolved by the first rule at any
    # tol; the ripple makes the work depend on the tolerance
    model = window_model(bands_ref, W_ref, geom_ref.energy)
    calls, totals = [], []
    for tol in (1e-3, 1e-8):
        rippling = _RipplingModel(model)
        acts = compute_actions(geom_ref, side=side, tol=tol, model=rippling)
        calls.append(rippling.calls)
        totals.append(acts.total_action)
    assert 0 < 4 * calls[0] < calls[1]
    assert totals[0] == pytest.approx(totals[1], rel=1e-3)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_quadrature_tol_must_be_positive(geom_ref, tol):
    with pytest.raises(InvalidInputError):
        compute_actions(geom_ref, tol=tol)


def test_window_model_is_the_scan_model_on_the_reference(V_ref, W_ref,
                                                        bands_ref, geom_ref):
    # the reference windows lie inside the band scan's model
    assert geom_ref.window[0] > bands_ref.model.lo
    assert bands_ref.model.reaching(geom_ref.window[0]) is bands_ref.model
    assert window_model(bands_ref, W_ref, geom_ref.energy) is bands_ref.model


def test_grid_window_model_covers_every_admissible_window(V_ref, W_ref,
                                                          bands_ref):
    Es = [float(E) for E in np.linspace(4.10, 4.70, 5)]
    model = window_model(bands_ref, W_ref, Es[0])
    for E in Es:
        rep = analyze_window(W_ref, bands_ref, E, 1, 0)
        assert rep.all_ok
        geom = branch_points(W_ref, bands_ref, rep)
        lo, hi = geom.window
        assert model.lo <= lo and hi <= model.hi
        shared = compute_actions(geom, model=model)
        own = compute_actions(geom,
                              model=DiscriminantModel(V_ref, lo - 0.5, hi + 0.5))
        assert shared.total_action == pytest.approx(own.total_action,
                                                    rel=1e-11, abs=0.0)


@pytest.mark.parametrize("amplitude", [7.0, 9.0])
def test_wide_window_extends_the_scan_model(V_ref, bands_ref, amplitude):
    # W = 7 cos and 9 cos put the window bottom at -4.14 and -8.14, below
    # the scan's -2.503: the extension fills panels there and keeps the
    # scan's panels bit for bit
    W = AnalyticPotential.cosine(amplitude, 0.5)
    E = best_window_energy(W, bands_ref, 1, 0)
    geom = branch_points(W, bands_ref, analyze_window(W, bands_ref, E, 1, 0))
    lo, hi = geom.window
    scan = bands_ref.model
    assert lo < scan.lo
    ext = window_model(bands_ref, W, E)
    assert ext.lo < lo and ext.hi == scan.hi
    Es = np.concatenate([np.linspace(scan.lo, scan.hi, 1001), scan._bounds])
    assert ext(Es).tobytes() == scan(Es).tobytes()
    assert [ext(float(e)) for e in Es] == [scan(float(e)) for e in Es]
    got = compute_actions(geom)
    own = compute_actions(geom,
                          model=DiscriminantModel(V_ref, lo - 0.5, hi + 0.5))
    assert got.labels == own.labels
    for (_, s_got, _), (_, s_own, _) in zip(got.entries, own.entries):
        assert s_got == pytest.approx(s_own, rel=1e-12, abs=0.0)


def test_action_continuous_in_energy(W_ref, bands_ref, E_ref):
    def S_of(E):
        rep = analyze_window(W_ref, bands_ref, E, 1, 0)
        geom = branch_points(W_ref, bands_ref, rep)
        return tunneling_action(geom, geom.gap_labels[0])

    base = S_of(E_ref)
    d3 = abs(S_of(E_ref + 1e-3) - base)
    d4 = abs(S_of(E_ref + 1e-4) - base)
    assert d3 > 0 and d4 > 0
    assert d4 < 0.2 * d3


def test_absent_gap_label_rejected(geom_ref):
    with pytest.raises(InvalidInputError):
        tunneling_action(geom_ref, GapLabel(index=5, side=None))


def test_bad_side_rejected(geom_ref):
    with pytest.raises(InvalidInputError):
        tunneling_action(geom_ref, geom_ref.gap_labels[0], side="up")


# ---------------------------------------------------------------------------
# coefficients and their product


def test_coefficient_boundary_and_direct_values():
    assert tunneling_coefficient(0.0, 1.0).value == 1.0
    c = tunneling_coefficient(2.0, 1.0)
    assert c.value == math.exp(-1.0)
    assert not c.underflowed


def test_coefficient_monotone_in_epsilon():
    vals = [tunneling_coefficient(3.0, e).value for e in (0.05, 0.1, 0.5, 2.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_coefficient_log_domain_survives_underflow():
    c = tunneling_coefficient(20.0, 0.002)
    assert c.value == 0.0
    assert c.underflowed
    assert c.log_value == -5000.0


@given(st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=80, deadline=None)
def test_coefficient_log_domain_identity(S, eps):
    c = tunneling_coefficient(S, eps)
    assert c.log_value == -S / (2.0 * eps)


def _action_set(energy, actions):
    entries = tuple((GapLabel(index=i, side=None), s, 0.0)
                    for i, s in enumerate(actions))
    return ActionSet(energy=energy, entries=entries,
                     total_action=float(sum(actions)))


def test_total_T_examples():
    assert total_T(_action_set(1.0, []), 1.0) == (1.0, 0.0)
    T, logT = total_T(_action_set(1.0, [2.0, 4.0]), 1.0)
    assert logT == -3.0
    assert T == math.exp(-3.0)


def test_total_T_additive_over_partition():
    full = _action_set(1.0, [2.0, 4.0, 8.0])
    part1 = _action_set(1.0, [2.0, 4.0])
    part2 = _action_set(1.0, [8.0])
    assert (total_T(full, 0.5)[1]
            == total_T(part1, 0.5)[1] + total_T(part2, 0.5)[1])


def test_total_T_underflow_keeps_log(acts_ref):
    T, logT = total_T(acts_ref, 1e-4)
    assert T == 0.0
    assert logT == pytest.approx(-acts_ref.total_action / 2e-4, rel=1e-12)


# ---------------------------------------------------------------------------
# asymptotic exponent


def test_single_gap_unit_exponent():
    th = lyapunov_asymptotic(_action_set(1.0, [FOUR_PI]), 0.1)
    assert th.theta_asym == pytest.approx(1.0, abs=1e-14)


def test_exponent_independent_of_epsilon(acts_ref):
    a = lyapunov_asymptotic(acts_ref, 0.2).theta_asym
    b = lyapunov_asymptotic(acts_ref, 0.05).theta_asym
    assert a == b


def test_per_gap_contributions_sum(acts_ref):
    th = lyapunov_asymptotic(acts_ref, 0.1)
    assert sum(v for _, v in th.per_gap) == pytest.approx(th.theta_asym,
                                                          rel=1e-14)


@given(st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1,
                max_size=5),
       st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_two_forms_of_the_exponent_agree(actions, eps):
    acts = _action_set(0.0, actions)
    th = lyapunov_asymptotic(acts, eps).theta_asym
    # rebuild from the coefficient logs instead of the actions
    log_form = eps / (2.0 * math.pi) * sum(
        -tunneling_coefficient(s, eps).log_value for s in actions)
    assert th == pytest.approx(log_form, rel=1e-14)

