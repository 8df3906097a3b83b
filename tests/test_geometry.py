"""Iso-energy geometry: windows, branch points, real branches, level lines.

The reference configuration (Mathieu-type V, single-cosine W) comes from
conftest; an additional two-band window exercises the side-labeled
pre-gaps that only appear for m >= 1.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from adiaspec import (
    AnalyticPotential,
    BandStructure,
    CoverageError,
    DegeneratePointError,
    DiscriminantModel,
    InvalidInputError,
    PathError,
    analyze_window,
    band_edges,
    best_window_energy,
    branch_points,
    complex_momentum,
    geometry,
    hill,
    period_index,
    real_branch,
    quasimomentum_main,
    sigma_set,
    strip_clearance,
    strip_model,
    trace_stokes_line,
)

from oracles import chebyshev_discriminant, kp_discriminant

TWO_PI = 2.0 * math.pi

# energies on which the n = 1, m = 0 window of the reference pair stays
# admissible; used for the invariant sweeps
E_GRID = np.linspace(4.10, 4.70, 20)


@pytest.fixture(scope="module")
def branches_ref(geom_ref):
    lab_m, lab_p = geom_ref.band_labels
    return real_branch(geom_ref, lab_m), real_branch(geom_ref, lab_p)


@pytest.fixture(scope="module")
def two_band_geometry(bands_ref):
    # window holding bands 1 and 2 together: margins are set by the tiny
    # second gap, so the declared strip has to be thin
    W2 = AnalyticPotential.cosine(20.0, 0.03)
    rep = analyze_window(W2, bands_ref, 19.5, 1, 1)
    assert rep.all_ok
    return W2, branch_points(W2, bands_ref, rep)


# ---------------------------------------------------------------------------
# spectral window


def test_cosine_window_interval(W_ref, report_ref, E_ref):
    lo, hi = report_ref.window
    assert lo == pytest.approx(E_ref - 4.8, abs=1e-12)
    assert hi == pytest.approx(E_ref + 4.8, abs=1e-12)


def test_free_operator_has_no_isolated_band(V_zero, W_ref):
    bands = band_edges(V_zero, 42.0)
    rep = analyze_window(W_ref, bands, 2.0, 1, 0)
    assert not rep.a1_ok
    assert not rep.all_ok


def test_amplitude_out_of_range_fails_some_check(W_ref, bands_ref, E_ref):
    small = AnalyticPotential.cosine(0.5, 0.5)
    rep = analyze_window(small, bands_ref, E_ref, 1, 0)
    assert not rep.all_ok
    large = AnalyticPotential.cosine(12.0, 0.5)
    rep = analyze_window(large, bands_ref, E_ref, 1, 0)
    assert not rep.all_ok


def test_insufficient_bands_raise(V_ref, W_ref, E_ref):
    shallow = band_edges(V_ref, 5.0)
    with pytest.raises(CoverageError):
        analyze_window(W_ref, shallow, E_ref, 1, 0)


def test_best_energy_is_local_margin_maximum(W_ref, bands_ref, E_ref):
    best = analyze_window(W_ref, bands_ref, E_ref, 1, 0).margin
    for off in (-0.1, 0.1):
        other = analyze_window(W_ref, bands_ref, E_ref + off, 1, 0).margin
        assert other <= best


def best_window_energy_loop(W, bands, n, m, samples=2001):
    # the per-point search: one report per grid energy, first maximum wins
    lo_e = bands.edge(2 * (n + m)) - W.w_plus
    hi_e = bands.edge(2 * n - 1) - W.w_minus
    best_E, best_margin = None, -math.inf
    for E in np.linspace(lo_e, hi_e, samples):
        margin = analyze_window(W, bands, float(E), n, m).margin
        if margin > best_margin:
            best_E, best_margin = float(E), margin
    return best_E


def test_best_energy_matches_the_per_point_search(W_ref, bands_ref):
    assert best_window_energy(W_ref, bands_ref, 1, 0) == \
        best_window_energy_loop(W_ref, bands_ref, 1, 0)


@pytest.mark.parametrize("amplitude,binding", [(38.5, "edge_margins"),
                                               (40.5, "outside_margins")])
def test_best_energy_matches_the_per_point_search_on_a_band_block(V_kp,
                                                                  amplitude,
                                                                  binding):
    # bands 2..3: four edge margins and both outside clearances; at 38.5
    # an edge margin binds at the best energy, at 40.5 a clearance does
    bands = band_edges(V_kp, 100.0)
    W = AnalyticPotential.cosine(amplitude, 0.5)
    E = best_window_energy(W, bands, 2, 1)
    assert E == best_window_energy_loop(W, bands, 2, 1)
    rep = analyze_window(W, bands, E, 2, 1)
    assert rep.all_ok and len(rep.edge_margins) == 4
    assert rep.margin == min(getattr(rep, binding))


def test_best_energy_refuses_an_infeasible_block(bands_ref):
    with pytest.raises(InvalidInputError, match="no admissible energy"):
        best_window_energy(AnalyticPotential.cosine(0.5, 0.5), bands_ref, 1, 0)


def test_evaluator_matches_value_bit_for_bit():
    # several frequencies, cosine and sine terms and a constant
    W = AnalyticPotential([(0, 0.5, 0.0), (1, 4.8, 0.3), (2, -0.7, 0.25),
                           (3, 0.1, -0.05)], 0.5)
    w = W.evaluator()
    rng = np.random.default_rng(7)
    x = rng.uniform(-TWO_PI, 2.0 * TWO_PI, 5000)
    y = rng.uniform(-W.strip_half_width, W.strip_half_width, 5000)
    points = [complex(a, b) for a, b in zip(x.tolist(), y.tolist())]
    got = np.array([w(z) for z in points])
    want = np.array([W.value(z) for z in points])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    got = np.array([w(a).real for a in x.tolist()])
    want = np.array([W.value(a) for a in x.tolist()])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# branch points and the pre-band / pre-gap partition


def test_branch_points_solve_edge_equation(W_ref, bands_ref, E_ref, geom_ref):
    for j, _, zeta in geom_ref.branch_zetas:
        assert float(W_ref.value(zeta)) == pytest.approx(
            E_ref - bands_ref.edges[j - 1], abs=1e-10)


def test_cosine_branch_points_closed_form(bands_ref, E_ref, geom_ref):
    by_key = {(j, s): z for j, s, z in geom_ref.branch_zetas}
    for j in (1, 2):
        want = math.acos((E_ref - bands_ref.edges[j - 1]) / 4.8)
        assert by_key[(j, "-")] == pytest.approx(want, abs=1e-10)
        assert by_key[(j, "+")] == pytest.approx(TWO_PI - want, abs=1e-10)


def _check_interlacing(geom):
    by_key = {(j, s): z for j, s, z in geom.branch_zetas}
    js = sorted({j for j, _, _ in geom.branch_zetas})
    seq = ([by_key[(j, "-")] for j in js] + [geom.zeta_star]
           + [by_key[(j, "+")] for j in reversed(js)])
    assert 0.0 < seq[0]
    assert seq[-1] < TWO_PI
    assert all(a < b for a, b in zip(seq, seq[1:]))


def _check_tiling(geom):
    intervals = sorted([iv for _, iv in geom.pre_bands]
                       + [iv for _, iv in geom.pre_gaps])
    intervals = [tuple(sorted(iv)) for iv in intervals]
    intervals.sort()
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        assert hi == pytest.approx(lo, abs=1e-12)
    first_edge_plus = max(z for j, s, z in geom.branch_zetas if s == "+")
    assert intervals[0][0] == pytest.approx(first_edge_plus - TWO_PI,
                                            abs=1e-12)
    assert intervals[-1][1] == pytest.approx(first_edge_plus, abs=1e-12)


def test_partition_counts_and_special_gaps(geom_ref):
    assert len(geom_ref.pre_gaps) == 2
    assert len(geom_ref.pre_bands) == 2
    (g0, iv0), (g1, iv1) = geom_ref.pre_gaps
    assert iv0[0] < 0.0 < iv0[1]
    assert iv1[0] < geom_ref.zeta_star < iv1[1]


def test_interlacing_and_tiling_across_energies(W_ref, bands_ref):
    for E in E_GRID:
        rep = analyze_window(W_ref, bands_ref, float(E), 1, 0)
        assert rep.all_ok
        geom = branch_points(W_ref, bands_ref, rep)
        _check_interlacing(geom)
        _check_tiling(geom)


def test_two_band_window_partition(two_band_geometry):
    _, geom = two_band_geometry
    assert len(geom.pre_gaps) == 4
    assert len(geom.pre_bands) == 4
    sides = {str(lab) for lab, _ in geom.pre_gaps}
    assert sides == {"g0", "g1-", "g1+", "g2"}
    _check_interlacing(geom)
    _check_tiling(geom)


def test_partition_against_membership_oracle(V_ref, W_ref, bands_ref):
    # classify E - W(zeta) by |discriminant| <= 2 on a dense grid and
    # compare with the computed pre-band intervals
    for E in (E_GRID[0], E_GRID[10], E_GRID[-1]):
        rep = analyze_window(W_ref, bands_ref, float(E), 1, 0)
        geom = branch_points(W_ref, bands_ref, rep)
        model = chebyshev_discriminant(V_ref, float(E) - 4.8, float(E) + 4.8,
                                       degree=96, steps=1500)
        lo = min(min(iv) for _, iv in geom.pre_gaps + geom.pre_bands)
        hi = max(max(iv) for _, iv in geom.pre_gaps + geom.pre_bands)
        zs = np.linspace(lo, hi, 1501)
        bands_iv = [tuple(sorted(iv)) for _, iv in geom.pre_bands]
        for z in zs:
            edge_gap = min(min(abs(z - a), abs(z - b)) for a, b in bands_iv)
            if edge_gap < 1e-4:
                continue
            inside = any(a <= z <= b for a, b in bands_iv)
            local = float(E) - float(W_ref.value(float(z)))
            assert (abs(float(model(local))) <= 2.0) == inside


def test_failing_report_is_rejected(V_zero, W_ref):
    bands = band_edges(V_zero, 42.0)
    rep = analyze_window(W_ref, bands, 2.0, 1, 0)
    with pytest.raises(InvalidInputError):
        branch_points(W_ref, bands, rep)


# ---------------------------------------------------------------------------
# complex momentum


def test_gap_boundary_values_have_opposite_signs(W_ref, bands_ref,
                                                 E_ref, geom_ref):
    for _, (lo, hi) in geom_ref.pre_gaps:
        for z in np.linspace(lo, hi, 22)[1:-1]:
            up = complex_momentum(W_ref, bands_ref, E_ref, float(z),
                                  side="+i0")
            dn = complex_momentum(W_ref, bands_ref, E_ref, float(z),
                                  side="-i0")
            assert up.imag > 0
            assert dn.imag < 0
            assert up == dn.conjugate()


def test_momentum_monotone_on_minus_preband(W_ref, bands_ref, E_ref, geom_ref):
    (_, (lo, hi)), _ = geom_ref.pre_bands
    zs = np.linspace(lo, hi, 52)[1:-1]
    ks = [complex_momentum(W_ref, bands_ref, E_ref, float(z))
          for z in zs]
    assert all(abs(k.imag) < 1e-10 for k in ks)
    vals = [k.real for k in ks]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert 0.0 < vals[0] and vals[-1] < math.pi


def test_momentum_conjugation_symmetry(W_ref, bands_ref, E_ref, geom_ref):
    _, (lo, hi) = geom_ref.pre_gaps[1]
    for z in (complex(0.5 * (lo + hi) + 0.1, 0.07),
              complex(0.5 * (lo + hi) - 0.2, 0.21)):
        k = complex_momentum(W_ref, bands_ref, E_ref, z)
        kc = complex_momentum(W_ref, bands_ref, E_ref, z.conjugate())
        assert k == kc.conjugate()


def test_off_axis_momentum_reads_the_strip_panel(W_ref, bands_ref,
                                                 E_ref, geom_ref, monkeypatch):
    # off the axis the continuation reads the panel re-sampled from the
    # band scan's model, with no scalar discriminant, and lands on the
    # continuation of the scalar discriminant at tol 1e-13
    _, (lo, hi) = geom_ref.pre_gaps[1]
    zs = (complex(0.5 * (lo + hi) + 0.1, 0.07),
          complex(0.5 * (lo + hi) - 0.2, 0.21))
    calls = []
    real = hill.discriminant
    monkeypatch.setattr(hill, "discriminant",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    got = [complex_momentum(W_ref, bands_ref, E_ref, z) for z in zs]
    assert calls == []
    monkeypatch.setattr(hill.ComplexDiscriminantModel, "bound",
                        lambda self, E: (complex("nan"), math.inf))
    for z, k in zip(zs, got):
        scalar = complex_momentum(W_ref, bands_ref, E_ref, z, tol=1e-13)
        assert abs(k - scalar) < 1e-12
    assert calls


def test_off_axis_momentum_detours_vertically_around_a_refused_path(
        W_ref, bands_ref, E_ref, geom_ref, monkeypatch):
    # when the straight path from the anchor is refused, the continuation
    # climbs vertically from the anchor and then runs level to the point;
    # at a regular point both paths give the same value
    _, (lo, hi) = geom_ref.pre_gaps[1]
    z = complex(0.5 * (lo + hi) + 0.1, 0.07)
    straight = complex_momentum(W_ref, bands_ref, E_ref, z)
    track = geometry._track_momentum
    calls = []

    def refuse_first(*args):
        calls.append(args[1:])
        if len(calls) == 1:
            raise PathError("refused for the test")
        return track(*args)

    monkeypatch.setattr(geometry, "_track_momentum", refuse_first)
    detour = complex_momentum(W_ref, bands_ref, E_ref, z)
    (a0, _, z0), (a1, _, way), (w2, _, z2) = calls
    assert a1 == a0 and z0 == z2 == z
    assert way == w2 == complex(a0.real, z.imag)
    assert abs(detour - straight) < 1e-12


@pytest.mark.parametrize("side", ["off-axis", "upper"])
def test_momentum_refuses_an_unknown_side(W_ref, bands_ref, E_ref, side):
    # on the axis and off it alike; 'off-axis' once passed as '+i0'
    for z in (1.0, 1.0 + 0.1j):
        with pytest.raises(InvalidInputError, match="side must be"):
            complex_momentum(W_ref, bands_ref, E_ref, z, side=side)


def test_free_momentum_closed_form(V_zero):
    bands = band_edges(V_zero, 42.0)
    W = AnalyticPotential.cosine(0.5, 0.5)
    for z in (0.7, 2.0, 4.4):
        got = complex_momentum(W, bands, 2.0, z)
        assert got == pytest.approx(math.sqrt(2.0 - float(W.value(z))),
                                    abs=1e-12)


def test_momentum_at_branch_point_is_exact_edge_value(W_ref, bands_ref,
                                                      E_ref, geom_ref):
    by_key = {(j, s): z for j, s, z in geom_ref.branch_zetas}
    assert complex_momentum(W_ref, bands_ref, E_ref, by_key[(1, "-")]) == 0.0
    assert complex_momentum(W_ref, bands_ref, E_ref,
                            by_key[(2, "-")]) == complex(math.pi)


# ---------------------------------------------------------------------------
# real branches


def test_branch_endpoint_convention(geom_ref, branches_ref):
    br_m, br_p = branches_ref
    (_, iv_m), (_, iv_p) = geom_ref.pre_bands
    # kappa = 0 lands on the branch point of the odd edge for both sides
    assert br_m(0.0) == iv_m[0]
    assert br_m(math.pi) == pytest.approx(iv_m[1], abs=1e-9)
    assert br_p(0.0) == iv_p[1]
    assert br_p(math.pi) == pytest.approx(iv_p[0], abs=1e-9)


def test_branch_tables_strictly_monotone(branches_ref):
    br_m, br_p = branches_ref
    assert np.all(np.diff(br_m.table()[:, 1]) > 0)
    assert np.all(np.diff(br_p.table()[:, 1]) < 0)


def test_branch_wrapper_negation_exact(branches_ref):
    br_m, _ = branches_ref
    rng = np.random.default_rng(3)
    for k in rng.uniform(-8.0, 8.0, size=50):
        assert br_m(-k) == br_m(k)


@given(st.floats(min_value=-6.0, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_branch_wrapper_period(branches_ref, kappa):
    # the 2 pi shift is folded out exactly; only the caller-side addition
    # kappa + 2 pi rounds, so equality holds to one ulp of that sum
    br_m, _ = branches_ref
    assert br_m(kappa + TWO_PI) == pytest.approx(br_m(kappa), abs=1e-9)


def test_branch_round_trip_inverts_momentum(W_ref, bands_ref, E_ref,
                                            branches_ref):
    grid = np.linspace(0.0, math.pi, 201)[1:-1]
    for br in branches_ref:
        back = np.array([
            complex_momentum(W_ref, bands_ref, E_ref, float(br(k))).real
            for k in grid])
        assert np.max(np.abs(back - grid)) < 1e-8


def test_branch_depends_continuously_on_energy(W_ref, bands_ref, E_ref):
    grid = np.linspace(0.0, math.pi, 41)
    tables = {}
    for dE in (0.0, 1e-3, 1e-4):
        rep = analyze_window(W_ref, bands_ref, E_ref + dE, 1, 0)
        geom = branch_points(W_ref, bands_ref, rep)
        br = real_branch(geom, geom.band_labels[0], points=128)
        tables[dE] = np.array([br(float(k)) for k in grid])
    d3 = np.max(np.abs(tables[1e-3] - tables[0.0]))
    d4 = np.max(np.abs(tables[1e-4] - tables[0.0]))
    assert d3 > 0 and d4 > 0
    assert d4 < 0.2 * d3


def brentq_branch_nodes(geom, label, kg):
    """zeta at the interior nodes kg by one brentq in E and one in zeta per
    node, on the band scan's model that real_branch uses; also the clamped
    nodes."""
    j, side = label.index, label.side
    band_lo, band_hi = geom.bands.band(j)
    model = geom.bands.model
    sgn = (-1.0) ** (j - 1)
    a, b = (0.0, geom.zeta_star) if side == "-" else (geom.zeta_star, TWO_PI)
    pad = 1e-12 * max(1.0, band_hi - band_lo)
    zetas, clamped = [], []
    for i, kap in enumerate(kg):
        want = 2.0 * math.cos(kap)
        if sgn * model(band_lo + pad) - want <= 0.0:
            e = band_lo + pad
            clamped.append(i)
        elif sgn * model(band_hi - pad) - want >= 0.0:
            e = band_hi - pad
            clamped.append(i)
        else:
            e = brentq(lambda t: sgn * model(t) - want, band_lo + pad,
                       band_hi - pad, xtol=1e-14, rtol=1e-15)
        target = geom.energy - e
        zetas.append(brentq(lambda z: float(geom.W.value(z)) - target, a, b,
                            xtol=1e-13))
    return np.array(zetas), clamped


@pytest.fixture(scope="module")
def geom_mix(V_mix, W_ref):
    bands = band_edges(V_mix, 30.0)
    rep = analyze_window(W_ref, bands, best_window_energy(W_ref, bands, 1, 0),
                         1, 0)
    return branch_points(W_ref, bands, rep)


@pytest.mark.parametrize("which", ["ref", "mix"])
def test_branch_tables_match_a_brentq_node_loop(which, geom_ref, geom_mix):
    geom = geom_ref if which == "ref" else geom_mix
    for label in geom.band_labels:
        br = real_branch(geom, label, points=128)
        kg, table = br.kappa_grid, br.table()[:, 1]
        want, _ = brentq_branch_nodes(geom, br.label, kg[1:-1])
        assert np.max(np.abs(table[1:-1] - want)) <= 1e-12
        assert table[0] == geom.branch_zeta(2 * br.label.index - 1, br.label.side)
        assert table[-1] == geom.branch_zeta(2 * br.label.index, br.label.side)


def test_branch_table_clamps_edge_nodes_like_the_node_loop(geom_ref):
    # with 3000 nodes the first node past kappa = 0 asks for a discriminant
    # beyond the model's value at the padded band bottom, and is clamped
    label = geom_ref.band_labels[0]
    br = real_branch(geom_ref, label, points=3000)
    idx = np.r_[1:40, 2960:2999, 40:2960:97]
    want, clamped = brentq_branch_nodes(geom_ref, label, br.kappa_grid[idx])
    assert clamped and idx[clamped[0]] == 1
    assert np.max(np.abs(br.table()[idx, 1] - want)) <= 1e-12


def test_real_branches_share_one_model_per_band(two_band_geometry, monkeypatch):
    # the tables of both bands read the band scan's one model: no fill
    _, geom = two_band_geometry
    built = []
    real_init = DiscriminantModel.__init__

    def counted(self, *args, **kwargs):
        built.append(args[1:3])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(DiscriminantModel, "__init__", counted)
    branches = [real_branch(geom, label, points=64) for label in geom.band_labels]
    assert [b.label for b in branches] == list(geom.band_labels)
    assert built == []
    for br in branches:
        again = real_branch(geom, br.label, points=64)
        assert np.array_equal(again.table(), br.table())


# ---------------------------------------------------------------------------
# level lines


def test_level_drift_stays_below_budget(W_ref, bands_ref, E_ref, geom_ref):
    _, (lo, hi) = geom_ref.pre_gaps[1]
    start = complex(0.5 * (lo + hi) + 0.2, 0.12)
    for family in ("kappa", "kappa-pi"):
        for direction in (1, -1):
            line = trace_stokes_line(W_ref, bands_ref, E_ref, start,
                                     family=family, direction=direction,
                                     max_length=1.5)
            assert line.reason in ("max-length", "strip-boundary")
            assert line.length > 0.1
            assert line.level_drift() < 1e-6 * line.length


def test_level_line_to_the_strip_edge_falls_back_to_the_scalar_route(
        W_ref, bands_ref, E_ref, monkeypatch):
    # this line climbs to |Im (E - W)| = 2.5, where the complex model hands
    # its points to the scalar integrator; forcing every point there must
    # give the same trace within the tracer's own accuracy
    args = (W_ref, bands_ref, E_ref, complex(0.3, 0.15))
    kw = dict(family="kappa-pi", direction=-1, max_length=1.5)
    line = trace_stokes_line(*args, **kw)
    assert line.reason == "strip-boundary"
    assert line.fallbacks > 0
    assert np.max(np.abs((E_ref - W_ref.value(line.points)).imag)) > 2.4
    assert line.level_drift() < 1e-6 * line.length
    monkeypatch.setattr(hill.ComplexDiscriminantModel, "bound",
                        lambda self, E: (complex("nan"), math.inf))
    scalar = trace_stokes_line(*args, **kw)
    assert scalar.reason == line.reason
    assert len(scalar.points) == len(line.points)
    assert np.max(np.abs(scalar.points - line.points)) < 1e-8
    assert np.max(np.abs(scalar.kappa - line.kappa)) < 1e-6


def test_stokes_step_evaluates_the_discriminant_twelve_times(V_zero,
                                                             monkeypatch):
    # on the real axis the line is straight, no step is rejected, and the
    # set-up before the first step does not depend on max_length
    bands = band_edges(V_zero, 42.0)
    W = AnalyticPotential.cosine(0.5, 0.5)
    calls = []
    real = hill.ComplexDiscriminantModel.__call__
    monkeypatch.setattr(hill.ComplexDiscriminantModel, "__call__",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    counts = []
    for length in (0.4, 0.8):
        calls.clear()
        line = trace_stokes_line(W, bands, 2.0, 1.0, max_length=length)
        counts.append((len(calls), len(line.steps)))
    (c1, n1), (c2, n2) = counts
    assert n2 > n1
    assert c2 - c1 == 12 * (n2 - n1)


def test_piecewise_level_line_solves_the_closed_form_dispersion(bands_kp):
    W = AnalyticPotential.cosine(5.0, 0.3)
    E = best_window_energy(W, bands_kp, 1, 0)
    geom = branch_points(W, bands_kp, analyze_window(W, bands_kp, E, 1, 0))
    z1m = geom.branch_zetas[0][2]
    line = trace_stokes_line(W, bands_kp, E, complex(z1m, -0.02),
                             max_length=1.0)
    assert line.reason == "max-length"
    assert line.fallbacks == 0
    assert line.level_drift() < 1e-6 * line.length
    segments = [(0.0, 0.5, 0.0), (0.5, 1.0, 6.0)]
    for p, k in zip(line.points, line.kappa):
        half_trace = kp_discriminant(segments, E - W.value(p)) / 2.0
        assert abs(np.cos(k) - half_trace) < 1e-9 * max(1.0, abs(half_trace))


def test_level_values_agree_with_trapezoid(W_ref, bands_ref, E_ref, geom_ref):
    # cruder independent quadrature over the same polyline
    _, (lo, hi) = geom_ref.pre_gaps[1]
    start = complex(0.5 * (lo + hi) + 0.2, 0.12)
    line = trace_stokes_line(W_ref, bands_ref, E_ref, start, max_length=1.0)
    zs = np.empty(2 * len(line.points) - 1, dtype=complex)
    fs = np.empty_like(zs)
    zs[::2], zs[1::2] = line.points, line.mids
    fs[::2], fs[1::2] = line.kappa - line.shift, line.mid_kappa - line.shift
    drift = abs(np.sum((fs[1:] + fs[:-1]) / 2.0 * np.diff(zs)).imag)
    assert drift < 3e-5 * line.length


def test_free_level_line_stays_on_real_axis(V_zero):
    bands = band_edges(V_zero, 42.0)
    W = AnalyticPotential.cosine(0.5, 0.5)
    line = trace_stokes_line(W, bands, 2.0, 1.0, max_length=0.8)
    assert line.reason == "max-length"
    assert np.all(np.imag(line.points) == 0.0)


def test_vertical_line_under_odd_branch_point(W_ref, bands_ref, E_ref,
                                              geom_ref):
    z1m = geom_ref.branch_zetas[0][2]
    line = trace_stokes_line(W_ref, bands_ref, E_ref,
                             complex(z1m, -0.02), direction=-1,
                             max_length=1.0)
    assert line.reason == "strip-boundary"
    assert np.all(np.diff(np.imag(line.points)) < 0.0)


def test_tracer_rejects_degenerate_start(W_ref, bands_ref, E_ref, geom_ref):
    z1m = geom_ref.branch_zetas[0][2]
    with pytest.raises(DegeneratePointError):
        trace_stokes_line(W_ref, bands_ref, E_ref, complex(z1m, 0.0))


def test_tracer_rejects_bad_arguments(W_ref, bands_ref, E_ref):
    with pytest.raises(InvalidInputError):
        trace_stokes_line(W_ref, bands_ref, E_ref, 1.0 + 0.1j, family="nope")
    with pytest.raises(InvalidInputError):
        trace_stokes_line(W_ref, bands_ref, E_ref, 1.0 + 0.1j, direction=0)
    for length in (0.0, -3.0):
        with pytest.raises(InvalidInputError, match="max_length"):
            trace_stokes_line(W_ref, bands_ref, E_ref, 1.0 + 0.1j,
                              max_length=length)


def test_strip_clearance_blocks_wide_strips(bands_ref, E_ref):
    wide = AnalyticPotential.cosine(4.8, 1.0)
    assert strip_clearance(wide, bands_ref, E_ref)
    with pytest.raises(InvalidInputError):
        trace_stokes_line(wide, bands_ref, E_ref, 1.0 + 0.1j, max_length=0.1)


def test_strip_clearance_clean_for_reference(W_ref, bands_ref, E_ref,
                                             geom_ref):
    assert strip_clearance(W_ref, bands_ref, E_ref) == ()
    assert geom_ref.strip_violations == ()


def strip_zero_heights(W, t, Y):
    """Sorted |Im zeta| in (1e-7, Y] of the zeros of W(zeta) - t over one
    period, found independently of the module: the Laurent coefficients of
    W come from an FFT of its real samples, the zeros of u^F (W - t) from
    mpmath at 40 digits, and each zero is checked to solve W = t."""
    F = max(f for f, _, _ in W.coefficients)
    n = 4 * F + 4
    gamma = np.fft.fft(W.value(TWO_PI * np.arange(n) / n)) / n
    poly = [complex(gamma[k % n]) for k in range(F, -F - 1, -1)]
    poly[F] -= t
    with mpmath.workdps(40):
        us = [complex(u) for u in mpmath.polyroots(poly, maxsteps=200,
                                                    extraprec=80)]
    heights = []
    for u in us:
        zeta = complex(cmath.log(u) / 1j)
        assert abs(W.value(zeta) - t) < 1e-9 * max(1.0, abs(t))
        if 1e-7 < abs(zeta.imag) <= Y:
            heights.append(abs(zeta.imag))
    return sorted(heights)


@pytest.mark.parametrize("E", [4.4, 7.5, 16.0])
def test_strip_clearance_cosine_closed_form(bands_ref, E):
    # W = A cos zeta is real on Re zeta = 0 (A cosh y) and Re zeta = pi
    # (-A cosh y): edge j has its zeros at height arccosh(|E - E_j| / A)
    # when |E - E_j| > A, and none off the axis otherwise
    A, Y = 4.8, 3.0
    want = []
    for j, e in enumerate(bands_ref.edges, start=1):
        if abs(E - e) > A and math.acosh(abs(E - e) / A) <= Y:
            want.append((j, math.acosh(abs(E - e) / A)))
    got = strip_clearance(AnalyticPotential.cosine(A, Y), bands_ref, E)
    assert want
    assert [j for j, _ in got] == [j for j, _ in want]
    for (_, y), (_, y_want) in zip(got, want):
        assert abs(y - y_want) <= 1e-12


def test_strip_clearance_finds_off_curve_zeros_of_two_harmonics(bands_ref):
    # edge 2 of W = 4.8 cos + 0.6 cos 2 zeta has its zeros at
    # +-2.594 +- 1.495i, inside a strip of half-width 1.5
    W = AnalyticPotential([(1, 4.8, 0.0), (2, 0.6, 0.0)], 1.5)
    E = 2.0
    got = dict(strip_clearance(W, bands_ref, E))
    assert 2 in got
    assert abs(got[2] - 1.4951) < 1e-4
    assert got[2] == pytest.approx(
        strip_zero_heights(W, E - bands_ref.edge(2), 1.5)[0], abs=1e-10)


@pytest.mark.parametrize("Y", [1.0, 1.5])
def test_strip_clearance_seven_harmonics_one_entry_per_edge(bands_ref, Y):
    # one entry per edge, at the least height of the zeros of the
    # polynomial; the real branch points are not violations
    W = AnalyticPotential([(1, 4.8, 0.0), (7, 0.08, 0.0)], Y)
    E = 6.0
    got = strip_clearance(W, bands_ref, E)
    edges = [j for j, _ in got]
    assert edges == sorted(set(edges))
    assert all(y > 0.0 for _, y in got)
    want = {}
    for j, e in enumerate(bands_ref.edges, start=1):
        heights = strip_zero_heights(W, E - e, Y)
        if heights:
            want[j] = heights[0]
    assert edges == sorted(want)
    for j, y in got:
        assert y == pytest.approx(want[j], abs=1e-10)


# ---------------------------------------------------------------------------
# period indices and the perturbed spectrum


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_period_index_odd_crossing_vectors(m):
    sign, index = period_index([0.0, math.pi, math.pi * (1 - m)])
    assert sign == -1
    assert index == Fraction(-m)
    sign, index = period_index([0.37, 0.37, math.pi * (m + 1)])
    assert sign == -1
    assert index == Fraction(m + 1)


def test_period_index_empty():
    assert period_index([]) == (1, Fraction(0))


@given(st.lists(st.floats(min_value=-10.0, max_value=10.0), max_size=9))
@settings(max_examples=80, deadline=None)
def test_period_index_signature(values):
    sign, _ = period_index(values)
    assert sign == (-1) ** len(values)


@given(st.lists(st.floats(min_value=-10.0, max_value=10.0), max_size=7),
       st.floats(min_value=-10.0, max_value=10.0),
       st.integers(min_value=0, max_value=7))
@settings(max_examples=80, deadline=None)
def test_period_index_pair_insertion_invariance(values, r, pos):
    pos = min(pos, len(values))
    inserted = values[:pos] + [r, r] + values[pos:]
    assert period_index(inserted) == period_index(values)


def test_sigma_set_examples():
    one = BandStructure(edges=(0.0, 1.0), gap_open=(), ceiling=2.0,
                        edge_tol=1e-10)
    assert sigma_set(one, 0.0, 0.0) == ((0.0, 1.0),)
    assert sigma_set(one, -1.0, 1.0) == ((-1.0, 2.0),)
    two = BandStructure(edges=(0.0, 1.0, 2.0, 3.0), gap_open=(True,),
                        ceiling=4.0, edge_tol=1e-10)
    assert sigma_set(two, -0.6, 0.6) == ((-0.6, 3.6),)


def test_hand_built_band_table_has_no_operator(W_ref):
    # edges alone know no V: every read of the operator names the missing
    # discriminant model instead of failing on None
    one = BandStructure(edges=(0.0, 1.0), gap_open=(), ceiling=2.0,
                        edge_tol=1e-10)
    for read in (lambda: quasimomentum_main(one, 0.5),
                 lambda: quasimomentum_main(one, 0.5 + 0.1j),
                 lambda: strip_model(one, W_ref, 0.5)):
        with pytest.raises(InvalidInputError, match="discriminant model"):
            read()
