"""Acceptance gate: the eight shipped guarantees, at their stated tolerances.

Each test covers one criterion end to end and prints a single
`criterion N: PASS/FAIL` line; with `pytest -v` the per-test verdicts
double as the per-criterion report.  Everything here drives the public
API (criterion 1 and 8 through the shipped reference config), so these
tests stay meaningful even if the finer-grained module tests move.
"""

from __future__ import annotations

import math
import shutil
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adiaspec import (
    AnalyticPotential,
    CocycleSpec,
    MatrixFamily,
    action_with_error,
    analyze_window,
    band_edges,
    best_window_energy,
    branch_points,
    cocycle_lyapunov,
    complex_momentum,
    compute_actions,
    conjugation_invariance_check,
    direct_lyapunov,
    discriminant,
    frequency_from_epsilon,
    herman_bound_check,
    herman_family,
    lyapunov_asymptotic,
    model_matrix,
    period_index,
    quasimomentum_main,
    real_branch,
    theta_to_Theta,
    total_T,
)
from adiaspec.cli import load_config, main

from oracles import kp_band_edges, oracle_discriminant
from test_cli import out_bytes, prepare, wipe

REFERENCE_INI = str(Path(__file__).resolve().parent.parent
                    / "configs" / "reference.ini")

KP_SEGMENTS = [(0.0, 0.5, 0.0), (0.5, 1.0, 6.0)]

# admissible energies for the reference window, same grid as the module tests
E_GRID = np.linspace(4.10, 4.70, 20)

TWO_PI = 2.0 * math.pi


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: end-to-end asymptotics on the shipped reference configuration


def test_criterion_1_end_to_end_asymptotics():
    t0 = time.monotonic()
    cfg = load_config(REFERENCE_INI)
    assert cfg.energy is None and cfg.energy_grid is None  # auto maximizer
    assert cfg.m == 0
    assert sorted(cfg.epsilons, reverse=True) == [0.2, 0.1, 0.05]
    assert cfg.periods >= 200

    bands = band_edges(cfg.potential_v, cfg.ceiling, tol=cfg.tol_edge)
    E = best_window_energy(cfg.potential_w, bands, cfg.n, cfg.m)
    rep = analyze_window(cfg.potential_w, bands, E, cfg.n, cfg.m)
    assert rep.all_ok
    geom = branch_points(cfg.potential_w, bands, rep)
    aset = compute_actions(geom, tol=cfg.tol_quad)
    theta_asym = lyapunov_asymptotic(aset, cfg.epsilons[0]).theta_asym
    total = sum(s for _, s, _ in aset.entries)
    assert theta_asym == pytest.approx(total / (4.0 * math.pi), rel=1e-14)

    rels = []
    positive = True
    for eps in sorted(cfg.epsilons, reverse=True):
        L = cfg.periods * TWO_PI / eps
        est = direct_lyapunov(cfg.potential_v, cfg.potential_w, eps, E,
                              z=cfg.z, L=L, tol=cfg.tol_ode)
        positive = positive and est.value > 0
        rels.append(abs(est.value - theta_asym) / theta_asym)
    trend_ok = all(b <= a * (1 + 1e-12) for a, b in zip(rels, rels[1:]))
    elapsed = time.monotonic() - t0
    detail = ("rel errors " + ", ".join(f"{r:.3f}" for r in rels)
              + f"; {elapsed:.0f}s")
    report(1, positive and trend_ok and rels[-1] <= 0.20 and elapsed < 900.0,
           detail)


# ---------------------------------------------------------------------------
# criterion 2: Floquet solver vs independent fixed-step oracle


def test_criterion_2_floquet_oracle_equivalence(V_ref, V_kp, V_mix, bands_kp):
    Es = np.linspace(-5.0, 40.0, 50)
    worst = 0.0
    for V in (V_ref, V_kp, V_mix):
        want = oracle_discriminant(V, Es, steps=6000)
        got = np.array([discriminant(V, float(e), tol=1e-11) for e in Es])
        worst = max(worst, float(np.max(np.abs(got - want))))
    want_edges = kp_band_edges(KP_SEGMENTS, ceiling=30.0, vmin=0.0)
    got_edges = np.array(bands_kp.edges[: len(want_edges)])
    edge_err = float(np.max(np.abs(got_edges - np.array(want_edges))))
    report(2, worst < 1e-9 and edge_err < 1e-8,
           f"discriminant {worst:.2e}, KP edges {edge_err:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: quasi-momentum properties on the reference potential


def test_criterion_3_quasimomentum_properties(bands_ref):
    ok = True
    for n in (1, 2):
        lo, hi = bands_ref.edges[2 * n - 2], bands_ref.edges[2 * n - 1]
        ks = [quasimomentum_main(bands_ref, float(e)).value
              for e in np.linspace(lo, hi, 102)[1:-1]]
        vals = [k.real for k in ks]
        ok = ok and all(abs(k.imag) < 1e-12 for k in ks)
        ok = ok and all(a < b for a, b in zip(vals, vals[1:]))

    lo, hi = bands_ref.edges[1], bands_ref.edges[2]
    ks = [quasimomentum_main(bands_ref, float(e)).value
          for e in np.linspace(lo, hi, 102)[1:-1]]
    ok = ok and all(abs(k.real - math.pi) < 1e-10 for k in ks)
    ims = np.array([k.imag for k in ks])
    ok = ok and bool(np.all(ims > 0))
    signs = np.sign(np.diff(ims))
    ok = ok and np.count_nonzero(signs[:-1] != signs[1:]) == 1

    deltas = np.array([10.0**-k for k in range(3, 8)])
    gaps = [abs(quasimomentum_main(bands_ref, lo + d).value - math.pi)
            for d in deltas]
    slope = float(np.polyfit(np.log(deltas), np.log(gaps), 1)[0])
    report(3, ok and abs(slope - 0.5) <= 0.05, f"edge exponent {slope:.4f}")


# ---------------------------------------------------------------------------
# criterion 4: geometry invariants on a 20-point energy grid


def _interlaced(geom) -> bool:
    by_key = {(j, s): z for j, s, z in geom.branch_zetas}
    js = sorted({j for j, _, _ in geom.branch_zetas})
    seq = ([by_key[(j, "-")] for j in js] + [geom.zeta_star]
           + [by_key[(j, "+")] for j in reversed(js)])
    return (0.0 < seq[0] and seq[-1] < TWO_PI
            and all(a < b for a, b in zip(seq, seq[1:])))


def _tiled(geom) -> bool:
    ivs = sorted(tuple(sorted(iv))
                 for _, iv in geom.pre_bands + geom.pre_gaps)
    joined = all(abs(hi - lo) < 1e-12
                 for (_, hi), (lo, _) in zip(ivs, ivs[1:]))
    top = max(z for j, s, z in geom.branch_zetas if s == "+")
    return (joined and abs(ivs[0][0] - (top - TWO_PI)) < 1e-12
            and abs(ivs[-1][1] - top) < 1e-12)


def _branch_ok(W, bands, E, geom, label) -> bool:
    br = real_branch(geom, label, points=128)
    iv = sorted(dict(geom.pre_bands)[label])
    ends = sorted((br(0.0), br(math.pi)))
    ok = all(abs(a - b) < 1e-8 for a, b in zip(ends, iv))
    d = np.diff(br.table()[:, 1])
    ok = ok and (bool(np.all(d > 0)) or bool(np.all(d < 0)))
    for k in (0.3, 1.1, 2.2):
        ok = ok and br(-k) == br(k)
        ok = ok and abs(br(k + TWO_PI) - br(k)) < 1e-9
    grid = np.linspace(0.0, math.pi, 41)[1:-1]
    back = np.array([complex_momentum(W, bands, E, float(br(k))).real
                     for k in grid])
    return ok and float(np.max(np.abs(back - grid))) < 1e-6


def test_criterion_4_geometry_invariants(W_ref, bands_ref):
    ok = True
    for E in E_GRID:
        rep = analyze_window(W_ref, bands_ref, float(E), 1, 0)
        ok = ok and rep.all_ok
        geom = branch_points(W_ref, bands_ref, rep)
        ok = ok and _interlaced(geom) and _tiled(geom)
        for label in geom.band_labels:
            ok = ok and _branch_ok(W_ref, bands_ref, float(E), geom, label)
    report(4, ok, f"{len(E_GRID)} energies, all branches")


# ---------------------------------------------------------------------------
# criterion 5: action properties on the same grid


def test_criterion_5_action_properties(W_ref, bands_ref):
    ok = True
    worst_sides = 0.0
    for E in E_GRID:
        rep = analyze_window(W_ref, bands_ref, float(E), 1, 0)
        geom = branch_points(W_ref, bands_ref, rep)
        aset = compute_actions(geom, tol=1e-10)
        ok = ok and all(s > 0 for _, s, _ in aset.entries)
        for label, s_plus, _ in aset.entries:
            s_minus, _ = action_with_error(geom, label, side="-i0", tol=1e-10)
            worst_sides = max(worst_sides, abs(s_plus - s_minus))
        for eps in (1.0, 0.2, 0.07):
            via_T = theta_to_Theta(-total_T(aset, eps)[1], eps)
            direct = lyapunov_asymptotic(aset, eps).theta_asym
            ok = ok and abs(via_T - direct) <= 1e-14 * direct
    report(5, ok and worst_sides < 1e-8,
           f"side disagreement {worst_sides:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: period-index vectors


def test_criterion_6_period_index_vectors():
    ok = True
    for m in (0, 1, 2, 3):
        ok = ok and period_index([0.0, math.pi, math.pi * (1 - m)]) \
            == (-1, Fraction(-m))
        ok = ok and period_index([0.37, 0.37, math.pi * (m + 1)]) \
            == (-1, Fraction(m + 1))
    rng = np.random.default_rng(7151)
    for _ in range(200):
        values = list(rng.uniform(-10.0, 10.0, size=rng.integers(0, 10)))
        sign, _ = period_index(values)
        ok = ok and sign == (-1) ** len(values)
    report(6, ok, "crossing vectors exact, 200 random signatures")


# ---------------------------------------------------------------------------
# criterion 7: cocycle suite


def _constant(matrix) -> MatrixFamily:
    m = np.asarray(matrix, dtype=complex)
    return MatrixFamily(kind="user-table", evaluator=lambda z: m.copy(),
                        parameters=(), metadata={})


def _rotation() -> MatrixFamily:
    def ev(z: float) -> np.ndarray:
        a = TWO_PI * z
        return np.array([[math.cos(a), -math.sin(a)],
                         [math.sin(a), math.cos(a)]], dtype=complex)

    return MatrixFamily(kind="user-table", evaluator=ev, parameters=(),
                        metadata={})


def _run(family, h):
    spec = CocycleSpec(family=family, h=h, z0=0.0, N=20000, renorm_stride=8,
                       z_samples=())
    return cocycle_lyapunov(spec)


def test_criterion_7_cocycle_suite():
    t0 = time.monotonic()
    h = frequency_from_epsilon(0.1)
    ok = True

    est = _run(_constant([[2.0, 0.0], [0.0, 0.5]]), h)
    ok = ok and abs(est.value - math.log(2.0)) < 1e-10
    est = _run(_rotation(), h)
    ok = ok and abs(est.value) <= 3.0 * est.standard_error
    est = _run(herman_family(2.0, 1, 0.5, 0.0, 0.0, 0.1), h)
    ok = ok and abs(est.value - math.log(2.0)) < 1e-8

    for seed in range(10):
        fam = herman_family(2.0, 1, 0.5, 0.3, 0.1, 0.1, seed=seed)
        ok = ok and herman_bound_check(fam, h, 2.0, N=20000)["ok"]

    fam = model_matrix(1.25, 0.0, 0.75, 0.0)
    for variant in ("swap-sigma", "S-twist"):
        rep = conjugation_invariance_check(fam, h, variant)
        gap = abs(rep.theta_base - rep.theta_transformed)
        ok = ok and gap <= 3.0 * rep.combined_standard_error + 1e-12

    log_inv_T = 3.0
    scale = math.exp(log_inv_T)
    est = _run(model_matrix(scale, 0.1 * scale, 0.3 * scale, 0.0), h)
    ok = ok and log_inv_T - 2.0 <= est.value <= log_inv_T + 2.0

    elapsed = time.monotonic() - t0
    report(7, ok and elapsed < 120.0,
           f"model exponent {est.value:.3f}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: byte-identical outputs


def test_criterion_8_determinism(tmp_path):
    cfg, out = prepare(tmp_path)
    assert main(["verify", "--config", cfg]) == 0
    first = out_bytes(out)
    wipe(out)
    assert main(["verify", "--config", cfg]) == 0
    same_serial = out_bytes(out) == first
    wipe(out)
    assert main(["verify", "--config", cfg, "--threads", "2"]) == 0
    same_threaded = out_bytes(out) == first
    report(8, same_serial and same_threaded,
           f"{len(first)} files, rerun and --threads 2")
