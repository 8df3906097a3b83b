"""Cocycle exponents: renormalized products, model family, direct runs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from adiaspec import _ode
from adiaspec import (
    AnalyticPotential,
    CocycleSpec,
    ConvergenceFailure,
    DegeneracyError,
    InsufficientLengthError,
    InvalidInputError,
    MatrixFamily,
    PeriodicPotential,
    SmallDenominatorWarning,
    cocycle_lyapunov,
    conjugation_invariance_check,
    direct_lyapunov,
    frequency_from_epsilon,
    herman_bound_check,
    herman_family,
    lyapunov_asymptotic,
    model_matrix,
    theta_to_Theta,
    total_T,
)

from adiaspec._ode import CHUNK
from adiaspec.cocycle import _block_transfers
from oracles import plain_cocycle, rk4_transfer, wkb_average_rate

H_REF = frequency_from_epsilon(0.1)


def constant_family(matrix) -> MatrixFamily:
    m = np.asarray(matrix, dtype=complex)
    return MatrixFamily(kind="user-table", evaluator=lambda z: m.copy(),
                        parameters=(), metadata={})


def rotation_family() -> MatrixFamily:
    def ev(z: float) -> np.ndarray:
        a = 2.0 * math.pi * z
        return np.array([[math.cos(a), -math.sin(a)],
                         [math.sin(a), math.cos(a)]], dtype=complex)

    return MatrixFamily(kind="user-table", evaluator=ev, parameters=(),
                        metadata={})


def run(family, *, N=20000, z0=0.0, stride=8, h=H_REF):
    spec = CocycleSpec(family=family, h=h, z0=z0, N=N, renorm_stride=stride,
                       z_samples=())
    return cocycle_lyapunov(spec)


# ---------------------------------------------------------------------------
# trivial exponents


def test_constant_diagonal_exponent():
    est = run(constant_family([[2.0, 0.0], [0.0, 0.5]]))
    assert est.value == pytest.approx(math.log(2.0), abs=1e-10)


def test_rotation_exponent_vanishes():
    est = run(rotation_family(), z0=0.17)
    assert est.standard_error > 0
    assert abs(est.value) <= 3.0 * est.standard_error


def test_phase_diagonal_exponent():
    lam, alpha, n0 = 1.7, 0.4, 2

    def ev(z: float) -> np.ndarray:
        u = lam * np.exp(2j * math.pi * n0 * z)
        return np.array([[u, 0.0], [0.0, u * alpha]], dtype=complex)

    fam = MatrixFamily(kind="user-table", evaluator=ev, parameters=(),
                       metadata={})
    est = run(fam)
    assert est.value == pytest.approx(math.log(lam), abs=1e-8)


def test_estimate_totals_are_consistent():
    est = run(constant_family([[2.0, 0.0], [0.0, 0.5]]))
    assert est.value == pytest.approx(sum(est.per_block) / est.N_used,
                                      rel=1e-12)


def test_singular_matrix_detected():
    fam = constant_family([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegeneracyError):
        run(fam, N=100)


# ---------------------------------------------------------------------------
# renormalization bookkeeping


def test_stride_does_not_change_the_estimate():
    fam = herman_family(2.0, 1, 0.5, 0.3, 0.1, 0.1, seed=5)
    one = run(fam, stride=1)
    sixteen = run(fam, stride=16)
    assert abs(one.value - sixteen.value) < 1e-10


def test_determinant_preserved_along_products():
    # track log det of the raw product through the renormalized factors
    for fam in (rotation_family(), model_matrix(1.25, 0.0, 0.75, 0.0)):
        _, log_det, drift = plain_cocycle(fam.evaluator, H_REF, 0.23, 20000)
        assert abs(log_det) < 1e-6 * 20000
        assert drift < 1e-8


def test_deterministic_given_spec():
    fam = herman_family(2.0, 1, 0.5, 0.3, 0.05, 0.1, seed=9)
    assert run(fam).value == run(fam).value


# ---------------------------------------------------------------------------
# model family


def test_model_identity_coefficients():
    fam = model_matrix(1.0, 0.0, 0.0, 0.0)
    assert np.array_equal(fam.evaluator(0.37), np.eye(2, dtype=complex))
    assert fam.metadata["det_deviation"] == 0.0


def test_model_conjugation_structure():
    fam = model_matrix(0.3 + 0.2j, -0.1j, 0.7, 0.05 + 0.4j)
    for z in np.linspace(0.0, 1.0, 100, endpoint=False):
        M = fam.evaluator(float(z))
        # 1/u versus conj(u) agree only up to rounding of |u| = 1
        assert abs(M[1, 0] - np.conj(M[0, 1])) < 1e-14
        assert abs(M[1, 1] - np.conj(M[0, 0])) < 1e-14


def test_model_family_is_one_periodic():
    fam = model_matrix(0.3 + 0.2j, -0.1j, 0.7, 0.05 + 0.4j)
    for z in (0.0, 0.31, 0.77):
        assert np.allclose(fam.evaluator(z + 1.0), fam.evaluator(z),
                           atol=1e-12)


def test_model_exponent_in_configured_window():
    # coefficients at magnitude 1/T for T = e^-3 sit near log(1/T); C* = 2
    log_inv_T = 3.0
    scale = math.exp(log_inv_T)
    fam = model_matrix(scale, 0.1 * scale, 0.3 * scale, 0.0)
    est = run(fam)
    assert log_inv_T - 2.0 <= est.value <= log_inv_T + 2.0


# ---------------------------------------------------------------------------
# Herman-type families


def test_herman_base_case_exact():
    fam = herman_family(2.0, 1, 0.5, 0.0, 0.0, 0.1)
    est = run(fam)
    assert est.value == pytest.approx(math.log(2.0), abs=1e-8)


def test_herman_triangular_constant():
    fam = herman_family(2.0, 1, 0.5, 1.0, 0.0, 0.1)
    est = run(fam, N=900_000)
    assert est.value == pytest.approx(math.log(2.0), abs=1e-6)


def test_herman_alpha_validation():
    with pytest.raises(InvalidInputError):
        herman_family(2.0, 1, 1.0, 0.0, 0.0, 0.1)


def test_herman_bound_across_seeds():
    for m_amp in (0.01, 0.05, 0.1):
        for seed in range(10):
            fam = herman_family(2.0, 1, 0.5, 0.3, m_amp, 0.1, seed=seed)
            out = herman_bound_check(fam, H_REF, 2.0, N=20000)
            assert out["ok"], (m_amp, seed, out)
            assert out["theta"] > out["lower_bound"]


def test_perturbation_sup_norm_is_exact():
    m_amp = 0.07
    base = herman_family(2.0, 1, 0.5, 0.3, 0.0, 0.1, seed=4)
    fam = herman_family(2.0, 1, 0.5, 0.3, m_amp, 0.1, seed=4)
    sup = 0.0
    for z in np.linspace(0.0, 1.0, 2001, endpoint=False):
        lam_phase = 2.0 * np.exp(2j * math.pi * float(z))
        diff = (fam.evaluator(float(z)) - base.evaluator(float(z))) / lam_phase
        sup = max(sup, float(np.linalg.norm(diff, 2)))
    assert sup == pytest.approx(m_amp, rel=1e-3)


# ---------------------------------------------------------------------------
# conversions and invariance checks


def test_theta_to_Theta_values(acts_ref):
    assert theta_to_Theta(0.0, 0.3) == 0.0
    assert theta_to_Theta(2.0 * math.pi, 1.0) == pytest.approx(1.0, rel=1e-15)
    eps = 0.07
    theta = -total_T(acts_ref, eps)[1]
    assert theta_to_Theta(theta, eps) == pytest.approx(
        lyapunov_asymptotic(acts_ref, eps).theta_asym, rel=1e-14)


def test_swap_invariance_exact_for_constant_diagonal():
    rep = conjugation_invariance_check(
        constant_family([[2.0, 0.0], [0.0, 0.5]]), H_REF, "swap-sigma")
    assert rep.theta_transformed == rep.theta_base


def test_model_invariance_both_variants():
    fam = model_matrix(1.25, 0.0, 0.75, 0.0)
    for variant in ("swap-sigma", "S-twist"):
        rep = conjugation_invariance_check(fam, H_REF, variant)
        gap = abs(rep.theta_base - rep.theta_transformed)
        assert gap <= 3.0 * rep.combined_standard_error + 1e-12


def test_identity_under_s_twist():
    N = 20000
    rep = conjugation_invariance_check(
        constant_family(np.eye(2)), H_REF, "S-twist", N=N)
    assert abs(rep.theta_transformed) < 1.0 / N


def test_small_denominator_warning():
    with pytest.warns(SmallDenominatorWarning):
        frequency_from_epsilon(2.0 * math.pi / 3.5)


# ---------------------------------------------------------------------------
# direct integration of the slow-fast operator


def test_free_negative_energy_rate(V_zero):
    est = direct_lyapunov(V_zero, None, 0.1, -1.0, L=200.0)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_free_positive_energy_rate(V_zero):
    est = direct_lyapunov(V_zero, None, 0.1, 1.0, L=200.0)
    assert abs(est.value) < 1.0 / 200.0


def test_short_run_rejected(V_zero):
    with pytest.raises(InsufficientLengthError):
        direct_lyapunov(V_zero, None, 0.1, -1.0, L=5.0)


def test_below_window_rate_matches_wkb(V_zero):
    W = AnalyticPotential.cosine(1.5, 0.5)
    eps, E = 0.3, -2.0
    L = 50 * 2.0 * math.pi / eps
    short = direct_lyapunov(V_zero, W, eps, E, L=L)
    long = direct_lyapunov(V_zero, W, eps, E, L=10 * L)
    wkb = wkb_average_rate(W, E)
    assert abs(long.value - wkb) < 0.02 * wkb
    assert abs(short.value - long.value) < 0.01 * wkb


def test_full_operator_rate_non_negative(V_ref, W_ref, E_ref):
    est = direct_lyapunov(V_ref, W_ref, 0.2, E_ref, L=300.0)
    assert est.value >= -3.0 * est.standard_error


# ---------------------------------------------------------------------------
# batched unit blocks against scalar adaptive DOPRI and fixed-step RK4


def block_knots(V, z):
    # sub-interval ends of a unit block: the jumps of V(t - z) in (0, 1)
    if V.kind != "piecewise-constant":
        return [0.0, 1.0]
    return [0.0] + sorted({(b + z) % 1.0 for b, _ in V.segments
                           if (b + z) % 1.0 > 0.0}) + [1.0]


def block_potential(V, W, eps, z, j, t0, t1):
    """q(x) on [j + t0, j + t1]; piecewise V is read at the sub-interval
    midpoint, where it is unambiguous."""
    v_mid = V(0.5 * (t0 + t1) - z)

    def q(x):
        v = v_mid if V.kind == "piecewise-constant" else V(x - z)
        return v + (0.0 if W is None else W.value(eps * x))

    return q


def scalar_block(V, W, eps, E, z, j, rtol):
    knots = block_knots(V, z)
    y = (1.0, 0.0, 0.0, 1.0)
    for t0, t1 in zip(knots[:-1], knots[1:]):
        q = block_potential(V, W, eps, z, j, t0, t1)
        y, _, _ = _ode.propagate(q, E, j + t0, j + t1, rtol=rtol,
                                 atol=rtol * 1e-2, y0=y)
    return np.array(y).reshape(2, 2)


def rk4_block(V, W, eps, E, z, j, steps=1000):
    knots = block_knots(V, z)
    Y = np.eye(2, dtype=complex)
    for t0, t1 in zip(knots[:-1], knots[1:]):
        q = block_potential(V, W, eps, z, j, t0, t1)
        n = max(8, math.ceil(steps * (t1 - t0)))
        Y = rk4_transfer(q, np.array([E]), j + t0, j + t1, n)[..., 0] @ Y
    return Y


BLOCK_CASES = {
    # name: (V fixture, with W_ref, z, energy offset from E_ref)
    "trig-shifted": ("V_ref", True, 0.37, 0.0),
    "piecewise-cuts": ("V_kp", True, 0.2, -1.0),
    "zero-no-W": ("V_zero", False, 0.0, -5.4),
    "complex-E": ("V_ref", True, 0.1, 0.3j),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_transfers_match_scalar_and_oracle(case, request, W_ref, E_ref):
    fixture, with_w, z, dE = BLOCK_CASES[case]
    V = request.getfixturevalue(fixture)
    W = W_ref if with_w else None
    E = E_ref + dE
    eps, tol, j0, j1 = 0.1, 1e-9, 1998, 2001
    batch = _block_transfers(V, W, eps, E, z, j0, j1, tol)
    assert batch.shape == (4, j1 - j0)
    assert np.iscomplexobj(batch) == isinstance(E, complex)
    for i, j in enumerate(range(j0, j1)):
        got = batch[:, i].reshape(2, 2)
        ref = scalar_block(V, W, eps, E, z, j, rtol=1e-12)
        oracle = rk4_block(V, W, eps, E, z, j)
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(got - ref).max() <= tol * scale, (case, j)
        assert np.abs(got - oracle).max() <= tol * scale, (case, j)
        assert abs(np.linalg.det(got) - 1.0) <= tol * scale


def test_transfer_batch_constant_potential_closed_form():
    # w = q - E constant per member: [[cosh, sinh/k], [k sinh, cosh]]
    w = np.array([-9.0, -1.0, 0.5, 4.0])
    y0 = np.zeros((4, w.size))
    y0[0] = y0[3] = 1.0
    y = _ode.transfer_batch(lambda t: w, 0.0, 1.0, y0, rtol=1e-10, atol=1e-12)
    k = np.sqrt(w.astype(complex))
    want = np.array([np.cosh(k), np.sinh(k) / k, k * np.sinh(k), np.cosh(k)])
    assert np.abs(y - want).max() <= 1e-8


def step_count_cases(V_ref):
    """name -> (w, rtol, q - E of each member) for an energy batch like the
    band-scan fill and a unit-block batch like direct_lyapunov's."""
    q = V_ref.evaluator()
    Es = np.linspace(-2.5, 45.5, 300)
    phases = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
    E = 4.4
    return {
        "energies": (lambda t: q(t) - Es, 1e-12,
                     [lambda x, e=e: q(x) - e for e in Es]),
        "blocks": (lambda t: q(t) - E + 4.8 * np.cos(0.2 * t + phases), 1e-8,
                   [lambda x, p=p: q(x) - E + 4.8 * math.cos(0.2 * x + p)
                    for p in phases]),
    }


@pytest.mark.parametrize("case", ["energies", "blocks"])
def test_transfer_batch_step_count_follows_the_error(case, V_ref, monkeypatch):
    w, rtol, members = step_count_cases(V_ref)[case]
    y0 = np.zeros((4, len(members)))
    y0[0] = y0[3] = 1.0
    tried = []
    real = _ode._fixed_steps

    def spy(*args):
        out = real(*args)
        tried.append((args[4], out[0] is not None))
        return out

    monkeypatch.setattr(_ode, "_fixed_steps", spy)
    y = _ode.transfer_batch(w, 0.0, 1.0, y0, rtol=rtol, atol=rtol * 1e-2)
    (n_fail, ok_fail), (n, ok) = tried[-2], tried[-1]
    assert ok and not ok_fail
    # smallest passing count above the last failure, by bisection
    lo, hi = n_fail, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if real(w, w(0.0), 0.0, 1.0, mid, y0, rtol, rtol * 1e-2)[0] is None:
            lo = mid
        else:
            hi = mid
    # a count taken from the error lands 1.18x / 1.09x above it here;
    # doubling landed 1.36x / 1.6x above it
    assert n <= 1.3 * hi
    for i in range(0, len(members), 30):
        want, _, _ = _ode.propagate(members[i], 0.0, 0.0, 1.0, rtol=1e-12,
                                    atol=1e-14)
        scale = max(1.0, max(abs(v) for v in want))
        assert np.abs(y[:, i] - want).max() <= 10 * rtol * scale


@pytest.mark.parametrize("integrate", ["propagate", "transfer_batch"])
def test_nan_potential_raises(integrate):
    if integrate == "propagate":
        with pytest.raises(ConvergenceFailure):
            _ode.propagate(lambda x: math.nan, 1.0, 0.0, 1.0)
    else:
        y0 = np.array([[1.0], [0.0], [0.0], [1.0]])
        with pytest.raises(ConvergenceFailure):
            _ode.transfer_batch(lambda t: math.nan, 0.0, 1.0, y0)
        # finite at t0, NaN further in: caught by the error test
        with pytest.raises(ConvergenceFailure):
            _ode.transfer_batch(lambda t: 1.0 if t == 0.0 else math.nan,
                                0.0, 1.0, y0)


def test_direct_lyapunov_matches_scalar_block_loop(V_ref, W_ref, E_ref):
    eps, z, tol = 0.2, 0.37, 1e-8
    est = direct_lyapunov(V_ref, W_ref, eps, E_ref, z=z, L=300.0, tol=tol)
    F = np.eye(2)
    logs = []
    for j in range(300):
        F = scalar_block(V_ref, W_ref, eps, E_ref, z, j, rtol=1e-10) @ F
        nrm = np.linalg.norm(F)
        logs.append(math.log(nrm))
        F /= nrm
    assert est.N_used == 300
    assert abs(est.value - sum(logs) / 300) <= 1e-8
    assert np.abs(est.per_block - np.array(logs)).max() <= 1e-8


def test_direct_lyapunov_repeats_across_chunks(V_zero):
    W = AnalyticPotential.cosine(1.5, 0.5)
    L = CHUNK + 700.0
    one = direct_lyapunov(V_zero, W, 0.3, -2.0, z=0.25, L=L)
    two = direct_lyapunov(V_zero, W, 0.3, -2.0, z=0.25, L=L)
    assert one.N_used == CHUNK + 700
    assert np.array_equal(one.per_block, two.per_block)
    assert one.value == two.value and one.standard_error == two.standard_error


def test_direct_lyapunov_rejects_non_finite_phase(V_ref, W_ref, E_ref):
    with pytest.raises(InvalidInputError):
        direct_lyapunov(V_ref, W_ref, 0.2, E_ref, z=math.nan, L=50.0)
