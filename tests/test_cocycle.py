"""Cocycle exponents: renormalized products, model family, direct runs."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from adiaspec import _ode, cocycle
from adiaspec import (
    AnalyticPotential,
    CocycleSpec,
    ConsistencyError,
    ConvergenceFailure,
    DegeneracyError,
    InsufficientLengthError,
    InvalidInputError,
    MatrixFamily,
    PeriodicPotential,
    ResolutionFailure,
    SmallDenominatorWarning,
    cocycle_lyapunov,
    conjugation_invariance_check,
    default_z_samples,
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
from adiaspec.cocycle import (
    _COCYCLE_FACTORS_MAX,
    PhaseModel,
    _block_transfers,
    _conjugated,
    _hermitian,
    _rotation,
    unit_blocks,
)
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


@pytest.mark.parametrize("matrix", [
    [[0.0, 0.0], [0.0, 0.0]],
    # rank one, every entry nonzero: a d - b c cancels exactly
    [[1.0, 1.0], [1.0, 1.0]],
    [[2.0 ** 70, 3 * 2.0 ** 64], [2.0 ** 76, 3 * 2.0 ** 70]],
    [[1 + 2j, 3 - 1j], [2 + 4j, 6 - 2j]],
])
def test_exactly_singular_factor_raises_at_any_scale(matrix):
    with pytest.raises(DegeneracyError, match="singular matrix"):
        run(constant_family(matrix), N=10)


def test_unimodular_factors_with_large_entries_are_not_singular(V_zero):
    # V = 0, E = -2500: G = [[cosh 50, sinh 50 / 50], [50 sinh 50, cosh 50]]
    # has entries ~1e21-1e23 and a d - b c of exactly 0.0 in floating point
    model = PhaseModel(V_zero, None, 0.1, -2500.0, 0.0, 1e-12, 200)
    a, b, c, d = model.blocks(0, 5)
    assert np.all(a * d - b * c == 0.0)

    def ev(z: float) -> np.ndarray:
        return model(np.array([2 * math.pi * z]))[:, 0].reshape(2, 2)

    fam = MatrixFamily(kind="user-table", evaluator=ev)
    est = run(fam, N=200, h=0.1 / (2 * math.pi), stride=4)
    assert est.value == pytest.approx(50.0, rel=1e-3)
    direct = direct_lyapunov(V_zero, None, 0.1, -2500.0, L=200.0, tol=1e-12)
    assert est.value == pytest.approx(direct.value, rel=1e-12)


def test_overflowing_entry_detected():
    # both parts of the entry are finite, its modulus is not
    fam = constant_family([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])
    with pytest.raises(DegeneracyError, match="after factor 1"):
        run(fam, N=1)


def test_underflowing_product_detected():
    # no rescaling before the last factor: 2000 factors of norm ~1e-3
    # take the running product to zero
    fam = herman_family(0.001, 1, 0.5, 0.3, 0.1, 0.2, seed=7)
    with pytest.raises(DegeneracyError, match="after factor 2000"):
        run(fam, N=2000, stride=50000)


# ---------------------------------------------------------------------------
# renormalization bookkeeping


def test_chunked_product_matches_plain_cocycle():
    # three chunk boundaries, and stride-7 blocks ending on a partial one
    # (3 CHUNK + 5 = 7 * 878 + 3)
    N, stride, z0 = 3 * CHUNK + 5, 7, 0.29
    fam = herman_family(2.0, 1, 0.5, 0.3, 0.1, 0.1, seed=3)
    est = run(fam, N=N, z0=z0, stride=stride)
    want, _, _ = plain_cocycle(fam.evaluator, H_REF, z0, N)
    assert abs(est.value - want) <= 1e-12 * abs(want)
    assert len(est.per_block) == math.ceil(N / stride)
    assert math.fsum(est.per_block) == pytest.approx(est.value * N, rel=1e-12)


@pytest.mark.parametrize("stride", [1, 3, CHUNK + 3, 50000])
def test_stride_blocks_match_plain_cocycle(stride):
    # stride 3 ends on a partial block, CHUNK + 3 folds each block in two
    # pieces, 50000 makes the whole run one block; lam = 1 keeps that
    # block's norm representable
    N, z0 = 3 * CHUNK + 5, 0.61
    fam = herman_family(1.0, 1, 0.5, 0.3, 0.1, 0.1, seed=8)
    est = run(fam, N=N, z0=z0, stride=stride)
    want, _, _ = plain_cocycle(fam.evaluator, H_REF, z0, N)
    assert abs(est.value - want) <= 1e-12 * abs(want)
    assert len(est.per_block) == math.ceil(N / stride)
    assert math.fsum(est.per_block) == pytest.approx(est.value * N, rel=1e-12)


def test_user_table_without_array_form_matches_plain_cocycle():
    herman = herman_family(2.0, 1, 0.5, 0.3, 0.1, 0.1, seed=3)
    calls = []

    def ev(z: float) -> np.ndarray:
        calls.append(z)
        return herman.evaluator(z)

    fam = MatrixFamily(kind="user-table", evaluator=ev)
    calls.clear()
    N, z0 = 3000, 0.29
    est = run(fam, N=N, z0=z0, stride=7)
    assert len(calls) == N
    want, _, _ = plain_cocycle(herman.evaluator, H_REF, z0, N)
    assert abs(est.value - want) <= 1e-12 * abs(want)
    assert run(herman, N=N, z0=z0, stride=7).value == pytest.approx(
        est.value, rel=1e-13)


def test_factor_limit_is_checked_before_any_evaluation(monkeypatch):
    class Evaluated(Exception):
        pass

    def evaluated(self, h):
        raise Evaluated

    fam = herman_family(2.0, 1, 0.5, 0.3, 0.1, 0.1, seed=3)
    # the orbit is where every factor of a run comes from
    monkeypatch.setattr(MatrixFamily, "orbit", evaluated)
    spec = CocycleSpec(family=fam, h=H_REF, N=_COCYCLE_FACTORS_MAX // 8,
                       z_samples=default_z_samples(8))
    with pytest.raises(Evaluated):
        cocycle_lyapunov(spec)
    with pytest.raises(ResolutionFailure, match="cocycle factors"):
        cocycle_lyapunov(replace(spec, N=spec.N + 1))


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


@pytest.mark.parametrize("z0, zs", [(math.nan, ()), (math.inf, ()),
                                    (0.0, (0.1, math.nan)),
                                    (0.0, (-math.inf, 0.5))])
def test_non_finite_z_rejected_at_construction(z0, zs):
    fam = herman_family(2.0, 1, 0.5, 0.3, 0.1, 0.1, seed=3)
    with pytest.raises(InvalidInputError, match="finite"):
        CocycleSpec(family=fam, h=H_REF, z0=z0, N=100, z_samples=zs)


# ---------------------------------------------------------------------------
# the prefix-scan kernel against a sequential per-block oracle


def block_oracle(factor, N: int, stride: int):
    """log ||F_k|| of the sequential product renormalised after every
    block of `stride` factors, one factor factor(n) at a time, in plain
    numpy; the norm is taken on F over its largest entry, so blocks past
    1e154 keep their squares finite."""
    F, logs = np.eye(2, dtype=complex), []
    for b0 in range(0, N, stride):
        for n in range(b0, min(b0 + stride, N)):
            F = np.asarray(factor(n), dtype=complex) @ F
        top = np.abs(F).max()
        nrm = top * np.linalg.norm(F / top)
        logs.append(math.log(nrm))
        F = F / nrm
    return np.array(logs)


def orbit_factors(family, h: float, z: float, N: int):
    """factor(n) = M(z + n h) from the family's own orbit evaluation, in
    chunks of CHUNK, so that an oracle on these factors tests the product
    algebra alone (where a chunk starts moves its factors by rounding
    only)."""
    orbit = family.orbit(h)
    rows = np.concatenate([orbit(z, n0, min(n0 + CHUNK, N))
                           for n0 in range(0, N, CHUNK)], axis=1)
    return lambda n: rows[:, n].reshape(2, 2)


SCAN_ZS = (0.13, 0.46, 0.82)


@pytest.mark.parametrize("stride", [1, 7, CHUNK + 3, 50000])
def test_scan_matches_sequential_block_oracle(stride):
    # 3 CHUNK + 5 factors: three chunk boundaries, a partial last block
    # for strides 7 and CHUNK + 3, one block for 50000 (lam = 1 keeps it
    # representable); the factors' own accuracy along the orbit is
    # test_orbit_matches_the_exact_orbit_point's
    N = 3 * CHUNK + 5
    fam = herman_family(1.0, 1, 0.5, 0.3, 0.1, 0.1, seed=8)
    est = cocycle_lyapunov(CocycleSpec(family=fam, h=H_REF, N=N,
                                       renorm_stride=stride,
                                       z_samples=SCAN_ZS))
    blocks = est.per_block.reshape(len(SCAN_ZS), -1)
    want = [block_oracle(orbit_factors(fam, H_REF, z, N), N, stride)
            for z in SCAN_ZS]
    for got, logs in zip(blocks, want):
        assert got.shape == logs.shape == (math.ceil(N / stride),)
        assert np.abs(got - logs).max() <= 1e-13 * max(1.0, np.abs(logs).max())
    theta = math.fsum(np.concatenate(want)) / (N * len(SCAN_ZS))
    assert abs(est.value - theta) <= 1e-12 * abs(theta)


def test_multi_z_run_equals_single_z_runs():
    N, stride = 3 * CHUNK + 5, 7
    fam = herman_family(2.0, 1, 0.5, 0.3, 0.1, 0.1, seed=3)
    many = cocycle_lyapunov(CocycleSpec(family=fam, h=H_REF, N=N,
                                        renorm_stride=stride,
                                        z_samples=SCAN_ZS))
    ones = [run(fam, N=N, z0=z, stride=stride) for z in SCAN_ZS]
    # one run scans wider batches than three, so only rounding differs
    assert np.abs(many.per_block - np.concatenate(
        [e.per_block for e in ones])).max() <= 1e-13
    assert many.value == pytest.approx(
        sum(e.value for e in ones) / len(ones), rel=1e-14)


def test_blocks_past_the_square_range_keep_finite_norms():
    # factors of norm ~1e25: each stride-8 block is ~1e200, its entries'
    # squares overflow, and the norms must not
    N, stride = 600, 8
    fam = herman_family(1e25, 1, 0.5, 0.3, 0.1, 0.1, seed=3)
    est = run(fam, N=N, z0=0.37, stride=stride)
    logs = block_oracle(lambda n: fam.evaluator((0.37 + n * H_REF) % 1.0),
                        N, stride)
    assert logs.min() > math.log(1e154)
    assert np.abs(est.per_block - logs).max() <= 1e-13 * np.abs(logs).max()
    diag = run(constant_family([[1e25, 0.0], [0.0, 1.0]]), N=N, stride=stride)
    assert np.allclose(diag.per_block, 8 * math.log(1e25), rtol=1e-15, atol=0)


def test_degenerate_sample_named_in_a_multi_z_run():
    # factor 4000 of the middle sample is infinite; its block of 7 ends
    # after factor 4004, and the other two samples never come near it
    N, stride, bad = 3 * CHUNK + 5, 7, 0.6

    def ev(z: float) -> np.ndarray:
        hit = abs((z - bad + 0.5) % 1.0 - 0.5) < 1e-9
        return np.array([[math.inf if hit else 1.0, 0.3], [0.0, 1.0]])

    fam = MatrixFamily(kind="user-table", evaluator=ev)
    z_bad = (bad - 4000 * H_REF) % 1.0
    spec = CocycleSpec(family=fam, h=H_REF, N=N, renorm_stride=stride,
                       z_samples=(0.13, z_bad, 0.82))
    with pytest.raises(DegeneracyError,
                       match=rf"after factor 4004 \(z={z_bad!r}\)"):
        cocycle_lyapunov(spec)


def test_kernel_has_no_per_block_python_loop():
    # the reference cocycle workload's shape: 8 z samples of 40,000
    # factors at stride 8, 40,000 blocks; a loop over blocks executes
    # several lines per block, a scan over batches a few per batch
    fam = herman_family(3.0, 1, 0.5, 0.3, 0.1, 0.2, seed=7151)
    spec = CocycleSpec(family=fam, h=H_REF, N=40000, renorm_stride=8,
                       z_samples=default_z_samples(8))
    kernel, lines = cocycle._log_norms.__code__, 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    def calls(frame, event, arg):
        # trace every frame opened while the kernel is on the stack
        f = frame
        while f is not None and f.f_code is not kernel:
            f = f.f_back
        return None if f is None else count(frame, event, arg)

    # a tracer already installed (a coverage run) is put back afterwards
    outer = sys.gettrace()
    sys.settrace(calls)
    try:
        est = cocycle_lyapunov(spec)
    finally:
        sys.settrace(outer)
    assert len(est.per_block) == 40000
    assert 0 < lines < len(est.per_block)


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
# Fourier tables against the point-by-point formulas they replaced


def _herman_coeffs(m_amp, seed):
    """M1's (2, 2, 7) Fourier coefficients, every mode an exponential."""
    modes = np.arange(-3, 4)
    if m_amp > 0:
        rng = np.random.default_rng(seed)
        coeffs = (rng.standard_normal((2, 2, 7))
                  + 1j * rng.standard_normal((2, 2, 7)))
        zg = np.arange(4096) / 4096.0
        phases = np.exp(2j * np.pi * np.outer(modes, zg))
        vals = np.einsum("ijk,kz->zij", coeffs, phases)
        sup = np.linalg.svd(vals, compute_uv=False)[:, 0].max()
        return coeffs * (m_amp / sup)
    return np.zeros((2, 2, 7), dtype=complex)


def _svd_norms(m):
    return np.linalg.svd(np.moveaxis(m, -1, 0), compute_uv=False)[:, 0]


@pytest.mark.parametrize("seed", [7151, 4, 0])
def test_herman_sup_norm_matches_svd(seed):
    # the closed-form sigma_max of herman_family's perturbation draws
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal((2, 2, 7))
              + 1j * rng.standard_normal((2, 2, 7)))
    zg = np.arange(4096) / 4096.0
    vals = np.einsum("ijk,kz->ijz", coeffs,
                     np.exp(2j * np.pi * np.outer(np.arange(-3, 4), zg)))
    got, want = cocycle._spectral_norms(vals), _svd_norms(vals)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-14
    assert got.max() == pytest.approx(want.max(), rel=1e-14)


def test_spectral_norm_of_a_scaled_unitary_table():
    # sigma_1 = sigma_2 = 2, where |M|_F^2 - 2|det M| loses half the digits
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, 4096)) + 1j * rng.standard_normal((2, 4096))
    n = np.hypot(np.abs(u), np.abs(v))
    u, v = u / n, v / n
    m = 2.0 * np.array([[u, -v.conj()], [v, u.conj()]])
    assert np.max(np.abs(cocycle._spectral_norms(m) / 2.0 - 1.0)) <= 1e-14
    assert np.max(np.abs(_svd_norms(m) / 2.0 - 1.0)) <= 1e-14


def scalar_herman(lam, n0, alpha, beta, m_amp, seed):
    lam, alpha, beta = complex(lam), complex(alpha), complex(beta)
    base = np.array([[1.0, beta], [0.0, alpha]])
    modes = np.arange(-3, 4)
    coeffs = _herman_coeffs(m_amp, seed)

    def ev(zv: float) -> np.ndarray:
        m1 = coeffs @ np.exp(2j * np.pi * modes * zv)
        return lam * cmath.exp(2j * math.pi * n0 * zv) * (base + m1)

    return ev


def exponential_herman_rows(lam, n0, alpha, beta, m_amp, seed):
    """Array rows of the Herman family with one exponential per mode and
    z, the form the powers of u = e^{2 pi i z} replaced."""
    base = np.array([[1.0], [complex(beta)], [0.0], [complex(alpha)]])
    modes = np.arange(-3, 4)
    terms = _herman_coeffs(m_amp, seed).reshape(4, 7)

    def rows(z: np.ndarray) -> np.ndarray:
        m1 = terms @ np.exp(2j * np.pi * np.outer(modes, z))
        return complex(lam) * np.exp(2j * np.pi * n0 * z) * (base + m1)

    return rows


def scalar_model(a0, a1, b0, b1):
    a0, a1, b0, b1 = complex(a0), complex(a1), complex(b0), complex(b1)

    def ev(zv: float) -> np.ndarray:
        u = cmath.exp(2j * math.pi * zv)
        return np.array([
            [a0 + a1 * u, b0 + b1 * u],
            [b0.conjugate() + b1.conjugate() / u,
             a0.conjugate() + a1.conjugate() / u],
        ])

    return ev


def scalar_conjugated(ev, h, variant):
    sigma = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    if variant == "swap-sigma":
        return lambda zv: sigma @ np.asarray(ev(zv)) @ sigma

    def twisted(zv: float) -> np.ndarray:
        d0 = cmath.exp(1j * math.pi * (zv + h))
        s0 = cmath.exp(1j * math.pi * zv)
        left = np.array([[1.0 / d0, 0.0], [0.0, d0]])
        right = np.array([[s0, 0.0], [0.0, 1.0 / s0]])
        return left @ np.asarray(ev(zv)) @ right

    return twisted


HERMAN_CASES = {
    "seed-0": (2.0, 1, 0.5, 0.3, 0.1, 0),
    "seed-3": (2.0, 1, 0.5, 0.3, 0.1, 3),
    "seed-11-complex": (1.5 - 0.5j, 1, 0.4j, 0.2 + 0.1j, 0.05, 11),
    "n0-2": (2.0, 2, 0.5, 0.3, 0.1, 5),
    "unperturbed": (2.0, 1, 0.5, 1.0, 0.0, 0),
    # the power table's ends u^(n0-3) and u^(n0+3) on both sides of u^0
    **{f"n0={n0}-m_amp={m_amp}": (1.5 - 0.5j, n0, 0.4j, 0.2 + 0.1j, m_amp, 11)
       for n0 in (-2, 0, 3) for m_amp in (0.0, 0.1)},
}
MODEL_COEFFS = (0.3 + 0.2j, -0.1j, 0.7, 0.05 + 0.4j)


def array_cases():
    """name -> (family, its point-by-point formula)."""
    cases = {}
    for name, (lam, n0, alpha, beta, m_amp, seed) in HERMAN_CASES.items():
        cases[f"herman-{name}"] = (
            herman_family(lam, n0, alpha, beta, m_amp, 0.1, seed=seed),
            scalar_herman(lam, n0, alpha, beta, m_amp, seed))
    cases["model"] = (model_matrix(*MODEL_COEFFS), scalar_model(*MODEL_COEFFS))
    # given by an evaluator alone, so conjugated point by point
    cases["model-evaluator"] = (
        MatrixFamily(kind="user-table", evaluator=scalar_model(*MODEL_COEFFS)),
        scalar_model(*MODEL_COEFFS))
    for base in ("herman-seed-3", "model", "model-evaluator"):
        fam, ev = cases[base]
        for variant in ("swap-sigma", "s-twist"):
            cases[f"{base}-{variant}"] = (
                _conjugated(fam, H_REF, variant),
                scalar_conjugated(ev, H_REF, variant))
    return cases


@pytest.mark.parametrize("case", sorted(array_cases()))
def test_array_form_matches_point_formula(case):
    fam, ev = array_cases()[case]
    rng = np.random.default_rng(64)
    zs = np.concatenate([[-0.73, -0.05, 1.0, 1.41, 2.9],
                         rng.uniform(-2.0, 3.0, 59)])
    want = np.array([np.asarray(ev(float(z))).reshape(4) for z in zs]).T
    scale = np.abs(want).max(axis=0)
    got = fam.rows(zs)
    assert got.shape == (4, 64)
    assert (np.abs(got - want).max(axis=0) <= 1e-13 * scale).all()
    one = np.array([fam.evaluator(float(z)).reshape(4) for z in zs]).T
    assert (np.abs(one - want).max(axis=0) <= 1e-13 * scale).all()


def test_model_det_deviation_matches_point_scan():
    fam = model_matrix(*MODEL_COEFFS)
    ev = scalar_model(*MODEL_COEFFS)
    dev = max(abs(np.linalg.det(ev(float(z))) - 1.0)
              for z in np.linspace(0.0, 1.0, 257))
    assert fam.metadata["det_deviation"] == pytest.approx(dev, rel=1e-13)


# ---------------------------------------------------------------------------
# factors along the orbit from one rotated Fourier table


ORBIT_FAMILIES = {
    **{f"herman-n0={n0}-m_amp={m_amp}":
       herman_family(1.0, n0, 0.5, 0.3, m_amp, 0.1, seed=8)
       for n0 in (-2, 1, 3) for m_amp in (0.0, 0.1)},
    "model": model_matrix(*MODEL_COEFFS),
}
# the conjugates of conjugation_invariance_check's transformed runs
ORBIT_FAMILIES.update({
    f"{base}-{variant}": _conjugated(ORBIT_FAMILIES[base], H_REF, variant)
    for base in ("herman-n0=1-m_amp=0.1", "model")
    for variant in ("swap-sigma", "s-twist")})


def exact_orbit_rows(family, z: float, h: float, ns) -> np.ndarray:
    """(4, len(ns)) rows of sum_f C_f e^(2 pi i f x) of the family's
    Fourier table at the exact orbit points x = z + n h, z and h read as
    the binary fractions they are, by mpmath at 40 digits."""
    freqs, coeffs = family.fourier
    out = np.empty((4, len(ns)), dtype=complex)
    with mpmath.workdps(40):
        for col, n in enumerate(ns):
            u = mpmath.expjpi(2 * (mpmath.mpf(z) + n * mpmath.mpf(h)))
            powers = [u ** int(f) for f in freqs]
            for i in range(4):
                out[i, col] = complex(mpmath.fsum(
                    mpmath.mpc(complex(c)) * p
                    for c, p in zip(coeffs[i], powers)))
    return out


@pytest.mark.parametrize("n0", [3 * CHUNK, 488 * CHUNK])
@pytest.mark.parametrize("case", sorted(ORBIT_FAMILIES))
def test_orbit_matches_the_exact_orbit_point(case, n0):
    # chunk starts n0 = 6144 and 999,424; the table's rotation must be no
    # less accurate than evaluating each (z + n h) mod 1, whose rounding
    # grows with n h
    fam = ORBIT_FAMILIES[case]
    z, h = 0.46, H_REF
    cols = np.r_[0:CHUNK:31, CHUNK - 1]
    want = exact_orbit_rows(fam, z, h, (n0 + cols).tolist())
    scale = np.abs(fam.fourier[1]).sum(axis=1).max()
    got = fam.orbit(h)(z, n0, n0 + CHUNK)[:, cols]
    plain = fam.rows((z + (n0 + cols) * h) % 1.0)
    err, plain_err = (float(np.abs(r - want).max()) / scale
                      for r in (got, plain))
    assert err <= plain_err
    assert err <= 1e-14


@pytest.mark.parametrize("n0", [10**6, 5 * 10**6])
def test_evaluator_family_reads_the_orbit_at_the_tables_phases(n0):
    # a Herman family wrapped as an evaluator is read at the orbit phases
    # the table's rotation reads, n h reduced exactly (`_orbit_phase`);
    # (z + n h) mod 1 put its rows ~1e-9 off at n0 = 5e6
    table = ORBIT_FAMILIES["herman-n0=1-m_amp=0.1"]
    wrapped = MatrixFamily(kind="user-table", evaluator=table.evaluator)
    want = table.orbit(H_REF)(0.46, n0, n0 + 256)
    got = wrapped.orbit(H_REF)(0.46, n0, n0 + 256)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("case", ["model", "phase-model"])
def test_hermitian_table_rotates_in_real_arithmetic(case, V_ref, W_ref,
                                                     E_ref):
    # criterion 7's real model matrix and a real-E phase model's table: the
    # rotation of a Hermitian table is real and is the real part of the
    # complex route, which the same table takes once a zero coefficient
    # pads it at one end; both within 1e-15 of the sum's bound
    # 2 max_r sum_f |C_f| on ||M||_F
    if case == "model":
        (freqs, coeffs), step, period = (
            model_matrix(1.25, 0, 0.75, 0).fourier, H_REF, 1.0)
    else:
        model = PhaseModel(V_ref, W_ref, 0.1, E_ref, 0.37, 1e-9, 5000)
        (freqs, coeffs), step, period = model._fourier, 0.1, 2 * math.pi
    padded = (np.arange(freqs[0], freqs[-1] + 2),
              np.pad(coeffs, ((0, 0), (0, 1))))
    assert _hermitian(freqs, coeffs) and not _hermitian(*padded)
    scale = 2.0 * np.abs(coeffs).sum(axis=1).max()
    real, full = (_rotation(*t, step, period) for t in ((freqs, coeffs),
                                                         padded))
    for n0 in (0, 6144, 1_000_000):
        got, want = real(0.46, n0, n0 + CHUNK), full(0.46, n0, n0 + CHUNK)
        assert got.dtype == float and want.dtype == complex
        assert np.abs(got - want.real).max() <= 1e-15 * scale, n0


def test_fourier_table_is_the_family():
    freqs, coeffs = np.array([-1, 0, 1]), np.zeros((4, 3), dtype=complex)
    coeffs[0, 1] = coeffs[3, 1] = 1.0
    fam = MatrixFamily(kind="user-table", fourier=(freqs, coeffs))
    assert np.array_equal(fam.evaluator(0.37), np.eye(2))
    with pytest.raises(InvalidInputError, match="takes no evaluator"):
        MatrixFamily(kind="user-table", evaluator=fam.evaluator,
                     fourier=(freqs, coeffs))
    with pytest.raises(InvalidInputError, match="Fourier table"):
        MatrixFamily(kind="user-table", fourier=(freqs * 0.5, coeffs))
    with pytest.raises(InvalidInputError, match="Fourier table"):
        MatrixFamily(kind="user-table", fourier=(freqs, coeffs[:, :2]))
    with pytest.raises(InvalidInputError, match="consecutive"):
        MatrixFamily(kind="user-table", fourier=(freqs[::-1], coeffs))
    with pytest.raises(InvalidInputError, match="needs an evaluator"):
        MatrixFamily(kind="user-table")


# ---------------------------------------------------------------------------
# Herman-type families


@pytest.mark.parametrize("seed", [7151, 0, 1, 2, 3, 4, 5])
def test_herman_exponent_matches_the_per_mode_exponential_form(seed):
    # the reference [model] with its own and six other perturbation seeds
    params = (3.0, 1, 0.5, 0.3, 0.1)
    fam = herman_family(*params, 0.05, seed=seed)
    rows = exponential_herman_rows(*params, seed)
    zs, N = default_z_samples(8), 20000
    theta = cocycle_lyapunov(CocycleSpec(family=fam, h=H_REF, N=N,
                                         z_samples=zs)).value
    # the oracle's factors at each (z + n h) mod 1, a chunk per call
    oracle = cocycle._log_norms(
        lambda r, n0, n1: rows((zs[r] + np.arange(n0, n1) * H_REF) % 1.0),
        zs, N, 8).sum() / (N * len(zs))
    assert theta == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_unperturbed_herman_rows_skip_the_perturbation():
    fam = herman_family(2.0 - 1.0j, 3, 0.5, 0.3, 0.0, 0.1)
    z = np.linspace(-0.4, 1.3, 11)
    u3 = np.exp(2j * np.pi * z) ** 3
    # one Fourier term, lam B at u^3, and not seven with six of them zero
    lam_b = (2.0 - 1.0j) * np.array([[1.0], [0.3], [0.0], [0.5]])
    assert fam.fourier[0].tolist() == [3]
    assert np.array_equal(fam.fourier[1], lam_b)
    assert np.array_equal(fam.rows(z), lam_b @ u3[None])


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
    batch = _block_transfers(V, W, eps, E, z, eps * np.arange(j0, j1), tol)
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


# ---------------------------------------------------------------------------
# the phase model of a direct run


@pytest.fixture(scope="module")
def W_multi():
    return AnalyticPotential([(1, 4.8, 0.0), (2, 0.6, 0.3), (3, 0.1, -0.2)], 0.5)


PHASE_CASES = {
    # name: (V fixture, W fixture, z, energy offset from E_ref)
    "several-frequencies": ("V_ref", "W_multi", 0.37, 0.0),
    "piecewise-shifted": ("V_kp", "W_ref", 0.2, -1.0),
    "complex-E": ("V_ref", "W_ref", 0.1, 0.3j),
}


@pytest.mark.parametrize("case", sorted(PHASE_CASES))
def test_phase_model_matches_rk4_oracle(case, request, E_ref):
    vname, wname, z, dE = PHASE_CASES[case]
    V, W = request.getfixturevalue(vname), request.getfixturevalue(wname)
    E = E_ref + dE
    eps, tol = 0.1, 1e-9
    model = PhaseModel(V, W, eps, E, z, tol, 100_000)
    for j in (0, 17, 4321, 98765):
        got = model.blocks(j, j + 1)
        assert np.iscomplexobj(got) == isinstance(E, complex)
        oracle = rk4_block(V, W, eps, E, z, j)
        scale = max(1.0, float(np.abs(oracle).max()))
        diff = np.abs(got[:, 0].reshape(2, 2) - oracle).max()
        assert diff <= 10 * tol * scale, (case, j)


def test_phase_model_doubles_past_a_high_frequency_tail(V_ref, E_ref,
                                                        monkeypatch):
    # a frequency-7 term in W puts Fourier content of G above |k| = 8,
    # the upper half of the 32-phase band
    W = AnalyticPotential([(1, 4.8, 0.0), (7, 0.08, 0.0)], 0.5)
    eps, z, tol = 0.1, 0.37, 1e-9
    model = PhaseModel(V_ref, W, eps, E_ref, z, tol, 3000)
    assert model.K > 32
    for j in (3, 2500):
        got = model.blocks(j, j + 1)[:, 0].reshape(2, 2)
        want = scalar_block(V_ref, W, eps, E_ref, z, j, rtol=1e-12)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 10 * tol * scale
    monkeypatch.setattr("adiaspec.cocycle._PHASES_MAX", model.K // 2)
    with pytest.raises(ResolutionFailure, match="phase model"):
        direct_lyapunov(V_ref, W, eps, E_ref, z=z, L=100.0, tol=tol)


PHASE_SUM_CASES = {
    # name: (W terms, energy offset from E_ref, K at least)
    "reference": ([(1, 4.8, 0.0)], 0.0, 32),
    "frequency-7": ([(1, 4.8, 0.0), (7, 0.08, 0.0)], 0.0, 64),
    "complex-E": ([(1, 4.8, 0.0)], 0.3j, 32),
}


@pytest.mark.parametrize("case", sorted(PHASE_SUM_CASES))
def test_phase_model_evaluates_its_cosine_sine_sum(case, V_ref, E_ref):
    # the table's direct sum against G(phi) = sum over k < K/2 of
    # A_k cos(k phi) + B_k sin(k phi), A_k = C_k + C_-k and
    # B_k = i (C_k - C_-k) (A_0 = C_0, B_0 = 0), summed term by term at one
    # phase at a time; a real G has a Hermitian table and real rows
    terms, dE, K = PHASE_SUM_CASES[case]
    model = PhaseModel(V_ref, AnalyticPotential(terms, 0.5), 0.1, E_ref + dE,
                       0.37, 1e-9, 5000)
    assert model.K >= K
    freqs, table = model._fourier
    assert freqs.tolist() == list(range(1 - model.K // 2, model.K // 2))
    assert _hermitian(freqs, table) == (dE == 0)
    C = dict(zip(freqs.tolist(), table.T))
    A = [C[0]] + [C[k] + C[-k] for k in range(1, model.K // 2)]
    B = [0.0] + [1j * (C[k] - C[-k]) for k in range(1, model.K // 2)]
    phases = np.concatenate([np.mod(0.1 * np.arange(0, 5000, 37), 2 * math.pi),
                             [0.0, 1e-3, math.pi, 6.28, -1.3, 11.7]])
    want = np.array([sum(A[k] * math.cos(k * p) + B[k] * math.sin(k * p)
                         for k in range(model.K // 2))
                     for p in phases.tolist()]).T
    got = model(phases)
    assert got.shape == (4, len(phases))
    assert np.iscomplexobj(got) == (dE != 0)
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(got - want).max() <= 1e-13 * scale


def exact_phases(eps: float, js) -> np.ndarray:
    """eps j mod 2 pi, the double eps times the integer j reduced by the
    model's period 2 * math.pi in exact rational arithmetic, then
    rounded once."""
    e, period = Fraction(eps), Fraction(2 * math.pi)
    return np.array([float(e * j % period) for j in js])


@pytest.mark.parametrize("case", sorted(PHASE_SUM_CASES))
def test_phase_model_blocks_rotate_one_table_along_the_run(case, V_ref,
                                                          E_ref):
    # a chunk of blocks from the constructor's table, rotated to the start
    # of each span, against the model at each block's own phase
    # eps j mod 2 pi; that
    # phase is reduced exactly, since np.mod(eps * j, 2 pi) rounds eps j
    # by up to 7e-12 at j = 10^6, which moves G by up to 8e-12 here
    terms, dE, _ = PHASE_SUM_CASES[case]
    eps, nblocks = 0.1, 1_000_000 + CHUNK
    model = PhaseModel(V_ref, AnalyticPotential(terms, 0.5), eps,
                       E_ref + dE, 0.37, 1e-9, nblocks)
    for j0 in (0, 6144, 1_000_000):
        js = range(j0, j0 + CHUNK)
        got = model.blocks(j0, j0 + CHUNK)
        want = model(exact_phases(eps, js))
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-12 * scale, j0
        # no farther than the model at the rounded phases np.mod(eps j, 2 pi)
        plain = model(np.mod(eps * np.array(js), 2 * math.pi))
        assert np.abs(got - want).max() <= np.abs(plain - want).max(), j0


def test_phase_model_sample_check_catches_a_corrupted_fill(
        V_ref, W_ref, E_ref, monkeypatch):
    real = _ode.transfer_batch
    batches = []

    def corrupted(*args, **kwargs):
        y = real(*args, **kwargs)
        batches.append(y.shape[1])
        # the first 32 columns are the model's fill, the rest the sampled
        # blocks; a smooth relative error leaves the fill's Fourier tail as
        # small as it was
        y[:, :32] *= 1.0 + 1e-6
        return y

    monkeypatch.setattr(_ode, "transfer_batch", corrupted)
    with pytest.raises(ConsistencyError, match="phase model"):
        direct_lyapunov(V_ref, W_ref, 0.2, E_ref, z=0.37, L=300.0)
    # one batch: the 32-phase fill and the 32 sampled blocks of the run
    assert batches == [64]


def test_direct_run_block_count_bounded_before_any_work(V_ref, W_ref, E_ref,
                                                       monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("integrated before the block count was bounded")

    monkeypatch.setattr(_ode, "transfer_batch", no_work)
    assert unit_blocks(_COCYCLE_FACTORS_MAX + 0.5) == _COCYCLE_FACTORS_MAX
    with pytest.raises(ResolutionFailure, match="unit blocks"):
        direct_lyapunov(V_ref, W_ref, 0.2, E_ref, L=_COCYCLE_FACTORS_MAX + 1.0)


def test_slow_epsilon_ladder_converges_to_the_action_exponent(
        V_ref, W_ref, E_ref, acts_ref):
    # the reference geometry at 400 periods per cell: 201k blocks at the
    # smallest epsilon, which only the phase model makes cheap
    theta_asym = lyapunov_asymptotic(acts_ref, 0.2).theta_asym
    epsilons = [0.2, 0.1, 0.05, 0.025, 0.0125]
    rel = []
    for eps in epsilons:
        est = direct_lyapunov(V_ref, W_ref, eps, E_ref,
                              L=400 * 2.0 * math.pi / eps)
        rel.append(abs(est.value - theta_asym) / theta_asym)
    assert all(b < a for a, b in zip(rel, rel[1:])), rel
    assert rel[-1] < 2e-3, rel
    order = np.polyfit(np.log(epsilons), np.log(rel), 1)[0]
    assert order >= 1.5, (order, rel)


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
    band-scan fill, a unit-block batch like direct_lyapunov's, and members
    whose w steepens along the interval, so that a later step fails."""
    q, qs = V_ref.array_evaluator(), V_ref.evaluator()
    Es = np.linspace(-2.5, 45.5, 300)
    phases = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
    E = 4.4
    ks = np.linspace(1.0, 3.0, 50)
    return {
        "energies": (lambda t: q(t) - Es, 1e-12,
                     [lambda x, e=e: qs(x) - e for e in Es]),
        # at rtol 1e-8 the blocks pass their first step count
        "blocks": (lambda t: q(t) - E + 4.8 * np.cos(0.2 * t + phases), 1e-10,
                   [lambda x, p=p: qs(x) - E + 4.8 * math.cos(0.2 * x + p)
                    for p in phases]),
        "ramp": (lambda t: -ks * (40.0 * t) ** 2, 1e-10,
                 [lambda x, k=k: -k * (40.0 * x) ** 2 for k in ks]),
    }


@pytest.mark.parametrize("case", ["energies", "blocks", "ramp"])
def test_transfer_batch_step_count_follows_the_error(case, V_ref, monkeypatch):
    w, rtol, members = step_count_cases(V_ref)[case]
    atol = rtol * 1e-2
    y0 = np.zeros((4, len(members)))
    y0[0] = y0[3] = 1.0
    calls = []
    real = _ode._fixed_steps

    def spy(*args):
        out = real(*args)
        calls.append((out[2], out[1] is not None, args[5].shape))
        return out

    monkeypatch.setattr(_ode, "_fixed_steps", spy)
    y = _ode.transfer_batch(w, 0.0, 1.0, y0, rtol=rtol, atol=atol)
    # the same error-derived counts, each attempt restarting all S segments
    # from the identity at their starts
    S = _ode.segment_count(len(members))
    cuts = np.linspace(0.0, 1.0, S + 1)[:, None]
    starts, ends = cuts[:-1], cuts[1:]
    eye = np.zeros((4, S, len(members)))
    eye[0] = eye[3] = 1.0
    n = _ode.first_step_count(1.0 / S, float(np.max(np.abs(w(starts)))))
    restart = 0
    while True:
        _, err, i = real(w, w(starts), starts, ends, n, eye, rtol, atol)
        if err is None:
            restart += n
            break
        restart += i + 1
        n = math.ceil(n * min(_ode._MAX_GROWTH,
                              max(_ode._MIN_GROWTH, err ** 0.125 / 0.9)))
    # every attempt ran the S segments side by side and some failed; on the
    # ramp one failed after accepting steps and was resumed from there; no
    # more steps ran in all (a failed step is executed too)
    assert S > 1 and all(shape == eye.shape for _, _, shape in calls)
    assert any(failed for _, failed, _ in calls)
    if case == "ramp":
        assert any(i > 0 and failed for i, failed, _ in calls)
    assert sum(i + failed for i, failed, _ in calls) <= restart
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
        S = _ode.segment_count(1)
        with pytest.raises(ConvergenceFailure):
            _ode.transfer_batch(lambda t: np.full(np.shape(t), math.nan),
                                0.0, 1.0, y0)
        # finite at every segment start, NaN further in, or NaN inside the
        # last segment only: caught by the error test
        for w in (lambda t: np.where(t * S % 1.0 == 0.0, 1.0, math.nan),
                  lambda t: np.where(t > 1.0 - 0.5 / S, math.nan, 1.0)):
            with pytest.raises(ConvergenceFailure, match="error estimate"):
                _ode.transfer_batch(w, 0.0, 1.0, y0)


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
    # one log per fold of s = N // 10 = 30 blocks (the blocks' norm bound
    # allows longer folds): the growth between consecutive fold ends
    assert len(est.per_block) == 10
    ends = np.cumsum(logs)[29::30]
    assert np.abs(est.per_block - np.diff(ends, prepend=0.0)).max() <= 1e-8


@pytest.mark.parametrize("E", [-1.0, -400.0, -2500.0])
def test_direct_lyapunov_large_norm_blocks(V_zero, E):
    # G = [[cosh k, sinh k / k], [k sinh k, cosh k]], k = sqrt(-E), and
    # log ||G^N||_F in logs of its entries; at E = -400 a fold of 64
    # blocks would overflow, and the stride comes from ||G||_F instead
    N, k = 200, math.sqrt(-E)
    est = direct_lyapunov(V_zero, None, 0.1, E, L=float(N), tol=1e-12)
    x = N * k
    log_cosh = x - math.log(2.0) + math.log1p(math.exp(-2.0 * x))
    log_sinh = x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))
    want = 0.5 * np.logaddexp.reduce(
        [2 * log_cosh, 2 * log_cosh, 2 * (log_sinh - math.log(k)),
         2 * (log_sinh + math.log(k))]) / N
    assert abs(est.value - want) <= 1e-12 * want
    log_bound = math.log(2.0 * (k * math.sinh(k) + math.cosh(k)))
    s = max(1, min(64, N // 10, math.floor(350.0 / max(1.0, log_bound))))
    assert len(est.per_block) == math.ceil(N / s)


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
