"""The batched DOP853 kernel: the stage-buffer step against an
expression-per-stage step from scipy's published coefficients, segmented
transfer_batch against the single-segment one it replaced, and
transfer_batch's broadcasting, work and accuracy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebpts1
from scipy.integrate._ivp import dop853_coefficients as dop853

from adiaspec import _ode, cocycle, hill
from adiaspec._ode import _C2, _C3, _C4, _C5
from adiaspec.errors import ConvergenceFailure
from test_hill import mp_discriminant


def _rhs(w, y):
    return np.concatenate((y[2:], w * y[:2]))


def reference_fixed_steps(w, w0, t0, t1, n, y, rtol, atol):
    """n DOP853 steps stage by stage, from scipy's coefficients: the oracle
    of _fixed_steps, with Hairer's combined 5th/3rd-order error."""
    A, C, E3, E5 = dop853.A, dop853.C, dop853.E3, dop853.E5
    h = (t1 - t0) / n
    k1 = _rhs(w0, y)
    ay = np.abs(y)
    for i in range(n):
        t = t0 + i * h
        w1 = w(t1 if i == n - 1 else t0 + (i + 1) * h)
        k = [k1]
        for s in range(1, 12):
            ys = y + sum((h * A[s, j]) * k[j] for j in range(s))
            k.append(_rhs(w1 if C[s] == 1.0 else w(t + C[s] * h), ys))
        yn = y + sum((h * A[12, j]) * k[j] for j in range(12))
        scale = atol + rtol * np.maximum(ay, np.abs(yn))
        e5 = sum((h * E5[j]) * k[j] for j in range(12)) / scale
        e3 = sum((h * E3[j]) * k[j] for j in range(12)) / scale
        s5 = np.sum(np.abs(e5) ** 2, axis=0)
        s3 = np.sum(np.abs(e3) ** 2, axis=0)
        with np.errstate(invalid="ignore"):
            err = np.where(s5 + s3 > 0.0, s5 / np.sqrt(4.0 * (s5 + 0.01 * s3)), 0.0)
        worst = float(np.max(err))
        if not math.isfinite(worst):
            raise ConvergenceFailure(f"non-finite error estimate at t={t!r}")
        if worst > 1.0:
            return y, worst, i
        y, k1, ay = yn, _rhs(w1, yn), np.abs(yn)
    return y, None, n


def reference_transfer_batch(w, t0, t1, y0, rtol, atol):
    """transfer_batch on one segment, kept as the oracle of the segmented
    one: the whole interval from y0, w called at scalar times."""
    w0 = w(t0)
    n = _ode.first_step_count(t1 - t0, float(np.max(np.abs(w0))))
    y = np.asarray(y0, dtype=np.result_type(y0, w0))
    t = t0
    for _ in range(_ode._MAX_ATTEMPTS):
        y, err, i = _ode._fixed_steps(w, w0, t, t1, n, y, rtol, atol)
        if err is None:
            return y
        t = t + i * ((t1 - t) / n)
        w0 = w(t)
        growth = min(_ode._MAX_GROWTH, max(_ode._MIN_GROWTH, err ** 0.125 / 0.9))
        n = math.ceil((n - i) * growth)
    raise ConvergenceFailure("reference step counts exhausted")


def identity(shape, dtype=float):
    y0 = np.zeros((4,) + shape, dtype)
    y0[0] = y0[3] = 1.0
    return y0


def oracle_cases(V_ref):
    """name -> (w, y0, rtol, step counts over [0, 1]) for an energy batch
    like the band-scan fill, complex energies like the Stokes strip and
    unit blocks with one w(t) per member like _block_transfers."""
    q = V_ref.evaluator()
    Es = np.linspace(-2.5, 45.5, 845)
    Ez = 12.0 + 9.0 * chebpts1(65) + 1.5j * np.sin(np.arange(65.0))
    phases = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
    return {
        # at rtol 1e-12, 44 steps fail at step 10 and 48 pass
        "energies": (lambda t: q(t) - Es, identity(Es.shape), 1e-12,
                     [44, 48, 20]),
        "complex": (lambda t: q(t) - Ez, identity(Ez.shape, complex), 1e-12,
                    [30, 40]),
        "blocks": (lambda t: q(t) - 4.4 + 4.8 * np.cos(0.2 * t + phases),
                   identity(phases.shape), 1e-8, [8, 20]),
    }


@pytest.mark.parametrize("case", ["energies", "complex", "blocks"])
def test_fixed_steps_matches_the_expression_per_stage_step(case, V_ref):
    w, y0, rtol, counts = oracle_cases(V_ref)[case]
    atol = rtol * 1e-2
    outcomes = []
    for n in counts:
        y, err, i = _ode._fixed_steps(w, w(0.0), 0.0, 1.0, n, y0, rtol, atol)
        y_ref, err_ref, i_ref = reference_fixed_steps(w, w(0.0), 0.0, 1.0, n,
                                                      y0, rtol, atol)
        assert i == i_ref
        assert (err is None) == (err_ref is None)
        if err is not None:
            # the error estimate is a difference of stage terms that cancel
            # to about rtol |y|; summing them in another order moves it by a
            # few roundings of |y|, i.e. up to eps / rtol tolerance units
            assert abs(err - err_ref) <= 1e-12 * err_ref + np.finfo(float).eps / rtol
        assert y.shape == y_ref.shape and y.dtype == y_ref.dtype
        assert np.all(np.abs(y - y_ref) <= 1e-13 * np.maximum(1.0, np.abs(y_ref)))
        outcomes.append((err is None, i))
    # each case has a run that passes and one that fails; the energies
    # fail once after accepted steps
    assert {passed for passed, _ in outcomes} == {True, False}, outcomes
    if case == "energies":
        assert any(not passed and i > 0 for passed, i in outcomes), outcomes


def test_fixed_steps_leaves_the_callers_state_alone():
    w = np.array([-9.0, 0.5])
    y0 = identity(w.shape)
    before = y0.copy()
    y, err, i = _ode._fixed_steps(lambda t: w, w, 0.0, 1.0, 200, y0, 1e-10, 1e-12)
    assert err is None and i == 200
    assert np.array_equal(y0, before)


def constant_w_transfer(w, y0):
    """exp of [[0, 1], [w, 0]] over [0, 1] applied to y0's matrices."""
    k = np.sqrt(np.asarray(w, complex))
    C, S = np.cosh(k), np.sinh(k) / k
    a, b, c, d = y0
    return np.array([C * a + S * c, C * b + S * d,
                     w * S * a + C * c, w * S * b + C * d])


def test_transfer_batch_scalar_w_shared_by_the_batch():
    y0 = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0],
                   [0.0, 3.0, 0.5], [1.0, 0.0, 1.0]])
    y = _ode.transfer_batch(lambda t: -4.0, 0.0, 1.0, y0)
    assert y.shape == (4, 3) and y.dtype == float
    assert np.abs(y - constant_w_transfer(-4.0, y0)).max() <= 1e-8


def test_transfer_batch_single_member_column():
    y0 = identity((1,))
    for w in (lambda t: 2.5, lambda t: np.array([2.5])):
        y = _ode.transfer_batch(w, 0.0, 1.0, y0)
        assert y.shape == (4, 1)
        assert np.abs(y - constant_w_transfer(2.5, y0)).max() <= 1e-8


def test_transfer_batch_promotes_real_state_to_complex_w():
    w = np.array([-9.0 + 1.0j, 0.5 - 2.0j, 4.0j])
    y0 = identity(w.shape)
    y = _ode.transfer_batch(lambda t: w, 0.0, 1.0, y0)
    assert y.dtype == complex and y0.dtype == float
    assert np.abs(y - constant_w_transfer(w, y0)).max() <= 1e-8


def test_transfer_batch_evaluates_w_eleven_times_per_step(V_ref, monkeypatch):
    # the ten nodes t + c h of stages 2..11 and the end node, which stages
    # 12 and 13 share and the next step's first stage reuses (FSAL);
    # transfer_batch adds w(t0) once per call of _fixed_steps
    q = V_ref.array_evaluator()
    Es = np.linspace(-2.5, 45.5, 200)
    evaluations = [0]

    def w(t):
        evaluations[0] += 1
        return q(t) - Es

    steps, calls = [0], [0]
    real = _ode._fixed_steps

    def spy(*args):
        out = real(*args)
        calls[0] += 1
        steps[0] += out[2] + (out[1] is not None)  # a failed step ran too
        return out

    monkeypatch.setattr(_ode, "_fixed_steps", spy)
    _ode.transfer_batch(w, 0.0, 1.0, identity(Es.shape), rtol=1e-12)
    assert calls[0] > 1
    assert evaluations[0] == 11 * steps[0] + calls[0]


def test_propagate_evaluates_q_five_times_per_attempted_step(V_ref):
    # q(x0) once, then per attempted step, accepted or rejected, the nodes
    # x + c h for c = 0.2, 0.3, 0.8, 8/9 and 1, where stages 6 and 7 share
    # the end node and the next step's first stage reuses it (FSAL)
    q0 = V_ref.evaluator()
    xs = []

    def q(x):
        xs.append(x)
        return q0(x)

    _, _, nsteps = _ode.propagate(q, 4.4, 0.0, 1.0, rtol=1e-10)
    attempts, rest = divmod(len(xs) - 1, 5)
    assert rest == 0
    assert attempts > nsteps  # some step was rejected and still made 5 calls
    assert xs[0] == 0.0
    nodes = np.array(xs[1:]).reshape(attempts, 5)
    h = (nodes[:, 4] - nodes[:, 0]) / (1.0 - _C2)
    x = nodes[:, 4] - h
    want = x[:, None] + h[:, None] * np.array([_C2, _C3, _C4, _C5, 1.0])
    assert np.abs(nodes - want).max() <= 1e-14


def band_scan_nodes():
    """The 221 nodes of the reference band-scan model: 13 panels of degree
    16 over [-2.503, 45.5]."""
    bounds = np.linspace(-2.503, 45.5, 14)
    mid, half = 0.5 * (bounds[1:] + bounds[:-1]), 0.5 * np.diff(bounds)
    return (mid[:, None] + half[:, None] * chebpts1(17)).ravel()


def segment_cases(V_ref):
    """name -> (w, y0, rtol): the band-scan nodes, complex energies shaped
    like the Stokes strip, and unit blocks with one w(t) per member like
    _block_transfers."""
    q = V_ref.array_evaluator()
    Es = band_scan_nodes()
    Ez = 12.0 + 9.0 * chebpts1(65) + 1.5j * np.sin(np.arange(65.0))
    phases = np.linspace(0.0, 2.0 * math.pi, 300, endpoint=False)
    return {
        "energies": (lambda t: q(t) - Es, identity(Es.shape), 1e-12),
        "complex": (lambda t: q(t) - Ez, identity(Ez.shape, complex), 1e-12),
        "blocks": (lambda t: q(t) - 4.4 + 4.8 * np.cos(0.2 * t + phases),
                   identity(phases.shape), 1e-8),
    }


@pytest.mark.parametrize("case", ["energies", "complex", "blocks"])
def test_segmented_transfer_batch_matches_the_single_segment_one(case, V_ref):
    w, y0, rtol = segment_cases(V_ref)[case]
    assert _ode.segment_count(y0.shape[1]) > 1
    y = _ode.transfer_batch(w, 0.0, 1.0, y0, rtol=rtol)
    want = reference_transfer_batch(w, 0.0, 1.0, y0, rtol, rtol * 1e-2)
    assert y.shape == want.shape and y.dtype == want.dtype
    scale = np.maximum(1.0, np.abs(want).max(axis=0))
    assert np.all(np.abs(y - want) <= rtol * scale)
    if case == "energies":
        # the lowest, a middle and the highest node against mpmath, at two
        # digits beyond a double
        Es = band_scan_nodes()
        for j in (0, 110, 220):
            delta = mp_discriminant(V_ref, float(Es[j]), dps=18)
            assert abs(y[0, j] + y[3, j] - delta) <= 1e-12 * max(1.0, abs(delta))


def test_segment_count_keeps_the_batch_within_a_chunk():
    assert [_ode.segment_count(m) for m in (1, 128, 129, 256, 1024, 1025)] \
        == [16, 16, 8, 8, 2, 1]
    for m in (1, 7, 100, 300, 1000, _ode.CHUNK):
        S = _ode.segment_count(m)
        assert S * m <= _ode.CHUNK and (S == 16 or 2 * S * m > _ode.CHUNK)


def test_transfer_batch_refuses_step_counts_over_the_budget(monkeypatch):
    # w jumps from 0 to -900 k at t = 0.03: each attempt fails at its
    # first step across the jump, and each re-plan may ask for ten times
    # the steps of the one before
    k = np.arange(1.0, 51.0)
    counts = []
    real = _ode._fixed_steps

    def spy(w, w0, t0, t1, n, *rest):
        counts.append(n)
        return real(w, w0, t0, t1, n, *rest)

    monkeypatch.setattr(_ode, "_fixed_steps", spy)
    with pytest.raises(ConvergenceFailure,
                       match=f"step budget of {_ode._MAX_STEPS}"):
        _ode.transfer_batch(lambda t: np.where(t < 0.03, 0.0, -900.0 * k),
                            0.0, 1.0, identity(k.shape))
    assert counts and max(counts) <= _ode._MAX_STEPS


def executed_steps(monkeypatch):
    """Spy on _fixed_steps: a list that gets (step count, steps executed,
    passed) per call, a failed step counting as executed."""
    log = []
    real = _ode._fixed_steps

    def spy(*args):
        out = real(*args)
        log.append((args[4], out[2] + (out[1] is not None), out[1] is None))
        return out

    monkeypatch.setattr(_ode, "_fixed_steps", spy)
    return log


def test_reference_band_fill_takes_few_steps_per_segment(V_ref, monkeypatch):
    # the 33 nodes of the reference scan run as 16 segments; DOPRI5 took
    # 68 steps per segment at node_tol 1e-12, DOP853 takes 4 (one failed)
    log = executed_steps(monkeypatch)
    hill.DiscriminantModel(V_ref, -2.55, 45.5, node_tol=1e-12)
    assert log[-1][2] and sum(steps for _, steps, _ in log) <= 8, log


def test_verify_phase_models_pass_their_first_step_count(V_ref, W_ref, E_ref,
                                                         monkeypatch):
    # the three direct runs of the reference verify: 400 periods at each
    # epsilon, tol 1e-8; every fill passes in the first attempt
    for eps in (0.2, 0.1, 0.05):
        log = executed_steps(monkeypatch)
        nblocks = cocycle.unit_blocks(400 * 2.0 * math.pi / eps)
        cocycle.PhaseModel(V_ref, W_ref, eps, E_ref, 0.0, 1e-8, nblocks)
        assert log and all(passed for _, _, passed in log), (eps, log)


def test_block_transfers_at_tol_1e8_within_1e10_of_a_tight_run(V_ref, W_ref,
                                                               E_ref):
    # DOPRI5 missed this by 2.3e-10
    phases = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    G = cocycle._block_transfers(V_ref, W_ref, 0.2, E_ref, 0.37, phases, 1e-8)
    tight = cocycle._block_transfers(V_ref, W_ref, 0.2, E_ref, 0.37, phases,
                                     1e-13)
    assert np.abs(G - tight).max() <= 1e-10


# ---------------------------------------------------------------------------
# the 2x2 product and fold of the product kernel


def four_temporaries(left, right):
    """The elementwise 2x2 product as four fresh row expressions."""
    a, b, c, d = left
    e, f, g, h = right
    return np.array([a * e + b * g, a * f + b * h, c * e + d * g,
                     c * f + d * h])


def _rows(rng, shape, complex_: bool):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if complex_ else x


@pytest.mark.parametrize("kinds", [(False, False), (True, True),
                                   (False, True), (True, False)])
def test_mul_writes_the_four_temporary_product_bit_for_bit(kinds):
    # real and complex rows, strided halves as the fold passes them, and
    # the kernel's (4, runs, 1) carry on the right
    rng = np.random.default_rng(11)
    left, right = (_rows(rng, (4, 3, 258), k) for k in kinds)
    carry = _rows(rng, (4, 3, 1), kinds[1])
    for x, y in ((left, right), (left[..., 1::2], left[..., 0::2]),
                 (left, carry)):
        got, want = _ode._mul(x, y), four_temporaries(x, y)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("stride, n", [(8, 8 * 37), (8, 8 * 37 + 5),
                                       (7, 40), (1, 9), (64, 30)])
def test_grouped_fold_equals_per_run_folds_bit_for_bit(stride, n):
    rng = np.random.default_rng(stride + n)
    for complex_ in (False, True):
        rows = _rows(rng, (4, 2, 3, n), complex_)
        got = _ode._fold(rows, stride)
        assert got.shape == (4, 2, 3, -(-n // stride))
        for i in range(2):
            for j in range(3):
                assert (got[:, i, j].tobytes()
                        == _ode._fold(rows[:, i, j], stride).tobytes())
