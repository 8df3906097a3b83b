"""The batched DOPRI5 kernel: the stage-buffer step against the
expression-per-stage step it replaced, segmented transfer_batch against the
single-segment one it replaced, and transfer_batch's broadcasting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebpts1

from adiaspec import _ode
from adiaspec._ode import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _C2, _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7,
)
from adiaspec.errors import ConvergenceFailure
from test_hill import mp_discriminant


def _rhs(w, y):
    return np.concatenate((y[2:], w * y[:2]))


def reference_fixed_steps(w, w0, t0, t1, n, y, rtol, atol):
    """The expression-per-stage step, kept as the oracle of _fixed_steps."""
    h = (t1 - t0) / n
    k1 = _rhs(w0, y)
    ay = np.abs(y)
    for i in range(n):
        t = t0 + i * h
        k2 = _rhs(w(t + _C2 * h), y + (h * _A21) * k1)
        k3 = _rhs(w(t + _C3 * h), y + (h * _A31) * k1 + (h * _A32) * k2)
        k4 = _rhs(w(t + _C4 * h),
                  y + (h * _A41) * k1 + (h * _A42) * k2 + (h * _A43) * k3)
        k5 = _rhs(w(t + _C5 * h),
                  y + (h * _A51) * k1 + (h * _A52) * k2 + (h * _A53) * k3
                  + (h * _A54) * k4)
        w1 = w(t1 if i == n - 1 else t0 + (i + 1) * h)
        k6 = _rhs(w1, y + (h * _A61) * k1 + (h * _A62) * k2 + (h * _A63) * k3
                  + (h * _A64) * k4 + (h * _A65) * k5)
        yn = (y + (h * _B1) * k1 + (h * _B3) * k3 + (h * _B4) * k4
              + (h * _B5) * k5 + (h * _B6) * k6)
        k7 = _rhs(w1, yn)
        e = ((h * _E1) * k1 + (h * _E3) * k3 + (h * _E4) * k4
             + (h * _E5) * k5 + (h * _E6) * k6 + (h * _E7) * k7)
        ayn = np.abs(yn)
        ratio = np.abs(e) / (atol + rtol * np.maximum(ay, ayn))
        worst = float(np.max(np.sum(ratio * ratio, axis=0)))
        if not math.isfinite(worst):
            raise ConvergenceFailure(f"non-finite error estimate at t={t!r}")
        if worst > 4.0:
            return y, math.sqrt(0.25 * worst), i
        y, k1, ay = yn, k7, ayn
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
        growth = min(_ode._MAX_GROWTH, max(_ode._MIN_GROWTH, err ** 0.2 / 0.9))
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
        # at rtol 1e-12, 973 steps fail at step 454 and 1216 pass
        "energies": (lambda t: q(t) - Es, identity(Es.shape), 1e-12,
                     [973, 1216, 220]),
        "complex": (lambda t: q(t) - Ez, identity(Ez.shape, complex), 1e-12,
                    [150, 600]),
        "blocks": (lambda t: q(t) - 4.4 + 4.8 * np.cos(0.2 * t + phases),
                   identity(phases.shape), 1e-8, [20, 80]),
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


def test_transfer_batch_evaluates_w_five_times_per_step(V_ref, monkeypatch):
    # nodes t + c h for c = 0.2, 0.3, 0.8, 8/9 and the end node, which
    # stages 6 and 7 share and the next step's first stage reuses (FSAL);
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
    _ode.transfer_batch(w, 0.0, 1.0, identity(Es.shape), rtol=1e-12, atol=1e-14)
    assert calls[0] > 1
    assert evaluations[0] == 5 * steps[0] + calls[0]


def test_propagate_evaluates_q_five_times_per_attempted_step(V_ref):
    # q(x0) once, then per attempted step, accepted or rejected, the nodes
    # x + c h for c = 0.2, 0.3, 0.8, 8/9 and 1, where stages 6 and 7 share
    # the end node and the next step's first stage reuses it (FSAL)
    q0 = V_ref.evaluator()
    xs = []

    def q(x):
        xs.append(x)
        return q0(x)

    _, _, nsteps = _ode.propagate(q, 4.4, 0.0, 1.0, rtol=1e-10, atol=1e-12)
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
    y = _ode.transfer_batch(w, 0.0, 1.0, y0, rtol=rtol, atol=rtol * 1e-2)
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
