"""Propagation of the 2x2 fundamental system of -psi'' + q(x) psi = E psi.

The state is the fundamental matrix written as four entries

    (a, b, c, d)  =  [[psi_a, psi_b], [psi_a', psi_b']]

so the system reads a' = c, b' = d, c' = w a, d' = w b with w = q(x) - E.
Complex energies work through ordinary numeric promotion because q is only
ever evaluated at real x.

Three integration routes live here:

* ``propagate``: Dormand-Prince 5(4) on four scalars with per-step error
  control, for single smooth-potential solves (one-period Floquet maps,
  complex-energy continuation);
* ``transfer_batch``: the same tableau with a fixed step, advancing a whole
  batch of independent problems over one shared interval as numpy arrays,
  for the many unit blocks of a long adiabatic run and the many real
  energies of a Chebyshev discriminant model; every step of every member
  passes the same embedded error test as ``propagate``;
* ``constant_coefficient_step``: the exact whole-interval propagator for a
  constant potential, combined segment-by-segment for piecewise data.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceFailure, InvalidInputError

# Dormand-Prince 5(4) tableau.  b-row differences e_j give the embedded
# error estimate; stage 7 is FSAL.
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_MAX_STEPS = 5_000_000
# most members one transfer_batch call takes from its callers (unit blocks,
# energies); bounds the memory of a batch, and fixes where chunks start
# whatever the caller's thread count
CHUNK = 2048
# transfer_batch gives up after this many step counts, each one between
# _MIN_GROWTH and _MAX_GROWTH times the one before
_MAX_ATTEMPTS = 12
_MIN_GROWTH, _MAX_GROWTH = 1.25, 10.0


def propagate(q, E, x0, x1, rtol=1e-10, atol=1e-12, y0=(1.0, 0.0, 0.0, 1.0)):
    """Integrate the fundamental system from x0 to x1.

    q is a callable giving the (real) potential at real x.  Returns
    ``(y, err_accum, nsteps)`` where y is the final 4-tuple, err_accum a
    crude accumulated global error bound and nsteps the accepted step
    count.  Raises ConvergenceFailure when step size underflows before
    the local tolerance is met, or when the error estimate is not finite
    (a potential returning NaN or inf); the achieved per-step error (in
    units of the requested tolerance) is attached.
    """
    if not (x1 > x0):
        raise InvalidInputError(f"need x1 > x0, got [{x0}, {x1}]")
    a, b, c, d = y0
    x = x0
    w = q(x) - E
    k1a, k1b, k1c, k1d = c, d, w * a, w * b
    h = min(x1 - x0, 0.35 / (1.0 + abs(w) ** 0.5))
    err_accum = 0.0
    nsteps = 0
    while x < x1:
        # snap the final step onto the endpoint: x += h below can land a
        # few ulps short of x1, and the leftover sliver would then trip
        # the underflow guard on the next pass
        last = h >= x1 - x
        if last:
            h = x1 - x
        if h < 5e-14 * max(1.0, abs(x)) and not last:
            raise ConvergenceFailure(
                f"step size underflow at x={x!r}", achieved=err_accum
            )
        # stage 2
        ya = a + h * (_A21 * k1a)
        yb = b + h * (_A21 * k1b)
        yc = c + h * (_A21 * k1c)
        yd = d + h * (_A21 * k1d)
        w = q(x + _C2 * h) - E
        k2a, k2b, k2c, k2d = yc, yd, w * ya, w * yb
        # stage 3
        ya = a + h * (_A31 * k1a + _A32 * k2a)
        yb = b + h * (_A31 * k1b + _A32 * k2b)
        yc = c + h * (_A31 * k1c + _A32 * k2c)
        yd = d + h * (_A31 * k1d + _A32 * k2d)
        w = q(x + _C3 * h) - E
        k3a, k3b, k3c, k3d = yc, yd, w * ya, w * yb
        # stage 4
        ya = a + h * (_A41 * k1a + _A42 * k2a + _A43 * k3a)
        yb = b + h * (_A41 * k1b + _A42 * k2b + _A43 * k3b)
        yc = c + h * (_A41 * k1c + _A42 * k2c + _A43 * k3c)
        yd = d + h * (_A41 * k1d + _A42 * k2d + _A43 * k3d)
        w = q(x + _C4 * h) - E
        k4a, k4b, k4c, k4d = yc, yd, w * ya, w * yb
        # stage 5
        ya = a + h * (_A51 * k1a + _A52 * k2a + _A53 * k3a + _A54 * k4a)
        yb = b + h * (_A51 * k1b + _A52 * k2b + _A53 * k3b + _A54 * k4b)
        yc = c + h * (_A51 * k1c + _A52 * k2c + _A53 * k3c + _A54 * k4c)
        yd = d + h * (_A51 * k1d + _A52 * k2d + _A53 * k3d + _A54 * k4d)
        w = q(x + _C5 * h) - E
        k5a, k5b, k5c, k5d = yc, yd, w * ya, w * yb
        # stage 6
        ya = a + h * (_A61 * k1a + _A62 * k2a + _A63 * k3a + _A64 * k4a + _A65 * k5a)
        yb = b + h * (_A61 * k1b + _A62 * k2b + _A63 * k3b + _A64 * k4b + _A65 * k5b)
        yc = c + h * (_A61 * k1c + _A62 * k2c + _A63 * k3c + _A64 * k4c + _A65 * k5c)
        yd = d + h * (_A61 * k1d + _A62 * k2d + _A63 * k3d + _A64 * k4d + _A65 * k5d)
        w = q(x + h) - E
        k6a, k6b, k6c, k6d = yc, yd, w * ya, w * yb
        # 5th-order solution
        na = a + h * (_B1 * k1a + _B3 * k3a + _B4 * k4a + _B5 * k5a + _B6 * k6a)
        nb = b + h * (_B1 * k1b + _B3 * k3b + _B4 * k4b + _B5 * k5b + _B6 * k6b)
        nc = c + h * (_B1 * k1c + _B3 * k3c + _B4 * k4c + _B5 * k5c + _B6 * k6c)
        nd = d + h * (_B1 * k1d + _B3 * k3d + _B4 * k4d + _B5 * k5d + _B6 * k6d)
        # stage 7 (FSAL) at the candidate point
        w = q(x + h) - E
        k7a, k7b, k7c, k7d = nc, nd, w * na, w * nb
        # embedded error estimate
        ea = h * (_E1 * k1a + _E3 * k3a + _E4 * k4a + _E5 * k5a + _E6 * k6a + _E7 * k7a)
        eb = h * (_E1 * k1b + _E3 * k3b + _E4 * k4b + _E5 * k5b + _E6 * k6b + _E7 * k7b)
        ec = h * (_E1 * k1c + _E3 * k3c + _E4 * k4c + _E5 * k5c + _E6 * k6c + _E7 * k7c)
        ed = h * (_E1 * k1d + _E3 * k3d + _E4 * k4d + _E5 * k5d + _E6 * k6d + _E7 * k7d)
        sa = atol + rtol * max(abs(a), abs(na))
        sb = atol + rtol * max(abs(b), abs(nb))
        sc_ = atol + rtol * max(abs(c), abs(nc))
        sd = atol + rtol * max(abs(d), abs(nd))
        err = math.sqrt(
            0.25
            * (
                (abs(ea) / sa) ** 2
                + (abs(eb) / sb) ** 2
                + (abs(ec) / sc_) ** 2
                + (abs(ed) / sd) ** 2
            )
        )
        if not math.isfinite(err):
            raise ConvergenceFailure(
                f"non-finite error estimate at x={x!r}", achieved=err_accum
            )
        if err <= 1.0:
            x = x1 if last else x + h
            a, b, c, d = na, nb, nc, nd
            k1a, k1b, k1c, k1d = k7a, k7b, k7c, k7d
            err_accum += max(abs(ea), abs(eb), abs(ec), abs(ed))
            nsteps += 1
            if nsteps > _MAX_STEPS:
                raise ConvergenceFailure(
                    f"step budget exhausted at x={x!r}", achieved=err_accum
                )
            if err == 0.0:
                h *= 5.0
            else:
                h *= min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            h *= max(0.1, min(1.0, 0.9 * err ** -0.2))
    return (a, b, c, d), err_accum, nsteps


def transfer_batch(w, t0, t1, y0, rtol=1e-10, atol=1e-12):
    """Advance a batch of fundamental systems over the shared interval [t0, t1].

    ``w(t)`` gives q - E at a real scalar t for every member of the batch,
    as an array broadcasting against ``y0[0]`` (a scalar when all members
    share it).  ``y0`` is the initial state, shape (4, ...), rows
    (a, b, c, d).  Returns the final state.

    The first step count follows ``propagate``'s initial-step rule with the
    largest |w(t0)| of the batch.  Every step of every member must pass
    ``propagate``'s scaled-RMS embedded error test; at the first step where
    one does not, the whole batch restarts with a step count scaled from
    that step's worst RMS error as ``propagate`` scales its step
    (err**(1/5) / 0.9, the estimate being fifth order in h), but by no less
    than ``_MIN_GROWTH`` and no more than ``_MAX_GROWTH``.  Raises
    ConvergenceFailure after ``_MAX_ATTEMPTS`` step counts, and at once when
    an error estimate is not finite.
    """
    if not (t1 > t0):
        raise InvalidInputError(f"need t1 > t0, got [{t0}, {t1}]")
    w0 = w(t0)
    wmax = float(np.max(np.abs(w0)))
    if not math.isfinite(wmax):
        raise ConvergenceFailure(f"non-finite potential at t={t0!r}")
    span = t1 - t0
    n = math.ceil(span / min(span, 0.35 / (1.0 + wmax ** 0.5)))
    y0 = np.asarray(y0, dtype=np.result_type(y0, w0))
    for _ in range(_MAX_ATTEMPTS):
        y, err = _fixed_steps(w, w0, t0, t1, n, y0, rtol, atol)
        if y is not None:
            return y
        last = n
        growth = min(_MAX_GROWTH, max(_MIN_GROWTH, err ** 0.2 / 0.9))
        n = math.ceil(n * growth)
    raise ConvergenceFailure(
        f"{last} fixed steps on [{t0}, {t1}] still miss the tolerance",
        achieved=err,
    )


def _rhs(w, y):
    return np.concatenate((y[2:], w * y[:2]))


def _fixed_steps(w, w0, t0, t1, n, y, rtol, atol):
    """n equal DOPRI5 steps: (final state, None), or (None, RMS error in
    units of the tolerance) as soon as one step fails the error test."""
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
        # the last node lands on t1 exactly, not a rounding away from it
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
        if worst > 4.0:  # 0.25 * sum > 1: the RMS test of propagate
            return None, math.sqrt(0.25 * worst)
        y, k1, ay = yn, k7, ayn
    return y, None


def constant_coefficient_step(w, length):
    """Exact propagator factors over one interval of constant w = v - E.

    Returns (C, S) with the step matrix [[C, S], [w S, C]]; det = 1 holds
    identically.  Real w takes real branches so real energies never pick
    up spurious imaginary parts; the |u| < 1e-4 series keeps the w -> 0
    crossover smooth to full precision.
    """
    u = w * length * length
    if abs(u) < 1e-4:
        C = 1.0 + u * (0.5 + u * (1.0 / 24.0 + u / 720.0))
        S = length * (1.0 + u * (1.0 / 6.0 + u * (1.0 / 120.0 + u / 5040.0)))
        return C, S
    if isinstance(w, complex):
        omega = cmath.sqrt(-w)
        z = omega * length
        return cmath.cos(z), length * cmath.sin(z) / z
    if w < 0.0:
        omega = math.sqrt(-w)
        z = omega * length
        return math.cos(z), math.sin(z) / omega
    mu = math.sqrt(w)
    z = mu * length
    return math.cosh(z), math.sinh(z) / mu
