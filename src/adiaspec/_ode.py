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
  for the phase nodes and sampled unit blocks of a direct run's phase
  model and the many real energies of a Chebyshev discriminant model.
  The interval is cut into equal segments that run side by side as extra
  batch members, each from the identity, and their propagators are
  multiplied in order (``_fold``).  Every step of every member and
  segment passes the same embedded error test as ``propagate``, scaled by
  that segment's own state.  A step keeps the state and its seven stage
  derivatives in one buffer and forms each stage state, the solution and
  the error estimate as one matrix product of a tableau row with it;
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
# the same tableau as arrays for transfer_batch: row s - 2 of _A weights
# k1..k6 in the state of stage s = 2..7, stage 7's state being the
# 5th-order solution (FSAL), and _E weights k1..k7 in the error estimate
_C = (_C2, _C3, _C4, _C5)
_A = np.array([
    [_A21, 0.0, 0.0, 0.0, 0.0, 0.0],
    [_A31, _A32, 0.0, 0.0, 0.0, 0.0],
    [_A41, _A42, _A43, 0.0, 0.0, 0.0],
    [_A51, _A52, _A53, _A54, 0.0, 0.0],
    [_A61, _A62, _A63, _A64, _A65, 0.0],
    [_B1, 0.0, _B3, _B4, _B5, _B6],
])
_E = np.array([_E1, 0.0, _E3, _E4, _E5, _E6, _E7])

_MAX_STEPS = 5_000_000
# most members one transfer_batch call takes from its callers (energies),
# and most members times segments it integrates side by side; bounds the
# memory of a batch, and fixes where chunks start whatever the caller's
# thread count.  cocycle._log_norms, the product kernel of both
# Lyapunov exponents, reads each run's factors (cocycle factors, or unit
# blocks from a direct run's phase model) in chunks of this size too (of
# 512, 2048 and 16384, the fastest to read and fold Herman factors), and
# scans at most this many block products of stride factors at once
CHUNK = 2048
# transfer_batch gives up after this many step counts, each one between
# _MIN_GROWTH and _MAX_GROWTH times the one before
_MAX_ATTEMPTS = 12
_MIN_GROWTH, _MAX_GROWTH = 1.25, 10.0
# most segments transfer_batch cuts its interval into
_MAX_SEGMENTS = 16


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
        # stage 7 (FSAL) at the candidate point, where stage 6 took w
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


def first_step_count(span, wmax):
    """Steps of ``propagate``'s initial size, 0.35 / (1 + sqrt|w|) at the
    largest |w| = wmax, that cover an interval of length span."""
    return math.ceil(span / min(span, 0.35 / (1.0 + wmax ** 0.5)))


def segment_count(members: int) -> int:
    """S, the segments ``transfer_batch`` cuts its interval into for a
    batch of this many members: the largest power of two up to
    ``_MAX_SEGMENTS`` with S * members <= ``CHUNK`` (1 beyond a chunk)."""
    S = _MAX_SEGMENTS
    while S > 1 and S * members > CHUNK:
        S //= 2
    return S


def transfer_batch(w, t0, t1, y0, rtol=1e-10, atol=1e-12):
    """Advance a batch of fundamental systems over the shared interval [t0, t1].

    ``y0`` is the initial state, shape (4, ...), rows (a, b, c, d), and is
    not modified.  Returns the final state, of the shape of ``y0`` and
    complex when ``y0`` or ``w`` is.

    The interval is cut into S equal segments, S = ``segment_count`` of the
    member count, which run side by side as extra batch members, each from
    the identity.  ``w(t)`` gives q - E at an array t of shape (S, 1, ...),
    one time per segment, for every member: an array broadcasting against
    (S,) + ``y0[0].shape`` (a scalar when all members and segments share
    it).  The segments' 2x2 propagators are multiplied in order by
    ``_fold`` and applied to ``y0``.

    Each step count runs in ``_fixed_steps``, which holds the state and the
    seven stage derivatives in one (8, 4, S, ...) buffer: at most 8 * 4 *
    CHUNK entries, 1 MiB complex.  A step evaluates w five times, at t + c h
    for c = 0.2, 0.3, 0.8, 8/9 and at the end node, which stages 6 and 7
    share and the next step's first stage reuses.  Measured on a shared
    2-CPU Xeon VM, a step on energies of the reference trig V costs about
    65 us plus 90 ns per real member and segment, or 55 us plus 190 ns per
    complex one, w included.

    All segments take the same steps.  The first step count follows
    ``propagate``'s initial-step rule on one segment, with the largest
    |w| at the segment starts.  Every step of every member and segment must
    pass ``propagate``'s scaled-RMS embedded error test, scaled by that
    segment's own state.  At the first step where one does not, the batch
    keeps the state after the steps already accepted and re-plans only the
    rest of the segments: their remaining step count is scaled from the
    failed step's worst RMS error as ``propagate`` scales its step
    (err**(1/5) / 0.9, the estimate being fifth order in h), but by no
    less than ``_MIN_GROWTH`` and no more than ``_MAX_GROWTH``.  Raises
    ConvergenceFailure after ``_MAX_ATTEMPTS`` step counts, before any
    attempt of more than ``propagate``'s step budget ``_MAX_STEPS`` per
    segment, and at once when an error estimate is not finite.
    """
    if not (t1 > t0):
        raise InvalidInputError(f"need t1 > t0, got [{t0}, {t1}]")
    y0 = np.asarray(y0)
    batch = y0.shape[1:]
    S = segment_count(math.prod(batch))
    cuts = t0 + (t1 - t0) / S * np.arange(S + 1.0)
    cuts[-1] = t1
    shape = (S,) + (1,) * len(batch)
    t, ends = cuts[:-1].reshape(shape), cuts[1:].reshape(shape)
    w0 = w(t)
    wmax = float(np.max(np.abs(w0)))
    if not math.isfinite(wmax):
        raise ConvergenceFailure(
            f"non-finite potential at a segment start of [{t0}, {t1}]")
    n = first_step_count((t1 - t0) / S, wmax)
    y = np.zeros((4, S) + batch, np.result_type(y0, w0))
    y[0] = y[3] = 1.0
    err = None
    for _ in range(_MAX_ATTEMPTS):
        if n > _MAX_STEPS:
            raise ConvergenceFailure(
                f"{n} fixed steps on [{float(np.min(t))}, {t1}] per segment "
                f"exceed the step budget of {_MAX_STEPS}", achieved=err)
        y, err, i = _fixed_steps(w, w0, t, ends, n, y, rtol, atol)
        if err is None:
            # member-major columns, the segments of a member consecutive
            P = np.moveaxis(y.reshape(4, S, -1), 1, 2).reshape(4, -1)
            return _mul(_fold(P, S), y0.reshape(4, -1)).reshape(y0.shape)
        # resume at the node after the i accepted steps, as _fixed_steps
        # computes it, with a finer step on what is left
        start, last = t, n
        t = t + i * _step(t, ends, n)
        w0 = w(t)
        growth = min(_MAX_GROWTH, max(_MIN_GROWTH, err ** 0.2 / 0.9))
        n = math.ceil((n - i) * growth)
    raise ConvergenceFailure(
        f"{last} fixed steps on [{float(np.min(start))}, {t1}] per segment "
        f"still miss the tolerance",
        achieved=err,
    )


def _step(t0, t1, n):
    """The one step all segments [t0, t1] take in n steps: that of the
    longest, their lengths differing at most by rounding."""
    return float(np.max(t1 - t0)) / n


def _mul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Rows (a, b, c, d) of the elementwise 2x2 products left @ right."""
    a, b, c, d = left
    e, f, g, h = right
    return np.array([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h])


def _fold(rows: np.ndarray, stride: int) -> np.ndarray:
    """Products of each run of ``stride`` consecutive columns of ``rows``
    (the last run may be shorter), later factors on the left.

    The runs are multiplied together as a pairwise tree: log2(stride)
    batched products, no rescaling.
    """
    n = rows.shape[1]
    cut = n - n % stride
    groups = [rows[:, :cut].reshape(4, -1, stride)] if cut else []
    if cut < n:
        groups.append(rows[:, None, cut:])
    out = []
    for g in groups:
        while g.shape[2] > 1:
            w = g.shape[2]
            pairs = _mul(g[:, :, 1::2], g[:, :, 0:w - 1:2])
            g = pairs if w % 2 == 0 else np.concatenate(
                [pairs, g[:, :, -1:]], axis=2)
        out.append(g[:, :, 0])
    return np.concatenate(out, axis=1)


def _fixed_steps(w, w0, t0, t1, n, y, rtol, atol):
    """n equal DOPRI5 steps from t0 to t1: (final state, None, n), or, as
    soon as step i fails the error test, (state after the i accepted steps,
    that step's RMS error in units of the tolerance, i).  t0 and t1 are
    scalars, or arrays of segment ends that take one step (``_step``)
    together.

    A step keeps the state y and its seven stage derivatives k1..k7 as rows
    0-7 of one (8, 4, ...) buffer.  The state of each stage, the 5th-order
    solution among them, is one product of its tableau row with the buffer's
    rows before it, and the error estimate one product with k1..k7.  The
    accepted solution and k7 (FSAL) become the next step's y and k1.
    """
    h = _step(t0, t1, n)
    dtype = np.result_type(y, w0)
    K = np.empty((8,) + np.shape(y), dtype)
    # the products run on real views, a complex entry being two reals that
    # the same real tableau weight scales
    real = K.real.dtype
    rows = K.reshape(8, -1).view(real)
    # y's weight 1 before each row of h-scaled k-weights
    hA = np.column_stack((np.ones(6), h * _A))
    hE = h * _E
    Y, yn = np.empty_like(K[0]), np.empty_like(K[0])
    # stage s + 1 weighs rows 0..s into its state ys and writes k_{s+1} to
    # row s + 1
    stages = [(hA[s - 1, :s + 1], rows[:s + 1], ys, ys.reshape(-1).view(real),
               K[s + 1]) for s, ys in enumerate((Y,) * 5 + (yn,), 1)]
    e = np.empty(rows.shape[1], real)
    K[0] = y
    K[1, :2] = K[0, 2:]
    np.multiply(w0, K[0, :2], out=K[1, 2:])
    ay = np.abs(K[0])
    ayn, scale = np.empty_like(ay), np.empty_like(ay)
    for i in range(n):
        t = t0 + i * h
        for s, (a, k, ys, flat, ks) in enumerate(stages, 1):
            if s < 5:
                ws = w(t + _C[s - 1] * h)
            elif s == 5:
                # the last node lands on t1 exactly, not a rounding away
                # from it; stages 6 and 7 share it
                ws = w(t1 if i == n - 1 else t0 + (i + 1) * h)
            np.matmul(a, k, out=flat)
            ks[:2] = ys[2:]
            np.multiply(ws, ys[:2], out=ks[2:])
        np.matmul(hE, rows[1:], out=e)
        np.abs(yn, out=ayn)
        np.maximum(ay, ayn, out=scale)
        scale *= rtol
        scale += atol
        ratio = np.abs(e.view(dtype)).reshape(ay.shape)
        ratio /= scale
        ratio *= ratio
        worst = float(np.max(np.sum(ratio, axis=0)))
        if not math.isfinite(worst):
            raise ConvergenceFailure(
                f"non-finite error estimate at t={float(np.min(t))!r}")
        if worst > 4.0:  # 0.25 * sum > 1: the RMS test of propagate
            return K[0].copy(), math.sqrt(0.25 * worst), i
        K[0], K[1] = yn, K[7]
        ay, ayn = ayn, ay
    return K[0].copy(), None, n


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
