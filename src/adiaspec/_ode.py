"""Propagation of the 2x2 fundamental system of -psi'' + q(x) psi = E psi.

The state is the fundamental matrix written as four entries

    (a, b, c, d)  =  [[psi_a, psi_b], [psi_a', psi_b']]

so the system reads a' = c, b' = d, c' = w a, d' = w b with w = q(x) - E.
Complex energies work through ordinary numeric promotion because q is only
ever evaluated at real x.

Three integration routes live here, on two Dormand-Prince tableaux:

* ``propagate``: Dormand-Prince 5(4) (DOPRI5) on four scalars with
  per-step error control, for single smooth-potential solves (one-period
  Floquet maps, the band-edge polish, complex-energy continuation);
* ``transfer_batch``: Dormand-Prince 8(5, 3) (DOP853) with a fixed step,
  advancing a whole batch of independent problems over one shared
  interval as numpy arrays, for the phase nodes and sampled unit blocks
  of a direct run's phase model and the many real energies of a
  Chebyshev discriminant model.  The interval is cut into equal segments
  that run side by side as extra batch members, each from the identity,
  and their propagators are multiplied in order (``_fold``).  Every step
  of every member and segment passes Hairer's combined 5th/3rd-order
  error test in ``propagate``'s scaled-RMS units, scaled by that
  segment's own state.  A step keeps the state and its thirteen stage
  derivatives in one buffer and forms each stage state, the solution and
  the two error estimates as products of tableau rows with it.  At equal
  tolerance it is the more accurate: on the reference trig V, unit blocks
  at tol 1e-8 land within 1.7e-11 of a tol-1e-13 integration, where
  DOPRI5 steps land within 2.4e-10, and discriminants at tol 1e-10 are
  within 1.3e-12 (real E) and 1.5e-13 (complex E) of mpmath's, against
  1.1e-11 for DOPRI5 steps; at tol 1e-12 both are near rounding
  (5.1e-14 against 3.0e-14 on real E, 5.1e-15 against 2.9e-14 complex);
* ``constant_coefficient_step``: the exact whole-interval propagator for a
  constant potential, combined segment-by-segment for piecewise data.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceFailure, InvalidInputError

# Dormand-Prince 5(4) tableau of propagate.  b-row differences e_j give the
# embedded error estimate; stage 7 is FSAL.
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


def _table(text):
    """The rows of a tableau written as text, each row ending in ';', as a
    float array with every row padded by zeros to 12 columns."""
    rows = [[float(v) for v in row.split()] for row in text.split(";")[:-1]]
    return np.array([row + [0.0] * (12 - len(row)) for row in rows])


# Dormand-Prince 8(5, 3) tableau (DOP853; Hairer, Norsett & Wanner,
# Solving ODEs I, section II.5) of transfer_batch, as published.  Row
# s - 2 of _A853 weights k1..k(s-1) in the state of stage s = 2..13, stage
# 13's state being the 8th-order solution, whose derivative k13 is the
# next step's k1 (FSAL).  _C853 holds the nodes of stages 2..11; stages 12
# and 13 take the end node.  The rows of _E853 weight k1..k12 in the 5th-
# and the 3rd-order error estimate.  Parsed from text at import, which
# costs start-up less than compiling them as literals
_C853 = tuple(float(c) for c in """
    0.526001519587677318785587544488e-01 0.789002279381515978178381316732e-01
    0.118350341907227396726757197510 0.281649658092772603273242802490
    0.333333333333333333333333333333 0.25 0.307692307692307692307692307692
    0.651282051282051282051282051282 0.6 0.857142857142857142857142857142
""".split())
_A853 = _table("""
    5.26001519587677318785587544488e-2;
    1.97250569845378994544595329183e-2 5.91751709536136983633785987549e-2;
    2.95875854768068491816892993775e-2 0 8.87627564304205475450678981324e-2;
    2.41365134159266685502369798665e-1 0 -8.84549479328286085344864962717e-1
    9.24834003261792003115737966543e-1;
    3.7037037037037037037037037037e-2 0 0 1.70828608729473871279604482173e-1
    1.25467687566822425016691814123e-1;
    3.7109375e-2 0 0 1.70252211019544039314978060272e-1
    6.02165389804559606850219397283e-2 -1.7578125e-2;
    3.70920001185047927108779319836e-2 0 0 1.70383925712239993810214054705e-1
    1.07262030446373284651809199168e-1 -1.53194377486244017527936158236e-2
    8.27378916381402288758473766002e-3;
    6.24110958716075717114429577812e-1 0 0 -3.36089262944694129406857109825
    -8.68219346841726006818189891453e-1 2.75920996994467083049415600797e1
    2.01540675504778934086186788979e1 -4.34898841810699588477366255144e1;
    4.77662536438264365890433908527e-1 0 0 -2.48811461997166764192642586468
    -5.90290826836842996371446475743e-1 2.12300514481811942347288949897e1
    1.52792336328824235832596922938e1 -3.32882109689848629194453265587e1
    -2.03312017085086261358222928593e-2;
    -9.3714243008598732571704021658e-1 0 0 5.18637242884406370830023853209
    1.09143734899672957818500254654 -8.14978701074692612513997267357
    -1.85200656599969598641566180701e1 2.27394870993505042818970056734e1
    2.49360555267965238987089396762 -3.0467644718982195003823669022;
    2.27331014751653820792359768449 0 0 -1.05344954667372501984066689879e1
    -2.00087205822486249909675718444 -1.79589318631187989172765950534e1
    2.79488845294199600508499808837e1 -2.85899827713502369474065508674
    -8.87285693353062954433549289258 1.23605671757943030647266201528e1
    6.43392746015763530355970484046e-1;
    5.42937341165687622380535766363e-2 0 0 0 0
    4.45031289275240888144113950566 1.89151789931450038304281599044
    -5.8012039600105847814672114227 3.1116436695781989440891606237e-1
    -1.52160949662516078556178806805e-1 2.01365400804030348374776537501e-1
    4.47106157277725905176885569043e-2;
""")
_E853 = _table("""
    0.1312004499419488073250102996e-1 0 0 0 0
    -0.1225156446376204440720569753e+1 -0.4957589496572501915214079952
    0.1664377182454986536961530415e+1 -0.3503288487499736816886487290
    0.3341791187130174790297318841 0.8192320648511571246570742613e-1
    -0.2235530786388629525884427845e-1;
    0.244094488188976377952755905512 0 0 0 0 0 0 0
    0.733846688281611857341361741547 0 0 0.220588235294117647058823529412e-1;
""")
# the 3rd-order weights: the solution's less the embedded bhh1..bhh3
_E853[1] = _A853[-1] - _E853[1]

_MAX_STEPS = 5_000_000
# most members one transfer_batch call takes from its callers (energies),
# and most members times segments it integrates side by side; bounds the
# memory of a batch (its 14-row stage buffer holds at most 1.75 MiB
# complex), and fixes where chunks start whatever the caller's
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
    thirteen stage derivatives in one (14, 4, S, ...) buffer: at most 14 *
    4 * CHUNK entries, 1.75 MiB complex.  A step evaluates w eleven times,
    at the ten nodes t + c h of stages 2-11 and at the end node, which
    stages 12 and 13 share and the next step's first stage reuses.
    Measured on a shared 2-CPU Xeon VM, a step on energies of the
    reference trig V costs about 190 us plus 215 ns per real member and
    segment, or 200 us plus 390 ns per complex one, w included, about
    twice a DOPRI5 step (105 us plus 85 ns and 185 ns, timed alongside);
    at node tolerance 1e-12 the reference band-scan fill executes 4 steps
    per segment.

    All segments take the same steps.  The first step count follows
    ``propagate``'s initial-step rule on one segment, with the largest
    |w| at the segment starts.  Every step of every member and segment must
    pass the error test of ``_fixed_steps``, scaled by that segment's own
    state.  At the first step where one does not, the batch keeps the
    state after the steps already accepted and re-plans only the rest of
    the segments: their remaining step count is scaled from the failed
    step's worst error as DOP853 scales its step (err**(1/8) / 0.9, the
    estimate being eighth order in h), but by no less than ``_MIN_GROWTH``
    and no more than ``_MAX_GROWTH``.  Raises
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
        growth = min(_MAX_GROWTH, max(_MIN_GROWTH, err ** 0.125 / 0.9))
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
    """n equal DOP853 steps from t0 to t1: (final state, None, n), or, as
    soon as step i fails the error test, (state after the i accepted steps,
    that step's error in units of the tolerance, i).  t0 and t1 are
    scalars, or arrays of segment ends that take one step (``_step``)
    together.

    A step keeps the state y and its thirteen stage derivatives k1..k13 as
    rows 0-13 of one (14, 4, ...) buffer.  The state of each stage, the
    8th-order solution among them, is one product of its tableau row with
    the buffer's rows before it, and the 5th- and 3rd-order error estimates
    e5 and e3 one product with k1..k12.  The error is Hairer's combination
    sqrt(s5^2 / (4 (s5 + 0.01 s3))) per member and segment, s5 and s3 being
    the sums of the squares of e5 and e3 over its four entries, each scaled
    by atol + rtol max(|y|, |y_new|).  The accepted solution and k13 (FSAL)
    become the next step's y and k1.
    """
    h = _step(t0, t1, n)
    dtype = np.result_type(y, w0)
    K = np.empty((14,) + np.shape(y), dtype)
    # the products run on real views, a complex entry being two reals that
    # the same real tableau weight scales
    real = K.real.dtype
    rows = K.reshape(14, -1).view(real)
    # y's weight 1 before each row of h-scaled k-weights
    hA = np.column_stack((np.ones(12), h * _A853))
    hE = h * _E853
    Y, yn = np.empty_like(K[0]), np.empty_like(K[0])
    # stage s weighs rows 0..s-1 into its state ys and writes k_s to row s
    stages = [(hA[s - 2, :s], rows[:s], ys, ys.reshape(-1).view(real), K[s])
              for s, ys in enumerate((Y,) * 11 + (yn,), 2)]
    e = np.empty((2, rows.shape[1]), real)
    tiny = np.finfo(real).tiny
    K[0] = y
    K[1, :2] = K[0, 2:]
    np.multiply(w0, K[0, :2], out=K[1, 2:])
    ay = np.abs(K[0])
    ayn, scale = np.empty_like(ay), np.empty_like(ay)
    for i in range(n):
        t = t0 + i * h
        for s, (a, k, ys, flat, ks) in enumerate(stages, 2):
            if s < 12:
                ws = w(t + _C853[s - 2] * h)
            elif s == 12:
                # the last node lands on t1 exactly, not a rounding away
                # from it; stages 12 and 13 share it
                ws = w(t1 if i == n - 1 else t0 + (i + 1) * h)
            np.matmul(a, k, out=flat)
            ks[:2] = ys[2:]
            np.multiply(ws, ys[:2], out=ks[2:])
        np.matmul(hE, rows[1:13], out=e)
        np.abs(yn, out=ayn)
        np.maximum(ay, ayn, out=scale)
        scale *= rtol
        scale += atol
        ratio = np.abs(e.view(dtype)).reshape((2,) + ay.shape)
        ratio /= scale
        ratio *= ratio
        s5, s3 = np.sum(ratio, axis=1)
        # s5 / sqrt(s5 + 0.01 s3) is twice the error; tiny keeps 0 / 0 at 0
        s3 *= 0.01
        s3 += s5
        s3 += tiny
        np.sqrt(s3, out=s3)
        s5 /= s3
        worst = float(np.max(s5))
        if not math.isfinite(worst):
            raise ConvergenceFailure(
                f"non-finite error estimate at t={float(np.min(t))!r}")
        if worst > 2.0:
            return K[0].copy(), 0.5 * worst, i
        K[0], K[1] = yn, K[13]
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
