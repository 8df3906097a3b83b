"""Root finding, quadrature and interpolation on numpy alone.

* ``bracketed_roots``: Chandrupatla's bracketing method on many brackets
  at once, with the stopping rule of Brent's method, for roots of
  array-valued models.
* ``gauss_kronrod``: globally adaptive 10-point Gauss / 21-point Kronrod
  quadrature, the QK21 rule and error estimate of QUADPACK (Piessens et
  al., 1983), on many intervals at once: their first panels in one
  integrand call, then the subinterval with the largest error bisected.
* ``CubicHermite``: piecewise cubic Hermite interpolation with given
  slopes.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import ConvergenceFailure

_EPS = float(np.finfo(float).eps)


def bracketed_roots(f, lo, hi, xtol: float, rtol: float = 4.0 * _EPS,
                    maxiter: int = 200):
    """Roots of the vectorised f, one per bracket [lo, hi] (f takes opposite
    signs at the ends; the brackets broadcast to the shape of f's values).

    f(x, i) takes points x and the index i of their brackets in that
    shape, so it can pick each bracket's own target: i is ``...`` (every
    bracket) for the ends lo and hi as given, then the boolean mask of the
    brackets still open, whose new points x holds in order.  Only those
    are evaluated; f must act on each point alone, as a model does.

    Chandrupatla's method (Adv. Eng. Softw. 28, 1997), all brackets at
    once: the next point comes from inverse quadratic interpolation
    through the last three where their values admit it, by bisection
    otherwise, and at least tol / 2 inside the bracket.  A bracket stops
    once it is no wider than tol = xtol + rtol |x| (the stopping rule of
    Brent's method) or an end hits a root; its end with the smaller |f| is
    returned.  ConvergenceFailure if a bracket is still open after
    `maxiter` steps.
    """
    x1 = np.asarray(lo, dtype=float)
    f1 = np.asarray(f(x1, ...), dtype=float)
    x1 = np.broadcast_to(x1, f1.shape)
    x2 = np.broadcast_to(np.asarray(hi, dtype=float), f1.shape)
    f2 = np.asarray(f(x2, ...), dtype=float)
    x3, f3 = x2, f2
    t = np.full(f1.shape, 0.5)
    for step in range(maxiter + 1):
        near = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(near, x1, x2), np.where(near, f1, f2)
        tol = xtol + rtol * np.abs(xm)
        width = np.abs(x2 - x1)
        active = (width > tol) & (fm != 0.0)
        if not active.any():
            return xm
        if step == maxiter:
            raise ConvergenceFailure(
                f"{int(active.sum())} of {active.size} brackets still open "
                f"after {maxiter} steps", achieved=float(np.max(width[active])))
        tl = 0.5 * tol / np.where(active, width, 1.0)
        x = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
        # closed brackets keep their values below, whatever fx holds there
        fx = f1.copy()
        fx[active] = f(x[active], active)
        # keep the end whose sign differs from the new point's; the other
        # end becomes the third point
        keep2 = np.sign(fx) == np.sign(f1)
        x3 = np.where(active, np.where(keep2, x1, x2), x3)
        f3 = np.where(active, np.where(keep2, f1, f2), f3)
        x2 = np.where(active & ~keep2, x1, x2)
        f2 = np.where(active & ~keep2, f1, f2)
        x1, f1 = np.where(active, x, x1), np.where(active, fx, f1)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            quadratic = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            alpha = (x3 - x1) / (x2 - x1)
            t = np.where(quadratic,
                         f1 / (f1 - f2) * f3 / (f3 - f2)
                         - alpha * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)


# QK21: Kronrod abscissae on [0, 1] (the 10-point Gauss ones at odd
# positions, 0-based), Kronrod weights, and Gauss weights of those
# abscissae, as published with QUADPACK's dqk21
_XGK = (0.995657163025808080735527280689003,
        0.973906528517171720077964012084452,
        0.930157491355708226001207180059508,
        0.865063366688984510732096688423493,
        0.780817726586416897063717578345042,
        0.679409568299024406234327365114874,
        0.562757134668604683339000099272694,
        0.433395394129247190799265943165784,
        0.294392862701460198131126603103866,
        0.148874338981631210884826001129720,
        0.000000000000000000000000000000000)
_WGK = (0.011694638867371874278064396062192,
        0.032558162307964727478818972459390,
        0.054755896574351996031381300244580,
        0.075039674810919952767043140916190,
        0.093125454583697605535065465083366,
        0.109387158802297641899210590325805,
        0.123491976262065851077208067173191,
        0.134709217311473325928054001771707,
        0.142775938577060080797094273138717,
        0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332,
       0.149451349150580593145776339657697,
       0.219086362515982043995534934228163,
       0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)

# the 21 nodes in ascending order, their Kronrod weights, and the Gauss
# weights on the same nodes (zero at the 11 Kronrod-only ones)
KRONROD_NODES = np.concatenate([-np.array(_XGK[:-1]), np.array(_XGK[::-1])])
KRONROD_WEIGHTS = np.concatenate([np.array(_WGK[:-1]), np.array(_WGK[::-1])])
_G = np.zeros(11)
_G[1:10:2] = _WG
GAUSS_WEIGHTS = np.concatenate([_G[:-1], _G[::-1]])


def _kronrod_sums(fv, half: float) -> tuple[float, float]:
    """(K21 value, QUADPACK error estimate) of a panel of half-width `half`
    from the integrand's values fv at its 21 nodes.

    The error is |K - G| scaled as in dqk21: resasc min(1, (200 |K - G| /
    resasc)^1.5), with resasc the K21 integral of |f - mean f|, and
    floored at 50 eps times the integral of |f|.
    """
    resk = float(KRONROD_WEIGHTS @ fv)
    resg = float(GAUSS_WEIGHTS @ fv)
    resabs = float(KRONROD_WEIGHTS @ np.abs(fv)) * abs(half)
    resasc = float(KRONROD_WEIGHTS @ np.abs(fv - 0.5 * resk)) * abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > np.finfo(float).tiny / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * half, err


def _qk21(f, i, a: float, b: float) -> tuple[float, float]:
    """``_kronrod_sums`` of interval i's subinterval [a, b]."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    return _kronrod_sums(
        np.asarray(f(center + half * KRONROD_NODES, i), dtype=float), half)


def gauss_kronrod(f, a, b, epsabs: float, epsrel: float,
                  limit: int = 200) -> list[tuple[float, float]]:
    """(integral, error estimate) of f over each interval [a_i, b_i] by
    adaptive QK21; a and b broadcast, read flat.

    f(u, i) takes points u and the index i of their intervals, as in
    ``bracketed_roots``: first i is ``...`` and u holds the 21 nodes of
    every interval's first panel, one row each; then i is one interval
    and u 21 of its nodes.  While an interval's summed error exceeds
    max(epsabs, epsrel |integral|), its subinterval with the largest
    error is bisected; ConvergenceFailure once `limit` subintervals have
    not reached it.
    """
    a, b = (np.ravel(v) for v in np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    fv = np.asarray(f(center[:, None] + half[:, None] * KRONROD_NODES, ...),
                    dtype=float)
    return [_bisect(f, i, float(a[i]), float(b[i]),
                    *_kronrod_sums(fv[i], float(half[i])),
                    epsabs=epsabs, epsrel=epsrel, limit=limit)
            for i in range(len(a))]


def _bisect(f, i, a: float, b: float, value: float, err: float, *,
            epsabs: float, epsrel: float, limit: int) -> tuple[float, float]:
    """Interval i of ``gauss_kronrod`` from its first panel's (value, err)."""
    # heap of (-error, a, b, value) over the current subintervals
    heap = [(-err, a, b, value)]
    total, total_err = value, err
    while total_err > max(epsabs, epsrel * abs(total)):
        if len(heap) >= limit:
            raise ConvergenceFailure(
                f"adaptive Gauss-Kronrod on [{a}, {b}] has error {total_err:.3g} "
                f"after {limit} subintervals, above max(epsabs {epsabs:.3g}, "
                f"epsrel {epsrel:.3g} |S|)", achieved=total_err)
        neg_err, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _qk21(f, i, lo, mid)
        v2, e2 = _qk21(f, i, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total += v1 + v2 - val
        total_err += e1 + e2 + neg_err
    if len(heap) > 1:
        total = sum(v for *_, v in heap)
        total_err = sum(-e for e, *_ in heap)
    return total, total_err


class CubicHermite:
    """Piecewise cubic through (x, y) with slopes `slopes` at the nodes;
    x strictly increasing.  Points outside [x[0], x[-1]] are extrapolated
    from the end pieces."""

    def __init__(self, x, y, slopes):
        x, y, s = (np.asarray(v, dtype=float) for v in (x, y, slopes))
        h = np.diff(x)
        secant = np.diff(y) / h
        t = (s[:-1] + s[1:] - 2.0 * secant) / h
        # power-basis coefficients of each piece in (X - x[i])
        self._x = x
        self._c = (t / h, (secant - s[:-1]) / h - t, s[:-1], y[:-1])

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        i = np.clip(np.searchsorted(self._x, xs, side="right") - 1,
                    0, len(self._x) - 2)
        u = xs - self._x[i]
        c3, c2, c1, c0 = (c[i] for c in self._c)
        return ((c3 * u + c2) * u + c1) * u + c0
