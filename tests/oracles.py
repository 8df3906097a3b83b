"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the adaptive machinery in the
package: fixed-step integration, textbook closed forms, bisection, and
brute-force quadrature.  A library bug therefore cannot cancel against
itself in a comparison; shared surface is limited to potential
evaluation, which the tests pin separately against closed forms.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np


# ---------------------------------------------------------------------------
# fixed-step fundamental matrix


def rk4_transfer(vfun, E, a: float, b: float, steps: int) -> np.ndarray:
    """Transfer matrix of -y'' + V y = E y over [a, b].

    Classical RK4 with a fixed step on the first-order system for the
    columns (y, y'); `vfun` must be smooth on the interval.  E may be a
    scalar or an array; the state is batched over trailing energies, so
    a 50-energy sweep costs one step loop.
    """
    Es = np.asarray(E, dtype=complex)
    h = (b - a) / steps
    Y = np.broadcast_to(np.eye(2, dtype=complex)[..., None],
                        (2, 2) + Es.shape).copy()

    def rhs(x, Y):
        out = np.empty_like(Y)
        out[0] = Y[1]
        out[1] = (vfun(x) - Es) * Y[0]
        return out

    x = a
    for _ in range(steps):
        k1 = rhs(x, Y)
        k2 = rhs(x + 0.5 * h, Y + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, Y + 0.5 * h * k2)
        k4 = rhs(x + h, Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x += h
    return Y


def oracle_fundamental(V, E, steps: int = 4000) -> np.ndarray:
    """One-period transfer matrix of the Hill equation.

    Piecewise-constant potentials are integrated segment by segment so
    no RK4 step straddles a jump; trigonometric ones in one sweep.
    """
    if V.kind == "piecewise-constant":
        Es = np.asarray(E, dtype=complex)
        Y = np.broadcast_to(np.eye(2, dtype=complex)[..., None],
                            (2, 2) + Es.shape).copy()
        cuts = [b for b, _ in V.segments] + [1.0]
        for a, b in zip(cuts[:-1], cuts[1:]):
            if b <= a:
                continue
            n = max(8, int(math.ceil(steps * (b - a))))
            v = V(0.5 * (a + b))
            step = rk4_transfer(lambda x, v=v: v, E, a, b, n)
            Y = np.einsum("ij...,jk...->ik...", step, Y)
        return Y
    return rk4_transfer(V, E, 0.0, 1.0, steps)


def oracle_discriminant(V, E, steps: int = 4000):
    """Trace of the oracle transfer matrix; real part for real E."""
    Y = oracle_fundamental(V, E, steps)
    tr = Y[0, 0] + Y[1, 1]
    if np.all(np.isreal(np.asarray(E))):
        return np.real(tr) if np.ndim(tr) else float(np.real(tr))
    return tr


def mp_discriminant(V, E, dps=25):
    """Trace of the period map by mpmath's Taylor-series ODE solver at dps
    digits: independent of DOPRI5, DOP853 and the RK4 oracle.  Real E gives a
    float, complex E a complex."""
    with mpmath.workdps(dps):
        terms = [(2 * mpmath.pi * f, mpmath.mpf(c), mpmath.mpf(s))
                 for f, c, s in V.coefficients]
        kind = complex if isinstance(E, complex) else float
        E = mpmath.mpmathify(E)

        def rhs(x, y):
            w = sum(c * mpmath.cos(om * x) + s * mpmath.sin(om * x)
                    for om, c, s in terms) - E
            return [y[1], w * y[0], y[3], w * y[2]]

        y = mpmath.odefun(rhs, 0, [1, 0, 0, 1])(1)
        return kind(y[0] + y[3])


# ---------------------------------------------------------------------------
# Kronig-Penney closed form


def kp_discriminant(segments, E) -> complex:
    """Discriminant of a piecewise-constant potential from the textbook
    per-segment dispersion formula (product of constant-coefficient
    transfer matrices written in trigonometric form).
    """
    M = np.eye(2, dtype=complex)
    for (a, b, v) in segments:
        ell = b - a
        k = cmath.sqrt(complex(E - v))
        if abs(k) < 1e-12:
            seg = np.array([[1.0, ell], [0.0, 1.0]], dtype=complex)
        else:
            c, s = cmath.cos(k * ell), cmath.sin(k * ell)
            seg = np.array([[c, s / k], [-k * s, c]], dtype=complex)
        M = seg @ M
    return M[0, 0] + M[1, 1]


def kp_band_edges(segments, ceiling: float, vmin: float,
                  samples: int = 20000, tol: float = 1e-12):
    """Band edges of a Kronig-Penney potential by dense scan + bisection
    of (trace -/+ 2) on the closed-form discriminant.
    """

    def f_plus(E):
        return kp_discriminant(segments, E).real - 2.0

    def f_minus(E):
        return kp_discriminant(segments, E).real + 2.0

    lo = vmin - 1.0
    grid = np.linspace(lo, ceiling, samples)
    edges = []
    for f in (f_plus, f_minus):
        vals = np.array([f(E) for E in grid])
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                edges.append(grid[i])
            if vals[i] * vals[i + 1] < 0.0:
                a, b = grid[i], grid[i + 1]
                fa = vals[i]
                while b - a > tol:
                    m = 0.5 * (a + b)
                    fm = f(m)
                    if fa * fm <= 0.0:
                        b = m
                    else:
                        a, fa = m, fm
                edges.append(0.5 * (a + b))
    return sorted(edges)


# ---------------------------------------------------------------------------
# brute-force quadrature for tunneling actions


def chebyshev_discriminant(V, e_lo: float, e_hi: float, degree: int = 128,
                           steps: int = 3000):
    """Chebyshev interpolant of the oracle discriminant on [e_lo, e_hi]."""
    return np.polynomial.chebyshev.Chebyshev.interpolate(
        lambda e: np.real(oracle_discriminant(V, np.atleast_1d(e), steps)),
        deg=degree, domain=[e_lo, e_hi],
    )


def midpoint_action(delta_fun, W, E, z_lo: float, z_hi: float,
                    n: int = 1_000_000) -> float:
    """S = 2 * integral of Im kappa over a pre-gap by composite midpoint.

    Substituting zeta = edge +/- u^2 at both ends removes the
    square-root vanishing of the integrand, so plain midpoint converges
    at second order; n counts subintervals per half.
    """
    mid = 0.5 * (z_lo + z_hi)

    def im_kappa(zeta):
        d = delta_fun(E - W.value(zeta))
        return np.arccosh(np.maximum(1.0, np.abs(d) / 2.0))

    total = 0.0
    for edge, sign, top in ((z_lo, 1.0, mid - z_lo), (z_hi, -1.0, z_hi - mid)):
        u_top = math.sqrt(top)
        h = u_top / n
        u = (np.arange(n) + 0.5) * h
        zeta = edge + sign * u * u
        total += float(np.sum(2.0 * u * im_kappa(zeta))) * h
    return 2.0 * total


# ---------------------------------------------------------------------------
# plain cocycle iteration


def plain_cocycle(evaluate, h: float, z0: float, N: int):
    """Per-step renormalized cocycle product, no striding, no bookkeeping
    shared with the library.

    Returns (theta, log_det_product, bookkeeping_drift).  Determinants
    are multiplicative, so log|det P_N| is the sum of per-factor
    log-determinants, each computed on a well-scaled matrix; recovering
    it from the renormalized running product instead would underflow
    once the condition number of P_N passes 1/eps.  The drift term
    checks the renormalization algebra directly
    (det F_next = det M * det F / nrm^2) for as long as det F stays
    representable.
    """
    F = np.eye(2, dtype=complex)
    log_norm_sum = 0.0
    log_det_product = 0.0
    log_det_F = 0.0
    drift = 0.0
    z = z0
    for _ in range(N):
        M = np.asarray(evaluate(z), dtype=complex)
        log_det_M = math.log(abs(np.linalg.det(M)))
        log_det_product += log_det_M
        F = M @ F
        nrm = np.linalg.norm(F)
        F /= nrm
        log_norm_sum += math.log(nrm)
        log_det_F += log_det_M - 2.0 * math.log(nrm)
        det_F = abs(np.linalg.det(F))
        # below ~1e-6 the float det of the unit-norm F is dominated by
        # cancellation noise (~eps), so the comparison loses meaning
        if det_F > 1e-6:
            drift = max(drift, abs(math.log(det_F) - log_det_F))
        z = (z + h) % 1.0
    return log_norm_sum / N, log_det_product, drift


# ---------------------------------------------------------------------------
# averaged WKB decay rate below a modulated barrier


def wkb_average_rate(W, E: float, n: int = 200_000) -> float:
    """Mean of sqrt(W(zeta) - E) over one 2*pi period (E below min W)."""
    zeta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    vals = np.sqrt(W.value(zeta) - E)
    return float(np.mean(vals))
