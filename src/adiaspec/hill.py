"""Floquet analysis of one-dimensional periodic Schrodinger operators.

Everything here concerns the unperturbed operator -d^2/dx^2 + V(x) with a
fixed period-1 potential V: fundamental (monodromy) matrices, the
discriminant, band edges, the main branch of the Bloch quasi-momentum and
Floquet multipliers.  Slow adiabatic modulation enters only in the higher
level modules; this one is deliberately self-contained.

Conventions
-----------
* The discriminant is the trace of the period map of -psi'' + V psi = E psi.
* Band n (n = 1, 2, ...) is the interval [E_{2n-1}, E_{2n}] of the edge
  sequence; gap n is (E_{2n}, E_{2n+1}); "gap 0" is (-inf, E_1).
* The main quasi-momentum branch k(E) is real on bands, increases from
  pi (n-1) to pi n along band n, equals pi n + i arccosh(|trace|/2) on the
  n-th gap (upper boundary value), and is i arccosh(trace/2) below E_1.
"""

from __future__ import annotations

import cmath
import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebpts1, chebvander

from . import _ode
from ._numerics import bracketed_roots
from .errors import (
    ConsistencyError,
    CoverageError,
    CutCrossingError,
    DegeneratePointError,
    InvalidInputError,
    PathError,
    ResolutionFailure,
)

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class PeriodicPotential:
    """Period-1 potential, either a finite trigonometric sum or piecewise
    constant data.

    trig-sum: ``coefficients`` holds (integer frequency, cosine amplitude,
    sine amplitude) triples, V(x) = sum c cos(2 pi f x) + s sin(2 pi f x).

    piecewise-constant: ``segments`` holds (breakpoint, value) pairs with
    breakpoints strictly increasing in [0, 1) and the first one equal to 0;
    each value applies up to the next breakpoint (cyclically).
    """

    kind: str
    coefficients: tuple[tuple[int, float, float], ...] = ()
    segments: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind == "trig-sum":
            for f, c, s in self.coefficients:
                if f != int(f) or f < 0:
                    raise InvalidInputError(f"frequency must be a nonneg integer, got {f}")
                if not (math.isfinite(c) and math.isfinite(s)):
                    raise InvalidInputError("non-finite trig amplitude")
        elif self.kind == "piecewise-constant":
            if not self.segments:
                raise InvalidInputError("piecewise potential needs at least one segment")
            breaks = [b for b, _ in self.segments]
            if breaks[0] != 0.0:
                raise InvalidInputError("first breakpoint must be 0.0")
            if any(not (0.0 <= b < 1.0) for b in breaks):
                raise InvalidInputError("breakpoints must lie in [0, 1)")
            if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
                raise InvalidInputError("breakpoints must be strictly increasing")
            if any(not math.isfinite(v) for _, v in self.segments):
                raise InvalidInputError("non-finite segment value")
        else:
            raise InvalidInputError(f"unknown potential kind {self.kind!r}")

    @staticmethod
    def trig(coefficients) -> "PeriodicPotential":
        coeffs = tuple((int(f), float(c), float(s)) for f, c, s in coefficients)
        return PeriodicPotential(kind="trig-sum", coefficients=coeffs)

    @staticmethod
    def piecewise(segments) -> "PeriodicPotential":
        segs = tuple((float(b), float(v)) for b, v in segments)
        return PeriodicPotential(kind="piecewise-constant", segments=segs)

    @staticmethod
    def zero() -> "PeriodicPotential":
        return PeriodicPotential.piecewise([(0.0, 0.0)])

    def __call__(self, x: float) -> float:
        if self.kind == "trig-sum":
            total = 0.0
            for f, c, s in self.coefficients:
                arg = TWO_PI * f * x
                total += c * math.cos(arg) + s * math.sin(arg)
            return total
        t = x - math.floor(x)
        value = self.segments[-1][1]
        for b, v in self.segments:
            if t >= b:
                value = v
            else:
                break
        return value

    def evaluator(self):
        """Fast closure for inner integration loops."""
        if self.kind == "trig-sum":
            terms = tuple((TWO_PI * f, c, s) for f, c, s in self.coefficients)
            cos, sin = math.cos, math.sin

            def q(x: float) -> float:
                total = 0.0
                for w, c, s in terms:
                    a = w * x
                    total += c * cos(a) + s * sin(a)
                return total

            return q
        return self.__call__

    def array_evaluator(self):
        """V at every point of a numpy array, for the batched integrations."""
        if self.kind == "trig-sum":
            terms = tuple((TWO_PI * f, c, s) for f, c, s in self.coefficients)

            def q(x):
                total = np.zeros(np.shape(x))
                for w, c, s in terms:
                    a = w * x
                    total = total + (c * np.cos(a) + s * np.sin(a))
                return total

            return q
        breaks = np.array([b for b, _ in self.segments])
        values = np.array([v for _, v in self.segments])
        return lambda x: values[np.searchsorted(breaks, x - np.floor(x),
                                                side="right") - 1]

    def min_value(self) -> float:
        """Lower bound for V (exact for piecewise data, dense grid otherwise)."""
        if self.kind == "piecewise-constant":
            return min(v for _, v in self.segments)
        vals = self.array_evaluator()(np.linspace(0.0, 1.0, 4097))
        # crude margin for between-node dips of the trig polynomial
        spread = sum(abs(c) + abs(s) for _, c, s in self.coefficients)
        return float(vals.min()) - 1e-4 * (1.0 + spread)


# ---------------------------------------------------------------------------
# fundamental matrix and discriminant


@dataclass(frozen=True)
class FundamentalMatrix:
    """Propagator of the fundamental system over [x0, x1]."""

    matrix: np.ndarray
    energy: complex
    x0: float
    x1: float
    tolerance_achieved: float

    @property
    def det(self) -> complex:
        m = self.matrix
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _propagate_piecewise(V: PeriodicPotential, E, x0: float, x1: float):
    """Exact segment-product propagation for piecewise-constant V at an
    array of energies E (or one), each segment one vectorised
    ``_ode.constant_coefficient_step``, as the segment walk does not
    depend on E: the rows (a, b, c, d) and an error bound, of E's shape."""
    E = np.asarray(E, dtype=np.result_type(E, float))
    a, b = np.ones_like(E), np.zeros_like(E)
    c, d = b, a
    x = x0
    nseg = 0
    while x < x1 - 1e-15 * max(1.0, abs(x1)):
        base = math.floor(x)
        t = x - base
        value = V.segments[-1][1]
        nxt = base + 1.0
        for bp, v in V.segments:
            if t >= bp - 1e-15:
                value = v
            else:
                nxt = base + bp
                break
        end = min(nxt, x1)
        length = end - x
        if length > 0:
            w = value - E
            C, S = _ode.constant_coefficient_step(w, length)
            a, c = C * a + S * c, w * S * a + C * c
            b, d = C * b + S * d, w * S * b + C * d
            nseg += 1
        x = end
    scale = np.maximum(np.max(np.abs([a, b, c, d]), axis=0), 1.0)
    return (a, b, c, d), 4e-16 * nseg * scale


def fundamental_matrix(V: PeriodicPotential, E, x0: float = 0.0, x1: float = 1.0,
                       tol: float = 1e-10) -> FundamentalMatrix:
    """Propagator of -psi'' + V psi = E psi from x0 to x1 (columns are the
    solutions with initial data (1,0) and (0,1)).

    Piecewise-constant potentials are composed from exact per-segment
    propagators split precisely at the breakpoints; trigonometric sums go
    through an adaptive embedded Runge-Kutta integration with per-step
    error control at the requested tolerance.
    """
    if not (x1 > x0):
        raise InvalidInputError(f"need x1 > x0, got [{x0}, {x1}]")
    E = complex(E) if isinstance(E, complex) and E.imag != 0.0 else float(np.real(E))
    if not math.isfinite(abs(E)):
        raise InvalidInputError("non-finite energy")
    if not (tol > 0):
        raise InvalidInputError("tolerance must be positive")
    if V.kind == "piecewise-constant":
        rows, err = _propagate_piecewise(V, E, x0, x1)
        (a, b, c, d), err = (r.item() for r in rows), err.item()
    else:
        q = V.evaluator()
        (a, b, c, d), err, _ = _ode.propagate(
            q, E, x0, x1, rtol=tol, atol=tol * 1e-2
        )
    m = np.array([[a, b], [c, d]])
    _check_unimodular(a, b, c, d, 10.0 * max(tol, 1e-13) * max(1.0, abs(a), abs(d))
                      + 1e4 * err)
    return FundamentalMatrix(matrix=m, energy=E, x0=x0, x1=x1,
                             tolerance_achieved=err)


def _check_unimodular(a, b, c, d, bound) -> None:
    """ConsistencyError where |ad - bc - 1| exceeds the bound (entries and
    bound may be arrays, one propagator per element)."""
    drift = np.abs(a * d - b * c - 1.0)
    if np.any(drift > bound):
        raise ConsistencyError(
            f"propagator determinant drifted from 1 by {np.max(drift):.3e}"
        )


def discriminant(V: PeriodicPotential, E, tol: float = 1e-10):
    """Trace of the period map at energy E (real for real E)."""
    if V.kind == "piecewise-constant":
        Ev = complex(E) if isinstance(E, complex) and E.imag != 0.0 else float(np.real(E))
        (a, _, _, d), _ = _propagate_piecewise(V, Ev, 0.0, 1.0)
        return (a + d).item()
    fm = fundamental_matrix(V, E, 0.0, 1.0, tol)
    m = fm.matrix
    return m[0, 0] + m[1, 1]


def _discriminant_batch(V: PeriodicPotential, energies: np.ndarray,
                        tol: float) -> np.ndarray:
    """Discriminant of V at many real energies.

    Piecewise-constant V takes the exact product, all energies at once.
    Otherwise the energies go through ``_ode.transfer_batch`` together, in
    chunks of at most ``_ode.CHUNK``: fixed-step DOP853 on segments of the
    period side by side, in which every step of every energy and segment
    passes the kernel's error test at rtol = tol, atol = tol * 1e-2; after
    a failed step the chunk keeps the steps it has accepted and goes on
    from there with a finer step.  V is sampled once per stage node of
    each segment and shared by all energies.
    """
    if V.kind == "piecewise-constant":
        (a, _, _, d), _ = _propagate_piecewise(V, energies, 0.0, 1.0)
        return a + d
    q = V.array_evaluator()
    out = np.empty(len(energies))
    for i in range(0, len(energies), _ode.CHUNK):
        Es = energies[i:i + _ode.CHUNK]
        y0 = np.zeros((4, len(Es)))
        y0[0] = y0[3] = 1.0
        a, b, c, d = _ode.transfer_batch(lambda t: q(t) - Es, 0.0, 1.0, y0,
                                         rtol=tol, atol=tol * 1e-2)
        # the batch keeps no accumulated error estimate; each entry is
        # accurate relative to its own size, so the bound scales with the
        # products ad and bc whose difference is checked
        scale = np.maximum.reduce([np.abs(a), np.abs(d), np.abs(a * d) + np.abs(b * c)])
        _check_unimodular(a, b, c, d, 10.0 * max(tol, 1e-13) * np.maximum(scale, 1.0))
        out[i:i + len(Es)] = a + d
    return out


def _interpolation_coefficients(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through values at the
    first-kind nodes x (last axis), as in numpy's chebinterpolate."""
    degree = len(x) - 1
    coef = values @ chebvander(x, degree) / (0.5 * (degree + 1))
    coef[..., 0] *= 0.5
    return coef


# DiscriminantModel's default panel width and the degree its fill starts
# at, both counted by _model_fill_size: the reference scan [-2.55, 45.5]
# is one panel, which _chop cuts to 14 coefficients.  A panel whose series
# has not reached its noise plateau is refilled at twice the degree, up to
# _PANEL_DEGREE_MAX
_PANEL_WIDTH, _PANEL_DEGREE, _PANEL_DEGREE_MAX = 64.0, 32, 128


def _clenshaw(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Chebyshev series at t, one series per point (c[k] holds the k-th
    coefficient of each point's series; at least three), by the recurrence
    and operation order of numpy's ``chebval``."""
    x2 = 2 * t
    c0, c1 = c[-2], c[-1]
    for k in range(len(c) - 3, -1, -1):
        c0, c1 = c[k] - c1, c0 + c1 * x2
    return c0 + c1 * t


class DiscriminantModel:
    """Chebyshev acceleration of the discriminant on a real energy interval.

    The discriminant is entire in E and behaves like 2 cos sqrt(E), so
    panels of width 64 (``_PANEL_WIDTH``) reproduce it to near machine
    precision at low degree.  The first-kind Chebyshev nodes of every panel
    (those of ``Chebyshev.interpolate``) are filled in one batched
    integration over energies (``_discriminant_batch``), at degree 32
    (``_PANEL_DEGREE``; `degree` only moves where the check below starts).
    A panel whose series has not reached its noise plateau (``_chop`` at
    node_tol keeps as many coefficients as the degree, or more) is filled
    again at twice the degree, all such panels in one more batch, up to
    ``_PANEL_DEGREE_MAX``; one still unresolved there raises
    ResolutionFailure.  Piecewise-constant potentials fill the same panels
    from their exact product.  ``band_edges`` builds one per scan and keeps
    it on the ``BandStructure``, whose real-energy readers (branch tables,
    action quadratures, the real-axis quasi-momentum) all share it.

    An array of energies is summed in one Clenshaw recurrence over all its
    points, each with the coefficients of its own panel (zero-padded to the
    highest degree), in chunks of ``_ode.CHUNK`` points; values are bit for
    bit those of the panel's ``Chebyshev`` at the point, which a single
    real energy calls directly.
    """

    def __init__(self, V: PeriodicPotential, lo: float, hi: float, *,
                 node_tol: float = 1e-12, panel_width: float = _PANEL_WIDTH,
                 degree: int = _PANEL_DEGREE):
        if not (hi > lo):
            raise InvalidInputError("empty model interval")
        self.V = V
        self.lo = float(lo)
        self.hi = float(hi)
        self.node_tol = node_tol
        bounds = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / panel_width)) + 1)
        self._set_panels(bounds, self._fill(bounds, degree))

    def _fill(self, bounds: np.ndarray, degree: int) -> list[np.ndarray]:
        """Chebyshev coefficients of one panel per interval of `bounds`,
        all panels' nodes in each batched integration."""
        mid, half = 0.5 * (bounds[:-1] + bounds[1:]), 0.5 * np.diff(bounds)
        coefs = [None] * len(half)
        todo = np.arange(len(half))
        while True:
            x = chebpts1(degree + 1)
            values = _discriminant_batch(
                self.V, (mid[todo, None] + half[todo, None] * x).ravel(),
                self.node_tol).reshape(len(todo), degree + 1)
            fresh = _interpolation_coefficients(values, x)
            resolved = np.array([_chop(c, self.node_tol) < degree for c in fresh])
            for j, c in zip(todo[resolved], fresh[resolved]):
                coefs[j] = c
            todo = todo[~resolved]
            if not todo.size:
                return coefs
            if degree >= _PANEL_DEGREE_MAX:
                raise ResolutionFailure(
                    f"{todo.size} discriminant panel(s) of width "
                    f"{2.0 * half[todo[0]]:.6g} from E = {bounds[todo[0]]:.6g} "
                    f"still unresolved at degree {degree}")
            degree *= 2

    def _set_panels(self, bounds, coefs) -> None:
        self._bounds = bounds.tolist()
        self._panels = [Chebyshev(c, domain=d) for c, d in
                        zip(coefs, zip(self._bounds[:-1], self._bounds[1:]))]
        # each panel's map of its domain onto [-1, 1], as Chebyshev applies it
        self._maps = np.array([p.mapparms() for p in self._panels])
        self._coef = _columns(coefs)
        self._deriv_coef = None

    def reaching(self, lo: float) -> "DiscriminantModel":
        """This model where it already reaches down to `lo`; else a new one
        that keeps every panel of this one bit for bit and adds panels of
        the default width over [lo - 0.5, self.lo], filled in one batch at
        the same node_tol."""
        if not math.isfinite(lo):
            raise InvalidInputError("non-finite energy")
        if lo >= self.lo:
            return self
        out = copy.copy(self)
        out.lo = lo - 0.5
        bounds = np.linspace(out.lo, self.lo,
                             max(1, math.ceil((self.lo - out.lo) / _PANEL_WIDTH)) + 1)
        out._set_panels(np.concatenate([bounds, self._bounds[1:]]),
                        out._fill(bounds, _PANEL_DEGREE)
                        + [p.coef for p in self._panels])
        return out

    def _check_range(self, lo: float, hi: float) -> None:
        if lo < self.lo - 1e-9 or hi > self.hi + 1e-9:
            raise InvalidInputError(
                f"energy outside model interval [{self.lo}, {self.hi}]"
            )

    def __call__(self, E):
        if isinstance(E, float):
            # one real energy (np.float64 too): the same range check and
            # clipped panel choice as _sum, without the array machinery
            self._check_range(E, E)
            i = min(max(bisect_right(self._bounds, E) - 1, 0),
                    len(self._panels) - 1)
            return float(self._panels[i](E))
        return self._sum(self._coef, E)

    def _sum(self, coef: np.ndarray, E):
        """The panel series with coefficient columns `coef` at E, a float
        or an array, after the range check."""
        arr = np.asarray(E, dtype=float)
        xs = np.atleast_1d(arr)
        if xs.size:
            self._check_range(xs.min(), xs.max())
        idx = np.clip(np.searchsorted(self._bounds, xs, side="right") - 1, 0,
                      len(self._panels) - 1)
        out = np.empty_like(xs)
        for i in range(0, len(xs), _ode.CHUNK):
            j = idx[i:i + _ode.CHUNK]
            off, scl = self._maps[j].T
            out[i:i + _ode.CHUNK] = _clenshaw(coef[:, j],
                                              off + scl * xs[i:i + _ode.CHUNK])
        return float(out[0]) if arr.ndim == 0 else out

    def derivative(self, E):
        """d/dE of the discriminant, the derivative of the panels' series;
        E scalar or array."""
        if self._deriv_coef is None:
            self._deriv_coef = _columns([p.deriv().coef for p in self._panels])
        return self._sum(self._deriv_coef, E)


def _columns(coefs) -> np.ndarray:
    """Panel series as the columns of one array, zero-padded to the
    longest: a zero leading coefficient leaves Clenshaw's sum bit for bit
    as it was."""
    out = np.zeros((max(len(c) for c in coefs), len(coefs)))
    for j, c in enumerate(coefs):
        out[:len(c), j] = c
    return out


def _chop(coeffs: np.ndarray, tol: float) -> int:
    """How many leading Chebyshev coefficients to keep: the rule of Aurentz
    and Trefethen ("Chopping a Chebyshev series", ACM TOMS 43, 2017).

    The monotone envelope of |coeffs| must fall to a plateau below
    tol^(2/3); the cut then sits where the envelope, tilted up by a third
    of log10(1/tol) across its length, is lowest.  Returns len(coeffs)
    when the series has not reached its plateau (not resolved).
    """
    n = len(coeffs)
    if n < 17:
        return n
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    for j in range(1, n):
        j2 = math.floor(1.25 * (j + 1) + 5.5) - 1  # 0-based, from 1-based j + 1
        if j2 >= n:
            return n
        e1, e2 = env[j], env[j2]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            plateau = j - 1
            break
    if env[plateau] == 0.0:
        return plateau + 1
    j3 = int(np.sum(env >= tol ** (7.0 / 6.0)))
    if j3 < j2 + 1:
        j2 = j3
        env = env.copy()
        env[j2] = tol ** (7.0 / 6.0)
    cc = np.log10(env[:j2 + 1]) + np.linspace(0.0, -math.log10(tol) / 3.0, j2 + 1)
    return max(int(np.argmin(cc)), 1)


# the fill degrees tried, in order, by the complex model
_STRIP_DEGREES = (32, 64, 128, 256)


class ComplexDiscriminantModel:
    """The discriminant at complex energies near a real interval [lo, hi].

    One Chebyshev panel over [lo, min(hi, model.hi)], its nodes read from
    the band scan's real-axis model (``model.reaching(lo)``, so nothing
    is integrated unless lo is below the scan) and chopped at the noise
    plateau of its coefficients (``_chop`` at ``model.node_tol``), is
    summed by complex Clenshaw.  The panel starts at degree 32 and
    doubles, up to 256, until the series reaches its plateau.  Each value
    carries the a-posteriori bound (Trefethen, *Approximation Theory and
    Approximation Practice*, ch. 8)

        eta * sum_{n <= N} rho^n + sum_{N < n <= degree} |c_n| rho^n,

    with rho the parameter of the Bernstein ellipse through the energy, N
    the kept degree, eta the coefficient error implied by node_tol and the
    dropped coefficients c_n as the tail.  Where the bound exceeds
    tol * max(1, |value|), as above the scan's reach, the scalar
    ``discriminant`` at `tol` is returned instead and counted in
    ``fallbacks``.  A panel that has not reached its plateau at degree 256
    is not used at all.
    """

    def __init__(self, model: DiscriminantModel, lo, hi, tol: float):
        if not (hi > lo):
            raise InvalidInputError("empty model interval")
        self.V = model.V
        self.tol = tol
        self.fallbacks = 0
        self._coef: list[float] = []
        self._weights: list[float] = []
        hi = min(hi, model.hi)
        if not hi > lo:
            return
        model = model.reaching(lo)
        self._mid, self._half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        for degree in _STRIP_DEGREES:
            x = chebpts1(degree + 1)
            values = model(self._mid + self._half * x)
            coef = _interpolation_coefficients(values, x)
            keep = _chop(coef, model.node_tol)
            if keep <= degree:
                # interpolation coefficients are node sums weighted by
                # |T_n| <= 1, so each is off by at most twice the node error
                eta = 2.0 * model.node_tol * max(1.0, float(np.max(np.abs(values))))
                self._coef = coef[:keep].tolist()
                self._weights = [eta] * keep + np.abs(coef[keep:]).tolist()
                return

    def bound(self, E: complex) -> tuple[complex, float]:
        """(panel value, error bound) at E; the bound is inf without a panel."""
        if not self._coef:
            return complex("nan"), math.inf
        x = (complex(E) - self._mid) / self._half
        b1 = b2 = 0j
        for c in reversed(self._coef[1:]):
            b1, b2 = 2.0 * x * b1 - b2 + c, b1
        value = x * b1 - b2 + self._coef[0]
        s = cmath.sqrt(x - 1.0) * cmath.sqrt(x + 1.0)
        rho = max(abs(x + s), abs(x - s))
        err = 0.0
        for w in reversed(self._weights):
            err = err * rho + w
        return value, err

    def __call__(self, E) -> complex:
        value, err = self.bound(E)
        if err <= self.tol * max(1.0, abs(value)):
            return value
        self.fallbacks += 1
        return discriminant(self.V, E, self.tol)


# ---------------------------------------------------------------------------
# band structure


@dataclass(frozen=True)
class BandStructure:
    """Edge sequence E_1 <= E_2 <= ... below a ceiling, with gap flags.

    Closed gaps appear as exactly repeated edge values.  The edge count is
    odd when the last band is cut off by the ceiling.  ``gap_open[k-1]``
    refers to gap k = (E_{2k}, E_{2k+1}).

    ``model`` is the discriminant model the scan ran on, which every
    read of the operator after the scan shares, through
    ``discriminant_model()``.  A table built by hand has none.
    """

    edges: tuple[float, ...]
    gap_open: tuple[bool, ...]
    ceiling: float
    edge_tol: float
    model: DiscriminantModel | None = field(default=None, compare=False,
                                            repr=False)

    def __post_init__(self):
        if any(e2 < e1 for e1, e2 in zip(self.edges, self.edges[1:])):
            raise InvalidInputError("edges must be nondecreasing")

    def discriminant_model(self) -> DiscriminantModel:
        """``model``, which carries V; InvalidInputError if it is None."""
        if self.model is None:
            raise InvalidInputError("band table built by hand has no "
                                    "discriminant model; use band_edges")
        return self.model

    @property
    def num_complete_bands(self) -> int:
        return len(self.edges) // 2

    def edge(self, j: int) -> float:
        """1-based edge lookup."""
        if not 1 <= j <= len(self.edges):
            raise CoverageError(f"edge {j} not resolved below ceiling {self.ceiling}")
        return self.edges[j - 1]

    def band(self, n: int) -> tuple[float, float]:
        if not 1 <= n or 2 * n > len(self.edges):
            raise CoverageError(f"band {n} not fully below ceiling {self.ceiling}")
        return self.edges[2 * n - 2], self.edges[2 * n - 1]

    def gap(self, n: int) -> tuple[float, float]:
        """Gap n = (E_2n, E_{2n+1}); gap 0 is (-inf, E_1)."""
        if n == 0:
            return -math.inf, self.edges[0]
        if 2 * n + 1 > len(self.edges):
            raise CoverageError(f"gap {n} not resolved below ceiling {self.ceiling}")
        return self.edges[2 * n - 1], self.edges[2 * n]

    def is_gap_open(self, n: int) -> bool:
        if n == 0:
            return True
        if not 1 <= n <= len(self.gap_open):
            raise CoverageError(f"gap {n} not resolved below ceiling {self.ceiling}")
        return self.gap_open[n - 1]

    def band_intervals(self, include_partial: bool = False):
        """Complete bands as (lo, hi) pairs; optionally the cut-off last one."""
        out = [self.band(n) for n in range(1, self.num_complete_bands + 1)]
        if include_partial and len(self.edges) % 2 == 1:
            out.append((self.edges[-1], self.ceiling))
        return out

    def locate(self, E: float, atol: float | None = None):
        """Classify a real energy: ('below',), ('edge', j), ('band', n),
        ('gap', n) or ('above',)."""
        if atol is None:
            atol = self.edge_tol
        if not self.edges:
            raise CoverageError("no edges resolved")
        for j, e in enumerate(self.edges, start=1):
            if abs(E - e) <= atol:
                return ("edge", j)
        if E < self.edges[0]:
            return ("below",)
        if E > self.ceiling:
            return ("above",)
        pos = int(np.searchsorted(np.asarray(self.edges), E))
        # pos edges lie strictly below E
        if pos % 2 == 1:
            return ("band", (pos + 1) // 2)
        if pos == len(self.edges):
            # past the last resolved edge but under the ceiling
            return ("band", (pos + 1) // 2) if len(self.edges) % 2 == 1 else ("gap", pos // 2)
        return ("gap", pos // 2)


_SCAN_STEP_MAX = 0.08
_SCAN_STEP_SCALE = TWO_PI / 256.0
_SCAN_POINTS_MAX = 2_000_000


def _weyl_grid_size(lo: float, hi: float, offset: float) -> int:
    """Upper bound on ``len(_weyl_grid(lo, hi, offset))``, in closed form.

    With u = x - offset and c = 2 pi / 256 the step is c for u <= 1,
    c sqrt(u) up to u* = (0.08 / c)^2 and 0.08 beyond, so tau, the integral
    of dx / step over [lo, hi], follows piecewise.  From one node to the
    next the step grows by at most sqrt(1 + c); every step but the last
    thus covers at least 1 / sqrt(1 + c) of tau, and the grid holds at
    most tau sqrt(1 + c) + 2 points.
    """
    c = _SCAN_STEP_SCALE
    u_star = (_SCAN_STEP_MAX / c) ** 2
    a, b = lo - offset, hi - offset
    tau = max(0.0, min(b, 1.0) - a) / c
    p, q = max(a, 1.0), min(b, u_star)
    if q > p:
        tau += 2.0 * (math.sqrt(q) - math.sqrt(p)) / c
    tau += max(0.0, b - max(a, u_star)) / _SCAN_STEP_MAX
    return math.floor(tau * math.sqrt(1.0 + c)) + 2


def _check_grid_size(lo: float, hi: float, offset: float) -> None:
    if _weyl_grid_size(lo, hi, offset) > _SCAN_POINTS_MAX:
        raise ResolutionFailure("scan grid exploded; ceiling too large?")


# most node-steps a band model's fill may need, as estimated by
# _model_fill_size: a scan of about 7 s, the budget this limit stood for
# when it was set.  On V = 2 cos(2 pi x), on a shared 2-CPU Xeon VM, a
# scan to 7,000 (1.1e6 node-steps) takes ~0.7 s and one to 30,000 (9.7e6)
# 4.4 s; ceilings up to ~41,900 pass
_FILL_NODE_STEPS_MAX = 16_000_000


def _model_fill_size(V: PeriodicPotential, lo: float, hi: float) -> int:
    """Node-steps of a default-shaped ``DiscriminantModel`` fill on
    [lo, hi], in closed form.

    The nodes are those of its panels at the start degree.  Each energy
    chunk of the fill runs S = ``_ode.segment_count`` segments of the
    period side by side, each from n = ``_ode.first_step_count(1 / S, .)``
    steps at the chunk's largest |V - E| over the segment starts; the
    estimate takes the largest for E on [lo, hi], at one of its ends, for
    every node.  At the node tolerance that first count fails at its first
    step, and the retry covers the segment in at least ``_ode._MIN_GROWTH``
    times n steps: 1 + ceil(1.25 n) per segment, the 4 the reference scan's
    33 nodes execute.  Panels refilled at a higher degree, and retries that
    grow by more, add steps the estimate leaves out.
    """
    nodes = max(1, math.ceil((hi - lo) / _PANEL_WIDTH)) * (_PANEL_DEGREE + 1)
    q = V.array_evaluator()

    def size(members: int) -> int:
        S = _ode.segment_count(members)
        v = q(np.arange(S) / S)
        wmax = float(np.max(np.maximum(np.abs(v - lo), np.abs(v - hi))))
        n = _ode.first_step_count(1.0 / S, wmax)
        return members * S * (1 + math.ceil(_ode._MIN_GROWTH * n))

    full, rest = divmod(nodes, _ode.CHUNK)
    return full * size(_ode.CHUNK) + (size(rest) if rest else 0)


def _weyl_grid(lo: float, hi: float, offset: float) -> np.ndarray:
    """Scan grid with step tied to the asymptotic edge spacing 2 pi sqrt(E).

    Its size is bounded (``_weyl_grid_size``) before any node is laid.
    """
    _check_grid_size(lo, hi, offset)
    pts = [lo]
    x = lo
    while x < hi:
        step = min(_SCAN_STEP_MAX,
                   _SCAN_STEP_SCALE * math.sqrt(max(x - offset, 1.0)))
        x = min(x + step, hi)
        pts.append(x)
    return np.array(pts)


def band_edges(V: PeriodicPotential, ceiling: float, tol: float = 1e-10) -> BandStructure:
    """All band edges below `ceiling` by scanning and bracketing the
    discriminant.

    The scan works on f = trace^2 - 4 evaluated through a Chebyshev model
    of the discriminant.  Local maxima of f inside bands are refined, as
    roots of the model's derivative, to catch narrow or closed gaps
    (double roots).  All sign-change brackets are solved together on the
    model, and each simple root r then takes one Newton step on the
    adaptive integrator's f with the model's slope, kept where it moves r
    by less than 100 max(tol, 1e-12) max(1, |r|).  A closed gap is
    recorded as a repeated edge with its flag False.
    """
    vmin = V.min_value()
    start = vmin - 1e-3 * (1.0 + abs(vmin))
    if ceiling <= start:
        raise InvalidInputError(f"ceiling {ceiling} below the potential minimum")
    # refuse an oversized scan in closed form before any work: first its
    # grid (which _weyl_grid checks again), then the model fill, which
    # grows faster than the ceiling; piecewise-constant V fills its panels
    # from the exact product, which takes no ODE steps
    _check_grid_size(start, ceiling, vmin)
    lo, hi = start - 0.5, ceiling + 0.5
    if V.kind != "piecewise-constant":
        size = _model_fill_size(V, lo, hi)
        if size > _FILL_NODE_STEPS_MAX:
            raise ResolutionFailure(
                f"band model fill estimated at {size} node-steps, over the "
                f"limit of {_FILL_NODE_STEPS_MAX}; ceiling too large?")
    grid = _weyl_grid(start, ceiling, offset=vmin)
    model = DiscriminantModel(V, lo, hi, node_tol=min(1e-12, tol * 1e-2))
    delta = model(grid)

    # refine until the discriminant is resolved between neighbours
    for _ in range(40):
        jumps = np.abs(np.diff(delta)) > 1.6
        if not jumps.any():
            break
        inserts = 0.5 * (grid[:-1][jumps] + grid[1:][jumps])
        grid = np.sort(np.concatenate([grid, inserts]))
        delta = model(grid)
    else:
        raise ResolutionFailure("discriminant oscillates below scan resolution")

    f = delta * delta - 4.0

    def f_model(E):
        t = model(E)
        return t * t - 4.0

    def polish(r: float) -> float:
        # one Newton step on the direct f = trace^2 - 4 from the model root
        # r, with the model's slope; a step that leaves the window
        # r +- w, where a direct root is sought, keeps r
        w = 100.0 * max(tol, 1e-12) * max(1.0, abs(r))
        try:
            t = discriminant(V, r, tol)
        except ConsistencyError:
            return r
        slope = 2.0 * t * model.derivative(r)
        if slope == 0.0 or not math.isfinite(slope):
            return r
        s = (t * t - 4.0) / slope
        return float(r - s) if abs(s) < w else r

    # brackets of simple roots: the scan's sign changes, then those around
    # the peak of every narrow gap the grid stepped over
    change = f[:-1] * f[1:] < 0
    lo_br, hi_br = list(grid[:-1][change]), list(grid[1:][change])

    doubles: list[float] = []
    noise = 4e-9
    interior = np.flatnonzero(
        (f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:]) & (f[1:-1] >= -1e-4)
        & (f[1:-1] < 0.0)
    ) + 1  # local maxima of f inside bands that come near zero
    if interior.size:
        # the peak of f = trace^2 - 4 near +-2 is the extremum of the trace
        a, b = grid[interior - 1], grid[interior + 1]
        d_a, d_b = model.derivative(a), model.derivative(b)
        e_star = grid[interior].copy()
        peaked = d_a * d_b < 0.0
        if peaked.any():
            e_star[peaked] = bracketed_roots(lambda E, i: model.derivative(E),
                                             a[peaked], b[peaked], xtol=tol * 1e-2)
        f_star = f_model(e_star)
        for lo_i, e_i, hi_i, f_i in zip(a, e_star, b, f_star):
            if f_i > noise:
                # a narrow open gap the scan grid stepped over
                for lo_j, hi_j in ((lo_i, e_i), (e_i, hi_i)):
                    if f_model(lo_j) * f_model(hi_j) < 0:
                        lo_br.append(lo_j)
                        hi_br.append(hi_j)
            elif f_i > -noise:
                doubles.append(float(e_i))

    roots = bracketed_roots(lambda E, i: f_model(E), np.array(lo_br),
                            np.array(hi_br), xtol=tol * 0.25, rtol=1e-15)
    simple = [polish(float(r)) for r in roots]

    simple.sort()
    merged: list[float] = []
    for r in simple:
        if merged and abs(r - merged[-1]) <= max(tol, 1e-12):
            continue
        merged.append(r)
    edges = sorted(merged + [d for d in doubles for _ in range(2)])

    if edges:
        deltas_at_edges = model(np.array(edges))
        for j, dv in enumerate(deltas_at_edges, start=1):
            expected = 2.0 if j % 4 in (0, 1) else -2.0
            if abs(dv - expected) > 1e-5:
                raise ResolutionFailure(
                    f"edge alternation broken at edge {j} (trace {dv:.6f}, "
                    f"expected {expected}); scan resolution insufficient"
                )

    flags = []
    for k in range(1, (len(edges) - 1) // 2 + 1):
        flags.append(edges[2 * k] - edges[2 * k - 1] > tol)
    return BandStructure(edges=tuple(edges), gap_open=tuple(flags),
                         ceiling=float(ceiling), edge_tol=tol, model=model)


# ---------------------------------------------------------------------------
# quasi-momentum


@dataclass(frozen=True)
class QuasiMomentumValue:
    """Value of the main quasi-momentum branch at one energy."""

    value: complex
    energy: complex
    at_edge: bool = False


def _acos_branch_candidates(w: complex, k_ref: complex) -> complex:
    """Solution of cos k = w closest to k_ref among all branches."""
    p = cmath.acos(w)
    best = None
    best_dist = math.inf
    for s in (1.0, -1.0):
        base = s * p
        l = round((k_ref.real - base.real) / TWO_PI)
        for dl in (-1, 0, 1):
            cand = base + TWO_PI * (l + dl)
            dist = abs(cand - k_ref)
            if dist < best_dist:
                best, best_dist = cand, dist
    return best


# _track_momentum's subdivision depth and step budget
_TRACK_MAX_NESTING, _TRACK_MAX_STEPS = 60, 100000


def _track_momentum(delta_of, z_from: complex, k_from: complex,
                    z_to: complex) -> complex:
    """Continue cos k = delta/2 along the straight segment z_from -> z_to.

    Subdivides until both the discriminant and k move slowly per step, so
    the nearest-candidate rule cannot hop branches.  Exhausting the
    subdivision budget right at the real axis means the segment ends on a
    branch cut, which the caller must disambiguate with a side choice.
    """
    k = complex(k_from)
    z = complex(z_from)
    scale = max(1.0, abs(z_to - z_from))
    d_here = delta_of(z)
    stack = [complex(z_to)]
    steps = 0
    while stack:
        steps += 1
        if steps > _TRACK_MAX_STEPS:
            raise PathError("continuation exceeded its step budget")
        target = stack[-1]
        d_there = delta_of(target)
        k_cand = _acos_branch_candidates(d_there / 2.0, k)
        if abs(d_there - d_here) > 0.5 or abs(k_cand - k) > 0.5:
            if len(stack) >= _TRACK_MAX_NESTING or abs(target - z) < 1e-13 * scale:
                if abs(target.imag) < 1e-9 * scale:
                    raise CutCrossingError(
                        "continuation stalled on the real axis: the target "
                        "sits on a branch cut, pick a side (+i0 / -i0)"
                    )
                raise PathError("continuation path cannot be resolved "
                                "(branch point too close)")
            stack.append(0.5 * (z + target))
            continue
        stack.pop()
        z, k, d_here = target, k_cand, d_there
    return k


def quasimomentum_main(bands: BandStructure, E, side: str = "+i0",
                       tol: float = 1e-10) -> QuasiMomentumValue:
    """Main branch of the Bloch quasi-momentum at energy E.

    Real energies use the closed forms per spectral region (band, gap,
    below the spectrum) on ``bands.discriminant_model()``, filled at
    node_tol = min(1e-12, 1e-2 * the scan's edge tol); there `tol` only
    snaps band edges within it to the exact multiple of pi, ``at_edge``
    set.  Complex energies are reached by analytic continuation of
    cos k = trace/2 of that model's V, integrated at `tol`, from an anchor
    inside a complete band, with adaptive path subdivision.  `side` picks
    the boundary value on gap cuts (upper half-plane limit by default).
    """
    if side not in ("+i0", "-i0"):
        raise InvalidInputError(f"side must be '+i0' or '-i0', got {side!r}")
    model = bands.discriminant_model()
    E_im = float(np.imag(np.asarray(E, dtype=complex)))
    E_re = float(np.real(np.asarray(E, dtype=complex)))

    if E_im == 0.0:
        loc = bands.locate(E_re, atol=tol)
        if loc[0] == "edge":
            j = loc[1]
            return QuasiMomentumValue(value=math.pi * (j // 2), energy=E_re,
                                      at_edge=True)
        if loc[0] == "above":
            raise CoverageError(
                f"energy {E_re} above the resolved ceiling {bands.ceiling}"
            )
        d = model.reaching(E_re)(E_re)
        if loc[0] == "band":
            n = loc[1]
            arg = ((-1.0) ** (n - 1)) * d / 2.0
            val = math.pi * (n - 1) + math.acos(min(1.0, max(-1.0, arg)))
            return QuasiMomentumValue(value=val, energy=E_re)
        if loc[0] == "below":
            im = math.acosh(max(1.0, d / 2.0))
            return QuasiMomentumValue(value=complex(0.0, im), energy=E_re)
        n = loc[1]  # gap n >= 1
        im = math.acosh(max(1.0, abs(d) / 2.0))
        if side == "-i0":
            im = -im
        return QuasiMomentumValue(value=complex(math.pi * n, im), energy=E_re)

    # complex energy: continue from a real anchor inside a band
    if E_re > bands.ceiling:
        raise CoverageError(
            f"Re E = {E_re} above the resolved ceiling {bands.ceiling}"
        )
    loc = bands.locate(E_re, atol=tol)
    anchor = None
    # a band cut off by the ceiling has no top: anchor in a complete one
    if loc[0] == "band" and loc[1] <= bands.num_complete_bands:
        lo, hi = bands.band(loc[1])
        pad = max(tol * 10.0, 1e-6 * (hi - lo))
        anchor = min(max(E_re, lo + pad), hi - pad)
    else:
        best = math.inf
        for n in range(1, bands.num_complete_bands + 1):
            lo, hi = bands.band(n)
            if hi - lo < 100 * tol:
                continue
            mid = 0.5 * (lo + hi)
            if abs(mid - E_re) < best:
                best, anchor = abs(mid - E_re), mid
    if anchor is None:
        raise CoverageError("no band available to anchor the continuation")
    k0 = quasimomentum_main(bands, anchor, side=side, tol=tol).value
    delta_of = lambda z: discriminant(model.V, z, tol)
    k = _track_momentum(delta_of, complex(anchor), complex(k0), complex(E_re, E_im))
    return QuasiMomentumValue(value=k, energy=complex(E_re, E_im))


# ---------------------------------------------------------------------------
# Floquet multipliers


def bloch_floquet(V: PeriodicPotential, E, tol: float = 1e-10):
    """Floquet multiplier and Bloch direction of the period map at E.

    Returns (multiplier, direction) where direction is the eigenvector
    normalized to unit first component.  Off the bands the growing
    solution is selected (|multiplier| > 1); on a band the eigenvalue
    with nonnegative imaginary part is returned.  Energies within `tol`
    of a band edge are rejected: the period map is then a Jordan block
    and no eigenbasis exists.
    """
    fm = fundamental_matrix(V, E, 0.0, 1.0, tol)
    m = fm.matrix
    tr = m[0, 0] + m[1, 1]
    disc = tr * tr - 4.0
    if abs(disc) <= 100.0 * tol * max(1.0, abs(tr)):
        raise DegeneratePointError(
            f"energy {E} is at a band edge within tolerance; period map is defective"
        )
    r = cmath.sqrt(complex(disc))
    cand = [(tr + r) / 2.0, (tr - r) / 2.0]
    mags = [abs(c) for c in cand]
    if abs(mags[0] - mags[1]) <= 1e-9 * max(mags):
        lam = cand[0] if cand[0].imag >= 0 else cand[1]
    else:
        lam = cand[0] if mags[0] > mags[1] else cand[1]
    if abs(lam.imag) < 1e-14 * abs(lam.real):
        lam = complex(lam.real, 0.0)
    # eigenvector from the better-conditioned row
    v1 = (complex(m[0, 1]), lam - complex(m[0, 0]))
    v2 = (lam - complex(m[1, 1]), complex(m[1, 0]))
    v = v1 if abs(v1[0]) + abs(v1[1]) >= abs(v2[0]) + abs(v2[1]) else v2
    norm = math.hypot(abs(v[0]), abs(v[1]))
    if abs(v[0]) < 1e-12 * norm:
        raise DegeneratePointError("Bloch direction has vanishing first component")
    direction = np.array([1.0 + 0.0j, v[1] / v[0]])
    return lam, direction
