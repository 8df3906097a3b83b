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
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebpts1, chebvander
from scipy.optimize import brentq, minimize_scalar

from . import _ode
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

    def min_value(self) -> float:
        """Lower bound for V (exact for piecewise data, dense grid otherwise)."""
        if self.kind == "piecewise-constant":
            return min(v for _, v in self.segments)
        xs = np.linspace(0.0, 1.0, 4097)
        vals = np.zeros_like(xs)
        for f, c, s in self.coefficients:
            vals += c * np.cos(TWO_PI * f * xs) + s * np.sin(TWO_PI * f * xs)
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
    """Exact segment-product propagation for piecewise-constant V."""
    breaks = [b for b, _ in V.segments]
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
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
            C, S = _ode.constant_coefficient_step(value - E, length)
            w = value - E
            a, c = C * a + S * c, w * S * a + C * c
            b, d = C * b + S * d, w * S * b + C * d
            nseg += 1
        x = end
    scale = max(abs(a), abs(b), abs(c), abs(d), 1.0)
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
        (a, b, c, d), err = _propagate_piecewise(V, E, x0, x1)
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
        return a + d
    fm = fundamental_matrix(V, E, 0.0, 1.0, tol)
    m = fm.matrix
    return m[0, 0] + m[1, 1]


def _discriminant_batch(V: PeriodicPotential, energies: np.ndarray,
                        tol: float) -> np.ndarray:
    """Discriminant of a trigonometric V at many real energies.

    The energies go through ``_ode.transfer_batch`` together, in chunks of
    at most ``_ode.CHUNK``: fixed-step DOPRI5 in which every step of every
    energy passes ``propagate``'s error test at rtol = tol, atol = tol *
    1e-2.  V is sampled once per stage node and shared by all energies.
    """
    q = V.evaluator()
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


class DiscriminantModel:
    """Chebyshev acceleration of the discriminant on a real energy interval.

    The discriminant is entire in E, so moderate-degree panels reproduce it
    to near machine precision.  The first-kind Chebyshev nodes of every
    panel (those of ``Chebyshev.interpolate``) are filled in one batched
    integration over energies (``_discriminant_batch``).  Used internally
    wherever many real-energy evaluations are needed (band scans, branch
    tables, action quadratures).  Piecewise-constant potentials skip the
    panels: their exact product formula is already cheap.
    """

    def __init__(self, V: PeriodicPotential, lo: float, hi: float, *,
                 node_tol: float = 1e-12, panel_width: float = 4.0, degree: int = 64):
        if not (hi > lo):
            raise InvalidInputError("empty model interval")
        self.V = V
        self.lo = float(lo)
        self.hi = float(hi)
        self.node_tol = node_tol
        self.direct = V.kind == "piecewise-constant"
        if self.direct:
            self._panels: list[Chebyshev] = []
            self._bounds = np.array([lo, hi])
            return
        npanels = max(1, math.ceil((hi - lo) / panel_width))
        self._bounds = np.linspace(lo, hi, npanels + 1)
        domains = np.column_stack([self._bounds[:-1], self._bounds[1:]])
        mid, half = domains.mean(axis=1), 0.5 * np.diff(domains, axis=1)[:, 0]
        x = chebpts1(degree + 1)
        values = _discriminant_batch(V, (mid[:, None] + half[:, None] * x).ravel(),
                                     node_tol).reshape(npanels, degree + 1)
        # interpolation coefficients at the first-kind nodes, as in
        # numpy's chebinterpolate
        coef = values @ chebvander(x, degree) / (0.5 * (degree + 1))
        coef[:, 0] *= 0.5
        self._panels = [Chebyshev(c, domain=d) for c, d in zip(coef, domains)]

    def __call__(self, E):
        arr = np.asarray(E, dtype=float)
        scalar = arr.ndim == 0
        xs = np.atleast_1d(arr)
        if xs.size and (xs.min() < self.lo - 1e-9 or xs.max() > self.hi + 1e-9):
            raise InvalidInputError(
                f"energy outside model interval [{self.lo}, {self.hi}]"
            )
        if self.direct:
            out = np.array([discriminant(self.V, float(e)) for e in xs])
        else:
            idx = np.clip(np.searchsorted(self._bounds, xs, side="right") - 1, 0,
                          len(self._panels) - 1)
            out = np.empty_like(xs)
            for i, panel in enumerate(self._panels):
                mask = idx == i
                if mask.any():
                    out[mask] = panel(xs[mask])
        return float(out[0]) if scalar else out

    def derivative(self, E: float) -> float:
        """d/dE of the discriminant (panel derivative, or a central
        difference for the exact piecewise route)."""
        e = float(E)
        if not (self.lo - 1e-9 <= e <= self.hi + 1e-9):
            raise InvalidInputError(
                f"energy outside model interval [{self.lo}, {self.hi}]"
            )
        if self.direct:
            h = 1e-6 * (1.0 + abs(e))
            return (discriminant(self.V, e + h)
                    - discriminant(self.V, e - h)) / (2.0 * h)
        if not hasattr(self, "_deriv_panels"):
            self._deriv_panels = [p.deriv() for p in self._panels]
        i = int(np.clip(np.searchsorted(self._bounds, e, side="right") - 1, 0,
                        len(self._panels) - 1))
        return float(self._deriv_panels[i](e))


# ---------------------------------------------------------------------------
# band structure


@dataclass(frozen=True)
class BandStructure:
    """Edge sequence E_1 <= E_2 <= ... below a ceiling, with gap flags.

    Closed gaps appear as exactly repeated edge values.  The edge count is
    odd when the last band is cut off by the ceiling.  ``gap_open[k-1]``
    refers to gap k = (E_{2k}, E_{2k+1}).
    """

    edges: tuple[float, ...]
    gap_open: tuple[bool, ...]
    ceiling: float
    edge_tol: float

    def __post_init__(self):
        if any(e2 < e1 for e1, e2 in zip(self.edges, self.edges[1:])):
            raise InvalidInputError("edges must be nondecreasing")

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


def _weyl_grid(lo: float, hi: float, offset: float) -> np.ndarray:
    """Scan grid with step tied to the asymptotic edge spacing 2 pi sqrt(E)."""
    pts = [lo]
    x = lo
    while x < hi:
        step = min(0.08, TWO_PI * math.sqrt(max(x - offset, 1.0)) / 256.0)
        x = min(x + step, hi)
        pts.append(x)
        if len(pts) > 2_000_000:
            raise ResolutionFailure("scan grid exploded; ceiling too large?")
    return np.array(pts)


def band_edges(V: PeriodicPotential, ceiling: float, tol: float = 1e-10) -> BandStructure:
    """All band edges below `ceiling` by scan-bracket-bisection on the
    discriminant.

    The scan works on f = trace^2 - 4 evaluated through a Chebyshev model
    of the discriminant; sign changes are bisected, and local maxima of f
    inside bands are refined to catch narrow or closed gaps (double roots).
    Each simple root is polished with the adaptive integrator directly.
    A closed gap is recorded as a repeated edge with its flag False.
    """
    vmin = V.min_value()
    start = vmin - 1e-3 * (1.0 + abs(vmin))
    if ceiling <= start:
        raise InvalidInputError(f"ceiling {ceiling} below the potential minimum")
    # the grid first: its size guard must fire before the model lays out
    # its panels, which grow with the ceiling
    grid = _weyl_grid(start, ceiling, offset=vmin)
    model = DiscriminantModel(V, start - 0.5, ceiling + 0.5,
                              node_tol=min(1e-12, tol * 1e-2))
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

    def f_direct(E):
        t = discriminant(V, E, tol)
        return t * t - 4.0

    def polish(root: float) -> float:
        w = 100.0 * max(tol, 1e-12) * max(1.0, abs(root))
        a, b = root - w, root + w
        try:
            fa, fb = f_direct(a), f_direct(b)
            if fa == 0.0:
                return a
            if fb == 0.0:
                return b
            if fa * fb < 0:
                return brentq(f_direct, a, b, xtol=tol * 0.5, rtol=1e-15)
        except (ValueError, ConsistencyError):
            pass
        return root

    simple: list[float] = []
    for i in np.flatnonzero(f[:-1] * f[1:] < 0):
        r = brentq(f_model, grid[i], grid[i + 1], xtol=tol * 0.25, rtol=1e-15)
        simple.append(polish(float(r)))

    doubles: list[float] = []
    noise = 4e-9
    interior = np.flatnonzero(
        (f[1:-1] >= f[:-2]) & (f[1:-1] >= f[2:]) & (f[1:-1] < 0.0)
    ) + 1
    for i in interior:
        if f[i] < -1e-4:
            continue  # plainly inside a band
        res = minimize_scalar(
            lambda E: -f_model(E),
            bounds=(grid[i - 1], grid[i + 1]),
            method="bounded",
            options={"xatol": tol * 1e-2},
        )
        e_star, f_star = float(res.x), -float(res.fun)
        if f_star > noise:
            # a narrow open gap the scan grid stepped over
            for a, b in ((grid[i - 1], e_star), (e_star, grid[i + 1])):
                if f_model(a) * f_model(b) < 0:
                    r = brentq(f_model, a, b, xtol=tol * 0.25, rtol=1e-15)
                    simple.append(polish(float(r)))
        elif f_star > -noise:
            doubles.append(e_star)

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
                         ceiling=float(ceiling), edge_tol=tol)


# ---------------------------------------------------------------------------
# quasi-momentum


@dataclass(frozen=True)
class QuasiMomentumValue:
    """Value of the main quasi-momentum branch at one energy."""

    value: complex
    energy: complex
    branch_tag: str = "main"
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


def _track_momentum(delta_of, z_from: complex, k_from: complex, z_to: complex,
                    max_nesting: int = 60, max_steps: int = 100000) -> complex:
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
        if steps > max_steps:
            raise PathError("continuation exceeded its step budget")
        target = stack[-1]
        d_there = delta_of(target)
        k_cand = _acos_branch_candidates(d_there / 2.0, k)
        if abs(d_there - d_here) > 0.5 or abs(k_cand - k) > 0.5:
            if len(stack) >= max_nesting or abs(target - z) < 1e-13 * scale:
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


def quasimomentum_main(V: PeriodicPotential, bands: BandStructure, E,
                       side: str = "+i0", tol: float = 1e-10) -> QuasiMomentumValue:
    """Main branch of the Bloch quasi-momentum at energy E.

    Real energies use the closed forms per spectral region (band, gap,
    below the spectrum); band edges within `tol` return the exact
    multiple of pi with the degenerate flag set.  Complex energies are
    reached by analytic continuation of cos k = trace/2 from an anchor
    inside a real band, with adaptive path subdivision.  `side` picks the
    boundary value on gap cuts (upper half-plane limit by default).
    """
    if side not in ("+i0", "-i0"):
        raise InvalidInputError(f"side must be '+i0' or '-i0', got {side!r}")
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
        d = discriminant(V, E_re, tol)
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
    if loc[0] == "band":
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
    k0 = quasimomentum_main(V, bands, anchor, side=side, tol=tol).value
    delta_of = lambda z: discriminant(V, z, tol)
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
