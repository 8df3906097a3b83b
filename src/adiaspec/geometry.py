"""Iso-energy geometry of an adiabatically modulated periodic operator.

The operator family is -psi'' + (V(x - z) + W(eps x)) psi = E psi with V of
period 1 (see :mod:`adiaspec.hill`) and W a 2 pi periodic trigonometric
polynomial evaluated on the slow variable.  For fixed total energy E the
complex momentum kappa(zeta) = k(E - W(zeta)) organizes everything: its
real branch points, the partition of a period into pre-bands and pre-gaps,
the real branches on pre-bands, and the level lines ("Stokes-type" lines)
of its antiderivative used by asymptotic constructions.

All zeta intervals refer to one period normalized so that the maximum of W
sits at zeta = 0 and the single minimum at zeta_star in (0, 2 pi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._numerics import CubicHermite, bracketed_roots, brent, pchip_slopes
from .errors import (
    ConsistencyError,
    CoverageError,
    DegeneratePointError,
    InvalidInputError,
    PathError,
    StallError,
)
from .hill import (
    BandStructure,
    ComplexDiscriminantModel,
    _acos_branch_candidates,
    _track_momentum,
    quasimomentum_main,
)

TWO_PI = 2.0 * math.pi
# points of _regular_anchor's scan within pi of its x0; the first step
# length and the step budget of trace_stokes_line
_ANCHOR_SAMPLES, _STOKES_STEP0, _STOKES_MAX_STEPS = 257, 5e-3, 20000


# ---------------------------------------------------------------------------
# slow potential


class AnalyticPotential:
    """Finite Fourier sum W(zeta) = sum c cos(f zeta) + s sin(f zeta),
    2 pi periodic, with a declared strip of analyticity |Im zeta| < Y.

    The constructor verifies that W has exactly one non-degenerate maximum
    and one non-degenerate minimum per period and translates the maximum
    to zeta = 0.  Y is the caller's statement about how far the geometry
    may be continued off the real axis; it is checked against the actual
    branch-point configuration when level lines are traced.
    """

    def __init__(self, coefficients, strip_half_width: float):
        coeffs = tuple((int(f), float(c), float(s)) for f, c, s in coefficients)
        if not coeffs or all(f == 0 or (c == 0 and s == 0) for f, c, s in coeffs):
            raise InvalidInputError("potential has no oscillating Fourier mode")
        if any(f < 0 for f, _, _ in coeffs):
            raise InvalidInputError("Fourier frequencies must be nonnegative")
        if not (strip_half_width > 0):
            raise InvalidInputError("strip half-width must be positive")
        self.strip_half_width = float(strip_half_width)
        # locate extrema of the raw sum, then shift the maximum to 0
        z_max, _ = _trig_extrema(coeffs)
        coeffs = _shift_coefficients(coeffs, z_max)
        z_max2, z_min2 = _trig_extrema(coeffs)
        if abs(z_max2) > 1e-9 and abs(z_max2 - TWO_PI) > 1e-9:
            coeffs = _shift_coefficients(coeffs, z_max2)
            _, z_min2 = _trig_extrema(coeffs)
        self.coefficients = coeffs
        self.zeta_star = z_min2 % TWO_PI
        if not (0.0 < self.zeta_star < TWO_PI):
            raise ConsistencyError("minimum did not fall inside the open period")
        self.w_plus = float(self.value(0.0))
        self.w_minus = float(self.value(self.zeta_star))
        if not self.w_plus > self.w_minus:
            raise ConsistencyError("degenerate oscillation range")

    @classmethod
    def cosine(cls, amplitude: float, strip_half_width: float) -> "AnalyticPotential":
        return cls([(1, amplitude, 0.0)], strip_half_width)

    def value(self, zeta):
        z = np.asarray(zeta)
        total = np.zeros_like(z, dtype=complex if np.iscomplexobj(z) else float)
        for f, c, s in self.coefficients:
            total = total + c * np.cos(f * z) + s * np.sin(f * z)
        if z.ndim == 0:
            return complex(total) if np.iscomplexobj(z) else float(total)
        return total

    def evaluator(self):
        """W at one point, as a complex number, without numpy: the closure
        for point-by-point loops.  It forms `value`'s sum term by term in
        the same order, so it equals ``value`` bit for bit (on real points,
        its ``.real`` does)."""
        terms = self.coefficients
        cos, sin = cmath.cos, cmath.sin

        def w(zeta) -> complex:
            total = 0j
            for f, c, s in terms:
                total = total + c * cos(f * zeta) + s * sin(f * zeta)
            return total

        return w

    def derivative(self, zeta):
        z = np.asarray(zeta)
        total = np.zeros_like(z, dtype=complex if np.iscomplexobj(z) else float)
        for f, c, s in self.coefficients:
            total = total + (-c * f) * np.sin(f * z) + (s * f) * np.cos(f * z)
        if z.ndim == 0:
            return complex(total) if np.iscomplexobj(z) else float(total)
        return total

    def __repr__(self):
        return (f"AnalyticPotential(coefficients={self.coefficients!r}, "
                f"strip_half_width={self.strip_half_width!r})")


def _trig_extrema(coeffs) -> tuple[float, float]:
    """(maximum location, minimum location) of a finite trig sum on [0, 2pi).

    Roots of the derivative come from the companion polynomial in
    u = exp(i zeta), so symmetric configurations (critical points on grid
    nodes) need no special casing.  Exactly one maximum and one minimum
    are required.
    """
    F = max(f for f, _, _ in coeffs)
    gamma = np.zeros(2 * F + 1, dtype=complex)  # index k + F
    for f, c, s in coeffs:
        if f == 0:
            gamma[F] += c
        else:
            gamma[F + f] += (c - 1j * s) / 2.0
            gamma[F - f] += (c + 1j * s) / 2.0
    dcoef = np.array([1j * (k - F) * gamma[k] for k in range(2 * F + 1)])
    # polynomial sum dcoef[k] u^k, highest degree first for np.roots
    poly = dcoef[::-1]
    poly = np.trim_zeros(poly, "f")
    if poly.size < 2:
        raise InvalidInputError("potential has no critical points")
    roots = np.roots(poly)
    angles = []
    scale = sum(f * f * (abs(c) + abs(s)) for f, c, s in coeffs)
    for r in roots:
        if abs(abs(r) - 1.0) > 1e-6:
            continue
        theta = float(np.angle(r)) % TWO_PI
        theta = _polish_critical_point(coeffs, theta, scale)
        if any(abs((theta - a + math.pi) % TWO_PI - math.pi) < 1e-7 for a in angles):
            continue
        angles.append(theta)
    maxima, minima = [], []
    for theta in angles:
        d2 = sum(-c * f * f * math.cos(f * theta) - s * f * f * math.sin(f * theta)
                 for f, c, s in coeffs)
        if abs(d2) < 1e-8 * scale:
            raise InvalidInputError(
                f"degenerate critical point of the slow potential at zeta={theta:.6f}"
            )
        (maxima if d2 < 0 else minima).append(theta)
    if len(maxima) != 1 or len(minima) != 1:
        raise InvalidInputError(
            f"slow potential must have exactly one maximum and one minimum per "
            f"period, found {len(maxima)} and {len(minima)}"
        )
    return maxima[0], minima[0]


def _polish_critical_point(coeffs, theta: float, scale: float) -> float:
    def d1(t):
        return sum(-c * f * math.sin(f * t) + s * f * math.cos(f * t)
                   for f, c, s in coeffs)

    def d2(t):
        return sum(-c * f * f * math.cos(f * t) - s * f * f * math.sin(f * t)
                   for f, c, s in coeffs)

    for _ in range(60):
        g, h = d1(theta), d2(theta)
        if h == 0.0:
            break
        step = g / h
        theta -= step
        if abs(step) < 1e-15:
            break
    return theta % TWO_PI


def _shift_coefficients(coeffs, delta: float):
    """Coefficients of zeta -> W(zeta + delta)."""
    out = []
    for f, c, s in coeffs:
        cd, sd = math.cos(f * delta), math.sin(f * delta)
        out.append((f, c * cd + s * sd, s * cd - c * sd))
    return tuple(out)


# ---------------------------------------------------------------------------
# spectral window


@dataclass(frozen=True)
class WindowReport:
    """Admissibility of one energy for a chosen band block [n, n + m].

    a1: the bands n..n+m are isolated (their bounding gaps are open);
    a2: all edges of those bands lie strictly inside the energy window
        [E - max W, E - min W];
    a3: the rest of the spectrum stays strictly outside the window.
    ``edge_margins`` lists, per contained edge, the distance to the nearer
    window endpoint; ``outside_margins`` gives the clearances of the two
    excluded neighbour edges (infinite below the first band).
    """

    energy: float
    n: int
    m: int
    window: tuple[float, float]
    a1_ok: bool
    a2_ok: bool
    a3_ok: bool
    edge_margins: tuple[float, ...]
    outside_margins: tuple[float, float]

    @property
    def all_ok(self) -> bool:
        return self.a1_ok and self.a2_ok and self.a3_ok

    @property
    def margin(self) -> float:
        """Smallest clearance over all window conditions (negative if violated)."""
        vals = list(self.edge_margins) + [v for v in self.outside_margins
                                          if math.isfinite(v)]
        return min(vals) if vals else -math.inf

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "n": self.n,
            "m": self.m,
            "window": list(self.window),
            "a1_ok": self.a1_ok,
            "a2_ok": self.a2_ok,
            "a3_ok": self.a3_ok,
            "edge_margins": list(self.edge_margins),
            "outside_margins": [
                v if math.isfinite(v) else None for v in self.outside_margins
            ],
            "all_ok": self.all_ok,
        }


def analyze_window(W: AnalyticPotential, bands: BandStructure, E: float,
                   n: int, m: int) -> WindowReport:
    """Check the three admissibility conditions of the energy window."""
    top_edge = _check_block(bands, n, m)
    lo, hi = E - W.w_plus, E - W.w_minus
    a1 = all(bands.is_gap_open(j) for j in range(max(0, n - 1), n + m + 1))
    edge_margins = []
    for j in range(2 * n - 1, 2 * (n + m) + 1):
        e = bands.edge(j)
        edge_margins.append(min(e - lo, hi - e))
    a2 = all(v > 0 for v in edge_margins)
    below = lo - bands.edge(2 * n - 2) if n >= 2 else math.inf
    above = bands.edge(top_edge) - hi
    a3 = below > 0 and above > 0
    return WindowReport(energy=float(E), n=n, m=m, window=(lo, hi),
                        a1_ok=a1, a2_ok=a2, a3_ok=a3,
                        edge_margins=tuple(edge_margins),
                        outside_margins=(below, above))


def _check_block(bands: BandStructure, n: int, m: int) -> int:
    """Index of the first edge above the band block [n, n + m]; raises if
    the block is malformed or the band table does not reach that edge."""
    if n < 1 or m < 0:
        raise InvalidInputError("need n >= 1 and m >= 0")
    top_edge = 2 * (n + m) + 1
    if len(bands.edges) < top_edge:
        raise CoverageError(
            f"band table has {len(bands.edges)} edges, needs {top_edge}; "
            f"raise the ceiling"
        )
    return top_edge


def best_window_energy(W: AnalyticPotential, bands: BandStructure, n: int, m: int,
                       samples: int = 2001) -> float:
    """Energy maximizing the window margin; raises if no admissible energy.

    The margin of ``analyze_window`` is evaluated on the whole grid in one
    array pass, with the same float operations, and the first maximum wins.
    """
    lo_e = bands.edge(2 * (n + m)) - W.w_plus  # least E putting the block inside
    hi_e = bands.edge(2 * n - 1) - W.w_minus
    top = _check_block(bands, n, m)
    grid = np.linspace(lo_e, hi_e, samples)
    lo, hi = grid - W.w_plus, grid - W.w_minus
    edges = np.array([bands.edge(j) for j in range(2 * n - 1, top)])[:, None]
    margins = [np.minimum(edges - lo, hi - edges).min(axis=0),
               bands.edge(top) - hi]
    if n >= 2:
        margins.append(lo - bands.edge(2 * n - 2))
    best_E = float(grid[np.argmax(np.min(margins, axis=0))])
    if not analyze_window(W, bands, best_E, n, m).all_ok:
        raise InvalidInputError(
            f"no admissible energy for bands {n}..{n + m} with this W"
        )
    return best_E


# ---------------------------------------------------------------------------
# branch points and interval families


@dataclass(frozen=True, order=True)
class BandLabel:
    """Pre-band label: spectral band index and the half-period side."""

    index: int
    side: str  # '-' (left of zeta_star) or '+'

    def __str__(self):
        return f"z{self.index}{self.side}"


@dataclass(frozen=True, order=True)
class GapLabel:
    """Pre-gap label: spectral gap index; side is None for the two
    pre-gaps around the window extremes (through 0 and zeta_star)."""

    index: int
    side: str | None = None

    def __str__(self):
        return f"g{self.index}{self.side or ''}"


@dataclass(frozen=True)
class IsoEnergyGeometry:
    """Branch points and the pre-band/pre-gap tiling for one energy.

    One period [zeta^+_{2n-1} - 2 pi, zeta^+_{2n-1}] is tiled by the
    closures of 2(m+1) pre-bands and 2m+2 pre-gaps.  ``branch_zetas`` maps
    (edge index, side) to the branch point location on the corresponding
    half-period.  ``W`` and ``bands`` (whose discriminant model carries V)
    are the operator the geometry was built from.
    """

    energy: float
    n: int
    m: int
    zeta_star: float
    window: tuple[float, float]
    branch_zetas: tuple[tuple[int, str, float], ...]
    pre_bands: tuple[tuple[BandLabel, tuple[float, float]], ...]
    pre_gaps: tuple[tuple[GapLabel, tuple[float, float]], ...]
    strip_violations: tuple[tuple[int, float], ...]
    W: AnalyticPotential = field(repr=False, compare=False)
    bands: BandStructure = field(repr=False, compare=False)

    def branch_zeta(self, edge_index: int, side: str) -> float:
        for j, s, z in self.branch_zetas:
            if j == edge_index and s == side:
                return z
        raise KeyError((edge_index, side))

    def pre_band(self, label: BandLabel) -> tuple[float, float]:
        for lab, iv in self.pre_bands:
            if lab == label:
                return iv
        raise KeyError(label)

    def pre_gap(self, label: GapLabel) -> tuple[float, float]:
        for lab, iv in self.pre_gaps:
            if lab == label:
                return iv
        raise KeyError(label)

    @property
    def gap_labels(self) -> tuple[GapLabel, ...]:
        return tuple(lab for lab, _ in self.pre_gaps)

    @property
    def band_labels(self) -> tuple[BandLabel, ...]:
        return tuple(lab for lab, _ in self.pre_bands)

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "n": self.n,
            "m": self.m,
            "zeta_star": self.zeta_star,
            "window": list(self.window),
            "branch_points": [
                {"edge": j, "side": s, "zeta": z} for j, s, z in self.branch_zetas
            ],
            "pre_bands": [
                {"label": str(lab), "interval": list(iv)} for lab, iv in self.pre_bands
            ],
            "pre_gaps": [
                {"label": str(lab), "interval": list(iv)} for lab, iv in self.pre_gaps
            ],
            "strip_violations": [list(v) for v in self.strip_violations],
        }


def strip_clearance(W: AnalyticPotential, bands: BandStructure, E: float,
                    levels: int = 48) -> tuple[tuple[int, float], ...]:
    """Branch points off the real axis but inside the declared strip.

    Complex zeros of E - W(zeta) - E_j can only lie on the two curves of
    W^{-1}(R) rising from the critical points of W (the period has exactly
    one maximum and one minimum).  Both curves are followed upward by
    keeping Im W = 0; wherever E - W crosses a resolved band edge inside
    the strip a violation (edge index, Im zeta) is recorded.
    """
    out: list[tuple[int, float]] = []
    w = W.evaluator()
    for base in (0.0, W.zeta_star):
        ys = np.linspace(0.0, W.strip_half_width, levels + 1)[1:]
        x = base
        values = [w(base).real]
        for y in ys:
            def im_w(t):
                return w(complex(t, y)).imag
            lo_t, hi_t = x - 0.45, x + 0.45
            f_lo, f_hi = im_w(lo_t), im_w(hi_t)
            try:
                if f_lo * f_hi > 0:
                    break  # curve left the tracking window; treat as departed
                x = brent(im_w, lo_t, hi_t, xtol=1e-10, fa=f_lo, fb=f_hi)
            except ValueError:
                break
            values.append(w(complex(x, y)).real)
        w_arr = np.array(values)
        lo, hi = w_arr.min(), w_arr.max()
        for j, e in enumerate(bands.edges, start=1):
            t = E - e
            crossed = (lo - 1e-12 <= t <= hi + 1e-12) and not (
                min(w_arr[0], t) == t == w_arr[0]
            )
            if crossed and abs(t - w_arr[0]) > 1e-9:
                # invert the sampled curve for the approximate height
                k = int(np.argmin(np.abs(w_arr - t)))
                y_hit = (0.0 if k == 0 else float(ys[k - 1]))
                out.append((j, y_hit))
    return tuple(out)


def branch_points(W: AnalyticPotential, bands: BandStructure,
                  report: WindowReport, *, xtol: float = 1e-12) -> IsoEnergyGeometry:
    """Solve W(zeta) = E - E_j on both monotone half-periods for every
    in-window edge and assemble the pre-band/pre-gap families.

    Requires an all-clear window report.  The interlacing of the branch
    points and the tiling of one period are validated before returning.
    """
    if not report.all_ok:
        raise InvalidInputError(
            "window conditions fail; iso-energy geometry is undefined"
        )
    E, n, m = report.energy, report.n, report.m
    zs = W.zeta_star
    js = range(2 * n - 1, 2 * (n + m) + 1)
    targets = [E - bands.edge(j) for j in js]
    zm, zp = (_invert_w(W, targets, side, xtol).tolist() for side in "-+")
    pts = [(j, s, z) for j, a, b in zip(js, zm, zp)
           for s, z in (("-", a), ("+", b))]
    bz = {(j, s): z for j, s, z in pts}

    full = [0.0] + zm + [zs] + zp[::-1] + [TWO_PI]
    if any(b <= a for a, b in zip(full, full[1:])):
        raise ConsistencyError(f"branch points do not interlace: {full}")

    pre_bands = []
    for j in range(n, n + m + 1):
        pre_bands.append((BandLabel(j, "-"), (bz[2 * j - 1, "-"], bz[2 * j, "-"])))
        pre_bands.append((BandLabel(j, "+"), (bz[2 * j, "+"], bz[2 * j - 1, "+"])))
    pre_gaps = [(GapLabel(n - 1, None),
                 (bz[2 * n - 1, "+"] - TWO_PI, bz[2 * n - 1, "-"]))]
    for j in range(n, n + m):
        pre_gaps.append((GapLabel(j, "-"), (bz[2 * j, "-"], bz[2 * j + 1, "-"])))
    pre_gaps.append((GapLabel(n + m, None),
                     (bz[2 * (n + m), "-"], bz[2 * (n + m), "+"])))
    for j in range(n + m - 1, n - 1, -1):
        pre_gaps.append((GapLabel(j, "+"), (bz[2 * j + 1, "+"], bz[2 * j, "+"])))

    # tiling must cover one full period without holes
    pieces = sorted(
        [iv for _, iv in pre_bands] + [iv for _, iv in pre_gaps]
    )
    left_end = bz[2 * n - 1, "+"] - TWO_PI
    cursor = left_end
    for a, b in pieces:
        if abs(a - cursor) > 1e-9:
            raise ConsistencyError("pre-band/pre-gap tiling has a hole")
        cursor = b
    if abs(cursor - bz[2 * n - 1, "+"]) > 1e-9:
        raise ConsistencyError("pre-band/pre-gap tiling does not close the period")
    if not any(a < 0.0 < b for a, b in (pre_gaps[0][1],)):
        raise ConsistencyError("window-bottom pre-gap misses zeta = 0")

    violations = strip_clearance(W, bands, E)
    return IsoEnergyGeometry(
        energy=E, n=n, m=m, zeta_star=zs, window=report.window,
        branch_zetas=tuple(pts), pre_bands=tuple(pre_bands),
        pre_gaps=tuple(pre_gaps), strip_violations=violations,
        W=W, bands=bands,
    )


# ---------------------------------------------------------------------------
# complex momentum


def complex_momentum(W: AnalyticPotential, bands: BandStructure, E: float,
                     zeta, side: str = "+i0", tol: float = 1e-10) -> complex:
    """kappa(zeta) = k(E - W(zeta)) on the main branch, for the periodic
    operator of the band table (``bands.discriminant_model()``).

    For real zeta on a pre-gap the two boundary values differ; `side`
    picks the limit from the upper ('+i0', Im kappa > 0 on every pre-gap)
    or lower half-strip ('-i0', the complex conjugate).  Off-axis points
    are reached by analytic continuation from a real anchor inside a
    nearby pre-band; the path is subdivided adaptively and refuses to
    cross a branch point.  Along it the discriminant is read from
    ``strip_model(bands, W, E, tol)``.
    """
    if side not in ("+i0", "-i0", "off-axis"):
        raise InvalidInputError(
            f"side must be '+i0', '-i0' or 'off-axis', got {side!r}"
        )
    z = complex(zeta)
    w = W.evaluator()
    if z.imag == 0.0:
        loc_E = E - w(z.real).real
        upper = complex(quasimomentum_main(bands, loc_E, side="+i0",
                                           tol=tol).value)
        # the lower boundary value is the Schwarz reflection of the upper
        return upper.conjugate() if side == "-i0" else upper
    anchor = _regular_anchor(W, bands, E, z.real, tol)
    k0 = quasimomentum_main(bands, E - w(anchor).real, tol=tol).value
    model = strip_model(bands, W, E, tol)

    def delta_of(p):
        return model(E - w(p))

    try:
        return complex(_track_momentum(delta_of, complex(anchor), complex(k0), z))
    except PathError:
        # a straight path may clip a real branch point; go around vertically
        way = complex(anchor, z.imag)
        k_mid = _track_momentum(delta_of, complex(anchor), complex(k0), way)
        return complex(_track_momentum(delta_of, way, k_mid, z))


def _regular_anchor(W, bands, E, x0: float, tol: float) -> float:
    """Real zeta near x0 whose local energy sits well inside a band."""
    grid = x0 + np.linspace(-math.pi, math.pi, _ANCHOR_SAMPLES)
    w = W.evaluator()
    best, best_score = None, -math.inf
    for z in grid.tolist():
        e = E - w(z).real
        loc = bands.locate(e, atol=100 * tol)
        if loc[0] != "band":
            continue
        lo, hi = bands.band(loc[1])
        score = min(e - lo, hi - e) - 0.05 * abs(z - x0)
        if score > best_score:
            best, best_score = z, score
    if best is None:
        raise PathError(
            f"no regular anchor found near zeta = {x0}: the local energy "
            f"leaves every resolved band"
        )
    return best


# ---------------------------------------------------------------------------
# real branches on pre-bands


class RealBranch:
    """Monotone table of the real branch zeta(kappa) over one pre-band.

    Parameterized by kappa in [0, pi] measured from the band bottom edge
    value pi (j - 1); the stored table starts at the branch point where
    kappa = 0 (the endpoint with the larger W value) and is extended to
    all real kappa by even 2 pi periodic reflection.
    """

    def __init__(self, label: BandLabel, kappa_grid: np.ndarray,
                 zeta_values: np.ndarray, derivatives: np.ndarray | None = None):
        d = np.diff(zeta_values)
        if not ((d > 0).all() or (d < 0).all()):
            raise ConsistencyError(f"branch table for {label} is not monotone")
        self.label = label
        self.kappa_grid = kappa_grid
        self.zeta_values = zeta_values
        if derivatives is None:
            derivatives = pchip_slopes(kappa_grid, zeta_values)
        # exact slopes, where given, keep full interpolation order at the
        # flat endpoints, where kappa resolves a square root of zeta
        self._interp = CubicHermite(kappa_grid, zeta_values, derivatives)

    def __call__(self, kappa):
        k = np.asarray(kappa, dtype=float)
        folded = np.abs(k) % TWO_PI
        folded = np.where(folded > math.pi, TWO_PI - folded, folded)
        out = self._interp(folded)
        return float(out) if k.ndim == 0 else out

    def table(self) -> np.ndarray:
        return np.column_stack([self.kappa_grid, self.zeta_values])


def _invert_w(W: AnalyticPotential, targets, side: str, xtol: float):
    """zeta with W(zeta) = target on the monotone half-period of `side`
    ('-': (0, zeta_star), '+': (zeta_star, 2 pi)), one per target."""
    a, b = (0.0, W.zeta_star) if side == "-" else (W.zeta_star, TWO_PI)
    targets = np.asarray(targets, dtype=float)
    return bracketed_roots(lambda z: W.value(z) - targets, a, b, xtol)


def real_branch(geom: IsoEnergyGeometry, label: BandLabel,
                points: int = 512) -> RealBranch:
    """Tabulated real branch zeta(kappa) on the pre-band `label`.

    Interior nodes invert the quasi-momentum on the spectral band through
    the band scan's discriminant model (``geom.bands``), then invert
    W on the proper half-period, all nodes at once
    (``_numerics.bracketed_roots``); the two endpoints are taken verbatim
    from the branch points so the table is exactly consistent with the
    geometry.
    """
    geom.pre_band(label)
    model = geom.bands.discriminant_model()
    j, side = label.index, label.side
    band_lo, band_hi = geom.bands.band(j)
    sgn = (-1.0) ** (j - 1)

    # Nodes cluster quadratically toward kappa = 0 and pi: the inverse map
    # k(zeta) steepens like 1/kappa there, so edge panels must shrink for
    # the round trip to stay uniformly accurate.
    kg = 0.5 * math.pi * (1.0 - np.cos(np.linspace(0.0, math.pi, points)))
    kg[0], kg[-1] = 0.0, math.pi
    kap = kg[1:-1]
    # solve in the discriminant, not in k: the residual stays
    # well-conditioned at the edges where dk/dE blows up
    want = 2.0 * np.cos(kap)
    pad = 1e-12 * max(1.0, band_hi - band_lo)
    e_lo, e_hi = band_lo + pad, band_hi - pad
    f_lo = sgn * model(e_lo) - want
    f_hi = sgn * model(e_hi) - want
    # nodes whose target the model misses inside the padded band are
    # clamped to the nearer end
    inside = (f_lo > 0.0) & (f_hi < 0.0)
    e = np.where(f_lo <= 0.0, e_lo, e_hi)
    if inside.any():
        e[inside] = bracketed_roots(lambda t: sgn * model(t) - want[inside],
                                    e_lo, e_hi, xtol=1e-14, rtol=1e-15)
    zeta_in = _invert_w(geom.W, geom.energy - e, side, xtol=1e-13)
    # d zeta / d kappa through the chain kappa = k(E - W(zeta))
    dk_dE = -sgn * model.derivative(e) / (2.0 * np.sin(kap))
    dE_dz = -geom.W.derivative(zeta_in)
    zetas = np.concatenate(([geom.branch_zeta(2 * j - 1, side)], zeta_in,
                            [geom.branch_zeta(2 * j, side)]))
    slopes = np.concatenate(([0.0], 1.0 / (dk_dE * dE_dz), [0.0]))
    return RealBranch(label, kg, zetas, derivatives=slopes)


# ---------------------------------------------------------------------------
# Stokes-type level lines


@dataclass
class StokesLine:
    """Polyline of a level line of Im (integral of kappa - shift) d zeta.

    ``points``/``kappa`` sample the accepted nodes, ``mids``/``mid_kappa``
    the step midpoints (used for Simpson-type level integration).  `reason`
    records why tracing stopped; `fallbacks` counts the discriminant values
    the trace's strip panel left to the scalar integrator.
    """

    family: str
    direction: int
    points: np.ndarray
    kappa: np.ndarray
    mids: np.ndarray
    mid_kappa: np.ndarray
    steps: np.ndarray
    length: float
    reason: str
    fallbacks: int = 0

    @property
    def shift(self) -> float:
        return math.pi if self.family == "kappa-pi" else 0.0

    def level_values(self) -> np.ndarray:
        """Im of the accumulated integral of (kappa - shift) at each node.

        Quadrature uses only the polyline geometry: zeta is fitted
        quadratically through node-midpoint-node and the integrand is
        integrated exactly against it, so any drift of the tracer off
        the true level line shows up here rather than cancelling.
        """
        vals = np.zeros(len(self.points))
        acc = 0.0
        for i in range(len(self.points) - 1):
            p0, pm, p1 = self.points[i], self.mids[i], self.points[i + 1]
            f0 = self.kappa[i] - self.shift
            fm = self.mid_kappa[i] - self.shift
            f1 = self.kappa[i + 1] - self.shift
            seg = ((4.0 * pm - 3.0 * p0 - p1) * (f0 + 4.0 * fm + f1) / 6.0
                   + 2.0 * (p0 - 2.0 * pm + p1) * (2.0 * fm + f1) / 3.0)
            acc += seg.imag
            vals[i + 1] = acc
        return vals

    def level_drift(self) -> float:
        vals = self.level_values()
        return float(np.max(np.abs(vals))) if len(vals) else 0.0


def strip_model(bands: BandStructure, W: AnalyticPotential, E: float,
                tol: float = 1e-9) -> ComplexDiscriminantModel:
    """Discriminant model at every E - W(zeta) of the strip |Im zeta| <= Y:
    one panel over the real projection of those energies, re-sampled from
    the band scan's model (``bands.discriminant_model()``)."""
    Y = W.strip_half_width
    # |Re (c cos f zeta + s sin f zeta)| <= hypot(c, s) cosh(f Y) on the strip
    center = E - sum(c for f, c, _ in W.coefficients if f == 0)
    reach = sum(math.hypot(c, s) * math.cosh(f * Y)
                for f, c, s in W.coefficients if f > 0)
    return ComplexDiscriminantModel(bands.discriminant_model(), center - reach,
                                    center + reach, tol)


def trace_stokes_line(W: AnalyticPotential, bands: BandStructure, E: float,
                      start, family: str = "kappa", direction: int = 1,
                      max_length: float = 2.0, *, tol: float = 1e-9) -> StokesLine:
    """Trace the level line of Im int (kappa - shift) d zeta through `start`,
    kappa the complex momentum of ``bands``' operator and W.

    The curve solves d zeta / ds = conj(kappa(zeta) - shift) normalized to
    unit speed (shift = pi for the 'kappa-pi' family), so the level value
    is constant along it.  Steps are Runge-Kutta with halved-step error
    control; the complex momentum is branch-tracked along the curve.
    Tracing stops at the strip boundary, near a branch point, at
    `max_length` (InvalidInputError unless positive), or when the tangent
    field stalls.

    The discriminant at E - W(zeta) comes from the trace's own
    ``strip_model(bands, W, E, tol)``, a bounded Chebyshev panel that
    falls back to the scalar integrator wherever its error bound exceeds
    `tol`; ``fallbacks`` counts those points.  Each accepted step
    evaluates it 12 times: every point is evaluated once, and the end of
    a step serves the start of the next.
    """
    if family not in ("kappa", "kappa-pi"):
        raise InvalidInputError(f"unknown family {family!r}")
    if direction not in (1, -1):
        raise InvalidInputError("direction must be +1 or -1")
    if not max_length > 0:
        raise InvalidInputError(f"max_length must be positive, got {max_length}")
    violations = strip_clearance(W, bands, E)
    if violations:
        raise InvalidInputError(
            f"strip of half-width {W.strip_half_width} contains complex branch "
            f"points: {violations}; shrink the declared strip"
        )
    shift = math.pi if family == "kappa-pi" else 0.0
    Y = W.strip_half_width
    z0 = complex(start)

    # branch points of this energy, with 2 pi translates, for stop radius
    targets = [E - e for e in bands.edges if W.w_minus < E - e < W.w_plus]
    stops: list[complex] = [
        complex(r + shift2, 0.0)
        for side in ("-", "+") for r in _invert_w(W, targets, side, xtol=1e-12)
        for shift2 in (-TWO_PI, 0.0, TWO_PI)
    ]
    r_stop = max(1e3 * bands.edge_tol, 1e-7)
    if stops and min(abs(z0 - s) for s in stops) < r_stop:
        raise DegeneratePointError(
            "cannot start a level line at a branch point"
        )

    model = strip_model(bands, W, E, tol)
    w = W.evaluator()

    def delta_of(p: complex):
        return model(E - w(p))

    anchor = _regular_anchor(W, bands, E, z0.real, tol)
    k0 = quasimomentum_main(bands, E - w(anchor).real, tol=tol).value
    # vertically off the axis, then level to the start
    way = complex(anchor, z0.imag)
    k_mid = _track_momentum(delta_of, complex(anchor), complex(k0), way)
    k_cur = _track_momentum(delta_of, way, k_mid, z0)

    def tangent(d: complex, k_ref: complex):
        k = _acos_branch_candidates(d / 2.0, k_ref)
        if abs(k - k_ref) > 0.35:
            raise PathError("momentum jumped within one step")
        u = k.conjugate() - shift
        mag = abs(u)
        if mag < 1e-9:
            raise StallError("tangent field vanished (level line terminates)")
        return direction * u / mag, k

    def rk4_step(p: complex, d: complex, k_ref: complex, h: float):
        # classic RK4 on the unit field from p, where the discriminant is d;
        # returns the end point with its momentum and discriminant
        f1, k1 = tangent(d, k_ref)
        f2, _ = tangent(delta_of(p + 0.5 * h * f1), k1)
        f3, _ = tangent(delta_of(p + 0.5 * h * f2), k1)
        f4, _ = tangent(delta_of(p + h * f3), k1)
        p_new = p + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        d_new = delta_of(p_new)
        _, k_new = tangent(d_new, k1)
        return p_new, k_new, d_new

    pts = [z0]
    ks = [complex(k_cur)]
    d_cur = delta_of(z0)
    mids: list[complex] = []
    mid_ks: list[complex] = []
    hs: list[float] = []
    h = _STOKES_STEP0
    length = 0.0
    reason = "step-limit"
    for _ in range(_STOKES_MAX_STEPS):
        if length >= max_length:
            reason = "max-length"
            break
        if abs(pts[-1].imag) >= Y:
            reason = "strip-boundary"
            break
        if stops and min(abs(pts[-1] - s) for s in stops) < r_stop:
            reason = "branch-point"
            break
        h = min(h, max_length - length + 1e-12)
        p0, k0c = pts[-1], ks[-1]
        try:
            # one full step and two half steps
            full, _, _ = rk4_step(p0, d_cur, k0c, h)
            half1, k_half, d_half = rk4_step(p0, d_cur, k0c, h / 2.0)
            half2, k_end, d_end = rk4_step(half1, d_half, k_half, h / 2.0)
        except (PathError, StallError) as exc:
            if h > 1e-9:
                h /= 2.0
                continue
            reason = "stall" if isinstance(exc, StallError) else "branch-point"
            break
        err = abs(full - half2)
        if err > 1e-10 + 1e-8 * h:
            h /= 2.0
            if h < 1e-9:
                reason = "stall"
                break
            continue
        pts.append(half2)
        ks.append(k_end)
        d_cur = d_end
        mids.append(half1)
        mid_ks.append(k_half)
        hs.append(h)
        length += h
        if err < (1e-10 + 1e-8 * h) / 32.0:
            h = min(2.0 * h, 0.02)
    else:
        reason = "step-limit"
    return StokesLine(
        family=family, direction=direction,
        points=np.array(pts), kappa=np.array(ks),
        mids=np.array(mids), mid_kappa=np.array(mid_ks),
        steps=np.array(hs), length=length, reason=reason,
        fallbacks=model.fallbacks,
    )


# ---------------------------------------------------------------------------
# period index and limit spectrum


def period_index(crossing_values) -> tuple[int, Fraction]:
    """Signature and index of a period of the momentum branch from its
    ordered real crossing values r_1 .. r_N on the branch-cut set.

    The signature is (-1)^N; the index is (r_N - r_{N-1} + ... -+ r_1)/pi.
    Inserting a consecutive equal pair anywhere leaves both unchanged, so
    the result only depends on the reduced crossing word.
    """
    vals = [float(r) for r in crossing_values]
    if any(not math.isfinite(v) for v in vals):
        raise InvalidInputError("crossing values must be finite")
    N = len(vals)
    sign = -1 if N % 2 else 1
    alt = 0.0
    for i, r in enumerate(vals):
        alt += r if (N - 1 - i) % 2 == 0 else -r
    index = Fraction(alt / math.pi).limit_denominator(1_000_000)
    return sign, index


def sigma_set(bands: BandStructure, w_minus: float, w_plus: float,
              include_partial: bool = True) -> tuple[tuple[float, float], ...]:
    """Limit spectrum: union of bands thickened by the range of W.

    Each band [a, b] contributes [a + w_minus, b + w_plus]; overlapping or
    touching contributions are merged.
    """
    if not w_minus <= w_plus:
        raise InvalidInputError("need w_minus <= w_plus")
    raw = [(a + w_minus, b + w_plus)
           for a, b in bands.band_intervals(include_partial=include_partial)]
    raw.sort()
    merged: list[list[float]] = []
    for a, b in raw:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)
