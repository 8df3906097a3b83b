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

from ._numerics import CubicHermite, bracketed_roots
from .errors import (
    ConsistencyError,
    CoverageError,
    DegeneratePointError,
    InvalidInputError,
    PathError,
    ResolutionFailure,
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
# largest Fourier frequency F of W: every extremum and strip solve finds the
# roots of a degree-2F polynomial (~2 ms per energy at F = 16, ~0.25 s at 64)
_W_FREQUENCY_MAX = 16


# ---------------------------------------------------------------------------
# slow potential


class AnalyticPotential:
    """Finite Fourier sum W(zeta) = sum c cos(f zeta) + s sin(f zeta),
    2 pi periodic, with a declared strip of analyticity |Im zeta| < Y.

    The constructor verifies that W has exactly one non-degenerate maximum
    and one non-degenerate minimum per period and translates the maximum
    to zeta = 0.  Y is the caller's statement about how far the geometry
    may be continued off the real axis; `strip_clearance` checks it against
    the complex branch points when the geometry is built, and level lines
    are traced only on a geometry that passes.  The largest frequency is at
    most ``_W_FREQUENCY_MAX`` (ResolutionFailure, before any root solve).
    """

    def __init__(self, coefficients, strip_half_width: float):
        coeffs = tuple((int(f), float(c), float(s)) for f, c, s in coefficients)
        if not coeffs or all(f == 0 or (c == 0 and s == 0) for f, c, s in coeffs):
            raise InvalidInputError("potential has no oscillating Fourier mode")
        if any(f < 0 for f, _, _ in coeffs):
            raise InvalidInputError("Fourier frequencies must be nonnegative")
        F = max(f for f, _, _ in coeffs)
        if F > _W_FREQUENCY_MAX:
            raise ResolutionFailure(f"slow potential frequency {F} is above "
                                    f"the limit of {_W_FREQUENCY_MAX}")
        if not (strip_half_width > 0):
            raise InvalidInputError("strip half-width must be positive")
        self.strip_half_width = float(strip_half_width)
        # locate extrema of the raw sum, then shift the maximum to 0
        z_max, z_min = _trig_extrema(coeffs)
        self.coefficients = _shift_coefficients(coeffs, z_max)
        # _trig_extrema keeps the two apart, so this lies in (0, 2 pi)
        self.zeta_star = (z_min - z_max) % TWO_PI
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


def _laurent(coeffs) -> np.ndarray:
    """gamma with W(zeta) = sum over |k| <= F of gamma[k + F] u^k,
    u = exp(i zeta), F the largest frequency of the trig sum."""
    F = max(f for f, _, _ in coeffs)
    gamma = np.zeros(2 * F + 1, dtype=complex)
    for f, c, s in coeffs:
        if f == 0:
            gamma[F] += c
        else:
            gamma[F + f] += (c - 1j * s) / 2.0
            gamma[F - f] += (c + 1j * s) / 2.0
    return gamma


def _trig_extrema(coeffs) -> tuple[float, float]:
    """(maximum location, minimum location) of a finite trig sum on [0, 2pi).

    Roots of the derivative come from the companion polynomial in
    u = exp(i zeta), so symmetric configurations (critical points on grid
    nodes) need no special casing.  Exactly one maximum and one minimum
    are required.
    """
    gamma = _laurent(coeffs)
    F = len(gamma) // 2
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
    return analyze_windows(W, bands, [E], n, m)[0]


def analyze_windows(W: AnalyticPotential, bands: BandStructure, energies,
                    n: int, m: int) -> list[WindowReport]:
    """``analyze_window`` at each of the energies, in order, from one
    ``_window_margins`` pass; a1 does not depend on the energy."""
    E = np.asarray(energies, dtype=float)
    inside, below, above = _window_margins(W, bands, E, n, m)
    a1 = all(bands.is_gap_open(j) for j in range(max(0, n - 1), n + m + 1))
    return [WindowReport(energy=e, n=n, m=m, window=(e - W.w_plus, e - W.w_minus),
                         a1_ok=a1, a2_ok=all(v > 0 for v in edge),
                         a3_ok=lo > 0 and hi > 0, edge_margins=tuple(edge),
                         outside_margins=(lo, hi))
            for e, edge, lo, hi in zip(E.tolist(), inside.T.tolist(),
                                       below.tolist(), above.tolist())]


def _window_margins(W: AnalyticPotential, bands: BandStructure,
                    E: np.ndarray, n: int, m: int):
    """Margins of the band block [n, n + m] at the energies E (an array):
    each block edge's distance to the nearer window end (one row per edge,
    in edge order), the clearance of the window bottom above the edge below
    the block (inf for n = 1), and that of the edge above the block over
    the window top.  a2 and a3 hold where all are positive."""
    if n < 1 or m < 0:
        raise InvalidInputError("need n >= 1 and m >= 0")
    top = 2 * (n + m) + 1  # the first edge above the block
    if len(bands.edges) < top:
        raise CoverageError(f"band table has {len(bands.edges)} edges, needs "
                            f"{top}; raise the ceiling")
    lo, hi = E - W.w_plus, E - W.w_minus
    edges = np.array([bands.edge(j) for j in range(2 * n - 1, top)])[:, None]
    below = lo - bands.edge(2 * n - 2) if n >= 2 else np.full_like(lo, math.inf)
    return np.minimum(edges - lo, hi - edges), below, bands.edge(top) - hi


def best_window_energy(W: AnalyticPotential, bands: BandStructure, n: int,
                       m: int) -> float:
    """Energy maximizing the window margin; raises if no admissible energy.

    The smallest of ``_window_margins`` is taken on a grid of 2,001
    energies, the one array pass that ``analyze_window`` makes for one
    energy, and the first maximum wins.
    """
    lo_e = bands.edge(2 * (n + m)) - W.w_plus  # least E putting the block inside
    hi_e = bands.edge(2 * n - 1) - W.w_minus
    grid = np.linspace(lo_e, hi_e, 2001)
    inside, below, above = _window_margins(W, bands, grid, n, m)
    best_E = float(grid[np.argmax(np.min([inside.min(axis=0), below, above],
                                         axis=0))])
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


def strip_clearance(W: AnalyticPotential, bands: BandStructure,
                    E: float) -> tuple[tuple[int, float], ...]:
    """Branch points off the real axis but inside the declared strip.

    A branch point of kappa is a zero of W(zeta) - (E - E_j) for a resolved
    band edge E_j.  Multiplied by u^F, u = exp(i zeta), that is a polynomial
    of degree 2F in u, so one ``np.roots`` call finds every zero of a
    period, at Im zeta = -log|u|.  Per edge with a zero at height
    1e-7 < |Im zeta| <= Y, the violation (edge index, smallest such height)
    is recorded; the floor counts the nearly real roots that ``np.roots``
    gives for a double real zero (off by about sqrt(eps)) as real.
    """
    out: list[tuple[int, float]] = []
    gamma = _laurent(W.coefficients)
    F = len(gamma) // 2
    for j, e in enumerate(bands.edges, start=1):
        poly = gamma.copy()
        poly[F] -= E - e
        u = np.roots(poly[::-1])
        heights = np.abs(np.log(np.abs(u[u != 0])))
        inside = heights[(heights > 1e-7) & (heights <= W.strip_half_width)]
        if inside.size:
            out.append((j, float(inside.min())))
    return tuple(out)


def branch_points(W: AnalyticPotential, bands: BandStructure,
                  report: WindowReport) -> IsoEnergyGeometry:
    """Solve W(zeta) = E - E_j on both monotone half-periods for every
    in-window edge and assemble the pre-band/pre-gap families: the one
    report case of ``grid_geometries``."""
    return grid_geometries(W, bands, [report])[0]


def grid_geometries(W: AnalyticPotential, bands: BandStructure,
                    reports) -> tuple[IsoEnergyGeometry, ...]:
    """``branch_points`` at every report's energy, in order.

    Requires all-clear window reports of one band block (n, m), checked
    before any solve.  The branch points of every (energy, edge) pair come
    from one ``_invert_w`` call per half-period, whose brackets iterate
    independently to xtol = 1e-12.  The interlacing of each energy's
    branch points and the tiling of its period are validated before
    returning.
    """
    for rep in reports:
        if not rep.all_ok:
            raise InvalidInputError(
                f"window conditions fail at E = {rep.energy!r}; iso-energy "
                f"geometry is undefined")
    if len({(rep.n, rep.m) for rep in reports}) > 1:
        raise InvalidInputError("window reports of one grid need one n and m")
    if not reports:
        return ()
    n, m = reports[0].n, reports[0].m
    js = range(2 * n - 1, 2 * (n + m) + 1)
    energies = np.array([rep.energy for rep in reports])
    targets = energies[:, None] - np.array([bands.edge(j) for j in js])
    zm, zp = (_invert_w(W, targets, side, 1e-12).tolist() for side in "-+")
    return tuple(_geometry(W, bands, rep, js, a, b)
                 for rep, a, b in zip(reports, zm, zp))


def _geometry(W, bands, report, js, zm, zp) -> IsoEnergyGeometry:
    """The geometry at one report's energy from its branch points zm, zp
    (one per edge of js, on the '-' and '+' half-periods)."""
    E, n, m = report.energy, report.n, report.m
    zs, at = W.zeta_star, f"at E = {report.energy!r}"
    pts = [(j, s, z) for j, a, b in zip(js, zm, zp)
           for s, z in (("-", a), ("+", b))]
    bz = {(j, s): z for j, s, z in pts}

    full = [0.0] + zm + [zs] + zp[::-1] + [TWO_PI]
    if any(b <= a for a, b in zip(full, full[1:])):
        raise ConsistencyError(f"branch points do not interlace {at}: {full}")

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
            raise ConsistencyError(f"pre-band/pre-gap tiling has a hole {at}")
        cursor = b
    if abs(cursor - bz[2 * n - 1, "+"]) > 1e-9:
        raise ConsistencyError(f"pre-band/pre-gap tiling does not close the "
                               f"period {at}")
    if not any(a < 0.0 < b for a, b in (pre_gaps[0][1],)):
        raise ConsistencyError(f"window-bottom pre-gap misses zeta = 0 {at}")

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
    are reached by ``_continued_momentum``, which reads the discriminant
    from ``strip_model(bands, W, E, tol)``.
    """
    if side not in ("+i0", "-i0"):
        raise InvalidInputError(f"side must be '+i0' or '-i0', got {side!r}")
    z = complex(zeta)
    w = W.evaluator()
    if z.imag == 0.0:
        loc_E = E - w(z.real).real
        upper = complex(quasimomentum_main(bands, loc_E, side="+i0",
                                           tol=tol).value)
        # the lower boundary value is the Schwarz reflection of the upper
        return upper.conjugate() if side == "-i0" else upper
    model = strip_model(bands, W, E, tol)
    return _continued_momentum(W, bands, E, z, lambda p: model(E - w(p)), tol)


def _continued_momentum(W, bands, E, z: complex, delta_of, tol: float) -> complex:
    """kappa at z by analytic continuation of cos kappa = delta_of / 2 from
    a real anchor near Re z whose local energy sits inside a band, where
    kappa is real.  The path is the straight segment to z, subdivided
    adaptively; where it is refused near a branch point, the path goes
    vertically off the axis at the anchor and then level to z."""
    w = W.evaluator()
    anchor = _regular_anchor(W, bands, E, z.real, tol)
    k0 = complex(quasimomentum_main(bands, E - w(anchor).real, tol=tol).value)
    try:
        return _track_momentum(delta_of, complex(anchor), k0, z)
    except PathError:
        # a straight path may clip a real branch point; go around vertically
        way = complex(anchor, z.imag)
        k_mid = _track_momentum(delta_of, complex(anchor), k0, way)
        return _track_momentum(delta_of, way, k_mid, z)


def _regular_anchor(W, bands, E, x0: float, tol: float) -> float:
    """Real zeta near x0 whose local energy sits well inside a band: the
    first best of a scan whose energies are classified at once, by the
    rules of ``bands.locate(e, atol=100 * tol)``."""
    grid = x0 + np.linspace(-math.pi, math.pi, _ANCHOR_SAMPLES)
    e = E - W.value(grid)
    if not bands.edges:
        raise CoverageError("no edges resolved")
    edges = np.asarray(bands.edges)
    # pos edges lie strictly below e; an odd count puts e inside band
    # (pos + 1) // 2, unless it is within the snap of its nearer edge
    pos = np.searchsorted(edges, e)
    snap = np.minimum(np.abs(e - edges[np.maximum(pos - 1, 0)]),
                      np.abs(e - edges[np.minimum(pos, len(edges) - 1)]))
    inside = (pos % 2 == 1) & (snap > 100 * tol) & (e <= bands.ceiling)
    if not inside.any():
        raise PathError(
            f"no regular anchor found near zeta = {x0}: the local energy "
            f"leaves every resolved band"
        )
    z, e, n = grid[inside], e[inside], (pos[inside] + 1) // 2
    # a band cut off by the ceiling has no top: CoverageError, as band(n)
    bands.band(int(n.max()))
    score = (np.minimum(e - edges[2 * n - 2], edges[2 * n - 1] - e)
             - 0.05 * np.abs(z - x0))
    return float(z[np.argmax(score)])


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
                 zeta_values: np.ndarray, derivatives: np.ndarray):
        d = np.diff(zeta_values)
        if not ((d > 0).all() or (d < 0).all()):
            raise ConsistencyError(f"branch table for {label} is not monotone")
        self.label = label
        self.kappa_grid = kappa_grid
        self.zeta_values = zeta_values
        # exact slopes keep full interpolation order at the flat endpoints,
        # where kappa resolves a square root of zeta
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
    ('-': (0, zeta_star), '+': (zeta_star, 2 pi)), one per target, in the
    targets' shape."""
    a, b = (0.0, W.zeta_star) if side == "-" else (W.zeta_star, TWO_PI)
    targets = np.asarray(targets, dtype=float)
    return bracketed_roots(lambda z, i: W.value(z) - targets[i], a, b, xtol)


def real_branch(geom: IsoEnergyGeometry, label: BandLabel,
                points: int = 512) -> RealBranch:
    """Tabulated real branch zeta(kappa) on the pre-band `label`: its side
    of ``real_branches``."""
    return real_branches(geom, label.index, points)[{"-": 0, "+": 1}[label.side]]


def real_branches(geom: IsoEnergyGeometry, index: int,
                  points: int = 512) -> tuple[RealBranch, RealBranch]:
    """Tabulated real branches zeta(kappa) on the two pre-bands of band
    `index`, the '-' side first.

    Interior nodes invert the quasi-momentum on the spectral band through
    the band scan's discriminant model (``geom.bands``), all nodes at once
    (``_numerics.bracketed_roots``) and once for both sides, since both
    half-periods of a band meet the same energies at the same kappa; each
    side then inverts W on its half-period.  The two endpoints are taken
    verbatim from the branch points so the table is exactly consistent
    with the geometry.
    """
    labels = [BandLabel(index, side) for side in "-+"]
    for label in labels:
        geom.pre_band(label)
    model = geom.bands.discriminant_model()
    band_lo, band_hi = geom.bands.band(index)
    sgn = (-1.0) ** (index - 1)

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
    f_lo, f_hi = sgn * model(np.array([e_lo, e_hi]))[:, None] - want
    # nodes whose target the model misses inside the padded band are
    # clamped to the nearer end
    inside = (f_lo > 0.0) & (f_hi < 0.0)
    e = np.where(f_lo <= 0.0, e_lo, e_hi)
    if inside.any():
        target = want[inside]
        e[inside] = bracketed_roots(lambda t, i: sgn * model(t) - target[i],
                                    e_lo, e_hi, xtol=1e-14, rtol=1e-15)
    # d zeta / d kappa through the chain kappa = k(E - W(zeta))
    dk_dE = -sgn * model.derivative(e) / (2.0 * np.sin(kap))
    out = []
    for label in labels:
        zeta_in = _invert_w(geom.W, geom.energy - e, label.side, xtol=1e-13)
        dE_dz = -geom.W.derivative(zeta_in)
        zetas = np.concatenate(([geom.branch_zeta(2 * index - 1, label.side)],
                                zeta_in, [geom.branch_zeta(2 * index, label.side)]))
        slopes = np.concatenate(([0.0], 1.0 / (dk_dE * dE_dz), [0.0]))
        out.append(RealBranch(label, kg, zetas, derivatives=slopes))
    return tuple(out)


# ---------------------------------------------------------------------------
# Stokes-type level lines


@dataclass
class StokesLine:
    """Polyline of a level line of Im (integral of kappa - shift) d zeta.

    ``points``/``kappa`` sample the accepted nodes, ``mids``/``mid_kappa``
    the step midpoints (used for Simpson-type level integration).  `reason`
    records why tracing stopped; `fallbacks` counts the discriminant values
    the trace's strip panel left to a direct period-map read.
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


def trace_stokes_line(geom: IsoEnergyGeometry, start, family: str = "kappa",
                      direction: int = 1, max_length: float = 2.0, *,
                      tol: float = 1e-9) -> StokesLine:
    """Trace the level line of Im int (kappa - shift) d zeta through `start`,
    kappa the complex momentum of the geometry's operator (``geom.W``,
    ``geom.bands``) at its energy.

    The curve solves d zeta / ds = conj(kappa(zeta) - shift) normalized to
    unit speed (shift = pi for the 'kappa-pi' family), so the level value
    is constant along it.  Steps are Runge-Kutta with halved-step error
    control.  The complex momentum at `start` is continued as in
    ``complex_momentum`` (``_continued_momentum``: straight from a real
    anchor, else by the vertical detour), then branch-tracked along the
    curve.
    A geometry with ``strip_violations``, a start outside the strip
    |Im zeta| < Y and a `max_length` that is not positive are refused
    (InvalidInputError), as is a start at one of ``geom.branch_zetas``
    (DegeneratePointError).  Tracing stops at the strip boundary, near a
    branch point (``geom.branch_zetas`` and their 2 pi translates), at
    `max_length`, or when the tangent field stalls.

    The discriminant at E - W(zeta) comes from the trace's own
    ``strip_model(bands, W, E, tol)``, a bounded Chebyshev panel that
    falls back to a direct period-map read wherever its error bound
    exceeds `tol`; ``fallbacks`` counts those points.  Each accepted step
    evaluates it 11 times: the end of a step carries its tangent into the
    next step's first stage, and the full step does not read its end.
    """
    if family not in ("kappa", "kappa-pi"):
        raise InvalidInputError(f"unknown family {family!r}")
    if direction not in (1, -1):
        raise InvalidInputError("direction must be +1 or -1")
    if not max_length > 0:
        raise InvalidInputError(f"max_length must be positive, got {max_length}")
    W, bands, E = geom.W, geom.bands, geom.energy
    Y = W.strip_half_width
    if geom.strip_violations:
        raise InvalidInputError(
            f"strip of half-width {Y} contains complex branch "
            f"points: {geom.strip_violations}; shrink the declared strip"
        )
    z0 = complex(start)
    if not abs(z0.imag) < Y:
        raise InvalidInputError(
            f"start {z0} lies outside the strip |Im zeta| < {Y}")
    shift = math.pi if family == "kappa-pi" else 0.0
    # the branch points of this energy with their 2 pi translates
    stops = [complex(z + s, 0.0) for _, _, z in geom.branch_zetas
             for s in (-TWO_PI, 0.0, TWO_PI)]
    r_stop = max(1e3 * bands.edge_tol, 1e-7)
    if min(abs(z0 - s) for s in stops) < r_stop:
        raise DegeneratePointError(
            "cannot start a level line at a branch point"
        )

    model = strip_model(bands, W, E, tol)
    w = W.evaluator()

    def delta_of(p: complex):
        return model(E - w(p))

    k_cur = _continued_momentum(W, bands, E, z0, delta_of, tol)

    def tangent(d: complex, k_ref: complex):
        k = _acos_branch_candidates(d / 2.0, k_ref)
        if abs(k - k_ref) > 0.35:
            raise PathError("momentum jumped within one step")
        u = k.conjugate() - shift
        mag = abs(u)
        if mag < 1e-9:
            raise StallError("tangent field vanished (level line terminates)")
        return direction * u / mag, k

    def rk4_step(p: complex, t1, h: float, end: bool = True):
        # classic RK4 on the unit field from p, whose (tangent, momentum)
        # is t1; returns the end point and, if `end`, its (tangent, momentum)
        f1, k1 = t1
        f2, _ = tangent(delta_of(p + 0.5 * h * f1), k1)
        f3, _ = tangent(delta_of(p + 0.5 * h * f2), k1)
        f4, _ = tangent(delta_of(p + h * f3), k1)
        p_new = p + (h / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        return p_new, tangent(delta_of(p_new), k1) if end else None

    pts = [z0]
    ks = [complex(k_cur)]
    d0 = delta_of(z0)
    t_cur = None  # (tangent, momentum) at pts[-1], carried from its step
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
        if min(abs(pts[-1] - s) for s in stops) < r_stop:
            reason = "branch-point"
            break
        h = min(h, max_length - length + 1e-12)
        p0 = pts[-1]
        try:
            t_cur = t_cur or tangent(d0, ks[-1])
            # one full step and two half steps, all from t_cur; the full
            # step's stage-4 tangent checks the momentum jump across h, so
            # its end is not read
            full, _ = rk4_step(p0, t_cur, h, end=False)
            half1, t_half = rk4_step(p0, t_cur, h / 2.0)
            half2, t_end = rk4_step(half1, t_half, h / 2.0)
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
        ks.append(t_end[1])
        t_cur = t_end
        mids.append(half1)
        mid_ks.append(t_half[1])
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

