"""Tunneling actions over pre-gaps and the asymptotic Lyapunov exponent.

Each pre-gap g contributes the action S(g) = 2 * integral over g of
Im kappa(zeta + i0) d zeta, a positive number measuring the width of the
classically forbidden region in the slow variable.  The tunneling
coefficient t(g) = exp(-S(g) / 2 eps) and the product T(E) over all
pre-gaps control the leading asymptotics of the Lyapunov exponent,
Theta_asym = (eps / 2 pi) log(1 / T) = (1 / 4 pi) * sum of actions.

Everything multiplicative is carried in log-domain; eps down at 1e-3
underflows T long before the formulas stop making sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import gauss_kronrod
from .errors import (
    BranchSelectionError,
    ConsistencyError,
    ConvergenceFailure,
    InvalidInputError,
)
from .geometry import AnalyticPotential, GapLabel, IsoEnergyGeometry
from .hill import BandStructure, DiscriminantModel

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class ActionSet:
    """All tunneling actions of one iso-energy geometry."""

    energy: float
    entries: tuple[tuple[GapLabel, float, float], ...]  # (label, S, quad error)
    total_action: float

    def __post_init__(self):
        s = sum(v for _, v, _ in self.entries)
        if abs(s - self.total_action) > 1e-12 * max(1.0, abs(s)):
            raise ConsistencyError("total action does not match its entries")
        if any(v <= 0 for _, v, _ in self.entries):
            raise ConsistencyError("tunneling actions must be positive")

    def action(self, label: GapLabel) -> float:
        for lab, v, _ in self.entries:
            if lab == label:
                return v
        raise KeyError(label)

    @property
    def labels(self) -> tuple[GapLabel, ...]:
        return tuple(lab for lab, _, _ in self.entries)

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "entries": [
                {"label": str(lab), "action": v, "quad_error": e}
                for lab, v, e in self.entries
            ],
            "total_action": self.total_action,
        }


@dataclass(frozen=True)
class AsymptoticLyapunov:
    """Leading term of the Lyapunov exponent from the tunneling actions."""

    energy: float
    theta_asym: float
    per_gap: tuple[tuple[GapLabel, float], ...]

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "theta_asym": self.theta_asym,
            "per_gap": [{"label": str(lab), "contribution": v}
                        for lab, v in self.per_gap],
        }


@dataclass(frozen=True)
class Coefficient:
    """Tunneling coefficient with its always-valid log-domain value."""

    value: float
    log_value: float
    underflowed: bool


# ---------------------------------------------------------------------------
# the action integral


def window_model(bands: BandStructure, W: AnalyticPotential,
                 E_lo: float) -> DiscriminantModel:
    """The band scan's discriminant model, reaching down to the bottom
    E_lo - w_plus of the window at E_lo; a3 puts a resolved band edge
    above every window top, so only a window bottom can leave the scan."""
    return bands.discriminant_model().reaching(E_lo - W.w_plus)


def _im_kappa_factory(model: DiscriminantModel, geom, label: GapLabel):
    """Integrand Im kappa(zeta + i0) on the pre-gap, with branch validation;
    zeta is one point or an array of points.

    The local energy must stay in the spectral gap carrying the label's
    index (below the spectrum for index 0) at every point; leaving it
    means the wrong branch or a broken geometry, not a quadrature problem.
    """
    E, W = geom.energy, geom.W
    gap_lo, gap_hi = geom.bands.gap(label.index)
    slack = 1e-9 * max(1.0, abs(E))

    def im_kappa(zeta):
        loc_E = E - W.value(zeta)
        outside = np.logical_not((gap_lo - slack <= loc_E)
                                 & (loc_E <= gap_hi + slack))
        if np.any(outside):
            k = np.flatnonzero(outside)[0]
            raise BranchSelectionError(
                f"local energy {np.ravel(loc_E)[k]} left spectral gap "
                f"{label.index} [{gap_lo}, {gap_hi}] at "
                f"zeta={np.ravel(zeta)[k]}; wrong side or geometry"
            )
        half = np.abs(model(loc_E)) / 2.0
        return np.arccosh(np.maximum(1.0, half))

    return im_kappa


def tunneling_action(geom: IsoEnergyGeometry, label: GapLabel,
                     side: str = "+i0", tol: float = 1e-10) -> float:
    """S(g) = 2 * integral of Im kappa(zeta + i0) over the pre-gap, for the
    operator the geometry was built from (``geom.W``, ``geom.bands``).

    The integrand vanishes like a square root at both endpoints, so each
    half-interval is mapped by zeta = endpoint +- u**2 before quadrature:
    adaptive Gauss-Kronrod (G10/K21) on the '+i0' side, which raises
    ConvergenceFailure when its 200 subintervals do not reach the
    tolerance.  The '-i0' side is an independent route (opposite boundary
    value, sign flipped back, Gauss-Legendre panel doubling) used for
    cross-checking.
    """
    value, _ = action_with_error(geom, label, side=side, tol=tol)
    return value


def action_with_error(geom: IsoEnergyGeometry, label: GapLabel,
                      side: str = "+i0", tol: float = 1e-10) -> tuple[float, float]:
    """(S, quadrature error) of one pre-gap, as ``tunneling_action``."""
    if label not in geom.gap_labels:
        raise InvalidInputError(f"{label} is not a pre-gap of this geometry")
    return _action(window_model(geom.bands, geom.W, geom.energy), geom,
                   label, side, tol)


def _action(model, geom, label: GapLabel,
            side: str, tol: float) -> tuple[float, float]:
    """(S, quadrature error) of one pre-gap through a window model."""
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"quadrature tol must be positive, got {tol}")
    # the quadrature tolerances below are their values at the default
    # tol = 1e-10, where scale is exactly 1.0 (0.1 * 1e-10 is not 1e-11)
    scale = tol / 1e-10
    a, b = geom.pre_gap(label)
    if not b > a:
        raise InvalidInputError(f"pre-gap {label} has no interior")
    im_kappa = _im_kappa_factory(model, geom, label)
    mid = 0.5 * (a + b)
    if side == "+i0":
        total, err = 0.0, 0.0
        # left half: zeta = a + u^2; right half: zeta = b - u^2
        for edge, sgn in ((a, 1.0), (b, -1.0)):
            ulim = math.sqrt(abs(mid - edge))
            val, e = gauss_kronrod(
                lambda u: 2.0 * u * im_kappa(edge + sgn * u * u), 0.0, ulim,
                epsabs=1e-12 * scale, epsrel=1e-11 * scale, limit=200)
            total += val
            err += e
        return 2.0 * total, 2.0 * err
    if side == "-i0":
        # Im kappa(zeta - i0) = -Im kappa(zeta + i0); integrate the mirrored
        # boundary value with nested Gauss-Legendre instead of Gauss-Kronrod
        def mirrored(u, edge, sgn):
            return 2.0 * u * (-im_kappa(edge + sgn * u * u))

        total, err = 0.0, 0.0
        for edge, sgn in ((a, 1.0), (b, -1.0)):
            ulim = math.sqrt(abs(mid - edge))
            val, e = _gauss_doubling(lambda u: mirrored(u, edge, sgn), 0.0, ulim,
                                     rtol=1e-12 * scale)
            total += val
            err += e
        return -2.0 * total, 2.0 * err
    raise InvalidInputError(f"side must be '+i0' or '-i0', got {side!r}")


def _gauss_doubling(f, a: float, b: float, rtol: float = 1e-12,
                    max_level: int = 10) -> tuple[float, float]:
    """Composite Gauss-Legendre with panel doubling until two levels agree
    to rtol * max(1, |total|); ConvergenceFailure if they still do not
    after ``max_level`` levels.  A tolerance within a few ulps of the
    total is out of reach: an exact tie of two levels there is rounding,
    not convergence, and never counts."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    results: list[float] = []
    diff = math.inf
    for level in range(max_level):
        panels = 2 ** level
        total = 0.0
        edges = np.linspace(a, b, panels + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            half = 0.5 * (hi - lo)
            center = 0.5 * (hi + lo)
            total += half * sum(w * f(center + half * x)
                                for x, w in zip(nodes, weights))
        results.append(total)
        if len(results) >= 2:
            diff = abs(results[-1] - results[-2])
            bound = rtol * max(1.0, abs(total))
            if bound > 4.0 * math.ulp(total) and diff <= bound:
                return results[-1], diff
    raise ConvergenceFailure(
        f"Gauss-Legendre doubling on [{a}, {b}] still changes by {diff:.3g} "
        f"after {max_level} levels, above rtol {rtol:.3g}", achieved=diff)


def compute_actions(geom: IsoEnergyGeometry, side: str = "+i0",
                    tol: float = 1e-10, *,
                    model: DiscriminantModel | None = None) -> ActionSet:
    """ActionSet over every pre-gap of the geometry, all read from one
    discriminant model: `model` if given (it must cover the geometry's
    window), else ``window_model`` at this energy."""
    if model is None:
        model = window_model(geom.bands, geom.W, geom.energy)
    entries = []
    for label in geom.gap_labels:
        s, e = _action(model, geom, label, side, tol)
        entries.append((label, s, e))
    total = sum(v for _, v, _ in entries)
    return ActionSet(energy=geom.energy, entries=tuple(entries),
                     total_action=total)


# ---------------------------------------------------------------------------
# coefficients and the asymptotic exponent


def tunneling_coefficient(S: float, epsilon: float) -> Coefficient:
    """t(g) = exp(-S / (2 eps)), kept alongside its exact log."""
    if S < 0:
        raise InvalidInputError("action must be nonnegative")
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    log_t = -S / (2.0 * epsilon)
    value = math.exp(log_t) if log_t > -745.0 else 0.0
    return Coefficient(value=value, log_value=log_t,
                       underflowed=value == 0.0 and log_t < 0.0)


def total_T(actions: ActionSet, epsilon: float) -> tuple[float, float]:
    """(T, log T) with T the product of all tunneling coefficients."""
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    log_T = -actions.total_action / (2.0 * epsilon)
    T = math.exp(log_T) if log_T > -745.0 else 0.0
    return T, log_T


def lyapunov_asymptotic(actions: ActionSet, epsilon: float) -> AsymptoticLyapunov:
    """Leading Lyapunov asymptotics from the actions.

    Computed two ways that must agree identically: through the per-gap
    log-coefficients scaled by eps / 2 pi, and as total action / 4 pi.
    The eps argument only feeds the first route; the result carries no
    eps dependence.
    """
    if not actions.entries:
        raise InvalidInputError("action set is empty")
    per_gap = tuple((lab, v / FOUR_PI) for lab, v, _ in actions.entries)
    via_logs = (epsilon / (2.0 * math.pi)) * sum(
        -tunneling_coefficient(v, epsilon).log_value
        for _, v, _ in actions.entries
    )
    via_total = actions.total_action / FOUR_PI
    if abs(via_logs - via_total) > 1e-13 * max(1.0, abs(via_total)):
        raise ConsistencyError("log-domain routes disagree")
    return AsymptoticLyapunov(energy=actions.energy, theta_asym=via_total,
                              per_gap=per_gap)


def coefficient_magnitude_window(T: float, C: float) -> tuple[float, float]:
    """Admissible magnitude window [1/(C T), C/T] for the dominant model
    coefficients, given the total tunneling coefficient T."""
    if not T > 0:
        raise InvalidInputError("T must be positive")
    if not C > 1:
        raise InvalidInputError("C must exceed 1")
    return 1.0 / (C * T), C / T
