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


def _im_kappa_factory(model: DiscriminantModel, geom, labels):
    """Integrand Im kappa(zeta + i0) on pre-gaps, with branch validation:
    im_kappa(zeta, i) takes points zeta of the pre-gaps labels[i], with i
    an index into `labels` or ``...`` and one row of zeta per label.

    The local energy must stay in the spectral gap carrying the label's
    index (below the spectrum for index 0) at every point; leaving it
    means the wrong branch or a broken geometry, not a quadrature problem.
    """
    E, W = geom.energy, geom.W
    gap_lo, gap_hi = np.array([geom.bands.gap(lab.index) for lab in labels]).T
    slack = 1e-9 * max(1.0, abs(E))

    def im_kappa(zeta, i):
        loc_E = E - W.value(zeta)
        outside = np.logical_not((gap_lo[i, None] - slack <= loc_E)
                                 & (loc_E <= gap_hi[i, None] + slack))
        if np.any(outside):
            k = np.flatnonzero(outside)[0]
            j = np.broadcast_to(np.arange(len(labels))[i, None],
                                outside.shape).flat[k]
            raise BranchSelectionError(
                f"local energy {np.ravel(loc_E)[k]} left spectral gap "
                f"{labels[j].index} [{gap_lo[j]}, {gap_hi[j]}] at "
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
    [result] = _actions(window_model(geom.bands, geom.W, geom.energy), geom,
                        [label], side, tol)
    return result


def _actions(model, geom, labels, side: str,
             tol: float) -> list[tuple[float, float]]:
    """(S, quadrature error) of each pre-gap of `labels` through a window
    model."""
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"quadrature tol must be positive, got {tol}")
    # the quadrature tolerances below are their values at the default
    # tol = 1e-10, where scale is exactly 1.0 (0.1 * 1e-10 is not 1e-11)
    scale = tol / 1e-10
    # both halves of every pre-gap, left zeta = a + u^2 and right
    # zeta = b - u^2: (edge, sign of u^2, end of u)
    halves = []
    for label in labels:
        a, b = geom.pre_gap(label)
        if not b > a:
            raise InvalidInputError(f"pre-gap {label} has no interior")
        mid = 0.5 * (a + b)
        halves += [(edge, sgn, math.sqrt(abs(mid - edge)))
                   for edge, sgn in ((a, 1.0), (b, -1.0))]
    if side not in ("+i0", "-i0"):
        raise InvalidInputError(f"side must be '+i0' or '-i0', got {side!r}")
    edge, sgn, ulim = (np.array(c) for c in zip(*halves))
    im_kappa = _im_kappa_factory(model, geom, [lab for lab in labels
                                               for _ in (0, 1)])
    # '+i0': Im kappa(zeta + i0) by adaptive Gauss-Kronrod, every half's
    # first panel in one read; '-i0': the mirrored Im kappa(zeta - i0) =
    # -Im kappa(zeta + i0) by Gauss-Legendre doubling per half, its sign
    # flipped back
    sign = 1.0 if side == "+i0" else -1.0

    def f(u, i):
        zeta = edge[i, None] + sgn[i, None] * u * u
        return 2.0 * u * (sign * im_kappa(zeta, i))

    if sign > 0:
        parts = gauss_kronrod(f, 0.0, ulim, epsabs=1e-12 * scale,
                              epsrel=1e-11 * scale, limit=200)
    else:
        parts = [_gauss_doubling(lambda u: f(u, i), 0.0, float(ulim[i]),
                                 rtol=1e-12 * scale) for i in range(len(ulim))]
    return [(2.0 * sign * (v1 + v2), 2.0 * (e1 + e2))
            for (v1, e1), (v2, e2) in zip(parts[::2], parts[1::2])]


def _gauss_doubling(f, a: float, b: float, rtol: float = 1e-12,
                    max_level: int = 10) -> tuple[float, float]:
    """Composite Gauss-Legendre with panel doubling until two levels agree
    to rtol * max(1, |total|); ConvergenceFailure if they still do not
    after ``max_level`` levels.  f takes all 16 * 2^level nodes of a level
    as one 1-D array.  A tolerance within a few ulps of the total is out of
    reach: an exact tie of two levels there is rounding, not convergence,
    and never counts."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    previous, diff = None, math.inf
    for level in range(max_level):
        edges = np.linspace(a, b, 2 ** level + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        center = 0.5 * (edges[1:] + edges[:-1])
        values = f((center[:, None] + half[:, None] * nodes).ravel())
        total = float(np.sum(half * (values.reshape(-1, 16) @ weights)))
        if previous is not None:
            diff = abs(total - previous)
            bound = rtol * max(1.0, abs(total))
            if bound > 4.0 * math.ulp(total) and diff <= bound:
                return total, diff
        previous = total
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
    entries = [(label, s, e) for label, (s, e) in
               zip(geom.gap_labels,
                   _actions(model, geom, geom.gap_labels, side, tol))]
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

