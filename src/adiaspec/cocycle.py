"""Matrix cocycles over an irrational shift and direct Lyapunov exponents.

Two routes to an exponent live here.  `cocycle_lyapunov` iterates a
1-periodic 2x2 matrix family over the circle shift z -> z + h with
periodic renormalization, the discrete monodromy picture.  `direct_lyapunov`
integrates the quasi-periodic Schrodinger equation itself over a long
window in unit-length blocks, the continuous picture.  The bridge is
Theta = (eps / 2 pi) theta, plus the model matrix M0 and a Herman-type
lower-bound checker for families with a dominant oscillating mode.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _ode
from .errors import (
    ConsistencyError,
    DegeneracyError,
    InsufficientLengthError,
    InvalidInputError,
)
from .hill import PeriodicPotential

_KINDS = ("model-M0", "herman-test", "user-table")

_SIGMA = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class SmallDenominatorWarning(UserWarning):
    """The shift h is suspiciously close to a small-denominator rational."""


@dataclass(frozen=True)
class MatrixFamily:
    """A 1-periodic family z -> M(z) of 2x2 complex matrices.

    The evaluator takes a real z and returns a (2, 2) complex array.
    Periodicity is spot-checked at construction; families of kind
    'model-M0' are additionally checked for the conjugation symmetry
    between the two rows on real z.
    """

    kind: str
    evaluator: object = field(repr=False, compare=False)
    parameters: tuple = ()
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"kind must be one of {_KINDS}")
        for z in (0.0, 0.21, 0.5, 0.77):
            m0 = np.asarray(self.evaluator(z))
            m1 = np.asarray(self.evaluator(z + 1.0))
            if m0.shape != (2, 2):
                raise InvalidInputError("evaluator must return 2x2 matrices")
            scale = 1.0 + np.abs(m0).max()
            if np.abs(m1 - m0).max() > 1e-10 * scale:
                raise ConsistencyError("family is not 1-periodic in z")
            if self.kind == "model-M0":
                if (abs(m0[1, 0] - np.conj(m0[0, 1])) > 1e-12 * scale
                        or abs(m0[1, 1] - np.conj(m0[0, 0])) > 1e-12 * scale):
                    raise ConsistencyError(
                        "model matrix lost its row conjugation symmetry"
                    )

    def __call__(self, z: float) -> np.ndarray:
        return np.asarray(self.evaluator(z), dtype=complex)


@dataclass(frozen=True)
class CocycleSpec:
    """Iteration plan for one cocycle exponent estimate."""

    family: MatrixFamily
    h: float
    z0: float = 0.0
    N: int = 20000
    renorm_stride: int = 8
    z_samples: tuple = ()

    def __post_init__(self):
        if self.N < 1:
            raise InvalidInputError("N must be at least 1")
        if self.renorm_stride < 1:
            raise InvalidInputError("renormalization stride must be >= 1")
        if not math.isfinite(self.h):
            raise InvalidInputError("shift h must be finite")
        object.__setattr__(self, "z_samples",
                           tuple(float(z) for z in self.z_samples))

    @property
    def effective_z_samples(self) -> tuple:
        return self.z_samples if self.z_samples else (self.z0,)


@dataclass(frozen=True)
class LyapunovEstimate:
    """Exponent estimate with its renormalization bookkeeping."""

    value: float
    per_block: np.ndarray = field(repr=False, compare=False)
    standard_error: float = 0.0
    N_used: int = 0
    z_samples: tuple = ()

    def to_dict(self, include_blocks: bool = False) -> dict:
        out = {
            "value": self.value,
            "standard_error": self.standard_error,
            "N_used": self.N_used,
            "z_samples": list(self.z_samples),
        }
        if include_blocks:
            out["block_log_norms"] = [float(v) for v in self.per_block]
        return out


def default_z_samples(count: int = 8) -> tuple:
    """Equidistributed z values for averaging finite-N estimates."""
    if count < 1:
        raise InvalidInputError("need at least one sample")
    return tuple((0.5 + i) / count for i in range(count))


def small_denominator(h: float, tol: float = 1e-6, qmax: int = 20):
    """Smallest denominator q < qmax with |h - p/q| < tol, else None."""
    x = h % 1.0
    p_prev, q_prev, p_cur, q_cur = 1, 0, int(math.floor(x)), 1
    frac = x - math.floor(x)
    for _ in range(64):
        if abs(x - p_cur / q_cur) < tol and q_cur < qmax:
            return q_cur
        if q_cur >= qmax or frac == 0.0:
            break
        a = math.floor(1.0 / frac)
        frac = 1.0 / frac - a
        p_prev, q_prev, p_cur, q_cur = (
            p_cur, q_cur, int(a) * p_cur + p_prev, int(a) * q_cur + q_prev,
        )
    return None


def frequency_from_epsilon(epsilon: float) -> float:
    """h = frac(2 pi / eps), warning when h is near a small-denominator
    rational (the z-independence of the exponent degrades there)."""
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    h = (2.0 * math.pi / epsilon) % 1.0
    q = small_denominator(h)
    if q is not None:
        warnings.warn(
            f"shift h={h!r} is within 1e-6 of a rational with denominator "
            f"{q}; the cocycle limit may depend on z",
            SmallDenominatorWarning, stacklevel=2,
        )
    return h


# ---------------------------------------------------------------------------
# cocycle iteration


def cocycle_lyapunov(spec: CocycleSpec) -> LyapunovEstimate:
    """theta = lim (1/N) log ||M(z + (N-1)h) ... M(z)||.

    The running product is rescaled to unit Frobenius norm every
    `renorm_stride` steps; the rescaling logs telescope to log ||P_N||
    independently of the stride.  With several z samples the estimate is
    their mean and the standard error is the spread across samples;
    with a single z it is the spread of per-block growth rates.
    """
    zs = spec.effective_z_samples
    ev = spec.family.evaluator
    h, N, stride = spec.h, spec.N, spec.renorm_stride
    all_blocks: list[float] = []
    thetas: list[float] = []
    block_rates: list[float] = []
    total = 0.0
    for z in zs:
        F = np.eye(2, dtype=complex)
        acc = 0.0
        since = 0
        for n in range(N):
            M = np.asarray(ev((z + n * h) % 1.0), dtype=complex)
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(det) < 1e-300:
                raise DegeneracyError(
                    f"singular matrix in the cocycle at step {n} (z={z})"
                )
            F = M @ F
            since += 1
            if since == stride:
                nrm = float(np.linalg.norm(F))
                if nrm == 0.0:
                    raise DegeneracyError("product collapsed to zero")
                lg = math.log(nrm)
                acc += lg
                all_blocks.append(lg)
                block_rates.append(lg / since)
                F /= nrm
                since = 0
        if since:
            nrm = float(np.linalg.norm(F))
            lg = math.log(nrm)
            acc += lg
            all_blocks.append(lg)
            block_rates.append(lg / since)
        thetas.append(acc / N)
        total += acc
    value = total / (N * len(zs))
    if len(zs) > 1:
        se = float(np.std(thetas, ddof=1) / math.sqrt(len(zs)))
    elif len(block_rates) > 1:
        se = float(np.std(block_rates, ddof=1) / math.sqrt(len(block_rates)))
    else:
        se = 0.0
    return LyapunovEstimate(value=value, per_block=np.array(all_blocks),
                            standard_error=se, N_used=N, z_samples=zs)


# ---------------------------------------------------------------------------
# direct integration of the quasi-periodic equation


def direct_lyapunov(V: PeriodicPotential, W, epsilon: float, E: float,
                    z: float = 0.0, L: float = 1000.0,
                    tol: float = 1e-8) -> LyapunovEstimate:
    """Exponent of -psi'' + (V(x - z) + W(eps x)) psi = E psi over [0, L].

    The run is cut into unit blocks [j, j + 1] (one V period), each an
    independent linear problem.  Blocks are integrated together, in
    chunks of at most ``_ode.CHUNK``, by ``_ode.transfer_batch``: fixed-step
    Dormand-Prince 5(4) in which every step of every block passes the
    embedded error test with rtol = tol and atol = tol * 1e-2, the chunk
    being redone with more steps until it does.  Piecewise-constant V
    is integrated sub-interval by sub-interval between its jumps.  The
    block matrices are then multiplied in order with a rescaling after
    each block; Theta = (sum of block log norms) / L.  The standard error
    is the spread of slopes over ten consecutive segments of the run.
    W may be None for the unmodulated operator.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if not (math.isfinite(z) and cmath.isfinite(E)):
        raise InvalidInputError("z and E must be finite")
    nblocks = int(math.floor(L + 1e-9))
    if nblocks < 10:
        raise InsufficientLengthError(
            f"L={L} gives {nblocks} unit blocks; need at least 10"
        )
    f11, f12, f21, f22 = 1.0, 0.0, 0.0, 1.0
    acc = 0.0
    blocks: list[float] = []
    for j0 in range(0, nblocks, _ode.CHUNK):
        y = _block_transfers(V, W, epsilon, E, z,
                             j0, min(j0 + _ode.CHUNK, nblocks), tol)
        for j, (a, b, c, d) in enumerate(zip(*y.tolist()), start=j0):
            f11, f12, f21, f22 = (a * f11 + b * f21, a * f12 + b * f22,
                                  c * f11 + d * f21, c * f12 + d * f22)
            nrm = math.hypot(abs(f11), abs(f12), abs(f21), abs(f22))
            if nrm == 0.0 or not math.isfinite(nrm):
                raise DegeneracyError(
                    f"block product degenerated at x={j + 1}")
            lg = math.log(nrm)
            acc += lg
            blocks.append(lg)
            f11, f12, f21, f22 = f11 / nrm, f12 / nrm, f21 / nrm, f22 / nrm
    value = acc / nblocks
    groups = np.array_split(np.array(blocks), 10)
    slopes = [g.mean() for g in groups]
    se = float(np.std(slopes, ddof=1) / math.sqrt(len(slopes)))
    return LyapunovEstimate(value=value, per_block=np.array(blocks),
                            standard_error=se, N_used=nblocks,
                            z_samples=(float(z),))


def _block_transfers(V: PeriodicPotential, W, epsilon: float, E, z: float,
                     j0: int, j1: int, tol: float) -> np.ndarray:
    """Fundamental matrices of the unit blocks j0 <= j < j1, rows (a, b, c, d).

    V(j + t - z) = V(t - z) is shared by every block and evaluated once
    per stage node.  Each W term c cos(om x) + s sin(om x) at x = j + t is
    P_j cos(om t) + Q_j sin(om t) by angle addition, so only P_j and Q_j
    are per-block arrays.
    """
    js = np.arange(j0, j1, dtype=float)
    terms = []
    for f, c, s in (() if W is None else W.coefficients):
        om = f * epsilon
        cj, sj = np.cos(om * js), np.sin(om * js)
        terms.append((om, c * cj + s * sj, s * cj - c * sj))
    vf = V.evaluator()
    piecewise = V.kind == "piecewise-constant"
    knots = [0.0, 1.0]
    if piecewise:
        knots[1:1] = sorted({(b + z) % 1.0 for b, _ in V.segments
                             if (b + z) % 1.0 > 0.0})
    y = np.zeros((4, len(js)))
    y[0] = y[3] = 1.0
    for t0, t1 in zip(knots[:-1], knots[1:]):
        # V is constant between its jumps; a node on a jump would pick
        # either side's value, so take the sub-interval's midpoint instead
        v_mid = vf(0.5 * (t0 + t1) - z) if piecewise else None

        def w(t: float, v_mid=v_mid):
            out = (vf(t - z) if v_mid is None else v_mid) - E
            for om, P, Q in terms:
                out = out + P * math.cos(om * t) + Q * math.sin(om * t)
            return out

        y = _ode.transfer_batch(w, t0, t1, y, rtol=tol, atol=tol * 1e-2)
    return y


def theta_to_Theta(theta: float, epsilon: float) -> float:
    """Convert the per-iteration exponent to the per-unit-x exponent."""
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    return (epsilon / (2.0 * math.pi)) * theta


# ---------------------------------------------------------------------------
# concrete families


def model_matrix(a0, a1, b0, b1) -> MatrixFamily:
    """The rank-one-in-u model family

        M0(z) = [[a0 + a1 u, b0 + b1 u],
                 [conj(b0) + conj(b1)/u, conj(a0) + conj(a1)/u]],

    u = exp(2 pi i z).  No normalization is applied: the metadata records
    sup |det M0 - 1| over a z grid so callers can judge how far from
    unimodular the supplied coefficients are.
    """
    a0, a1, b0, b1 = complex(a0), complex(a1), complex(b0), complex(b1)

    def ev(zv: float) -> np.ndarray:
        u = cmath.exp(2j * math.pi * zv)
        return np.array([
            [a0 + a1 * u, b0 + b1 * u],
            [b0.conjugate() + b1.conjugate() / u,
             a0.conjugate() + a1.conjugate() / u],
        ])

    zg = np.linspace(0.0, 1.0, 257)
    dev = 0.0
    for zv in zg:
        m = ev(float(zv))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        dev = max(dev, abs(det - 1.0))
    return MatrixFamily(kind="model-M0", evaluator=ev,
                        parameters=(a0, a1, b0, b1),
                        metadata={"det_deviation": float(dev)})


def herman_family(lam, n0: int, alpha, beta, m_amp: float, epsilon: float,
                  seed: int = 0) -> MatrixFamily:
    """lam * e^{2 pi i n0 z} (B + M1(z)) with B = [[1, beta], [0, alpha]].

    M1 is a seeded degree-3 trigonometric matrix polynomial rescaled so
    its sup spectral norm over a 4096-point z grid equals m_amp exactly;
    the seed makes lower-bound sweeps reproducible.
    """
    lam, alpha, beta = complex(lam), complex(alpha), complex(beta)
    if abs(alpha) >= 1.0:
        raise InvalidInputError("need |alpha| < 1")
    if m_amp < 0:
        raise InvalidInputError("perturbation amplitude must be >= 0")
    base = np.array([[1.0, beta], [0.0, alpha]])
    modes = np.arange(-3, 4)
    if m_amp > 0:
        rng = np.random.default_rng(seed)
        coeffs = (rng.standard_normal((2, 2, 7))
                  + 1j * rng.standard_normal((2, 2, 7)))
        zg = np.arange(4096) / 4096.0
        phases = np.exp(2j * np.pi * np.outer(modes, zg))  # (7, 4096)
        vals = np.einsum("ijk,kz->zij", coeffs, phases)
        sup = np.linalg.svd(vals, compute_uv=False)[:, 0].max()
        coeffs = coeffs * (m_amp / sup)
    else:
        coeffs = np.zeros((2, 2, 7), dtype=complex)

    def ev(zv: float) -> np.ndarray:
        ph = np.exp(2j * np.pi * modes * zv)
        m1 = coeffs @ ph
        return lam * cmath.exp(2j * math.pi * n0 * zv) * (base + m1)

    return MatrixFamily(
        kind="herman-test", evaluator=ev,
        parameters=(lam, n0, alpha, beta, float(m_amp), float(epsilon), seed),
        metadata={"seed": seed, "m_amp": float(m_amp)},
    )


def herman_bound_check(family: MatrixFamily, h: float, C: float, *,
                       N: int = 20000, z_samples: tuple = (),
                       renorm_stride: int = 8) -> dict:
    """Check theta > log|lam| - C * m_amp for a herman-test family."""
    if family.kind != "herman-test":
        raise InvalidInputError("bound check applies to herman-test families")
    lam = family.parameters[0]
    m_amp = family.parameters[4]
    spec = CocycleSpec(family=family, h=h, N=N, renorm_stride=renorm_stride,
                       z_samples=z_samples)
    est = cocycle_lyapunov(spec)
    lower = math.log(abs(lam)) - C * m_amp
    return {
        "theta": est.value,
        "standard_error": est.standard_error,
        "lower_bound": lower,
        "margin": est.value - lower,
        "ok": est.value > lower,
    }


# ---------------------------------------------------------------------------
# conjugation invariances


@dataclass(frozen=True)
class ConjugationReport:
    variant: str
    theta_base: float
    theta_transformed: float
    combined_standard_error: float

    @property
    def difference(self) -> float:
        return abs(self.theta_base - self.theta_transformed)


def conjugation_invariance_check(family: MatrixFamily, h: float,
                                 variant: str, *, N: int = 20000,
                                 z0: float = 0.0, renorm_stride: int = 8,
                                 z_samples: tuple = ()) -> ConjugationReport:
    """Exponent of the family vs. its conjugated version.

    'swap-sigma' conjugates by the antidiagonal involution; 'S-twist'
    replaces M(z) by S(z + h)^{-1} M(z) S(z) with S(z) =
    diag(e^{i pi z}, e^{-i pi z}), which is unitary for real z, so both
    transforms preserve the exponent.
    """
    ev = family.evaluator
    key = variant.lower()
    if key == "swap-sigma":
        def ev2(zv: float) -> np.ndarray:
            return _SIGMA @ np.asarray(ev(zv)) @ _SIGMA
    elif key == "s-twist":
        def ev2(zv: float) -> np.ndarray:
            m = np.asarray(ev(zv))
            d0 = cmath.exp(1j * math.pi * (zv + h))
            s0 = cmath.exp(1j * math.pi * zv)
            left = np.array([[1.0 / d0, 0.0], [0.0, d0]])
            right = np.array([[s0, 0.0], [0.0, 1.0 / s0]])
            return left @ m @ right
    else:
        raise InvalidInputError("variant must be 'swap-sigma' or 'S-twist'")
    twisted = MatrixFamily(kind="user-table", evaluator=ev2,
                           parameters=family.parameters,
                           metadata={"derived_from": family.kind,
                                     "variant": key})
    base_spec = CocycleSpec(family=family, h=h, z0=z0, N=N,
                            renorm_stride=renorm_stride, z_samples=z_samples)
    tw_spec = CocycleSpec(family=twisted, h=h, z0=z0, N=N,
                          renorm_stride=renorm_stride, z_samples=z_samples)
    est = cocycle_lyapunov(base_spec)
    est2 = cocycle_lyapunov(tw_spec)
    combined = math.hypot(est.standard_error, est2.standard_error)
    return ConjugationReport(variant=key, theta_base=est.value,
                             theta_transformed=est2.value,
                             combined_standard_error=combined)
