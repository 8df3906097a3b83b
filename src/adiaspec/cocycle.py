"""Matrix cocycles over an irrational shift and direct Lyapunov exponents.

Two routes to an exponent live here.  `cocycle_lyapunov` iterates a
1-periodic 2x2 matrix family over the circle shift z -> z + h, the
discrete monodromy picture.  `direct_lyapunov` follows the
quasi-periodic Schrodinger equation itself over a long window in
unit-length blocks, the continuous picture; the blocks come from one
`PhaseModel` of the block map in the slow phase, a trigonometric
interpolant filled and checked against sampled blocks of the run in one
integration batch.  Both orbits, z + n h and phi_j = eps j, are
arithmetic progressions, and the families given by a Fourier table (model,
Herman and their conjugates) and the phase model are read along them by
one table rotation, `_rotation`; a family given by an evaluator alone is
evaluated point by point.  Both routes go through one renormalised-product
kernel, `_log_norms`, over all z samples at once: it reads factors in
chunks of at most ``_ode.CHUNK`` columns (a, b, c, d), multiplies each
run of `stride` of them as a pairwise tree (``_ode._fold``, a group of
runs in one call) and renormalises a batch of these block products by
one work-efficient prefix scan (`_prefix`).  The stride is
``renorm_stride`` cocycle factors, or a number of unit blocks derived
from the phase model's norm bound.
The bridge is Theta = (eps / 2 pi) theta, plus the model matrix M0 and
a Herman-type lower-bound checker for families with a dominant
oscillating mode.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
# numpy loads these two on first use (PhaseModel's FFT, herman_family's
# generator); load them with this module, so that no computation holds
# that import.  The commands that use this module, cocycle and verify,
# import it when they run, so the ~15 ms (numpy.random ~13 of them) fall
# in their run time; verify loads numpy.random although only
# herman_family uses it
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from . import _ode
from .errors import (
    ConsistencyError,
    DegeneracyError,
    InsufficientLengthError,
    InvalidInputError,
    ResolutionFailure,
)
from .hill import TWO_PI, PeriodicPotential

_KINDS = ("model-M0", "herman-test", "user-table")

# most factors (N times the number of z samples) one cocycle_lyapunov
# call multiplies, and most unit blocks of one direct run; the largest use
# in the tests is 900k
_COCYCLE_FACTORS_MAX = 10_000_000
# a PhaseModel's first and largest number of fill phases, and the number of
# a run's blocks it integrates alongside its first fill to check itself
_PHASES_MIN, _PHASES_MAX = 32, 1024
_SAMPLE_BLOCKS = 32
# points of an orbit `_rotation`'s table covers, rotated once per span.  A
# chunk-wide table cost a phase model ~900 KiB of fresh heap pages; and real
# products of at most 32 rows and 256 columns never stalled, where complex
# ones, or real ones of 64 rows or 512 columns, took ~16 ms a call in some
# interpreters with numpy's threaded OpenBLAS, against ~30 us
_TABLE_BLOCKS = 256


class SmallDenominatorWarning(UserWarning):
    """The shift h is suspiciously close to a small-denominator rational."""


@dataclass(frozen=True)
class MatrixFamily:
    """A 1-periodic family z -> M(z) of 2x2 complex matrices, given as a
    Fourier table or by an evaluator.

    A Fourier table ``(freqs, coeffs)`` is consecutive integer frequencies
    f and (4, M) coefficients C_f of the rows (a, b, c, d),
    M(z) = sum_f C_f e^(2 pi i f z); `orbit` rotates the table along the
    shift, and the family's evaluator is its direct sum at one z.  An
    evaluator alone takes a real z and returns a (2, 2) complex array, and
    the family is evaluated point by point, at the orbit phases the table
    rotation reads (`_orbit_phase`).  Periodicity is spot-checked
    at construction; families of kind 'model-M0' are additionally checked
    for the conjugation symmetry between the two rows on real z.
    """

    kind: str
    evaluator: object = field(default=None, repr=False, compare=False)
    parameters: tuple = ()
    metadata: dict = field(default_factory=dict, compare=False)
    fourier: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"kind must be one of {_KINDS}")
        if self.fourier is not None:
            freqs, coeffs = (np.asarray(self.fourier[0]),
                             np.asarray(self.fourier[1], dtype=complex))
            if (freqs.ndim != 1 or freqs.dtype.kind not in "iu"
                    or coeffs.shape != (4, len(freqs)) or not len(freqs)
                    or (np.diff(freqs) != 1).any()):
                raise InvalidInputError(
                    "a Fourier table is M consecutive integer frequencies "
                    "and (4, M) coefficients")
            if self.evaluator is not None:
                raise InvalidInputError(
                    "a family given by a Fourier table takes no evaluator")

            def direct_sum(z: float) -> np.ndarray:
                return _fourier_sum(freqs, coeffs, np.array([float(z)])
                                    ).reshape(2, 2)

            object.__setattr__(self, "fourier", (freqs, coeffs))
            object.__setattr__(self, "evaluator", direct_sum)
        elif self.evaluator is None:
            raise InvalidInputError("a family needs an evaluator")
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

    def rows(self, z: np.ndarray) -> np.ndarray:
        """(4, n) complex rows (a, b, c, d) of M at each z of a 1-D array,
        one evaluator call per z."""
        ms = np.asarray([self.evaluator(v) for v in z.tolist()], dtype=complex)
        return ms.reshape(-1, 4).T

    def orbit(self, h: float):
        """The factors along the shift z -> z + h: a function of (z, n0,
        n1) that returns the (4, n1 - n0) rows of M(z + n h), n0 <= n < n1,
        by the Fourier table's `_rotation` (period 1), or for a family given
        by an evaluator at each (z + (n h mod 1)) mod 1 (`rows`), n h reduced
        by `_orbit_phase` as in the table's rotation."""
        if self.fourier is None:
            return lambda z, n0, n1: self.rows(
                np.mod(z + _orbit_phase(h, np.arange(n0, n1)), 1.0))
        return _rotation(*self.fourier, h)


def _powers(u: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """u^f for the consecutive integers f of freqs and each u of a 1-D
    array of unit complex numbers, as (len(freqs), n).  From u^c, c the f
    nearest to 0 (numpy's integer power; exactly 1 for c = 0), the powers
    u^(c + k) and u^(c - k) = u^c conj(u)^k are filled by doubling (rows
    k .. 2k-1 are rows 0 .. k-1 times u^k), one complex product per
    entry."""
    lo, hi = int(freqs[0]), int(freqs[-1])
    c = min(max(0, lo), hi)
    p = np.empty((hi - lo + 1, len(u)), dtype=complex)
    p[c - lo] = u ** c if c else 1.0
    for rows, v in ((p[c - lo:], u), (p[c - lo::-1], u.conj())):
        k = 1
        while k < len(rows):
            m = min(k, len(rows) - k)
            np.multiply(rows[:m], v, out=rows[k:k + m])
            v = v * v
            k *= 2
    return p


def _orbit_phase(step: float, j, period: float = 1.0):
    """step j mod period for integers 0 <= j < 2^24 (an int or an array),
    within an ulp of its exact value: the step is split as s_hi + s_lo,
    s_hi cut to 29 significant bits, so that s_hi j and its reduction are
    exact."""
    m, e = math.frexp(step)
    hi = math.ldexp(round(math.ldexp(m, 29)), e - 29)
    return np.mod(np.mod(hi * j, period) + (step - hi) * j, period)


def _orbit_table(step: float, freqs: np.ndarray, n: int,
                 period: float = 1.0) -> np.ndarray:
    """Omega[f, j] = e^(2 pi i f x_j / period), x_j = step j mod period
    (`_orbit_phase`), for the consecutive integers f of freqs and j < n, as a
    (len(freqs), n) table: one complex exponential per column, then its
    powers (`_powers`)."""
    x = _orbit_phase(step, np.arange(n), period)
    return _powers(np.exp(1j * (TWO_PI / period) * x), freqs)


def _fourier_sum(freqs, coeffs, x: np.ndarray, period: float = 1.0):
    """(4, n) rows of sum_f C_f e^(2 pi i f x / period) at each x of a 1-D
    array, by powers of e^(2 pi i x / period); real if Hermitian."""
    out = coeffs @ _powers(np.exp(1j * (TWO_PI / period) * x), freqs)
    return out.real if _hermitian(freqs, coeffs) else out


def _hermitian(freqs: np.ndarray, coeffs: np.ndarray) -> bool:
    """Whether C_-f = conj(C_f) for every f: a real sum at real points."""
    return bool(freqs[0] == -freqs[-1]
                and (coeffs == coeffs[:, ::-1].conj()).all())


def _rotation(freqs: np.ndarray, coeffs: np.ndarray, step: float,
              period: float = 1.0):
    """A Fourier table's sum along an arithmetic orbit: a function of
    (x, n0, n1) that returns the (4, n1 - n0) rows of `_fourier_sum` at
    x + step n, n0 <= n < n1.  In spans of ``_TABLE_BLOCKS`` points from
    s, with x_s = (x + step s) mod period (`_orbit_phase`), the sum is
    sum_f c_f Omega[f, n - s], c_f = C_f e^(2 pi i f x_s / period) and
    Omega = `_orbit_table`: rows (Re c_f, Im c_f) times rows (Re, -Im) of
    Omega_f, and (Im, Re) for the imaginary part.  A Hermitian table is
    summed from its f >= 0 half, C_0 + 2 Re sum_(f > 0): real, one product.
    """
    if real := _hermitian(freqs, coeffs):
        m = int(freqs[-1])
        freqs, coeffs = freqs[m:], coeffs[:, m:] * np.where(freqs[m:], 2.0, 1.0)
    omega = _orbit_table(step, freqs, _TABLE_BLOCKS, period)
    pairs = ((omega.real, -omega.imag), (omega.imag, omega.real))
    parts = [np.stack(p, axis=1).reshape(-1, _TABLE_BLOCKS)
             for p in pairs[:1 if real else 2]]

    def rows(x: float, n0: int, n1: int) -> np.ndarray:
        xs = np.mod(x + _orbit_phase(step, np.arange(n0, n1, _TABLE_BLOCKS),
                                     period), period)
        c = (coeffs[:, None] * np.exp(np.multiply.outer(
            1j * (TWO_PI / period) * xs, freqs))).view(float).reshape(
                4 * len(xs), -1)  # (4 spans, 2 M)
        out = c @ parts[0]
        if not real:
            out = np.stack((out, c @ parts[1]), axis=-1).view(complex)[..., 0]
        return out.reshape(4, -1)[:, :n1 - n0]
    return rows


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
        if not all(map(math.isfinite, (self.z0, *self.z_samples))):
            raise InvalidInputError("z0 and the z samples must be finite")

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


def default_z_samples(count: int = 8) -> tuple:
    """Equidistributed z values for averaging finite-N estimates."""
    if count < 1:
        raise InvalidInputError("need at least one sample")
    return tuple((0.5 + i) / count for i in range(count))


def small_denominator(h: float):
    """Smallest denominator q < 20 with |h - p/q| < 1e-6, else None."""
    x = h % 1.0
    p_prev, q_prev, p_cur, q_cur = 1, 0, int(math.floor(x)), 1
    frac = x - math.floor(x)
    for _ in range(64):
        if abs(x - p_cur / q_cur) < 1e-6 and q_cur < 20:
            return q_cur
        if q_cur >= 20 or frac == 0.0:
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


def _norms(rows: np.ndarray) -> np.ndarray:
    """Frobenius norms of the 2x2 matrices in rows (a, b, c, d); nested
    hypots where a sum of squares would overflow or underflow."""
    m = np.abs(rows)
    s = np.einsum("i...,i...->...", m, m)
    if 1e-290 < s.min() and s.max() < math.inf:
        return np.sqrt(s)
    return np.hypot(np.hypot(m[0], m[1]), np.hypot(m[2], m[3]))


def _det2(rows: np.ndarray) -> np.ndarray:
    """a d - b c of each matrix in complex rows (a, b, c, d) in about twice
    the working precision: Ogita, Rump and Oishi's Dot2 on Dekker's exact
    products.  It keeps the digits of a determinant that the plain a d - b c
    cancels to 0.0, as in unimodular blocks with entries ~1e21."""
    a, b, c, d = rows

    def dot2(pairs):
        total = err = 0.0
        for x, y in pairs:
            # x y = p + e exactly, from the 26-bit halves of x and y
            p = x * y
            sx, sy = 134217729.0 * x, 134217729.0 * y
            xh, yh = sx - (sx - x), sy - (sy - y)
            xl, yl = x - xh, y - yh
            e = xl * yl - (((p - xh * yh) - xl * yh) - xh * yl)
            # total + p = s + (the rounding error of s) exactly
            s = total + p
            z = s - total
            err = err + ((total - (s - z)) + (p - z)) + e
            total = s
        return total + err

    return (dot2([(a.real, d.real), (-a.imag, d.imag),
                  (-b.real, c.real), (b.imag, c.imag)])
            + 1j * dot2([(a.real, d.imag), (a.imag, d.real),
                         (-b.real, c.imag), (-b.imag, c.real)]))


def _unit(rows: np.ndarray) -> np.ndarray:
    # times the reciprocal: complex over real divides much more slowly
    return rows * (1.0 / _norms(rows))


def _prefix(B: np.ndarray, F: np.ndarray) -> np.ndarray:
    """P_k = unit(B_k ... B_0 F) along the last axis of the (4, runs, n)
    block products B, F each run's (4, runs, 1) unit product before them.

    A work-efficient scan on unit() inputs, so that blocks of any
    representable norm stay finite: the pair products of X_0 = unit(B_0 F),
    X_1 = unit(B_1), ..., then of their pairs, up to one entry; then down
    the levels, the prefix of a level's pairs gives its odd entries, and
    each even entry 2i > 0 is its own X times the prefix of pair i - 1.
    About 2 n products in 2 log2(n) steps.
    """
    X = _unit(B)
    X[:, :, :1] = _unit(_ode._mul(X[:, :, :1], F))
    levels = [X]
    while X.shape[2] > 1:
        n = X.shape[2]
        X = _unit(_ode._mul(X[:, :, 1::2], X[:, :, 0:n - 1:2]))
        levels.append(X)
    P = levels.pop()
    while levels:
        X = levels.pop()
        X[:, :, 1::2] = P
        if X.shape[2] > 2:
            X[:, :, 2::2] = _unit(_ode._mul(X[:, :, 2::2],
                                            P[:, :, :(X.shape[2] - 1) // 2]))
        P = X
    return P


def _log_norms(rows_of, zs: tuple, N: int, stride: int) -> np.ndarray:
    """Logs of the rescalings of the renormalised products of N 2x2
    factors, one product per run r (phase zs[r]), as (runs, blocks).

    ``rows_of(r, n0, n1)`` returns run r's factors n0 <= k < n1 as (4, n)
    columns (a, b, c, d), n1 - n0 <= ``_ode.CHUNK``; they are read in
    pieces of q = max(1, ``_ode.CHUNK // stride``) blocks of `stride`
    factors from multiples of q `stride` (a block longer than a chunk in
    chunks from its start).  ``_ode._fold`` makes each run of `stride`
    factors (the last may be shorter) one block product B_k, one call for
    a group of runs, or of one run's pieces, of at most 2 ``_ode.CHUNK``
    factors.  A batch holds whole pieces of up to ``_ode.CHUNK // q``
    runs, at most ``_ode.CHUNK`` B_k in all; with F a run's unit product
    before the batch, `_prefix` makes P_k = unit(B_k ... B_0 F), and block
    k's log is log ||B_k P_(k-1)||_F (P_(-1) = F), so the logs sum to
    log ||P_N||.  DegeneracyError names the factor and the z after which a
    norm is 0 or not finite.
    """
    C = _ode.CHUNK
    q = max(1, C // stride)  # blocks of a piece of factors
    w, group = q * stride, max(1, C // q)

    def read(runs: range, n0: int, n1: int) -> np.ndarray:
        return np.stack([rows_of(r, n0, n1) for r in runs], axis=1)

    def products(runs: range, p0: int, p1: int) -> np.ndarray:
        # block products of the runs' factors p0 <= k < p1, whole pieces,
        # or one piece of one block past C factors, as (4, runs, blocks)
        if w > C:  # the block's reads of C, folded each and multiplied
            return functools.reduce(lambda x, y: _ode._mul(y, x), (
                _ode._fold(read(runs, n0, min(n0 + C, p1)), stride)
                for n0 in range(p0, p1, C)))
        reads = [read(runs, n0, min(n0 + w, p1)) for n0 in range(p0, p1, w)]
        return _ode._fold(reads[0] if len(reads) == 1 else
                          np.concatenate(reads, axis=2), stride)

    out = np.empty((len(zs), -(-N // stride)))
    for r0 in range(0, len(zs), group):
        runs = range(r0, min(r0 + group, len(zs)))
        span = max(1, C // (q * len(runs))) * w  # a run's batch
        # runs and pieces of one fold, at most 2 C factors (256 KiB
        # complex); folds of 4 C faulted in fresh pages on every batch
        # (5,575 minor faults a call at the cocycle benchmark's shape,
        # against 121), the heap freed after each being trimmed
        folded = max(1, 2 * C // span)
        fold = w if w > C else max(1, 2 * C // (folded * w)) * w
        F = np.tile(np.eye(2).reshape(4, 1, 1), (1, len(runs), 1))
        for b0 in range(0, N, span):
            b1 = min(b0 + span, N)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                B = np.concatenate([np.concatenate(
                    [products(runs[i:i + folded], p0, min(p0 + fold, b1))
                     for p0 in range(b0, b1, fold)], axis=2)
                    for i in range(0, len(runs), folded)], axis=1)
                P = _prefix(B, F)
                nrm = _norms(_ode._mul(B, np.concatenate(
                    [F, P[:, :, :-1]], axis=2)))
            for r, k in np.argwhere(~((nrm > 0.0) & (nrm < math.inf)))[:1]:
                raise DegeneracyError(
                    f"product has norm {nrm[r, k]} after factor "
                    f"{min(b0 + (k + 1) * stride, N)} (z={zs[runs[r]]})")
            out[r0:r0 + len(runs), b0 // stride:-(-b1 // stride)] = np.log(nrm)
            F = P[:, :, -1:]
    return out


def cocycle_lyapunov(spec: CocycleSpec) -> LyapunovEstimate:
    """theta = lim (1/N) log ||M(z + (N-1)h) ... M(z)||.

    The factors come from ``family.orbit(h)``, and those of every z go to
    one ``_log_norms`` call with stride `renorm_stride`; a factor whose
    determinant is below 1e-29 |M|_F^2, taken in twice the working
    precision, is singular (DegeneracyError).
    With several z samples the estimate is their mean and the standard
    error their spread; with a single z it is the spread of per-block
    growth rates.  N times the number of z samples
    is bounded by ``_COCYCLE_FACTORS_MAX`` before any factor is evaluated.
    """
    zs = spec.effective_z_samples
    h, N, stride = spec.h, spec.N, spec.renorm_stride
    if N * len(zs) > _COCYCLE_FACTORS_MAX:
        raise ResolutionFailure(
            f"N={N} with {len(zs)} z samples is {N * len(zs)} cocycle "
            f"factors, above the limit of {_COCYCLE_FACTORS_MAX}")

    orbit = spec.family.orbit(h)

    def factors(r: int, n0: int, n1: int) -> np.ndarray:
        rows = orbit(zs[r], n0, n1)
        det = rows[0] * rows[3] - rows[1] * rows[2]
        bad = np.flatnonzero(np.abs(det) < 1e-300)
        if bad.size:
            # a tiny a d - b c may be cancellation between large entries;
            # 1e-29 |M|_F^2 is well above the rounding of _det2
            m = rows[:, bad]
            bad = bad[np.abs(_det2(m)) <= 1e-29 * _norms(m) ** 2]
        if bad.size:
            raise DegeneracyError(f"singular matrix in the cocycle "
                                  f"at step {n0 + bad[0]} (z={zs[r]})")
        return rows

    logs = _log_norms(factors, zs, N, stride)
    blocks = logs.ravel()
    samples = (logs.sum(axis=1) / N if len(zs) > 1 else
               blocks / np.minimum(stride, N - stride * np.arange(len(blocks))))
    se = (float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
          if len(samples) > 1 else 0.0)
    return LyapunovEstimate(value=float(blocks.sum()) / (N * len(zs)),
                            per_block=blocks, standard_error=se, N_used=N,
                            z_samples=zs)


# ---------------------------------------------------------------------------
# direct integration of the quasi-periodic equation


def direct_lyapunov(V: PeriodicPotential, W, epsilon: float, E: float,
                    z: float = 0.0, L: float = 1000.0,
                    tol: float = 1e-8) -> LyapunovEstimate:
    """Exponent of -psi'' + (V(x - z) + W(eps x)) psi = E psi over [0, L].

    The run is cut into N unit blocks [j, j + 1] (one V period).  Block j's
    fundamental matrix is G(phi_j) with phi_j = eps j mod 2 pi, and one
    `PhaseModel` of G per call stands in for integrating every block: it
    is filled at a few equispaced phases and checked against
    `_SAMPLE_BLOCKS` evenly spaced blocks of this run, integrated directly
    in the same batch as the first fill (ConsistencyError if one
    disagrees).  The blocks are then evaluated from the model and go to
    ``_log_norms`` with the derived stride
    s = max(1, min(64, N // 10, floor(350 / max(1, log B)))), where B =
    ``PhaseModel.norm_bound``: a fold of s blocks stays below e^350, and
    there are at least ten fold blocks, one log each in ``per_block``.
    Theta = (sum of the logs) / N, with 10 <= N <=
    ``_COCYCLE_FACTORS_MAX`` (`unit_blocks`); the ODE work does not depend
    on N.  The standard error is the spread of slopes over ten consecutive
    segments of whole fold blocks, each its log sum over its unit-block
    count.  W may be None for the unmodulated operator.
    """
    if epsilon <= 0:
        raise InvalidInputError("epsilon must be positive")
    if not (math.isfinite(z) and cmath.isfinite(E)):
        raise InvalidInputError("z and E must be finite")
    nblocks = unit_blocks(L)
    model = PhaseModel(V, W, epsilon, E, z, tol, nblocks)
    s = max(1, min(64, nblocks // 10,
                   math.floor(350.0 / max(1.0, math.log(model.norm_bound)))))
    blocks = _log_norms(lambda r, j0, j1: model.blocks(j0, j1), (z,),
                        nblocks, s)[0]
    sizes = np.minimum(s, nblocks - s * np.arange(len(blocks)))
    slopes = [g.sum() / n.sum() for g, n in zip(np.array_split(blocks, 10),
                                                  np.array_split(sizes, 10))]
    se = float(np.std(slopes, ddof=1) / math.sqrt(len(slopes)))
    return LyapunovEstimate(value=float(blocks.sum()) / nblocks,
                            per_block=blocks, standard_error=se,
                            N_used=nblocks, z_samples=(float(z),))


def unit_blocks(L: float) -> int:
    """The number of unit blocks [j, j + 1] in a run over [0, L], before
    any work: InsufficientLengthError below 10, ResolutionFailure above
    ``_COCYCLE_FACTORS_MAX``."""
    nblocks = math.floor(L + 1e-9)
    if nblocks < 10:
        raise InsufficientLengthError(
            f"L={L} gives {nblocks} unit blocks; need at least 10")
    if nblocks > _COCYCLE_FACTORS_MAX:
        raise ResolutionFailure(
            f"L={L} is {nblocks} unit blocks, above the limit of "
            f"{_COCYCLE_FACTORS_MAX}")
    return nblocks


class PhaseModel:
    """The unit-block map G(phi) of one direct run, as a trigonometric
    interpolant in the slow phase.

    Block j sees V(t - z) + W(eps (j + t)) - E on t in [0, 1].  W has
    integer frequencies, so the block's fundamental matrix is G(phi_j),
    phi_j = eps j mod 2 pi, with G analytic and 2 pi periodic.  G is filled
    at K equispaced phases by one ``_block_transfers`` pass, and its
    Fourier coefficients are taken by a complex FFT (complex E gives a
    complex G).  K starts at ``_PHASES_MIN`` and doubles while the largest
    coefficient of the upper half of the frequencies, |k| >= K / 4, exceeds
    tol * max(1, max |G|); a refill integrates the K fill phases only, and
    past ``_PHASES_MAX`` the model is refused with ResolutionFailure.
    The model is G's Fourier table over |f| < K / 2, the Nyquist term,
    already below the tolerance, dropped, and made exactly Hermitian for a
    real G, so that its sums stay real.  ``norm_bound`` = 2 max_r sum_f
    |C_f| bounds ||G||_F at every phase (an entry is at most the sum of its
    coefficients' moduli).  The first pass also integrates
    ``_SAMPLE_BLOCKS`` evenly spaced blocks of the run of nblocks blocks,
    and the model is refused with ConsistencyError if it misses one by more
    than 10 tol max(1, max |block|).
    """

    def __init__(self, V: PeriodicPotential, W, epsilon: float, E, z: float,
                 tol: float, nblocks: int):
        js = np.linspace(0, nblocks - 1, _SAMPLE_BLOCKS).astype(int)
        # distinct, in order (np.unique would load numpy.ma on first use)
        js = js[np.r_[True, js[1:] != js[:-1]]]
        checks = np.mod(epsilon * js, TWO_PI)
        K = _PHASES_MIN
        G = _block_transfers(V, W, epsilon, E, z, np.concatenate(
            [TWO_PI / K * np.arange(K), checks]), tol)
        G, direct = G[:, :K], G[:, K:]
        while True:
            coef = np.fft.fft(G, axis=1) / K
            k = np.fft.fftfreq(K, 1.0 / K)
            tail = float(np.abs(coef[:, np.abs(k) >= K // 4]).max())
            if tail <= tol * max(1.0, float(np.abs(G).max())):
                break
            if K >= _PHASES_MAX:
                raise ResolutionFailure(
                    f"phase model with {K} phases still has a Fourier tail "
                    f"of {tail:.3g}, above tol {tol} of the block scale")
            K *= 2
            G = _block_transfers(V, W, epsilon, E, z,
                                 TWO_PI / K * np.arange(K), tol)
        self.K = K
        table = np.concatenate((coef[:, K // 2 + 1:], coef[:, :K // 2]), axis=1)
        if not np.iscomplexobj(G):
            table = 0.5 * (table + table[:, ::-1].conj())
        self._fourier = (np.arange(1 - K // 2, K // 2), table)
        self.norm_bound = 2.0 * float(np.abs(table).sum(axis=1).max())
        self._orbit = _rotation(*self._fourier, epsilon, TWO_PI)
        diff = np.abs(self(checks) - direct).max(axis=0)
        bound = 10.0 * tol * np.maximum(1.0, np.abs(direct).max(axis=0))
        bad = np.flatnonzero(diff > bound)
        if bad.size:
            i = bad[0]
            raise ConsistencyError(
                f"phase model ({K} phases) misses block {js[i]} by "
                f"{diff[i]:.3g}, above {bound[i]:.3g}")

    def __call__(self, phases: np.ndarray) -> np.ndarray:
        """(4, n) rows (a, b, c, d) of G at each phase of a 1-D array, the
        table's direct sum (`_fourier_sum`)."""
        return _fourier_sum(*self._fourier, phases, TWO_PI)

    def blocks(self, j0: int, j1: int) -> np.ndarray:
        """Rows of the run's unit blocks j0 <= j < j1, G at eps j, by
        `_rotation` with period 2 pi."""
        return self._orbit(0.0, j0, j1)


def _block_transfers(V: PeriodicPotential, W, epsilon: float, E, z: float,
                     phases: np.ndarray, tol: float) -> np.ndarray:
    """Fundamental matrices of unit blocks at slow phases phi, rows (a, b, c, d).

    A block at phase phi sees V(t - z) + W(phi + eps t) - E on t in [0, 1];
    block j of a run has phi = eps j.  V(t - z) is shared by every block
    and evaluated once per stage node.  Each W term c cos(f zeta) +
    s sin(f zeta) at zeta = phi + eps t is P cos(f eps t) + Q sin(f eps t)
    by angle addition, with P = c cos(f phi) + s sin(f phi) and
    Q = s cos(f phi) - c sin(f phi), so only P and Q are per-block arrays.
    The blocks go through one ``_ode.transfer_batch`` call per interval
    between jumps of a piecewise-constant V, where w takes the array of
    segment times.
    """
    terms = []
    for f, c, s in (() if W is None else W.coefficients):
        cj, sj = np.cos(f * phases), np.sin(f * phases)
        terms.append((f * epsilon, c * cj + s * sj, s * cj - c * sj))
    vf = V.array_evaluator()
    piecewise = V.kind == "piecewise-constant"
    knots = [0.0, 1.0]
    if piecewise:
        knots[1:1] = sorted({(b + z) % 1.0 for b, _ in V.segments
                             if (b + z) % 1.0 > 0.0})
    y = np.zeros((4, len(phases)))
    y[0] = y[3] = 1.0
    for t0, t1 in zip(knots[:-1], knots[1:]):
        # V is constant between its jumps; a node on a jump would pick
        # either side's value, so take the sub-interval's midpoint instead
        v_mid = vf(0.5 * (t0 + t1) - z) if piecewise else None

        def w(t: np.ndarray, v_mid=v_mid):
            out = (vf(t - z) if v_mid is None else v_mid) - E
            for om, P, Q in terms:
                out = out + P * np.cos(om * t) + Q * np.sin(om * t)
            return out

        y = _ode.transfer_batch(w, t0, t1, y, rtol=tol)
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

    u = exp(2 pi i z), as the Fourier table of frequencies -1, 0, 1.  No
    normalization is applied: the metadata records sup |det M0 - 1| over
    the 257-point grid z = j / 256, an orbit of step 1/256, so callers can
    judge how far from unimodular the supplied coefficients are.
    """
    a0, a1, b0, b1 = complex(a0), complex(a1), complex(b0), complex(b1)
    freqs = np.arange(-1, 2)
    coeffs = np.array([[0.0, a0, a1], [0.0, b0, b1],
                       [b1.conjugate(), b0.conjugate(), 0.0],
                       [a1.conjugate(), a0.conjugate(), 0.0]])
    a, b, c, d = coeffs @ _orbit_table(1.0 / 256, freqs, 257)
    dev = float(np.abs(a * d - b * c - 1.0).max())
    return MatrixFamily(kind="model-M0", parameters=(a0, a1, b0, b1),
                        metadata={"det_deviation": dev},
                        fourier=(freqs, coeffs))


def _spectral_norms(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each 2x2 matrix of the (2, 2, n) array m.

    sigma_max^2 is the larger eigenvalue of M^H M = [[p, q], [conj q, r]],
    (p + r) / 2 + hypot((p - r) / 2, |q|): a sum of nonnegative terms, so
    it keeps its digits where sigma_1 ~ sigma_2, unlike the
    |M|_F^2 - 2 |det M| form of the same root.
    """
    (a, b), (c, d) = m
    p = a.real ** 2 + a.imag ** 2 + c.real ** 2 + c.imag ** 2
    r = b.real ** 2 + b.imag ** 2 + d.real ** 2 + d.imag ** 2
    q = np.abs(a.conj() * b + c.conj() * d)
    return np.sqrt(0.5 * (p + r) + np.hypot(0.5 * (p - r), q))


def herman_family(lam, n0: int, alpha, beta, m_amp: float, epsilon: float,
                  seed: int = 0) -> MatrixFamily:
    """lam * e^{2 pi i n0 z} (B + M1(z)) with B = [[1, beta], [0, alpha]].

    M1 is a seeded degree-3 trigonometric matrix polynomial rescaled so
    its sup spectral norm over the 4096-point grid z = j / 4096 (an orbit
    of step 1/4096, `_orbit_table`) equals m_amp exactly; the seed makes
    lower-bound sweeps reproducible.  The family is the Fourier table of
    lam (B + M1): frequencies n0 - 3 ... n0 + 3 with (4, 7) coefficients,
    lam B added at n0; with m_amp = 0 it is lam B at n0 alone.
    """
    lam, alpha, beta = complex(lam), complex(alpha), complex(beta)
    if abs(alpha) >= 1.0:
        raise InvalidInputError("need |alpha| < 1")
    if m_amp < 0:
        raise InvalidInputError("perturbation amplitude must be >= 0")
    # lam B at u^n0, then the seven modes of lam M1 around it
    freqs, coeffs = np.array([n0]), lam * np.array([[1.0], [beta], [0.0],
                                                    [alpha]])
    if m_amp > 0:
        rng = np.random.default_rng(seed)
        m1 = (rng.standard_normal((2, 2, 7))
              + 1j * rng.standard_normal((2, 2, 7)))
        modes = _orbit_table(1.0 / 4096, np.arange(-3, 4), 4096)
        sup = _spectral_norms(np.einsum("ijk,kz->ijz", m1, modes)).max()
        table = lam * (m1 * (m_amp / sup)).reshape(4, 7)
        table[:, 3] += coeffs[:, 0]
        freqs, coeffs = n0 + np.arange(-3, 4), table
    return MatrixFamily(
        kind="herman-test",
        parameters=(lam, n0, alpha, beta, float(m_amp), float(epsilon), seed),
        metadata={"seed": seed, "m_amp": float(m_amp)},
        fourier=(freqs, coeffs),
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


def conjugation_invariance_check(family: MatrixFamily, h: float,
                                 variant: str, *, N: int = 20000,
                                 z0: float = 0.0, renorm_stride: int = 8,
                                 z_samples: tuple = ()) -> ConjugationReport:
    """Exponent of the family vs. its conjugated version (`_conjugated`)."""
    key = variant.lower()
    est, est2 = (cocycle_lyapunov(CocycleSpec(
        family=f, h=h, z0=z0, N=N, renorm_stride=renorm_stride,
        z_samples=z_samples)) for f in (family, _conjugated(family, h, key)))
    combined = math.hypot(est.standard_error, est2.standard_error)
    return ConjugationReport(variant=key, theta_base=est.value,
                             theta_transformed=est2.value,
                             combined_standard_error=combined)


def _conjugated(family: MatrixFamily, h: float, key: str) -> MatrixFamily:
    """The family conjugated as `key` says.

    'swap-sigma' conjugates by the antidiagonal involution, sigma M sigma =
    [[d, c], [b, a]]; 's-twist' replaces M(z) by S(z + h)^{-1} M(z) S(z)
    with S(z) = diag(e^{i pi z}, e^{-i pi z}), which is unitary for real
    z, so both transforms preserve the exponent.  The twist multiplies the
    rows (a, b, c, d) by w^-1, w^-1 u^-1, w u and w, with w = e^{i pi h}
    and u = e^{2 pi i z}.  A Fourier table is conjugated as a table:
    swap-sigma reverses its rows; the S-twist scales them and moves row b
    down and row c up one frequency, one frequency wider at each end.  A
    family given by an evaluator is conjugated point by point.
    """
    if key not in ("swap-sigma", "s-twist"):
        raise InvalidInputError("variant must be 'swap-sigma' or 'S-twist'")
    w = cmath.exp(1j * math.pi * h)
    derived = dict(kind="user-table", parameters=family.parameters,
                   metadata={"derived_from": family.kind, "variant": key})
    if family.fourier is not None:
        freqs, coeffs = family.fourier
        if key == "swap-sigma":
            return MatrixFamily(**derived, fourier=(freqs, coeffs[::-1]))
        table = np.zeros((4, len(freqs) + 2), dtype=complex)
        table[0, 1:-1], table[1, :-2] = coeffs[:2] * w.conjugate()
        table[2, 2:], table[3, 1:-1] = coeffs[2:] * w
        return MatrixFamily(**derived, fourier=(
            np.arange(freqs[0] - 1, freqs[-1] + 2), table))

    def twisted(z: float) -> np.ndarray:
        m = np.asarray(family.evaluator(z), dtype=complex)
        if key == "swap-sigma":
            return m[::-1, ::-1]
        u = cmath.exp(2j * math.pi * z)
        return m * np.array([[w.conjugate(), (w * u).conjugate()],
                             [w * u, w]])

    return MatrixFamily(**derived, evaluator=twisted)
