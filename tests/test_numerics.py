"""The numpy-only root finders, quadrature and interpolants, checked on
their own and against SciPy (a test-only dependency) as the oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from adiaspec import _numerics, actions as actions_mod
from adiaspec import (
    ConvergenceFailure,
    PeriodicPotential,
    band_edges,
    real_branch,
    tunneling_action,
    window_model,
)
from adiaspec.hill import DiscriminantModel

scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_integrate = pytest.importorskip("scipy.integrate")
scipy_interpolate = pytest.importorskip("scipy.interpolate")


# ---------------------------------------------------------------------------
# Gauss-Kronrod


def _monomial_error(weights, d):
    exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
    return abs(float(weights @ _numerics.KRONROD_NODES ** d) - exact)


def test_kronrod_and_gauss_rules_are_exact_to_their_degree():
    for d in range(32):
        assert _monomial_error(_numerics.KRONROD_WEIGHTS, d) <= 1e-15
    for d in range(20):
        assert _monomial_error(_numerics.GAUSS_WEIGHTS, d) <= 1e-15
    # and no further: the next even degree is not integrated exactly
    assert _monomial_error(_numerics.KRONROD_WEIGHTS, 32) > 1e-13
    assert _monomial_error(_numerics.GAUSS_WEIGHTS, 20) > 1e-7
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(_numerics.KRONROD_NODES[1::2] - nodes)) <= 1e-15
    assert np.max(np.abs(_numerics.GAUSS_WEIGHTS[1::2] - weights)) <= 1e-15


def _half_integrands(geom, model=None):
    """The '+i0' action integrands f(u, i) of one interval, both halves of
    every pre-gap, with their u ranges, as ``actions._actions`` builds
    them."""
    if model is None:
        model = window_model(geom.bands, geom.W, geom.energy)
    for label in geom.gap_labels:
        im_kappa = actions_mod._im_kappa_factory(model, geom, [label])
        a, b = geom.pre_gap(label)
        mid = 0.5 * (a + b)
        for edge, sgn in ((a, 1.0), (b, -1.0)):
            def f(u, i, edge=edge, sgn=sgn, im_kappa=im_kappa):
                return 2.0 * u * im_kappa(edge + sgn * u * u, i)
            yield label, f, math.sqrt(abs(mid - edge))


def test_gauss_kronrod_matches_quad_on_every_reference_pre_gap(geom_ref):
    for _, f, ulim in _half_integrands(geom_ref):
        [(ours, err)] = _numerics.gauss_kronrod(f, 0.0, ulim, epsabs=1e-12,
                                                epsrel=1e-11, limit=200)
        want, want_err = scipy_integrate.quad(
            lambda u: float(f(np.array([u]), 0)[0]), 0.0, ulim,
            epsabs=1e-12, epsrel=1e-11, limit=200)
        assert abs(ours - want) <= 1e-13 * abs(want)
        # the same first rule and error formula
        assert err == pytest.approx(want_err, rel=1e-6)


def test_gauss_kronrod_raises_at_the_subinterval_limit():
    # |u - 1/3| has a kink the bisection never lands on, alone or beside
    # an interval its first panel resolves
    def kink(u, i):
        return np.abs(u - 1.0 / 3.0)

    for a, b in ((0.0, 1.0), ([0.5, 0.0], 1.0)):
        with pytest.raises(ConvergenceFailure, match="after 20 subintervals"):
            _numerics.gauss_kronrod(kink, a, b, epsabs=1e-14, epsrel=1e-14,
                                    limit=20)
    [(value, _)] = _numerics.gauss_kronrod(lambda u, i: np.exp(u), 0.0, 1.0,
                                           1e-14, 1e-13)
    assert value == pytest.approx(math.e - 1.0, rel=1e-15)


def test_gauss_kronrod_refines_only_the_intervals_that_need_it():
    # |u + 1| is resolved by its first panel, |u - 1/3| is not: the array
    # form reads both first panels at once, refines the kink alone, and
    # returns what one call per interval does
    def kinks(*c):
        def f(u, i):
            calls.append(i)
            return np.abs(u - np.array(c)[i, None])
        return f

    calls = []
    got = _numerics.gauss_kronrod(kinks(-1.0, 1.0 / 3.0), 0.0, [1.0, 1.0],
                                  1e-10, 1e-10)
    assert calls[0] is ... and set(calls[1:]) == {1}
    assert [_numerics.gauss_kronrod(kinks(c), 0.0, 1.0, 1e-10, 1e-10)[0]
            for c in (-1.0, 1.0 / 3.0)] == got


@pytest.mark.parametrize("ripple, tol", [(0.0, 1e-10), (1e-9, 1e-10),
                                         (1e-6, 1e-8)])
def test_batched_actions_equal_one_interval_calls_bit_for_bit(
        geom_ref, ripple, tol):
    # every half's first panel in one read, then the halves that miss the
    # tolerance refined alone: the same sums as one call per half, also
    # where the ripple makes the refinement run (on the reference itself
    # the first panel meets every tol down to 2e-13, and 1e-13 is refused)
    from test_actions import _RipplingModel
    model = _RipplingModel(window_model(geom_ref.bands, geom_ref.W,
                                        geom_ref.energy), ripple=ripple)
    got = actions_mod.compute_actions(geom_ref, tol=tol, model=model)
    reads = model.reads
    scale = tol / 1e-10
    halves = [_numerics.gauss_kronrod(f, 0.0, ulim, epsabs=1e-12 * scale,
                                      epsrel=1e-11 * scale)[0]
              for _, f, ulim in _half_integrands(geom_ref, model)]
    want = [(2.0 * (v1 + v2), 2.0 * (e1 + e2))
            for (v1, e1), (v2, e2) in zip(halves[::2], halves[1::2])]
    assert [(s, e) for _, s, e in got.entries] == want
    assert (reads == 1) == (ripple == 0.0)


def test_unreachable_plus_side_tolerance_exits_numeric(geom_ref):
    # rtol 1e-15 is below QK21's error floor of 50 eps per subinterval
    with pytest.raises(ConvergenceFailure, match="Gauss-Kronrod"):
        tunneling_action(geom_ref,
                         geom_ref.gap_labels[0], side="+i0", tol=1e-16)


# ---------------------------------------------------------------------------
# interpolants


def test_hermite_matches_scipy_on_a_branch_table(geom_ref):
    br = real_branch(geom_ref, geom_ref.band_labels[0], points=128)
    x, y = br.kappa_grid, br.zeta_values
    xs = np.concatenate([x, np.linspace(0.0, math.pi, 4001)])
    scale = np.max(np.abs(y))
    slopes = np.random.default_rng(3).standard_normal(len(x))
    ours = _numerics.CubicHermite(x, y, slopes)(xs)
    want = scipy_interpolate.CubicHermiteSpline(x, y, slopes)(xs)
    assert np.max(np.abs(ours - want)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# root finders


def test_bracketed_roots_match_brentq_on_many_brackets():
    # one root per shift s in [-1, 2]: f is increasing
    shift = np.random.default_rng(5).uniform(-1.5, 9.0, 200)

    def f(x, s):
        return x ** 3 + x + 0.15 * np.sin(5.0 * x) - s

    xtol = 1e-13
    calls = [0]

    def counted(x, i):
        calls[0] += 1
        return f(x, shift[i])

    roots = _numerics.bracketed_roots(counted, -1.0, 2.0, xtol=xtol)
    for r, s in zip(roots, shift):
        want = scipy_optimize.brentq(lambda x: float(f(x, s)), -1.0, 2.0,
                                     xtol=xtol)
        assert abs(r - want) <= xtol + 4 * np.finfo(float).eps * abs(want)
    # bisection from width 3 to 1e-13 takes 45 steps
    assert calls[0] <= 20


def test_bracketed_roots_return_an_exact_root_and_broadcast():
    targets = np.array([0.0, 0.25, 1.0])
    roots = _numerics.bracketed_roots(lambda x, i: x - targets[i],
                                      0.0, 1.0, xtol=1e-14)
    assert roots[0] == 0.0 and roots[2] == 1.0
    assert abs(roots[1] - 0.25) <= 1e-14
    with pytest.raises(ConvergenceFailure, match="1 of 3 brackets"):
        _numerics.bracketed_roots(
            lambda x, i: np.cbrt(x - np.array([0.0, 0.3, 1.0])[i]),
            0.0, 1.0, xtol=1e-14, maxiter=2)


def test_bracketed_roots_evaluate_only_open_brackets(geom_ref, monkeypatch):
    # the reference branch tables' brackets, spied on: each bracket takes
    # the iterates it takes when solved alone, so its root is bit for bit
    # the same, while f sees fewer points than brackets times calls
    from adiaspec import geometry
    solves = []

    def spied(f, lo, hi, *args, **kwargs):
        seen = [0, 0]

        def g(x, i):
            seen[0] += np.size(x)
            seen[1] += 1
            return f(x, i)

        roots = _numerics.bracketed_roots(g, lo, hi, *args, **kwargs)
        solves.append((f, lo, hi, args, kwargs, roots, seen))
        return roots

    monkeypatch.setattr(geometry, "bracketed_roots", spied)
    # band 1's energy solve, then its W inversions on both half-periods
    geometry.real_branches(geom_ref, 1)
    assert [len(s[5]) for s in solves] == [510, 510, 510]
    for f, lo, hi, args, kwargs, roots, (points, calls) in solves:
        assert points < 0.8 * calls * len(roots)
        for k in range(0, len(roots), 17):
            mask = np.zeros(len(roots), dtype=bool)
            mask[k] = True
            alone = _numerics.bracketed_roots(lambda x, i: f(x, mask),
                                              lo, hi, *args, **kwargs)
            assert alone[0] == roots[k]


def test_band_edge_polish_makes_one_direct_call_per_simple_edge(V_ref,
                                                                monkeypatch):
    from adiaspec import hill
    original = hill.discriminant
    direct = [0]

    def counted(*args, **kwargs):
        direct[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(hill, "discriminant", counted)
    bands = band_edges(V_ref, 45.0, 1e-10)
    # the five edges below 45 are all simple roots of the model
    assert len(bands.edges) == 5
    assert direct[0] == 5


def test_closed_gap_extremum_matches_minimize_scalar():
    # every gap of the free operator is closed, at E = (pi n)^2; the model
    # route here is the exact piecewise product
    V = PeriodicPotential.zero()
    bands = band_edges(V, 42.0)
    model = DiscriminantModel(V, -1.0, 43.0)
    assert bands.gap_open == (False, False)
    for n, e in enumerate(bands.edges[1::2], start=1):
        res = scipy_optimize.minimize_scalar(
            lambda E: -(model(E) ** 2 - 4.0), bounds=(e - 0.05, e + 0.05),
            method="bounded", options={"xatol": 1e-12})
        assert abs(e - float(res.x)) <= 1e-6
        assert model(e) ** 2 - 4.0 >= -float(res.fun) - 1e-12
        assert abs(e - (math.pi * n) ** 2) <= 1e-9
