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
    RealBranch,
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


def _half_integrands(geom):
    """The '+i0' action integrands, both halves of every pre-gap, with
    their u ranges, as ``actions._action`` builds them."""
    model = window_model(geom.bands, geom.W, geom.energy)
    for label in geom.gap_labels:
        im_kappa = actions_mod._im_kappa_factory(model, geom, label)
        a, b = geom.pre_gap(label)
        mid = 0.5 * (a + b)
        for edge, sgn in ((a, 1.0), (b, -1.0)):
            def f(u, edge=edge, sgn=sgn, im_kappa=im_kappa):
                return 2.0 * u * im_kappa(edge + sgn * u * u)
            yield label, f, math.sqrt(abs(mid - edge))


def test_gauss_kronrod_matches_quad_on_every_reference_pre_gap(geom_ref):
    for _, f, ulim in _half_integrands(geom_ref):
        ours, err = _numerics.gauss_kronrod(f, 0.0, ulim, epsabs=1e-12,
                                            epsrel=1e-11, limit=200)
        want, want_err = scipy_integrate.quad(
            lambda u: float(f(np.array([u]))[0]), 0.0, ulim,
            epsabs=1e-12, epsrel=1e-11, limit=200)
        assert abs(ours - want) <= 1e-13 * abs(want)
        # the same first rule and error formula
        assert err == pytest.approx(want_err, rel=1e-6)


def test_gauss_kronrod_raises_at_the_subinterval_limit():
    # |u - 1/3| has a kink the bisection never lands on
    with pytest.raises(ConvergenceFailure, match="after 20 subintervals"):
        _numerics.gauss_kronrod(lambda u: np.abs(u - 1.0 / 3.0), 0.0, 1.0,
                                epsabs=1e-14, epsrel=1e-14, limit=20)
    value, _ = _numerics.gauss_kronrod(np.exp, 0.0, 1.0, 1e-14, 1e-13)
    assert value == pytest.approx(math.e - 1.0, rel=1e-15)


def test_unreachable_plus_side_tolerance_exits_numeric(geom_ref):
    # rtol 1e-15 is below QK21's error floor of 50 eps per subinterval
    with pytest.raises(ConvergenceFailure, match="Gauss-Kronrod"):
        tunneling_action(geom_ref,
                         geom_ref.gap_labels[0], side="+i0", tol=1e-16)


# ---------------------------------------------------------------------------
# interpolants


def test_hermite_and_pchip_match_scipy_on_a_branch_table(geom_ref):
    br = real_branch(geom_ref, geom_ref.band_labels[0], points=128)
    x, y = br.kappa_grid, br.zeta_values
    xs = np.concatenate([x, np.linspace(0.0, math.pi, 4001)])
    scale = np.max(np.abs(y))
    slopes = np.random.default_rng(3).standard_normal(len(x))
    ours = _numerics.CubicHermite(x, y, slopes)(xs)
    want = scipy_interpolate.CubicHermiteSpline(x, y, slopes)(xs)
    assert np.max(np.abs(ours - want)) <= 1e-14 * scale
    # a table without slopes interpolates by PCHIP
    pchip = RealBranch(br.label, x, y)
    want = scipy_interpolate.PchipInterpolator(x, y)(xs)
    assert np.max(np.abs(pchip(xs) - want)) <= 1e-14 * scale


@pytest.mark.parametrize("seed", range(4))
def test_pchip_matches_scipy_on_rough_data(seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, 40))
    y = rng.standard_normal(40)
    y[10:14] = y[10]  # a flat stretch
    xs = np.linspace(x[0], x[-1], 2001)
    ours = _numerics.CubicHermite(x, y, _numerics.pchip_slopes(x, y))(xs)
    want = scipy_interpolate.PchipInterpolator(x, y)(xs)
    assert np.max(np.abs(ours - want)) <= 1e-14 * np.max(np.abs(y))
    two = _numerics.pchip_slopes(x[:2], y[:2])
    assert np.allclose(two, (y[1] - y[0]) / (x[1] - x[0]), rtol=1e-15)


# ---------------------------------------------------------------------------
# root finders


def _counted(f):
    calls = [0]

    def g(x):
        calls[0] += 1
        return f(x)
    return g, calls


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.cos(x) - 0.3, 0.0, 2.0),
    (lambda x: x ** 3 - x - 0.3, 0.5, 2.0),
    (lambda x: math.exp(-x * x) * math.sin(30.0 * x), 0.05, 0.15),
    (lambda x: math.sqrt(x) - 0.01, 0.0, 1.0),
])
def test_brent_matches_brentq_with_no_more_calls(f, a, b):
    xtol = 1e-12
    g, ours = _counted(f)
    root = _numerics.brent(g, a, b, xtol=xtol)
    h, theirs = _counted(f)
    want = scipy_optimize.brentq(h, a, b, xtol=xtol)
    assert abs(root - want) <= xtol
    assert ours[0] <= theirs[0]
    # known end values are not evaluated again
    g, fewer = _counted(f)
    assert _numerics.brent(g, a, b, xtol=xtol, fa=f(a), fb=f(b)) == root
    assert fewer[0] == ours[0] - 2


def test_bracketed_roots_match_brentq_on_many_brackets():
    # one root per shift s in [-1, 2]: f is increasing
    shift = np.random.default_rng(5).uniform(-1.5, 9.0, 200)

    def f(x, s=shift):
        return x ** 3 + x + 0.15 * np.sin(5.0 * x) - s

    xtol = 1e-13
    calls = [0]

    def counted(x):
        calls[0] += 1
        return f(x)

    roots = _numerics.bracketed_roots(counted, -1.0, 2.0, xtol=xtol)
    for r, s in zip(roots, shift):
        want = scipy_optimize.brentq(lambda x: float(f(x, s)), -1.0, 2.0,
                                     xtol=xtol)
        assert abs(r - want) <= xtol + 4 * np.finfo(float).eps * abs(want)
    # bisection from width 3 to 1e-13 takes 45 steps
    assert calls[0] <= 20


def test_bracketed_roots_return_an_exact_root_and_broadcast():
    roots = _numerics.bracketed_roots(lambda x: x - np.array([0.0, 0.25, 1.0]),
                                      0.0, 1.0, xtol=1e-14)
    assert roots[0] == 0.0 and roots[2] == 1.0
    assert abs(roots[1] - 0.25) <= 1e-14
    with pytest.raises(ConvergenceFailure, match="1 of 3 brackets"):
        _numerics.bracketed_roots(lambda x: np.cbrt(x - np.array([0.0, 0.3, 1.0])),
                                  0.0, 1.0, xtol=1e-14, maxiter=2)


def test_brent_refuses_a_bracket_without_sign_change():
    with pytest.raises(ValueError):
        _numerics.brent(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)


def test_band_edge_polish_makes_fewer_direct_calls_than_brentq(V_ref,
                                                               monkeypatch):
    from adiaspec import hill
    original = hill.discriminant
    direct = [0]

    def counted(*args, **kwargs):
        direct[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(hill, "discriminant", counted)
    bands = band_edges(V_ref, 45.0, 1e-10)
    # brentq made 22 direct calls for the five edges below 45, six of them
    # at bracket ends polish had already evaluated
    assert len(bands.edges) == 5
    assert direct[0] <= 22 - 6


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
