"""Metric jets and curvature against a symbolic oracle (sympy, test-only).

Each chart's metric jet (``charts._metric_jet``: its own ``jet``, or the
Taylor jet of ``metric_at`` for the jet-less product and fiber charts) is
compared with sympy derivatives of the same metric written out by hand, and ``riemann`` with the symbolic Riemann tensor in the
``charts`` convention R^i_{jkl} = d_k G^i_lj - d_l G^i_kj + G^i_km G^m_lj
- G^i_lm G^m_kj, and ``riemann_lowered`` with the symbolic g_im R^m_{jkl}.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import semigeo as sg
from semigeo import charts

sp = pytest.importorskip("sympy")


def _coords(n):
    return sp.symbols(f"x0:{n}", real=True)


def hyperbolic_metric(x):
    return sp.eye(len(x)) / x[-1] ** 2


def sphere_metric(x):
    return 4 * sp.eye(len(x)) / (1 + sum(c**2 for c in x)) ** 2


def product_metric(base_metric, fiber_metric, db, factor=lambda b, f: 1):
    """diag(-g_B, factor * g_F) on coordinates (b, f), b of length db."""

    def metric(x):
        b, f = x[:db], x[db:]
        return sp.diag(-base_metric(b), factor(b, f) * fiber_metric(f))

    return metric


HALF = sp.Rational(1, 2)

# (chart, symbolic metric as a function of the coordinate symbols)
CASES = {
    "hyperbolic(2)": (sg.hyperbolic(2), hyperbolic_metric),
    "hyperbolic(3)": (sg.hyperbolic(3), hyperbolic_metric),
    "sphere(2)": (sg.sphere(2), sphere_metric),
    "sphere(3)": (sg.sphere(3), sphere_metric),
    "flat_torus(2)": (sg.flat_torus(2), lambda x: sp.eye(2)),
    "minkowski(1,2)": (sg.minkowski(1, 2), lambda x: sp.diag(1, -1, -1)),
    "plain": (
        sg.assemble(sg.plain_product(sg.hyperbolic(2), sg.sphere(2))),
        product_metric(hyperbolic_metric, sphere_metric, 2),
    ),
    "warped_busemann": (
        sg.assemble(sg.warped_product(sg.hyperbolic(2), sg.sphere(2), sg.busemann_warping(0.5))),
        # e^{2 alpha} = b_l^{2 * 0.5}
        product_metric(hyperbolic_metric, sphere_metric, 2, lambda b, f: b[-1]),
    ),
    "twisted_constant": (
        sg.assemble(sg.twisted_product(sg.hyperbolic(2), sg.flat_torus(2), sg.constant_warping(0.25))),
        product_metric(hyperbolic_metric, lambda f: sp.eye(2), 2, lambda b, f: sp.exp(HALF)),
    ),
    "negate": (sg.negate(sg.sphere(2)), lambda x: -sphere_metric(x)),
    "fiber_chart_at": (
        sg.fiber_chart_at(
            sg.warped_product(sg.hyperbolic(2), sg.sphere(2), sg.busemann_warping(1.5)),
            np.array([0.25, 1.75]),
        ),
        lambda x: sp.Rational(7, 4) ** 3 * sphere_metric(x),
    ),
}


def _points(chart, n=10, seed=0):
    lo, hi = chart.sample_box
    return np.random.default_rng(seed).uniform(lo, hi, size=(n, chart.dim))


def _symbolic_jet(metric, dim):
    x = _coords(dim)
    g = metric(x)
    dg = [[[sp.diff(g[i, j], x[k]) for j in range(dim)] for i in range(dim)] for k in range(dim)]
    ddg = [
        [[[sp.diff(g[i, j], x[k], x[l]) for j in range(dim)] for i in range(dim)] for l in range(dim)]
        for k in range(dim)
    ]
    return [sp.lambdify(x, expr, "numpy") for expr in (g.tolist(), dg, ddg)]


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_jet_matches_symbolic_derivatives(name):
    chart, metric = CASES[name]
    exact = _symbolic_jet(metric, chart.dim)
    pts = _points(chart)
    scale, *parts = charts._metric_jet(chart, pts, 2)
    for order, fn in enumerate(exact):
        want = np.array([np.array(fn(*x), dtype=float) for x in pts])
        got = scale.reshape((-1,) + (1,) * (parts[order].ndim - 1)) * parts[order]
        _assert_close(got, want)
    # the order-1 jet is the head of the order-2 jet
    for a, b in zip(charts._metric_jet(chart, pts, 1), (scale, *parts)):
        assert np.array_equal(a, b)


def _every_operation(m, x):
    # each Taylor-value operation once, with the ufuncs taken from module m
    a, b = x
    return m.sqrt(a) * m.sin(b) / (1 + a**3) - m.log(a) * m.cos(b) + m.exp(b) * m.log1p(a) - 2.0 / b + (a - b) ** -2 - 3 * a


def test_taylor_operations_match_symbolic_derivatives():
    x = _coords(2)
    ufuncs = SimpleNamespace(sqrt=sp.sqrt, sin=sp.sin, cos=sp.cos, exp=sp.exp, log=sp.log, log1p=lambda z: sp.log(1 + z))
    f = _every_operation(ufuncs, x)
    exact = [sp.lambdify(x, e, "numpy") for e in (f, [sp.diff(f, c) for c in x], sp.hessian(f, x).tolist())]
    pts = np.random.default_rng(3).uniform([0.5, 1.5], [1.0, 2.0], size=(10, 2))
    got = charts._taylor(lambda y: _every_operation(np, y), pts, "f")
    for part, fn in zip(got, exact):
        _assert_close(part, np.array([np.array(fn(*p), dtype=float) for p in pts]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_taylor_jet_matches_symbolic_derivatives(name):
    # the same chart without its jet: the Taylor jet of metric_at
    chart, metric = CASES[name]
    chart = dataclasses.replace(chart, jet=None)
    exact = _symbolic_jet(metric, chart.dim)
    pts = _points(chart)
    scale, *parts = charts._metric_jet(chart, pts, 2)
    assert np.array_equal(scale, np.ones(len(pts)))
    for order, fn in enumerate(exact):
        _assert_close(parts[order], np.array([np.array(fn(*x), dtype=float) for x in pts]))
    for a, b in zip(charts._metric_jet(chart, pts, 1), (scale, *parts)):
        assert np.array_equal(a, b)


def _symbolic_riemann(metric, dim):
    x = _coords(dim)
    g = metric(x)
    ginv = g.inv()
    gamma = [
        [
            [
                sp.simplify(
                    sum(ginv[i, l] * (sp.diff(g[l, k], x[j]) + sp.diff(g[l, j], x[k]) - sp.diff(g[j, k], x[l]))
                        for l in range(dim)) / 2
                )
                for k in range(dim)
            ]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    r = [
        [
            [
                [
                    sp.diff(gamma[i][l][j], x[k])
                    - sp.diff(gamma[i][k][j], x[l])
                    + sum(gamma[i][k][m] * gamma[m][l][j] - gamma[i][l][m] * gamma[m][k][j] for m in range(dim))
                    for l in range(dim)
                ]
                for k in range(dim)
            ]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return sp.lambdify(x, r, "numpy")


@pytest.mark.parametrize("name", ["sphere(2)", "hyperbolic(2)", "plain", "warped_busemann"])
def test_riemann_matches_symbolic(name):
    chart, metric = CASES[name]
    exact = _symbolic_riemann(metric, chart.dim)
    exact_metric = sp.lambdify(_coords(chart.dim), metric(_coords(chart.dim)).tolist(), "numpy")
    for x in _points(chart):
        want = np.array(exact(*x), dtype=float)
        _assert_close(sg.riemann(chart, x), want)
        lowered = np.einsum("im,mjkl->ijkl", np.array(exact_metric(*x), dtype=float), want)
        _assert_close(sg.riemann_lowered(chart, x), lowered)
