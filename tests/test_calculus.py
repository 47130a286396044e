"""Connection and curvature tests against closed forms and a symbolic oracle."""

import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
import sympy as sp

from lckgeo import fd, zoo
from lckgeo.calculus import (christoffel, christoffel_components, codifferential,
                             connection_matrix, covariant_derivative_full,
                             exterior_derivative, lowered_riemann,
                             metric_compatibility_defect, ricci_scalar,
                             riemann, spd_solve)
from lckgeo.charts import Chart, form_norm
from lckgeo.errors import ChartDomainError
from lckgeo.hermitian import j_on_forms, lee_field, lee_form_components


def _sphere_chart(radius=1.0, dim=2):
    if dim == 2:
        return zoo.round_s2_base(radius).structure.chart
    # round S^3 in hyperspherical angles
    R2 = radius * radius

    def g_fn(p):
        sin_sq = np.sin(np.asarray(p)[..., :2]) ** 2
        g = np.zeros(np.shape(p)[:-1] + (3, 3))
        g[..., 0, 0] = R2
        g[..., 1, 1] = R2 * sin_sq[..., 0]
        g[..., 2, 2] = R2 * sin_sq[..., 0] * sin_sq[..., 1]
        return g

    return Chart(domain=((0.4, math.pi - 0.4), (0.4, math.pi - 0.4),
                         (0.0, 2 * math.pi)),
                 metric_fn=g_fn, label="round_S3")


def _stencil(chart):
    """The chart without its metric derivative: differenced on a stencil."""
    return dataclasses.replace(chart, metric_derivative_fn=None)


class TestChristoffel:
    def test_euclidean_zero(self, euclid4):
        G = christoffel(euclid4.charts["flat"], np.zeros(4))
        npt.assert_allclose(G, 0.0, atol=1e-12)

    def test_sphere_closed_form(self):
        """Gamma^theta_{phi phi} = -sin(t)cos(t), Gamma^phi_{t phi} = cot(t)."""
        chart = _stencil(_sphere_chart())
        p = np.array([math.pi / 4, 1.0])
        G = christoffel(chart, p)
        assert abs(G[0, 1, 1] - (-0.5)) < 1e-8
        assert abs(G[1, 0, 1] - 1.0 / math.tan(p[0])) < 1e-7
        npt.assert_allclose(G, np.transpose(G, (0, 2, 1)), atol=1e-12)

    def test_flat_inversion_against_symbolic_oracle(self, flat_inv2, rng):
        """FD pipeline vs independent sympy differentiation of r^-4 delta."""
        chart = _stencil(flat_inv2.charts["inverted"])
        xs = sp.symbols("x0 x1 x2 x3", real=True)
        r2 = sum(x * x for x in xs)
        g_sym = sp.eye(4) / r2 ** 2
        g_inv_sym = sp.eye(4) * r2 ** 2
        gamma_sym = [[[sp.simplify(sum(
            g_inv_sym[k, l] * (sp.diff(g_sym[i, l], xs[j])
                               + sp.diff(g_sym[j, l], xs[i])
                               - sp.diff(g_sym[i, j], xs[l])) / 2
            for l in range(4))) for j in range(4)] for i in range(4)]
            for k in range(4)]
        gamma_fn = sp.lambdify(xs, gamma_sym, "numpy")
        for p in chart.sample_points(rng, 5):
            G_num = christoffel(chart, p)
            G_orc = np.asarray(gamma_fn(*p), dtype=float)
            assert np.max(np.abs(G_num - G_orc)) < 1e-5

    def test_halving_step_reduces_error(self):
        """2nd-order stencil: halving the step shrinks the defect ~4x."""
        chart = _sphere_chart()
        p = np.array([0.9, 2.0])
        exact = christoffel(chart, p)
        err = lambda h: np.max(np.abs(
            christoffel(_stencil(chart), p, step=h) - exact))
        assert err(5e-4) < err(1e-3) / 3.0

    def test_domain_error(self, flat_inv2):
        chart = _stencil(flat_inv2.charts["inverted"])
        with pytest.raises(ChartDomainError):
            christoffel(chart, np.full(4, 0.34999))
        # a stack fails on the point whose stencil leaves the box
        with pytest.raises(ChartDomainError, match="0.34999"):
            christoffel_components(chart, np.array([chart.center(),
                                                    np.full(4, 0.34999)]))

    def test_stacked_matches_per_point(self, hopf2, hopf3, flat_inv2,
                                       warped_sin, calabi_sin, euclid4, rng):
        """Points of shape (..., m) give the per-point symbols bit for bit."""
        for entry in (hopf2, hopf3, flat_inv2, warped_sin, calabi_sin,
                      euclid4):
            for chart in entry.charts.values():
                variants = [_stencil(chart)] + [chart] * (
                    chart.metric_derivative_fn is not None)
                pts = chart.sample_points(rng, 6).reshape(2, 3, chart.dim)
                for c in variants:
                    stacked = christoffel_components(c, pts)
                    single = [[christoffel_components(c, q) for q in row]
                              for row in pts]
                    assert np.array_equal(stacked, np.array(single)), (
                        c.label, c.metric_derivative_fn)


class TestConnectionMatrix:
    """B = -Gamma(v, .) from the metric partials against the contraction
    of the full Christoffel symbols with v."""

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    @pytest.mark.parametrize("name", ["hopf2", "hopf3", "flat_inv2",
                                      "warped_sin", "warped_cos_c2",
                                      "calabi_sin", "euclid4"])
    def test_matches_contracted_christoffel(self, request, name, mode):
        """Every drift-grid selector, 200 random (x, v) per chart: the worst
        measured difference is 4.4e-16 of 1 + max|B| (calabi g-, fd)."""
        rng = np.random.default_rng(1)
        for chart in request.getfixturevalue(name).charts.values():
            if mode == "fd":
                chart = _stencil(chart)
            x = chart.sample_points(rng, 200)
            v = rng.standard_normal(x.shape)
            ref = -np.einsum("...kij,...i->...kj",
                             christoffel_components(chart, x), v)
            B = connection_matrix(chart.metric_jacobian(x),
                                  chart.metric_fn(x), v)
            assert B.shape == ref.shape == (200, chart.dim, chart.dim)
            assert np.max(np.abs(B - ref)) <= 4e-15 * (
                1.0 + np.max(np.abs(ref))), chart.label


class TestSpdSolve:
    """g^-1 S by the stack-last Cholesky kernel."""

    @staticmethod
    def _spd(rng, lead, m):
        M = rng.standard_normal(lead + (m, m))
        return M @ np.swapaxes(M, -1, -2) + m * np.eye(m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_linalg_solve(self, m):
        """Stacks of 0, 1 and 500 matrices, a (2, 3) stack and one matrix:
        the worst measured difference is 4.4e-16 of max|X| (m = 4)."""
        rng = np.random.default_rng(1)
        for lead in [(0,), (1,), (500,), (2, 3), ()]:
            g = self._spd(rng, lead, m)
            S = rng.standard_normal(lead + (m, m + 1))
            g_in, S_in = g.copy(), S.copy()
            X = spd_solve(g, S)
            ref = np.linalg.solve(g, S)
            assert X.shape == ref.shape
            assert np.array_equal(g, g_in) and np.array_equal(S, S_in)
            if X.size:
                assert np.max(np.abs(X - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_non_spd_gives_nan_without_warning(self, m):
        """A singular, an indefinite, a NaN and an infinite g, each between
        SPD ones: only its own g^-1 S is NaN, all of it."""
        rng = np.random.default_rng(1)
        eye = np.eye(m)
        bad = [np.zeros((m, m)), np.diag(np.resize([1.0, -1.0], m)),
               eye * np.nan, eye + np.diag(np.resize([0.0, np.inf], m))]
        singular = eye.copy()
        singular[-1, -1] = 0.0
        bad.append(singular)
        g = self._spd(rng, (2 * len(bad) + 1,), m)
        g[1::2] = bad
        S = rng.standard_normal((len(g), m, m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = spd_solve(g, S)
        assert np.all(np.isnan(X[1::2]))
        assert np.array_equal(X[::2], spd_solve(g[::2], S[::2]))
        assert np.all(np.isfinite(X[::2]))


def _per_axis_partial(f, p, axis, step, order):
    """Reference central stencil, one axis at a time."""
    h = step
    e = np.zeros_like(p, dtype=float)
    e[axis] = 1.0
    if order == 2:
        return (np.asarray(f(p + h * e)) - np.asarray(f(p - h * e))) / (2.0 * h)
    f1 = np.asarray(f(p + h * e))
    f_1 = np.asarray(f(p - h * e))
    f2 = np.asarray(f(p + 2.0 * h * e))
    f_2 = np.asarray(f(p - 2.0 * h * e))
    return (8.0 * (f1 - f_1) - (f2 - f_2)) / (12.0 * h)


@pytest.mark.parametrize("order, step", [(2, 1e-5), (4, 1e-3)])
def test_gradient_matches_per_axis_stencil(order, step, hopf2, rng):
    """fd.gradient rounds like the per-axis formula, signed zeros included."""
    chart = hopf2.main_structure.chart
    W = rng.standard_normal((4, 6))
    # arctan2 tells +0.0 from -0.0 in its first argument
    fields = [chart.metric_fn, lambda q: np.sin(np.vecmat(q, W)),
              lambda q: (np.arctan2(q[..., 1], -1.0)
                         + q[..., 0] * q[..., 2] ** 3)]
    pts = chart.sample_points(rng, 3)
    pts[0, 1] = -0.0
    for f in fields:
        ref = np.array([np.stack([_per_axis_partial(f, q, k, step, order)
                                  for k in range(q.size)]) for q in pts])
        stencil = fd.Stencil(step, order)
        assert np.array_equal(fd.gradient(f, pts, stencil), ref)
        assert np.array_equal(fd.gradient(f, pts[0], stencil), ref[0])


@pytest.mark.parametrize("lead", [0, 1])
@pytest.mark.parametrize("order", [2, 4])
def test_difference_matches_moveaxis_route(order, lead, rng):
    """fd.difference reads each stencil offset in place and rounds as
    taking them from the stencil axis moved to the front did."""
    stencil = fd.Stencil(1e-3, order)
    values = rng.standard_normal((3,) * lead + (4, order, 2, 3))
    f_s = np.moveaxis(values, lead + 1, 0)
    h = stencil.step
    if order == 2:
        ref = (f_s[0] - f_s[1]) / (2.0 * h)
    else:
        ref = (8.0 * (f_s[0] - f_s[1]) - (f_s[2] - f_s[3])) / (12.0 * h)
    assert np.array_equal(fd.difference(values, stencil, lead), ref)


@pytest.mark.parametrize("name", ["flat_inv2", "hopf2"])
def test_complex_step_against_symbolic_oracle(name, request, rng):
    """The chart's metric partials, fd.complex_step of its own metric, vs
    independent sympy differentiation of the metric, to 1e-13 relative."""
    chart = request.getfixturevalue(name).main_structure.chart
    xs = sp.symbols("x0 x1 x2 x3", real=True)
    if name == "flat_inv2":
        g_sym = sp.eye(4) / sum(x * x for x in xs) ** 2
    else:   # ds^2 + the round S^3 in hyperspherical angles (a1, a2, a3)
        s1, s2 = sp.sin(xs[1]) ** 2, sp.sin(xs[2]) ** 2
        g_sym = sp.diag(1, 1, s1, s1 * s2)
    dg_sym = [[[sp.diff(g_sym[i, j], x) for j in range(4)] for i in range(4)]
              for x in xs]
    dg_fn = sp.lambdify(xs, dg_sym, "numpy")
    pts = chart.sample_points(rng, 10)
    stacked = chart.metric_jacobian(pts)
    for p, dg in zip(pts, stacked):
        oracle = np.array(dg_fn(*p), dtype=float)
        assert np.array_equal(dg, fd.complex_step(chart.metric_fn)(p))
        assert np.max(np.abs(dg - oracle)) <= 1e-13 * np.max(np.abs(oracle))


@pytest.mark.parametrize("stencil, step, order", [
    (fd.DIRECT, 1e-5, 2), (fd.NESTED, 1e-3, 4), (fd.DEEP, 1e-2, 2)])
def test_stencil_tiers_and_extent(stencil, step, order):
    """Each tier holds its documented step and order, and its extent is the
    farthest offset fd.gradient hands the field (at the origin the stencil
    points are the offsets themselves)."""
    assert (stencil.step, stencil.order) == (step, order)
    reached = []

    def field(q):
        reached.append(np.max(np.abs(q)))
        return np.sin(q)

    fd.gradient(field, np.zeros(3), stencil)
    assert reached == [stencil.extent]


def test_gradient_evaluates_the_stencil_in_one_call(rng):
    """fd.gradient hands the field every stencil point of every base point
    in one stack, and a per-point function lifted by np.vectorize is a
    field."""
    pts = rng.standard_normal((2, 3, 4))
    shapes = []

    def stacked(q):
        shapes.append(q.shape)
        return np.sin(q)[..., :, None] * q[..., None, :2]

    lifted = np.vectorize(lambda q: np.outer(np.sin(q), q[:2]),
                          signature="(m)->(i,j)", otypes=[float])
    for stencil in (fd.Stencil(1e-3, 2), fd.Stencil(1e-3, 4)):
        out = fd.gradient(stacked, pts, stencil)
        assert np.array_equal(fd.gradient(lifted, pts, stencil), out)
        assert out.shape == (2, 3, 4, 4, 2)
    assert shapes == [(2, 3, 4, 2, 4), (2, 3, 4, 4, 4)]


class TestCurvature:
    def test_euclidean_riemann_zero(self, euclid4):
        R = riemann(euclid4.charts["flat"], np.zeros(4))
        npt.assert_allclose(R, 0.0, atol=1e-12)

    def test_round_s3_sectional_curvature_one(self, rng):
        """R(X, Y)Y = |Y|^2 X - <X, Y> Y on the unit S^3."""
        chart = _sphere_chart(1.0, dim=3)
        for p in chart.sample_points(rng, 5):
            g = chart.metric(p)
            R = riemann(chart, p)
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            lhs = np.einsum("abcd,b,c,d->a", R, y, x, y)
            rhs = float(y @ g @ y) * x - float(x @ g @ y) * y
            assert np.max(np.abs(lhs - rhs)) < 1e-6 * (1 + np.max(np.abs(rhs)))

    def test_flat_inversion_riemann_vanishes(self, flat_inv2, rng):
        chart = _stencil(flat_inv2.charts["inverted"])
        for p in chart.sample_points(rng, 10):
            R = lowered_riemann(chart, p)
            assert form_norm(R, chart.metric(p)) < 1e-4

    @pytest.mark.parametrize("mode,tol", [("fd", 1e-4), ("analytic", 1e-8)])
    def test_riemann_symmetries_and_bianchi(self, mode, tol, hopf2, calabi_sin,
                                            warped_sin, rng):
        """Antisymmetries and the first Bianchi identity on zoo charts, on
        stencils ("fd") and with the metric derivatives ("analytic")."""
        for entry in (hopf2, calabi_sin, warped_sin):
            chart = entry.main_structure.chart
            if mode == "fd":
                chart = _stencil(chart)
            for p in chart.sample_points(rng, 4):
                g = chart.metric(p)
                R = lowered_riemann(chart, p)
                scale = 1.0 + np.max(np.abs(R))
                assert np.max(np.abs(R + np.transpose(R, (1, 0, 2, 3)))) < tol * scale
                assert np.max(np.abs(R + np.transpose(R, (0, 1, 3, 2)))) < tol * scale
                bianchi = (R + np.transpose(R, (0, 2, 3, 1))
                           + np.transpose(R, (0, 3, 1, 2)))
                assert np.max(np.abs(bianchi)) < tol * scale

    def test_metric_compatibility(self, hopf2, calabi_sin, rng):
        for entry in (hopf2, calabi_sin):
            chart = entry.main_structure.chart
            for p in chart.sample_points(rng, 5):
                assert metric_compatibility_defect(_stencil(chart), p) < 1e-4
                assert metric_compatibility_defect(chart, p) < 1e-12


class TestRicci:
    def test_euclidean(self, euclid4):
        ric, scal = ricci_scalar(euclid4.charts["flat"], np.zeros(4))
        npt.assert_allclose(ric, 0.0, atol=1e-12)
        assert abs(scal) < 1e-12

    @pytest.mark.parametrize("radius,dim", [(1.0, 2), (2.0, 2), (1.0, 3)])
    def test_round_sphere_scalar(self, radius, dim, rng):
        """scal(S^m(R)) = m(m-1)/R^2."""
        chart = _stencil(_sphere_chart(radius, dim))
        p = chart.sample_points(rng, 1)[0]
        ric, scal = ricci_scalar(chart, p)
        expected = dim * (dim - 1) / radius ** 2
        assert abs(scal - expected) < 1e-5 * (1 + expected)
        npt.assert_allclose(ric, ric.T, atol=1e-7)

    def test_warped_fiber_curvature_rows(self, warped_sin, rng):
        """R(X, d_t) d_t = -(f''/f) X for fiber directions X."""
        chart = _stencil(warped_sin.main_structure.chart)
        for p in chart.sample_points(rng, 4):
            t = p[1]
            ratio = -math.sin(t) + math.cos(t) ** 2   # f''/f, f = e^(sin t)
            R = riemann(chart, p)
            for k in (2, 3):
                x = np.zeros(4)
                x[k] = 1.0
                lhs = np.einsum("abcd,b,c,d->a", R, np.array([0, 1, 0, 0.0]),
                                x, np.array([0, 1, 0, 0.0]))
                npt.assert_allclose(lhs, -ratio * x,
                                    atol=1e-5 * (1 + abs(ratio)))

    def test_warped_radial_ricci(self, warped_sin, rng):
        """Ric(d_t, d_t) = (2 - 2n) f''/f with f = e^(sin t).

        The prefactor is the fiber dimension 2n - 2, i.e. the trace of the
        fiber curvature rows above (checked to 1e-8 numerically).
        """
        chart = _stencil(warped_sin.main_structure.chart)
        for p in chart.sample_points(rng, 5):
            t = p[1]
            ric, _ = ricci_scalar(chart, p)
            expected = -2.0 * (-math.sin(t) + math.cos(t) ** 2)
            assert abs(ric[1, 1] - expected) < 1e-5 * (1 + abs(expected))


def _directional(chart, field, p, x, valence):
    """nabla_X T at p: X contracted with the derivative axis of nabla T."""
    full = covariant_derivative_full(chart, field, p, valence)
    return np.tensordot(np.asarray(x, dtype=float), full, axes=(0, 0))


class TestCovariantDerivative:
    def test_constant_field_flat(self, euclid4):
        chart = euclid4.charts["flat"]
        out = _directional(chart, fd.constant(np.ones(4)), np.zeros(4),
                           np.ones(4), (0, 1))
        npt.assert_allclose(out, 0.0, atol=1e-12)

    def test_hopf_lee_form_is_parallel(self, hopf2, rng):
        """nabla_X theta = 0 for the circle length element."""
        H = zoo.stencil_only(hopf2).main_structure
        for p in H.chart.sample_points(rng, 5):
            x = rng.standard_normal(4)
            out = _directional(H.chart, lee_field(H), p, x, (1, 0))
            assert np.linalg.norm(out) < 1e-6

    def test_calabi_radial_derivative_of_vertical_field(self, calabi_sin, rng):
        """nabla_{d_r} xi = (l'/l) xi on the bundle chart."""
        chart = _stencil(calabi_sin.charts["g_ell"])
        c_w = calabi_sin.params["c_w"]
        xi = np.array([0.0, 0.0, 1.0 / c_w, 0.0])
        e_r = np.array([0.0, 0.0, 0.0, 1.0])
        for p in chart.sample_points(rng, 5):
            out = _directional(chart, fd.constant(xi), p, e_r, (0, 1))
            expected = (math.cos(p[3]) / math.sin(p[3])) * xi
            npt.assert_allclose(out, expected, atol=1e-7)

    def test_leibniz_rule(self, rng):
        """nabla(alpha (x) beta) = nabla alpha (x) beta + alpha (x) nabla beta."""
        chart = _stencil(_sphere_chart())
        alpha = lambda q: np.stack([np.sin(q[..., 0]), np.cos(q[..., 1])], -1)
        beta = lambda q: np.stack([q[..., 0] ** 2,
                                   np.sin(q[..., 1]) * q[..., 0]], -1)
        tensor = lambda q: alpha(q)[..., :, None] * beta(q)[..., None, :]
        p = np.array([1.1, 2.3])
        lhs = covariant_derivative_full(chart, tensor, p, (2, 0))
        da = covariant_derivative_full(chart, alpha, p, (1, 0))
        db = covariant_derivative_full(chart, beta, p, (1, 0))
        rhs = (np.einsum("ci,j->cij", da, beta(p))
               + np.einsum("i,cj->cij", alpha(p), db))
        npt.assert_allclose(lhs, rhs, atol=1e-6)


class TestFormCalculus:
    def test_d_of_constant_form(self, euclid4):
        chart = euclid4.charts["flat"]
        out = exterior_derivative(chart, fd.constant(np.ones(4)), np.zeros(4),
                                  k=1)
        npt.assert_allclose(out, 0.0, atol=1e-12)

    def test_d_squared_zero(self):
        chart = _sphere_chart()
        field = lambda q: np.stack([np.sin(q[..., 0]) * q[..., 1],
                                    np.cos(q[..., 0])], -1)
        p = np.array([1.2, 2.0])
        d1 = lambda q: exterior_derivative(chart, field, q, k=1)
        d2 = exterior_derivative(chart, d1, p, k=2)
        assert np.max(np.abs(d2)) < 1e-5

    def test_hopf_domega(self, hopf2, rng):
        """d Omega = 2 theta ^ Omega on the Hopf chart."""
        from lckgeo.charts import wedge
        H = zoo.stencil_only(hopf2).main_structure
        for p in H.chart.sample_points(rng, 5):
            d_om = exterior_derivative(H.chart, H.omega, p, k=2)
            theta = lee_form_components(H, p)
            rhs = 2.0 * wedge(theta, H.omega(p))
            assert form_norm(d_om - rhs, H.chart.metric(p)) < 1e-6

    def test_calabi_bundle_curvature(self, calabi_sin, rng):
        """d omega = pullback(Omega_N) for the connection form."""
        chart = calabi_sin.charts["g_ell"]
        c_w = calabi_sin.params["c_w"]
        base = calabi_sin.base

        def omega_form(q):
            out = np.zeros(np.shape(q))
            out[..., 1] = c_w * np.cos(q[..., 0])
            out[..., 2] = c_w
            return out

        for p in chart.sample_points(rng, 5):
            d_om = exterior_derivative(chart, omega_form, p, k=1)
            omega_n = base.structure.omega(np.array([p[0], 0.0]))
            pullback = np.zeros((4, 4))
            pullback[:2, :2] = omega_n
            assert np.max(np.abs(d_om - pullback)) < 1e-9

    def test_codifferential_constant_euclidean(self, euclid4):
        chart = euclid4.charts["flat"]
        out = codifferential(chart, fd.constant(np.ones(4)), np.zeros(4), k=1)
        assert abs(float(out)) < 1e-12

    def test_hopf_delta_omega(self, hopf2, rng):
        """delta Omega = (2 - 2n) J theta: the codifferential sign anchor."""
        H = zoo.stencil_only(hopf2).main_structure
        for p in H.chart.sample_points(rng, 5):
            delta_om = codifferential(H.chart, H.omega, p, k=2)
            theta = lee_form_components(H, p)
            rhs = (2.0 - 2.0 * H.n) * j_on_forms(H.J(p), theta)
            assert np.max(np.abs(delta_om - rhs)) < 1e-8

    def test_flat_inversion_delta_theta(self, flat_inv2):
        """At r = 1, n = 2: |theta|^2 = 4 and delta theta = (1-n)|theta|^2 = -4."""
        H = zoo.stencil_only(flat_inv2).main_structure
        p = np.full(4, 0.5)     # r = 1
        theta = lee_form_components(H, p)
        g_inv = np.linalg.inv(H.chart.metric(p))
        norm_sq = float(theta @ g_inv @ theta)
        assert abs(norm_sq - 4.0) < 1e-8
        delta_theta = codifferential(H.chart, lee_field(H), p, k=1)
        assert abs(float(delta_theta) - (-4.0)) < 1e-4


def test_christoffel_metric_error():
    from lckgeo.errors import MetricError
    bad = Chart(domain=((-1, 1), (-1, 1)),
                metric_fn=lambda p: np.diag([1.0, -1.0]), label="bad")
    with pytest.raises(MetricError):
        christoffel(bad, np.zeros(2))
