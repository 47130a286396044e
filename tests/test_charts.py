"""Chart, FrameTensor, Loop, and exterior-algebra unit tests."""

import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from lckgeo import fd, zoo
from lckgeo.charts import (Chart, FrameTensor, Loop, _move_axis, alt,
                           coordinate_rectangle, endomorphism_of_form,
                           form_norm, form_of_endomorphism, polygon_loop,
                           raised_norm, segment_loop, wedge, wedge_endo)
from lckgeo.errors import ChartDomainError, MetricError


def _all_entries(hopf2, flat_inv2, warped_sin, calabi_sin):
    return [hopf2, flat_inv2, warped_sin, calabi_sin]


class TestChartInvariants:
    def test_metric_positive_definite_on_samples(self, hopf2, flat_inv2,
                                                 warped_sin, calabi_sin, rng):
        """Eigenvalue test of metric_fn at sampled interior points."""
        for entry in _all_entries(hopf2, flat_inv2, warped_sin, calabi_sin):
            for chart in entry.charts.values():
                for p in chart.sample_points(rng, 25):
                    g = chart.metric(p)
                    ev = np.linalg.eigvalsh(g)
                    assert ev[0] > 0, f"{chart.label} not PD at {p}"
                    npt.assert_allclose(g, g.T, atol=1e-12 * (1 + ev[-1]))

    def test_analytic_derivative_matches_central_differences(
            self, hopf2, hopf3, flat_inv2, flat_inv3, warped_sin,
            warped_cos_c2, calabi_sin, euclid4, rng):
        """metric_derivative_fn vs 2nd-order stencil, to 1e-8 (the stencil's
        own error is about 1e-10), on every zoo chart and Kahler base."""
        entries = [hopf2, hopf3, flat_inv2, flat_inv3, warped_sin,
                   warped_cos_c2, calabi_sin, euclid4] + zoo.kaehler_bases()
        for entry in entries:
            for chart in entry.charts.values():
                assert chart.metric_derivative_fn is not None, chart.label
                stencil = dataclasses.replace(chart, metric_derivative_fn=None)
                for p in chart.sample_points(rng, 10):
                    dg_fd = stencil.metric_jacobian(p)
                    dg_an = chart.metric_jacobian(p)
                    assert np.max(np.abs(dg_fd - dg_an)) < 1e-8 * (
                        1 + np.max(np.abs(dg_an))), chart.label

    def test_domain_checks(self):
        chart = zoo.euclidean(2).charts["flat"]
        with pytest.raises(ChartDomainError):
            chart.require_inside([2.0, 0.0])
        with pytest.raises(ChartDomainError):
            chart.require_inside([0.999, 0.0], margin=0.01)
        with pytest.raises(ChartDomainError):
            chart.sample_points(np.random.default_rng(0), 5, margin=10.0)

    def test_domain_verdicts_match_the_domain_read_per_call(self):
        """The bounds a chart holds give the verdicts of rebuilding
        np.array(domain) on every call: on the faces and one ulp either
        side, at +-0.0 against faces at 0.0 and -0.0, and at NaN and inf,
        for margins +-0.0, +-1e-5 and NaN, point by point and stacked."""
        chart = Chart(domain=((0.0, 1.0), (-1.0, -0.0)),
                      metric_fn=fd.constant(np.eye(2)), label="faces")

        def rebuilt(points, margin):
            lows, highs = np.array(chart.domain, dtype=float).T
            return ((lows + margin <= points)
                    & (points <= highs - margin)).all(axis=-1)

        assert chart.bounds is chart.bounds
        assert not any(b.flags.writeable for b in chart.bounds)
        margins = (0.0, -0.0, 1e-5, -1e-5, math.nan)
        values = {0.0, -0.0, math.nan, math.inf, -math.inf}
        for face in (0.0, 1.0, -1.0):
            for shift in margins[2:4]:
                for x in (face, face + shift):
                    values |= {x, np.nextafter(x, -math.inf),
                               np.nextafter(x, math.inf)}
        values = sorted(values, key=lambda x: (math.isnan(x), x))
        points = np.array(list(itertools.product(values, repeat=2)))
        for margin in margins:
            expected = rebuilt(points, margin)
            assert expected.any() != math.isnan(margin)
            assert not expected.all()
            assert np.array_equal(chart.inside(points, margin), expected)
            assert [chart.contains(p, margin) for p in points] == \
                expected.tolist()

    def test_metric_validation_errors(self):
        bad_sym = Chart(domain=((-1, 1), (-1, 1)),
                        metric_fn=lambda p: np.array([[1.0, 0.5], [0.0, 1.0]]),
                        label="bad_sym")
        with pytest.raises(MetricError):
            bad_sym.metric([0.0, 0.0])
        bad_pd = Chart(domain=((-1, 1), (-1, 1)),
                       metric_fn=lambda p: np.diag([1.0, -1.0]), label="bad_pd")
        with pytest.raises(MetricError):
            bad_pd.metric([0.0, 0.0])
        # an infinite diagonal is symmetric to allclose and Cholesky returns
        # inf without raising, so only an explicit finiteness check sees it
        for g in (np.diag([np.inf, 1.0]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
            bad = Chart(domain=((-1, 1), (-1, 1)),
                        metric_fn=lambda p, g=g: g.copy(), label="not_finite")
            with pytest.raises(MetricError):
                bad.metric([0.0, 0.0])

    def test_symmetry_verdict_matches_allclose(self, rng):
        """The symmetry check accepts exactly what np.allclose accepts."""
        for _ in range(3000):
            m = int(rng.integers(1, 6))
            a = rng.standard_normal((m, m)) * 10.0 ** rng.integers(-6, 6)
            g = a @ a.T + np.eye(m)
            i, j = rng.integers(0, m, 2)
            # one entry moved to within a factor 2 of the tolerance
            tol = 1e-10 * (1 + np.abs(g).max()) + 1e-5 * abs(g[j, i])
            g[i, j] += tol * rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            expected = np.allclose(g, g.T, atol=1e-10 * (1 + np.abs(g).max()))
            chart = Chart(domain=((-1, 1),), metric_fn=lambda p: g)
            try:
                chart.metric([0.0])
                symmetric = True
            except MetricError as exc:
                symmetric = "not symmetric" not in str(exc)
            assert symmetric == expected, g


    @pytest.mark.parametrize("stacked", [False, True])
    def test_stacked_metric_error_names_first_bad_point(self, stacked, hopf2):
        """A stack with a bad matrix at index k raises what the per-point
        call at point k raises, alone and ahead of a different fault further
        on; the metric is lifted from a per-point function by np.vectorize
        or by hand."""
        bad = {"finite": np.diag([np.inf, 1.0]),
               "symmetric": np.array([[1.0, 0.5], [0.0, 1.0]]),
               "positive definite": np.diag([1.0, -1.0])}
        pts = np.stack([np.linspace(-0.9, 0.9, 12), np.zeros(12)], axis=-1)
        kinds = list(bad)
        for first, kind in enumerate(kinds):
            for k, later in itertools.product(
                    (0, 5, 10), (np.eye(2), bad[kinds[first - 1]])):
                table = {pts[k, 0]: bad[kind], pts[11, 0]: later}

                def metric_fn(p, table=table):
                    return table.get(p[0], np.eye(2)).copy()

                per_point = metric_fn
                if stacked:
                    def metric_fn(p):
                        q = np.reshape(p, (-1, 2))
                        return np.array([per_point(x) for x in q]).reshape(
                            np.shape(p)[:-1] + (2, 2))
                else:
                    metric_fn = np.vectorize(per_point, otypes=[float],
                                             signature="(m)->(i,j)")

                chart = Chart(domain=((-1, 1), (-1, 1)),
                              metric_fn=metric_fn, label="one_bad")
                with pytest.raises(MetricError) as single:
                    chart.metric(pts[k])
                assert f"not {kind} " in str(single.value)
                with pytest.raises(MetricError) as stacked:
                    chart.metric(pts.reshape(3, 4, 2))
                assert str(stacked.value) == str(single.value)
        good = hopf2.main_structure.chart
        stack = good.sample_points(np.random.default_rng(3), 6).reshape(2, 3, 4)
        assert np.array_equal(good.metric(stack),
                              np.array([[good.metric(q) for q in row]
                                        for row in stack]))


class TestFrameTensor:
    def test_raise_lower_roundtrip(self, rng):
        g = np.diag([2.0, 3.0, 5.0])
        comp = rng.standard_normal((3, 3))
        t = FrameTensor(comp, valence=(2, 0), point=np.zeros(3))
        up = t.raise_index(g, axis=0)
        assert up.valence == (1, 1)
        back = up.lower_index(g, axis=0)
        npt.assert_allclose(back.components, comp, atol=1e-14)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FrameTensor(np.zeros((2, 2)), valence=(1, 0), point=np.zeros(2))

    def test_norm_matches_metric_contraction(self):
        g = np.diag([4.0, 9.0])
        alpha = np.array([1.0, 0.0])
        # |dx|_g = 1/2 with g = diag(4, 9)
        assert abs(form_norm(alpha, g) - 0.5) < 1e-14


class TestLoops:
    def test_polygon_closure_and_velocity(self, rng):
        verts = [np.zeros(3), np.array([1.0, 0, 0]), np.array([1.0, 1.0, 0])]
        loop = polygon_loop(verts, steps_per_edge=10)
        npt.assert_allclose(loop.point(0.0), loop.point(1.0), atol=0)
        # velocity is the finite difference of the curve inside each edge
        for t in (0.1, 0.5, 0.9):
            h = 1e-7
            fd_vel = (loop.point(t + h) - loop.point(t - h)) / (2 * h)
            npt.assert_allclose(loop.velocity(t), fd_vel, atol=1e-5)

    def test_segment_loop_shift(self):
        loop = segment_loop([0.0, 0.0], [2.0, 0.0], steps=10)
        npt.assert_allclose(loop.point(1.0) - loop.point(0.0), loop.shift)

    def test_open_curve_rejected(self):
        with pytest.raises(ValueError):
            Loop(curve_fn=lambda t: np.array([t, 0.0]),
                 velocity_fn=lambda t: np.array([1.0, 0.0]), steps=10)

    def test_rectangle_breakpoints(self):
        loop = coordinate_rectangle(np.zeros(2), 0, 1, 0.2, 0.2)
        assert loop.breakpoints == (0.25, 0.5, 0.75)

    def test_stacked_parameters_match_per_parameter(self, rng):
        """Points and velocities of a parameter stack equal the per-parameter
        formulas bit for bit, at the corners and clamped outside [0, 1]."""
        verts = [rng.standard_normal(3) * 10.0 ** k for k in (-2, 0, 1, 0)]
        loop = polygon_loop(verts, steps_per_edge=10)
        p0, shift = rng.standard_normal(3), rng.standard_normal(3)
        segment = segment_loop(p0, shift, steps=10)
        ts = np.concatenate([[-0.3, 0.0, 0.25, 0.5, 0.75, 1.0, 1.7],
                             rng.uniform(0.0, 1.0, 20)])
        for stack in (ts, ts.reshape(3, 9)):
            P, V = loop.point(stack), loop.velocity(stack)
            S, W = segment.point(stack), segment.velocity(stack)
            shape = stack.shape + (3,)
            assert P.shape == V.shape == S.shape == W.shape == shape
            for idx in np.ndindex(stack.shape):
                t = float(stack[idx])
                assert np.array_equal(P[idx], _polygon_point(verts, t))
                assert np.array_equal(V[idx], _polygon_velocity(verts, t))
                assert np.array_equal(loop.point(t), P[idx])
                assert np.array_equal(S[idx], p0 + t * shift)
                assert np.array_equal(W[idx], shift)


def _polygon_point(verts, t):
    """Reference polygon curve at one parameter."""
    verts = verts + [verts[0]]
    u = min(max(t, 0.0), 1.0) * (len(verts) - 1)
    k = min(int(u), len(verts) - 2)
    s = u - k
    return (1.0 - s) * verts[k] + s * verts[k + 1]


def _polygon_velocity(verts, t):
    verts = verts + [verts[0]]
    u = min(max(t, 0.0), 1.0) * (len(verts) - 1)
    k = min(int(u), len(verts) - 2)
    return (verts[k + 1] - verts[k]) * (len(verts) - 1)


class TestExteriorAlgebra:
    def test_one_form_wedge(self, rng):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        w = wedge(a, b)
        npt.assert_allclose(w, np.outer(a, b) - np.outer(b, a), atol=1e-15)

    def test_standard_volume_normalization(self):
        dx = np.array([1.0, 0.0, 0.0])
        dy = np.array([0.0, 1.0, 0.0])
        dz = np.array([0.0, 0.0, 1.0])
        vol = wedge(dx, wedge(dy, dz))
        assert abs(vol[0, 1, 2] - 1.0) < 1e-15
        npt.assert_allclose(vol, -np.transpose(vol, (1, 0, 2)), atol=1e-15)

    def test_wedge_graded_commutativity(self, rng):
        a = rng.standard_normal(4)
        beta = wedge(rng.standard_normal(4), rng.standard_normal(4))
        npt.assert_allclose(wedge(a, beta), wedge(beta, a), atol=1e-13)

    def test_alt_idempotent(self, rng):
        t = rng.standard_normal((3, 3, 3))
        npt.assert_allclose(alt(alt(t)), alt(t), atol=1e-14)

    def test_endomorphism_form_roundtrip(self, rng):
        g = np.diag([2.0, 1.0, 3.0, 1.0])
        skew = rng.standard_normal((4, 4))
        # make it g-skew: A = g^-1 W with W antisymmetric
        W = skew - skew.T
        A = np.linalg.solve(g, W)
        om = form_of_endomorphism(A, g)
        npt.assert_allclose(om, -om.T, atol=1e-13)
        npt.assert_allclose(endomorphism_of_form(om, g), A, atol=1e-13)

    def test_wedge_endo_definition(self, rng):
        """(X ^ tau)(Y) = g(X, Y) tau_sharp - tau(Y) X."""
        g = np.diag([2.0, 5.0, 1.0])
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        tau = rng.standard_normal(3)
        M = wedge_endo(x, tau, g)
        expected = float(x @ g @ y) * np.linalg.solve(g, tau) - float(tau @ y) * x
        npt.assert_allclose(M @ y, expected, atol=1e-13)


def _random_spd(rng, m):
    a = rng.standard_normal((m, m))
    return a @ a.T + m * np.eye(m)


class TestContractionPaths:
    """The tensor algebra takes numpy's axis wrappers off its per-sample
    path and rounds as they do: each is compared bit for bit with the
    tensordot / moveaxis / itertools route it replaces."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
    def test_raised_norm_matches_tensordot_chain(self, seed, rank):
        rng = np.random.default_rng(seed)
        m = 4
        g_inv = np.linalg.inv(_random_spd(rng, m))
        a = rng.standard_normal((m,) * rank)
        raised = a
        for axis in range(rank):
            raised = np.moveaxis(np.tensordot(g_inv, raised, axes=(1, axis)),
                                 0, axis)
        ref = float(np.sqrt(abs(np.sum(raised * a))))
        assert raised_norm(a, g_inv) == ref

    @pytest.mark.parametrize("valence", [(1, 2), (2, 1)])
    def test_index_moves_match_tensordot_chain(self, valence, rng):
        g = _random_spd(rng, 3)
        cov, con = valence
        t = FrameTensor(rng.standard_normal((3, 3, 3)), valence=valence,
                        point=np.zeros(3))
        for axis in range(con):
            comp = np.tensordot(g, t.components, axes=(1, axis))
            ref = np.moveaxis(np.moveaxis(comp, 0, axis), axis, con - 1)
            assert np.array_equal(t.lower_index(g, axis).components, ref)
        for axis in range(cov):
            comp = np.tensordot(np.linalg.inv(g), t.components,
                                axes=(1, con + axis))
            ref = np.moveaxis(np.moveaxis(comp, 0, con + axis), con + axis, con)
            assert np.array_equal(t.raise_index(g, axis).components, ref)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_move_axis_matches_moveaxis(self, rank):
        a = np.arange(math.prod(range(2, rank + 2)), dtype=float).reshape(
            range(2, rank + 2))
        for source, dest in itertools.product(range(-rank, rank), repeat=2):
            moved = _move_axis(a, source, dest)
            ref = np.moveaxis(a, source, dest)
            assert moved.shape == ref.shape and moved.strides == ref.strides
            assert np.array_equal(moved, ref)

    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_alt_matches_itertools_reference(self, rank, lead, rng):
        a = rng.standard_normal((3,) * lead + (4,) * rank)
        ref = a
        if rank > 1:
            ref = np.zeros_like(a)
            for perm in itertools.permutations(range(rank)):
                inversions = sum(perm[i] > perm[j] for i, j in
                                 itertools.combinations(range(rank), 2))
                axes = tuple(range(lead)) + tuple(lead + i for i in perm)
                ref += (-1) ** inversions * np.transpose(a, axes)
            ref = ref / math.factorial(rank)
        assert np.array_equal(alt(a, lead), ref)
