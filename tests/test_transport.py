"""Geodesic, parallel-transport, and line-integral tests."""

import dataclasses
import functools
import gc
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from lckgeo import fd, transport, zoo
from lckgeo.calculus import christoffel_components
from lckgeo.charts import (Chart, Loop, coordinate_rectangle, polygon_loop,
                           segment_loop)
from lckgeo.errors import ChartDomainError, DomainExitError, IntegrationError
from lckgeo.hermitian import lee_field
from lckgeo.holonomy import default_holonomy_loops
from lckgeo.transport import (_rk4, geodesic,
                              geodesic_with_velocity, line_integral_segment,
                              loop_integral, orthogonality_defect,
                              parallel_transport, transport_along,
                              transport_segment)


def _stencil(chart):
    """The chart without its metric derivative: differenced on a stencil."""
    return dataclasses.replace(chart, metric_derivative_fn=None)


def _s2_chart(radius=1.0):
    return zoo.round_s2_base(radius, polar_margin=0.25).structure.chart


def _latitude_loop(theta0, steps=400):
    def curve(t):
        return np.array([theta0, 2.0 * math.pi * t])

    def velocity(t):
        return np.array([0.0, 2.0 * math.pi])

    return segment_loop(np.array([theta0, 0.0]),
                        np.array([0.0, 2.0 * math.pi]), steps=steps,
                        label=f"latitude_{theta0:g}")


class TestGeodesic:
    def test_euclidean_straight_line(self, euclid4):
        chart = euclid4.charts["flat"]
        p = np.array([0.1, -0.2, 0.0, 0.3])
        v = np.array([0.5, 0.1, -0.2, 0.0])
        end = geodesic(chart, p, v, time=1.0, steps=50)
        npt.assert_allclose(end, p + v, atol=1e-12)

    def test_equator_great_circle(self):
        """Start on the equator along the equator: stays there, arc length T."""
        chart = _s2_chart()
        p = np.array([math.pi / 2, 1.0])
        v = np.array([0.0, 1.0])      # |v| = 1 at the equator
        T = 0.8
        end = geodesic(chart, p, v, time=T, steps=400)
        npt.assert_allclose(end, [math.pi / 2, 1.0 + T], atol=1e-9)

    def test_energy_conservation(self, calabi_sin):
        chart = calabi_sin.charts["g_ell"]
        p = chart.center()
        v = np.array([0.3, 0.2, 0.4, -0.1])
        end, vel = geodesic_with_velocity(chart, p, v, time=0.6, steps=400)
        e0 = float(v @ chart.metric(p) @ v)
        e1 = float(vel @ chart.metric(end) @ vel)
        assert abs(e1 - e0) < 1e-6 * (1 + e0)

    def test_calabi_radial_ray(self, calabi_sin):
        """v = d_r is geodesic: r advances with unit speed, base fixed."""
        chart = calabi_sin.charts["g_ell"]
        p = chart.center()
        v = np.array([0.0, 0.0, 0.0, 1.0])
        T = 0.5
        end = geodesic(chart, p, v, time=T, steps=300)
        npt.assert_allclose(end[:3], p[:3], atol=1e-9)
        assert abs(end[3] - (p[3] + T)) < 1e-9

    def test_domain_exit_reported(self, euclid4):
        chart = euclid4.charts["flat"]
        with pytest.raises(DomainExitError) as err:
            geodesic(chart, np.zeros(4), np.array([1.0, 0, 0, 0]),
                     time=3.0, steps=60)
        assert err.value.exit_time is not None
        assert 0.9 < err.value.exit_time < 1.2


class TestParallelTransport:
    def test_constant_loop_identity(self, euclid4):
        chart = euclid4.charts["flat"]
        p = np.zeros(4)
        loop = segment_loop(p, np.zeros(4), steps=10)
        M = parallel_transport(chart, loop, np.eye(4))
        npt.assert_allclose(M, np.eye(4), atol=1e-12)

    def test_flat_loop_identity(self, euclid4):
        chart = euclid4.charts["flat"]
        loop = polygon_loop([np.zeros(4), [0.5, 0, 0, 0], [0.5, 0.5, 0, 0]],
                            steps_per_edge=40)
        M = parallel_transport(chart, loop, np.eye(4))
        npt.assert_allclose(M, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("theta0", [math.pi / 3, 1.2, 2.0])
    def test_latitude_holonomy_cone_angle(self, theta0):
        """Transport around the latitude rotates by -2 pi cos(theta0).

        Classical cone holonomy, cross-checked at two ODE resolutions.
        """
        chart = _s2_chart()
        expected = 2.0 * math.pi * math.cos(theta0)
        rot = np.array([[math.cos(expected), math.sin(expected)],
                        [-math.sin(expected), math.cos(expected)]])
        results = []
        for steps in (200, 400):
            loop = _latitude_loop(theta0, steps=steps)
            M = parallel_transport(chart, loop, np.eye(2))
            # to the orthonormal frame (e_theta, e_phi)
            E = np.diag([1.0, math.sin(theta0)])
            M_hat = E @ M @ np.linalg.inv(E)
            npt.assert_allclose(M_hat, rot, atol=1e-7)
            results.append(M_hat)
        npt.assert_allclose(results[0], results[1], atol=1e-7)

    def test_orthogonality_defect_and_convergence(self):
        """M^T G M = G to tol_ode; doubling steps cuts the defect >= 4x."""
        chart = _s2_chart()
        loop_c = _latitude_loop(1.1, steps=32)
        M_c = parallel_transport(chart, loop_c, np.eye(2), steps=32)
        defect_c = orthogonality_defect(chart, loop_c, M_c)
        M_f = parallel_transport(chart, loop_c, np.eye(2), steps=64)
        defect_f = orthogonality_defect(chart, loop_c, M_f)
        assert defect_f < 1e-6
        assert defect_c / defect_f >= 4.0

    def test_hopf_generator_transport_is_isometry(self, hopf2):
        """Transport around the deck generator respects the product metric."""
        H = hopf2.main_structure
        loop = hopf2.loops["s1_generator"]
        M = parallel_transport(H.chart, loop, np.eye(4))
        assert orthogonality_defect(H.chart, loop, M) < 1e-8
        # the circle factor is flat: d_s returns to itself
        npt.assert_allclose(M[:, 0], [1, 0, 0, 0], atol=1e-8)


class TestLoopIntegral:
    def test_exact_form_integrates_to_zero(self, calabi_sin, rng):
        """d(phi) over random polygonal loops vanishes to tol_ode."""
        chart = calabi_sin.charts["g_ell"]
        H = calabi_sin.structures["g_ell,J+"]
        field = lee_field(H)      # = d phi, exact
        for _ in range(20):
            pts = chart.sample_points(rng, 3, margin=0.4)
            loop = polygon_loop(list(pts), steps_per_edge=60)
            assert abs(loop_integral(chart, field, loop)) < 1e-6

    def test_hopf_generator_period(self, hopf2):
        """The circle generator period equals the circumference."""
        H = hopf2.main_structure
        value = loop_integral(H.chart, lee_field(H),
                              hopf2.loops["s1_generator"])
        assert abs(value - hopf2.params["circumference"]) < 1e-8

    def test_calabi_fiber_period_zero(self, calabi_sin):
        H = calabi_sin.structures["g_ell,J+"]
        value = loop_integral(H.chart, lee_field(H),
                              calabi_sin.loops["fiber"])
        assert abs(value) < 1e-9

    def test_additivity_under_concatenation(self, hopf2):
        """Two rectangles sharing an edge integrate like their union."""
        H = hopf2.main_structure
        field = lee_field(H)
        c = H.chart.center()
        e1 = np.array([0.2, 0, 0, 0])
        e2 = np.array([0, 0.2, 0, 0])
        left = polygon_loop([c, c + e1, c + e1 + e2, c + e2], steps_per_edge=40)
        right = polygon_loop([c + e1, c + 2 * e1, c + 2 * e1 + e2, c + e1 + e2],
                             steps_per_edge=40)
        union = polygon_loop([c, c + 2 * e1, c + 2 * e1 + e2, c + e2],
                             steps_per_edge=40)
        total = (loop_integral(H.chart, field, left)
                 + loop_integral(H.chart, field, right))
        assert abs(total - loop_integral(H.chart, field, union)) < 1e-9

    def test_segment_transport_roundtrip(self, calabi_sin):
        chart = calabi_sin.charts["g_ell"]
        a = chart.center()
        b = a + np.array([0.2, -0.3, 0.4, 0.1])
        P = transport_segment(chart, a, b, np.eye(4), steps=200)
        Q = transport_segment(chart, b, a, np.eye(4), steps=200)
        npt.assert_allclose(Q @ P, np.eye(4), atol=1e-8)


def _stagewise_transport(chart, point_fn, velocity_fn, frame, steps,
                         breakpoints=()):
    """Reference transport: the connection evaluated at every RK4 stage."""
    V0 = np.asarray(frame, dtype=float)
    shape = V0.shape
    knots = [0.0] + sorted(t for t in breakpoints if 0.0 < t < 1.0) + [1.0]
    y = V0.reshape(-1)
    for t0, t1 in zip(knots[:-1], knots[1:]):
        span = t1 - t0
        eps = 1e-9 * span

        def rhs(t, y, lo=t0 + eps, hi=t1 - eps):
            tc = min(max(t, lo), hi)
            x = point_fn(tc)
            if not chart.inside(x):
                raise DomainExitError(
                    f"transport curve left chart '{chart.label}'",
                    exit_time=t, point=np.asarray(x))
            gamma = christoffel_components(chart, x)
            dV = -np.einsum("kij,i,j...->k...", gamma, velocity_fn(tc),
                            y.reshape(shape))
            return dV.reshape(-1)

        y = _rk4(rhs, y, t0, t1, max(int(round(steps * span)), 1))
    return y.reshape(shape)


def _segment(p_from, p_to):
    """Curve and velocity of a segment, taking parameter stacks."""
    p_from = np.asarray(p_from, dtype=float)
    vel = np.asarray(p_to, dtype=float) - p_from
    return (lambda t: p_from + np.multiply.outer(t, vel),
            lambda t: np.broadcast_to(vel, np.shape(t) + vel.shape))


def _raised(fn):
    try:
        fn()
    except Exception as exc:       # the error itself is compared
        return exc
    raise AssertionError("no error raised")


class TestNodeTable:
    """Transport from one table of connection values per RK4 node."""

    # the step propagators and B = -Gamma(v, .) from the metric partials,
    # solved by Cholesky, round differently from the stage-by-stage
    # integration; 2.2e-16 was the largest difference measured (hopf{n=2},
    # fd segment)
    STAGEWISE_ATOL = 1e-13

    def test_rectangle_with_corners_matches_stagewise(self, hopf2):
        chart = _stencil(hopf2.main_structure.chart)
        loop = coordinate_rectangle(chart.center(), 1, 2, 0.15, 0.1,
                                    steps_per_edge=40)
        M = parallel_transport(chart, loop, np.eye(4))
        ref = _stagewise_transport(chart, loop.point, loop.velocity,
                                   np.eye(4), loop.steps, loop.breakpoints)
        assert np.max(np.abs(M - ref)) <= self.STAGEWISE_ATOL

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    @pytest.mark.parametrize("name", ["hopf2", "hopf3", "warped", "calabi"])
    def test_segment_matches_stagewise(self, request, name, mode):
        fixture = {"warped": "warped_sin", "calabi": "calabi_sin"}
        chart = request.getfixturevalue(
            fixture.get(name, name)).main_structure.chart
        if mode == "fd":
            chart = _stencil(chart)
        m = chart.dim
        a = chart.center()
        b = a + np.resize([0.2, -0.3, 0.4, 0.1], m)
        P = transport_segment(chart, a, b, np.eye(m), steps=100)
        ref = _stagewise_transport(chart, *_segment(a, b), np.eye(m), 100)
        assert np.max(np.abs(P - ref)) <= self.STAGEWISE_ATOL

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    def test_domain_exit_matches_stagewise(self, euclid4, mode):
        chart = euclid4.charts["flat"]
        if mode == "fd":
            chart = _stencil(chart)
        curve = _segment(np.zeros(4), [1.5, 0.0, 0.0, 0.0])
        err = _raised(lambda: transport_along(chart, *curve, np.eye(4),
                                              steps=40))
        ref = _raised(lambda: _stagewise_transport(chart, *curve, np.eye(4),
                                                   40))
        assert type(err) is type(ref) is DomainExitError
        assert err.exit_time == ref.exit_time
        assert np.array_equal(err.point, ref.point)
        assert str(err) == str(ref)

    def test_node_within_fd_step_of_face_matches_stagewise(self, euclid4):
        """Inside the box but too close to a face for the fd stencil."""
        chart = _stencil(euclid4.charts["flat"])
        curve = _segment(np.zeros(4), [1.0 - 5e-6, 0.0, 0.0, 0.0])
        err = _raised(lambda: transport_along(chart, *curve, np.eye(4),
                                              steps=40))
        ref = _raised(lambda: _stagewise_transport(chart, *curve, np.eye(4),
                                                   40))
        assert type(err) is type(ref) is ChartDomainError
        assert str(err) == str(ref)

    @pytest.mark.parametrize("end", [1.5, 1.0 - 5e-6])
    def test_earlier_integration_error_wins(self, end):
        """A node that fails its domain check raises only when reached.

        The metric is nan from x0 = 0.5 on, so the state turns non-finite
        well before the segment leaves the box at x0 = 1 or comes within
        the fd step of that face.
        """
        chart = Chart(domain=((-1, 1), (-1, 1)),
                      metric_fn=lambda p: np.eye(2) * np.where(
                          p[..., 0] < 0.5, 1.0, np.nan)[..., None, None],
                      label="nan_half")
        curve = _segment(np.zeros(2), [end, 0.0])
        err = _raised(lambda: transport_along(chart, *curve, np.eye(2),
                                              steps=40))
        ref = _raised(lambda: _stagewise_transport(chart, *curve, np.eye(2),
                                                   40))
        assert type(err) is type(ref) is IntegrationError
        assert str(err) == str(ref)

    @staticmethod
    def _beyond(cut, diagonal):
        """A curved conformal metric f Id on [-1, 1]^2, f diag(diagonal)
        from x0 = cut on."""
        def metric_fn(p):
            f = 2.0 + np.sin(3.0 * p[..., 0]) + 0.5 * p[..., 1]
            d = np.where((p[..., 0] < cut)[..., None], 1.0, diagonal)
            return f[..., None, None] * (d[..., None] * np.eye(2))
        return Chart(domain=((-1, 1), (-1, 1)), metric_fn=metric_fn,
                     label=f"{diagonal}_beyond")

    @pytest.mark.parametrize("after", [0, 1, 36])
    def test_non_finite_step_matches_stagewise(self, after):
        """The state turns nan at the given step after step
        ``NODE_BLOCK / 2``, whose last node opens the second block of
        ``NODE_BLOCK`` nodes: at that step, the step after it, or one inside
        that block.  The error names that step's end."""
        steps = transport.NODE_BLOCK + transport.NODE_BLOCK // 6
        step = transport.NODE_BLOCK // 2 + after
        end = 0.9
        chart = self._beyond(end * (step - 0.25) / steps, [np.nan, np.nan])
        curve = _segment([0.0, 0.2], [end, 0.2])
        err = _raised(lambda: transport_along(chart, *curve, np.eye(2),
                                              steps=steps))
        ref = _raised(lambda: _stagewise_transport(chart, *curve, np.eye(2),
                                                   steps))
        assert type(err) is type(ref) is IntegrationError
        assert str(err) == str(ref)
        assert math.isclose(float(str(err).split("=")[1]), step / steps)

    @pytest.mark.parametrize("after", [0, 36])
    @pytest.mark.parametrize("kind", ["singular", "indefinite"])
    def test_metric_off_the_spd_cone_raises_at_its_step(self, kind, after):
        """The metric turns singular, or indefinite, from x0 = cut on: the
        connection there is NaN, and the error names the end of the first
        step with a node beyond the cut, in the second block of nodes or at
        its start, as for a NaN metric."""
        steps = transport.NODE_BLOCK + transport.NODE_BLOCK // 6
        step = transport.NODE_BLOCK // 2 + after
        end = 0.9
        chart = self._beyond(end * (step - 0.25) / steps, {
            "singular": [1.0, 0.0], "indefinite": [1.0, -1.0]}[kind])
        curve = _segment([0.0, 0.2], [end, 0.2])
        err = _raised(lambda: transport_along(chart, *curve, np.eye(2),
                                              steps=steps))
        assert type(err) is IntegrationError
        assert math.isclose(float(str(err).split("=")[1]), step / steps)

    def test_curve_evaluated_once(self, hopf2):
        """A four-edge loop calls its point and velocity functions once
        each, on the nodes of all four pieces.  A curve that raises on the
        second and the fourth edge raises the second's error, as piece by
        piece evaluation does."""
        chart = hopf2.main_structure.chart
        loop = coordinate_rectangle(chart.center(), 1, 2, 0.15, 0.1,
                                    steps_per_edge=10)
        calls = []

        def counted(name, fn):
            def wrapper(t):
                calls.append(name)
                return fn(t)
            return wrapper

        M = transport_along(chart, counted("point", loop.point),
                            counted("velocity", loop.velocity), np.eye(4),
                            steps=loop.steps, breakpoints=loop.breakpoints)
        assert calls == ["point", "velocity"]
        assert np.array_equal(M, parallel_transport(chart, loop, np.eye(4)))

        def failing(t):
            t = np.asarray(t)
            bad = t[((0.3 < t) & (t < 0.4)) | (0.8 < t)]
            if bad.size:
                raise ValueError(f"no point on edge {int(4 * bad.max())}")
            return loop.point(t)

        err = _raised(lambda: transport_along(
            chart, failing, loop.velocity, np.eye(4), steps=loop.steps,
            breakpoints=loop.breakpoints))
        assert type(err) is ValueError
        assert str(err) == "no point on edge 1"

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    def test_domain_exit_after_two_node_blocks_matches_stagewise(
            self, calabi_sin, mode):
        """The segment leaves the chart at 0.902 of its length: with
        ``NODE_BLOCK + NODE_BLOCK / 6`` steps (597 at 512), after the
        ``NODE_BLOCK`` steps of two complete blocks of ``NODE_BLOCK`` nodes
        have been applied."""
        steps = transport.NODE_BLOCK + transport.NODE_BLOCK // 6
        chart = calabi_sin.main_structure.chart
        if mode == "fd":
            chart = _stencil(chart)
        a = chart.center()
        hi = chart.domain[0][1]
        curve = _segment(a, a + [150 / 135.3 * (hi - a[0]), 0.05, -0.05, 0.05])
        err = _raised(lambda: transport_along(chart, *curve, np.eye(4),
                                              steps=steps))
        ref = _raised(lambda: _stagewise_transport(chart, *curve, np.eye(4),
                                                   steps))
        assert type(err) is type(ref) is DomainExitError
        assert err.exit_time == ref.exit_time > transport.NODE_BLOCK / steps
        assert np.array_equal(err.point, ref.point)
        assert str(err) == str(ref)

    def test_metric_evaluated_once_per_node(self, hopf2):
        """200 steps: 401 nodes, each a centre plus an 8-point stencil."""
        chart = _stencil(hopf2.main_structure.chart)
        calls = [0]

        def counted(q):
            calls[0] += np.asarray(q)[..., 0].size
            return chart.metric_fn(q)

        counted_chart = dataclasses.replace(chart, metric_fn=counted)
        a = chart.center()
        transport_segment(counted_chart, a, a + np.array([0.1, 0.2, -0.1, 0.3]),
                          np.eye(4), steps=200)
        assert calls[0] == 9 * 401


def _bundle(loops):
    """Curve and velocity of a bundle of loops, curve axis before the last."""
    return (lambda t: np.stack([loop.point(t) for loop in loops], axis=-2),
            lambda t: np.stack([loop.velocity(t) for loop in loops], axis=-2))


class TestBundle:
    """Curves on one schedule transported as one bundle."""

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    @pytest.mark.parametrize("name", ["hopf2", "hopf3", "warped_sin",
                                      "calabi_sin"])
    def test_bundle_matches_per_curve(self, request, rng, name, mode):
        chart = request.getfixturevalue(name).holonomy_structure.chart
        if mode == "fd":
            chart = _stencil(chart)
        m = chart.dim
        base = chart.center()
        loops = default_holonomy_loops(chart, base, steps_per_edge=10)[:3]
        frame = np.eye(m)[:, :3]
        bundle = transport_along(chart, *_bundle(loops),
                                 np.broadcast_to(frame, (3, m, 3)),
                                 steps=loops[0].steps,
                                 breakpoints=loops[0].breakpoints)
        for loop, M in zip(loops, bundle):
            assert np.array_equal(M, parallel_transport(chart, loop, frame))
        starts = base + rng.uniform(-0.2, 0.2, size=(4, m))
        P = transport_segment(chart, starts, base,
                              np.broadcast_to(np.eye(m), (4, m, m)),
                              steps=30)
        for q, P_q in zip(starts, P):
            assert np.array_equal(P_q, transport_segment(
                chart, q, base, np.eye(m), steps=30))

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    def test_coinciding_curves_share_their_increments(self, hopf2, rng, mode):
        """In the bundle [A, B, A] the symbols of A are evaluated once, and
        each curve's result, and the error of a curve that leaves the chart,
        is its transport alone."""
        chart = hopf2.holonomy_structure.chart
        if mode == "fd":
            chart = _stencil(chart)
        loops = default_holonomy_loops(chart, chart.center(),
                                       steps_per_edge=20)
        A, B = loops[0], loops[5]   # rect_01_1, rect_23_1: no common edge
        frames = rng.standard_normal((3, 4, 4))
        counts = [0]
        counted_chart = dataclasses.replace(
            chart, metric_fn=_counted(chart.metric_fn, counts))
        bundle = transport_along(counted_chart, *_bundle([A, B, A]), frames,
                                 steps=A.steps, breakpoints=A.breakpoints)
        shared, counts[0] = counts[0], 0
        for loop, frame, M in zip([A, B, A], frames, bundle):
            assert np.array_equal(M, parallel_transport(chart, loop, frame))
        for loop in (A, B):
            parallel_transport(counted_chart, loop, frames[0])
        # A and B once each: 4 pieces of 41 nodes, 9 stencil points a node
        # in fd
        assert shared == counts[0] == 2 * 9 ** (mode == "fd") * 4 * 41

        # rect_12 of edge 1.5 leaves the chart (x1 < 2.79) on its first edge
        out = coordinate_rectangle(chart.center(), 1, 2, 1.5, 0.1,
                                   steps_per_edge=20)
        err = _raised(lambda: transport_along(
            chart, *_bundle([out, B, out]), frames, steps=out.steps,
            breakpoints=out.breakpoints))
        ref = _raised(lambda: parallel_transport(chart, out, frames[0]))
        assert type(err) is type(ref) is DomainExitError
        assert err.exit_time == ref.exit_time
        assert np.array_equal(err.point, ref.point)
        assert str(err) == str(ref)

    def test_curves_are_equal_when_their_bits_are(self):
        """A curve with another's end nodes but not its interior, or with a
        -0.0 for its 0.0, is distinct; a curve matches its bitwise copy,
        NaN nodes included.  Classes are numbered in order of first
        appearance, each with its first curve."""
        xs = np.zeros((5, 6, 2))
        vels = np.ones((5, 6, 2))
        xs[2, [1, 3], 0] = 0.5
        xs[2, 2, 0] = -0.0
        xs[:, 4:] = np.nan
        curve_of, distinct = transport._coinciding_curves(xs, vels)
        assert curve_of.tolist() == [0, 1, 2, 1, 3, 3]
        assert distinct.tolist() == [0, 1, 2, 4]

    def test_leaves_no_reference_cycles(self, hopf2):
        chart = _stencil(hopf2.holonomy_structure.chart)
        loops = default_holonomy_loops(chart, chart.center(),
                                       steps_per_edge=20)
        gc.collect()
        gc.disable()
        try:
            transport_along(chart, *_bundle(loops),
                            np.broadcast_to(np.eye(4), (len(loops), 4, 4)),
                            steps=loops[0].steps,
                            breakpoints=loops[0].breakpoints)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_christoffel_evaluated_in_blocks(self, hopf2, monkeypatch):
        """The metric of a piece is evaluated at most a block of distinct
        node points at a time, never for the whole bundle piece at once.
        Blocks of 128 points split every piece of these 81-node edges."""
        monkeypatch.setattr(transport, "NODE_BLOCK", 128)
        chart = _stencil(hopf2.holonomy_structure.chart)
        loops = default_holonomy_loops(chart, chart.center(),
                                       steps_per_edge=40)
        sizes = []

        def counted(q):
            sizes.append(np.asarray(q)[..., 0].size)
            return chart.metric_fn(q)

        counted_chart = dataclasses.replace(chart, metric_fn=counted)
        transport_along(counted_chart, *_bundle(loops),
                        np.broadcast_to(np.eye(4), (len(loops), 4, 4)),
                        steps=loops[0].steps,
                        breakpoints=loops[0].breakpoints)
        # each distinct (loop, edge) piece once: 81 nodes, each a centre plus
        # an 8-point stencil.  Per loop size, the rectangles rect_ij start
        # along e_i from one corner (3 distinct first edges: i = 0, 1, 2),
        # and end along -e_j into it (3 distinct last edges: j = 1, 2, 3);
        # their 6 second and 6 third edges are distinct: 2 x (3 + 6 + 6 + 3)
        assert len(loops) == 12
        assert sum(sizes) == 9 * 81 * 36
        assert max(sizes) <= 8 * transport.NODE_BLOCK < 8 * 81 * 6
        # one stencil and one centre call per block, of NODE_BLOCK // d
        # nodes for the d distinct curves of each of the 4 pieces
        blocks = [math.ceil(81 / (transport.NODE_BLOCK // d))
                  for d in (6, 12, 12, 6)]
        assert min(blocks) > 1
        assert len(sizes) == 2 * sum(blocks)


def _nodewise_loop_integral(chart, oneform_field, loop):
    """Reference loop integral: on each smooth piece the 16- and the 32-node
    rule, halved until they agree, with the domain check and the field call
    node by node in parameter order, and one sum per rule."""
    knots = [0.0] + sorted(loop.breakpoints) + [1.0]
    return sum(_nodewise_piece(chart, oneform_field, loop, t0, t1)
               for t0, t1 in zip(knots[:-1], knots[1:]))


def _nodewise_piece(chart, oneform_field, loop, t0, t1, depth=0):
    h = t1 - t0
    rules = [fd.gauss_legendre_01(n) for n in (16, 32)]
    terms = {}
    for t in sorted(np.concatenate([t0 + x * h for x, _ in rules])):
        x = loop.point(t)
        chart.require_inside(x)
        alpha = np.asarray(oneform_field(x), dtype=float)
        terms[t] = float(alpha @ loop.velocity(t))
    coarse, fine = (np.sum([w * h * terms[t]
                            for t, w in zip(t0 + nodes * h, weights)])
                    for nodes, weights in rules)
    fine_nodes, fine_weights = rules[1]
    scale = np.sum([abs(w * h * terms[t])
                    for t, w in zip(t0 + fine_nodes * h, fine_weights)])
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        return coarse if math.isfinite(fine) else fine
    if abs(fine - coarse) <= 1e-12 * (1.0 + scale):
        return fine
    assert depth < transport.MAX_BISECTIONS
    mid = 0.5 * (t0 + t1)
    return (_nodewise_piece(chart, oneform_field, loop, t0, mid, depth + 1)
            + _nodewise_piece(chart, oneform_field, loop, mid, t1, depth + 1))


def _composite_loop_integral(chart, oneform_field, loop):
    """Independent reference: the composite 3-node Gauss-Legendre rule on
    ``loop.steps`` sub-intervals, every node in one field call."""
    h = 1.0 / loop.steps
    nodes, weights = fd.gauss_legendre_01(3)
    ts = (np.arange(loop.steps)[:, None] * h + nodes * h).reshape(-1)
    alphas = np.asarray(oneform_field(loop.point(ts)), dtype=float)
    terms = np.vecdot(alphas, loop.velocity(ts))
    return float(np.sum(np.tile(weights, loop.steps) * h * terms))


def _counted(field, counts):
    """The field, adding the number of points of each call to counts[0]."""
    def wrapper(q):
        counts[0] += np.asarray(q)[..., 0].size
        return field(q)
    return wrapper


def _circle(radius):
    """The circle of the given radius in the (x0, x1) plane, once round."""
    tau = 2.0 * math.pi

    def curve(t):
        t = np.asarray(t, dtype=float)
        zero = np.zeros_like(t)
        return radius * np.stack([np.cos(tau * t), np.sin(tau * t), zero,
                                  zero], axis=-1)

    def velocity(t):
        t = np.asarray(t, dtype=float)
        zero = np.zeros_like(t)
        return radius * tau * np.stack([-np.sin(tau * t), np.cos(tau * t),
                                        zero, zero], axis=-1)

    return Loop(curve_fn=curve, velocity_fn=velocity, label="circle")


class TestGuardedLoopIntegral:
    """Each smooth piece takes the 32-node value where the 16-node rule
    agrees with it, and is halved where they do not."""

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    @pytest.mark.parametrize("name, loop", [
        ("hopf2", "s1_generator"), ("hopf2", "contractible"),
        ("hopf3", "s1_generator"), ("hopf3", "contractible"),
        ("calabi_sin", "fiber"), ("calabi_sin", "mixed"),
        ("warped_sin", "st_square"),
        ("flat_inv2", "square"), ("flat_inv2", "triangle")])
    def test_zoo_periods_match_composite_rule(self, request, name, loop,
                                              mode):
        entry = request.getfixturevalue(name)
        if mode == "fd":
            entry = zoo.stencil_only(entry)
        H = entry.main_structure
        field = lee_field(H)
        value = loop_integral(H.chart, field, entry.loops[loop])
        ref = _composite_loop_integral(H.chart, field, entry.loops[loop])
        assert abs(value - ref) < 1e-12

    def test_nan_field_returns_after_one_piece(self, hopf2):
        """A NaN estimate is returned, not halved: J is NaN away from the
        chart centre, and the s1_generator period comes back NaN after the
        48 nodes of its one piece."""
        H = hopf2.main_structure
        p0 = H.chart.center()

        def J_fn(q):
            J = np.array(H.J_fn(q))
            J[np.abs(np.asarray(q) - p0).max(axis=-1) > 0.1] = np.nan
            return J

        counts = [0]
        field = _counted(lee_field(dataclasses.replace(H, J_fn=J_fn)), counts)
        value = loop_integral(H.chart, field, hopf2.loops["s1_generator"])
        assert math.isnan(value)
        assert counts[0] <= 48

    def test_peaked_form_on_a_circle_is_refined(self, euclid4):
        """On the circle of radius 1/2, alpha = (-x1, x0) / (b/4 + x0/2)
        gives alpha . v = 2 pi / (b + cos 2 pi t), with period
        2 pi / sqrt(b^2 - 1); for b = 1.01 it peaks sharply at t = 1/2,
        where the two rules disagree, and the piece is halved."""
        b = 1.01

        def form(q):
            q = np.asarray(q, dtype=float)
            zero = np.zeros_like(q[..., 0])
            scale = 0.25 * (b + 2.0 * q[..., 0])
            return np.stack([-q[..., 1], q[..., 0], zero, zero],
                            axis=-1) / scale[..., None]

        counts = [0]
        chart = euclid4.charts["flat"]
        value = loop_integral(chart, _counted(form, counts), _circle(0.5))
        exact = 2.0 * math.pi / math.sqrt(b * b - 1.0)
        assert counts[0] > 48
        assert abs(value - exact) <= 1e-12 * (1.0 + exact)
        assert value == _nodewise_loop_integral(chart, form, _circle(0.5))

    def test_jump_raises_at_the_depth_cap(self, euclid4):
        """A form with a jump at t = 1/3 never lets the rules agree on the
        piece holding it; halving stops at the cap with the error naming
        that piece's interval, after about two pieces per level."""
        p0 = np.full(4, -0.5)
        loop = segment_loop(p0, np.array([1.0, 0.0, 0.0, 0.0]))
        counts = [0]

        def step(q):
            q = np.asarray(q, dtype=float)
            return np.where(q[..., :1] > -0.5 + 1.0 / 3.0, 1.0, 0.0) + 0.0 * q

        with pytest.raises(IntegrationError, match=r"does not converge on \["):
            loop_integral(euclid4.charts["flat"], _counted(step, counts), loop)
        assert counts[0] <= 2 * 48 * (transport.MAX_BISECTIONS + 1)


    def test_jump_must_be_declared_as_a_breakpoint(self, euclid4):
        """Both rules are symmetric about a piece's centre, so a jump near
        the centre of a piece passes the guard: on the flat segment x0 from
        -0.5 to 0.5 with alpha = [x0 > 0.1234567] dx0, the jump sits near the
        centre of the piece [0.5, 0.75] and the period comes back 0.375.
        Declared as a breakpoint, the jump splits the loop into two smooth
        pieces, and the period is the exact 0.3765433."""
        jump = 0.1234567

        def step(q):
            q = np.asarray(q, dtype=float)
            return np.where(q[..., :1] > jump, 1.0, 0.0) + 0.0 * q

        chart = euclid4.charts["flat"]
        loop = segment_loop(np.array([-0.5, 0.0, 0.0, 0.0]),
                            np.array([1.0, 0.0, 0.0, 0.0]))
        assert abs(loop_integral(chart, step, loop) - 0.375) <= 1e-15
        declared = dataclasses.replace(loop, breakpoints=(0.5 + jump,))
        assert abs(loop_integral(chart, step, declared)
                   - (0.5 - jump)) <= 1e-15

class TestBlockedLoopIntegral:
    """The Lee field is evaluated on blocks of Gauss-Legendre nodes."""

    @pytest.mark.parametrize("name", ["s1_generator", "contractible"])
    def test_matches_nodewise(self, hopf2, name):
        H = zoo.stencil_only(hopf2).main_structure
        field = lee_field(H)
        loop = hopf2.loops[name]
        assert loop_integral(H.chart, field, loop) == _nodewise_loop_integral(
            H.chart, field, loop)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_domain_exit_matches_nodewise(self, hopf2, stacked):
        """The generator run on to 2L leaves the chart part way along its
        one piece; the field is written for stacks, or per point and
        lifted."""
        H = hopf2.main_structure
        start = hopf2.loops["s1_generator"].point(0.0)
        shift = np.array([2.0 * hopf2.params["circumference"], 0.0, 0.0, 0.0])
        loop = segment_loop(start, shift)
        field = np.vectorize(lambda q: np.cos(q) * q[0], signature="(m)->(m)")
        if stacked:
            field = lambda q: np.cos(q) * q[..., :1]
        err = _raised(lambda: loop_integral(H.chart, field, loop))
        ref = _raised(lambda: _nodewise_loop_integral(H.chart, field, loop))
        assert type(err) is type(ref) is ChartDomainError
        assert str(err) == str(ref)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_earlier_field_error_wins(self, hopf2, stacked):
        """A field that raises at a node before the exit raises first,
        written for stacks or per point and lifted."""
        H = hopf2.main_structure
        start = hopf2.loops["s1_generator"].point(0.0)
        shift = np.array([2.0 * hopf2.params["circumference"], 0.0, 0.0, 0.0])
        loop = segment_loop(start, shift)

        def field(q):
            if np.any(np.asarray(q)[..., 0] > 3.0):
                raise ValueError("field fails beyond s = 3")
            return np.ones(np.shape(q))

        if not stacked:
            field = np.vectorize(field, signature="(m)->(m)")
        err = _raised(lambda: loop_integral(H.chart, field, loop))
        ref = _raised(lambda: _nodewise_loop_integral(H.chart, field, loop))
        assert type(err) is type(ref) is ValueError
        assert str(err) == str(ref)

    def test_earlier_node_error_wins_inside_a_block(self, hopf2):
        """Within the one stacked call of a piece, a J field raising near an
        early node wins over the fd-margin ChartDomainError of a later node,
        which the stacked Lee-form call alone raises first."""
        H = zoo.stencil_only(hopf2).main_structure
        top = H.chart.domain[1][1]

        def J_fn(q):
            if np.any(np.asarray(q)[..., 1] > 2.0):
                raise ValueError("J fails beyond x1 = 2")
            return H.J_fn(q)

        field = lee_field(dataclasses.replace(H, J_fn=J_fn))
        start = hopf2.loops["s1_generator"].point(0.0)
        nodes = np.sort(np.concatenate([fd.gauss_legendre_01(n)[0]
                                        for n in transport.GUARD_NODES]))
        # the last node lies inside the chart, closer to its face than the
        # 1e-5 step of the Lee-form stencil
        shift = np.array([0.0, (top - 5e-6 - start[1]) / nodes[-1], 0.0, 0.0])
        loop = segment_loop(start, shift)
        xs = loop.point(nodes)
        assert top - xs[-1, 1] < 5e-6 + 1e-12
        assert H.chart.inside(xs).all()
        assert type(_raised(lambda: field(xs))) is ChartDomainError
        err = _raised(lambda: loop_integral(H.chart, field, loop))
        ref = _raised(lambda: _nodewise_loop_integral(H.chart, field, loop))
        assert type(err) is type(ref) is ValueError
        assert str(err) == str(ref)

    def test_peak_memory_is_bounded(self, hopf2):
        """The 4 pieces of 48 nodes, evaluated a piece at a time, peak near
        0.3 MB of Python allocations; all 192 nodes in one call would take
        about 1.1 MB."""
        H = zoo.stencil_only(hopf2).main_structure
        field = lee_field(H)
        loop = hopf2.loops["contractible"]
        tracemalloc.start()
        try:
            loop_integral(H.chart, field, loop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_points_unchanged_calls_fewer(self, hopf2):
        """Every node costs nine J and nine metric evaluations (the 8-point
        DIRECT stencil and the node), in two calls of each per piece."""
        H = zoo.stencil_only(hopf2).main_structure
        counts = {"J": [0, 0], "g": [0, 0]}     # points, calls

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(q):
                counts[name][0] += np.asarray(q)[..., 0].size
                counts[name][1] += 1
                return fn(q)
            return wrapper

        chart = dataclasses.replace(
            H.chart, metric_fn=counted("g", H.chart.metric_fn))
        H_counted = dataclasses.replace(H, chart=chart,
                                        J_fn=counted("J", H.J_fn))
        loop = hopf2.loops["contractible"]
        loop_integral(chart, lee_field(H_counted), loop)
        pieces = len(loop.breakpoints) + 1
        nodes = 48 * pieces
        assert counts["J"] == [9 * nodes, 2 * pieces]
        assert counts["g"] == [9 * nodes, 2 * pieces]


class TestSegmentIntegral:
    """line_integral_segment on a stack of segments, as the potential of
    hamiltonian-form takes its increments."""

    @pytest.mark.parametrize("per_segment_start", [False, True])
    def test_each_segment_is_its_call_alone(self, calabi_sin, rng,
                                            per_segment_start):
        H = zoo.stencil_only(calabi_sin).pair.J
        field = lee_field(H)
        centre = H.chart.center()
        p_to = centre + rng.uniform(-0.05, 0.05, size=(3, 4, 4))
        p_from = (centre + rng.uniform(-0.05, 0.05, size=(3, 1, 4))
                  if per_segment_start else centre)
        stacked = line_integral_segment(field, p_from, p_to, nodes=4)
        assert stacked.shape == (3, 4)
        for k in np.ndindex(3, 4):
            start = p_from[k[0], 0] if per_segment_start else p_from
            alone = line_integral_segment(field, start, p_to[k], nodes=4)
            assert stacked[k] == alone, k

    def test_matches_the_node_by_node_sum(self, calabi_sin, rng):
        """The weighted sum over the nodes is the node-by-node sum up to the
        rounding of another summation order: within 16 eps of the sum of
        the |terms|."""
        H = zoo.stencil_only(calabi_sin).pair.J
        field = lee_field(H)
        centre = H.chart.center()
        ts, ws = fd.gauss_legendre_01(16)
        for q in centre + rng.uniform(-0.05, 0.05, size=(5, 4)):
            vel = q - centre
            terms = [w * float(np.asarray(field(centre + t * vel)) @ vel)
                     for t, w in zip(ts, ws)]
            total = 0.0
            for term in terms:
                total += term
            assert (abs(line_integral_segment(field, centre, q) - total)
                    <= 16 * np.finfo(float).eps * sum(map(abs, terms)))

    def test_first_bad_node_in_c_order_raises(self):
        """The field raises for the last bad node of its stack.  Of the six
        segments the second and the fourth reach x0 > 0.3, the second at
        several nodes; the error is that of the second's first bad node, as
        a loop over the segments raises it."""
        def field(x):
            bad = x[..., 0] > 0.3
            if bad.any():
                raise ValueError(f"bad node {x[bad][-1]}")
            return np.cos(x)

        p_from = np.zeros(2)
        p_to = np.array([[[0.2, 0.1], [0.5, -0.2], [0.1, 0.3]],
                         [[0.4, 0.4], [-0.3, 0.2], [0.25, 0.0]]])

        def segment_by_segment():
            for q in p_to.reshape(-1, 2):
                line_integral_segment(field, p_from, q)

        err = _raised(lambda: line_integral_segment(field, p_from, p_to))
        ref = _raised(segment_by_segment)
        ts = fd.gauss_legendre_01(16)[0]
        nodes = np.multiply.outer(ts, p_to[0, 1])
        first_bad = nodes[nodes[:, 0] > 0.3][0]
        assert type(err) is type(ref) is ValueError
        assert str(err) == str(ref) == f"bad node {first_bad}"
        assert str(_raised(lambda: field(nodes))) != str(err)
