"""Holonomy estimation tests: trichotomy labels, agreement, error paths."""

import dataclasses
import gc
import inspect
import math
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from lckgeo import holonomy, zoo
from lckgeo.calculus import riemann
from lckgeo.charts import (Chart, coordinate_rectangle, polygon_loop,
                           segment_loop)
from lckgeo.errors import (DomainExitError, IntegrationError,
                           LoopTooLargeError, PreconditionError)
from lckgeo.hermitian import conformal_rescale
from lckgeo.holonomy import (TRANSPORT_STEPS, _close_under_commutators,
                             _curvature, _loop_log, _loop_transports,
                             _orthonormal_frame, _segment_transports,
                             _span_rank, classify_algebra,
                             common_fixed_vectors, curvature_span,
                             default_holonomy_loops, default_probes,
                             loop_holonomy)
from lckgeo.transport import (parallel_transport, transport_along,
                              transport_segment)


def _span(entry, rng, key=None):
    H = entry.structures[key] if key else entry.holonomy_structure
    chart = H.chart
    base = chart.center()
    probes = default_probes(chart, base, rng)
    return H, curvature_span(chart, base, probes, J_fn=H.J_fn)


class TestCurvatureSpan:
    def test_euclidean_trivial(self, euclid4, rng):
        _, est = _span(euclid4, rng)
        assert est.algebra_dim == 0
        assert est.classification == "reducible/other"

    def test_flat_inversion_trivial(self, flat_inv2, rng):
        _, est = _span(zoo.stencil_only(flat_inv2), rng)
        assert est.algebra_dim == 0

    def test_hopf_so3_with_fixed_vector(self, hopf2, rng):
        H, est = _span(hopf2, rng)
        assert est.algebra_dim == 3
        assert est.classification == "SO(2n-1)"
        assert est.rank_gap >= 10
        fixed = common_fixed_vectors(est, H.chart.metric(est.base_point))
        assert fixed.shape[1] == 1
        direction = fixed[:, 0] / np.max(np.abs(fixed[:, 0]))
        npt.assert_allclose(np.abs(direction), [1, 0, 0, 0], atol=1e-6)

    def test_calabi_unitary(self, calabi_sin, rng):
        H, est = _span(calabi_sin, rng)
        assert est.algebra_dim <= 4
        assert est.classification == "U(n)"
        # every generator commutes with J_+
        J = H.J(est.base_point)
        for G in est.generators:
            assert np.max(np.abs(G @ J - J @ G)) < 1e-6 * (1 + np.max(np.abs(G)))

    def test_warped_so3_with_fixed_vector(self, warped_sin, rng):
        H, est = _span(warped_sin, rng)
        assert est.algebra_dim == 3
        assert est.classification == "SO(2n-1)"
        fixed = common_fixed_vectors(est, H.chart.metric(est.base_point))
        direction = fixed[:, 0] / np.max(np.abs(fixed[:, 0]))
        npt.assert_allclose(np.abs(direction), [1, 0, 0, 0], atol=1e-6)

    def test_generators_metric_skew(self, hopf2, rng):
        """G^T M + M G = 0 at the base point for every generator."""
        H, est = _span(hopf2, rng)
        M = H.chart.metric(est.base_point)
        for G in est.generators:
            assert np.max(np.abs(G.T @ M + M @ G)) < 1e-8

    def test_too_few_probes_rejected(self, hopf2, rng):
        H = hopf2.main_structure
        base = H.chart.center()
        probes = default_probes(H.chart, base, rng)[:5]
        with pytest.raises(PreconditionError):
            curvature_span(H.chart, base, probes)


class TestLoopHolonomy:
    def test_euclidean_trivial(self, euclid4):
        chart = euclid4.charts["flat"]
        base = chart.center()
        est = loop_holonomy(chart, default_holonomy_loops(chart, base), base)
        assert est.algebra_dim == 0

    def test_sphere_latitude_so2(self):
        """Latitude loops at varied colatitudes span so(2): dim 1.

        The loops are contractible on the sphere; their coordinate shift is
        the periodic phi-wrap.  Colatitudes are chosen so the wrapped cone
        angle 2 pi cos(theta0) stays inside the logarithm safety window.
        """
        chart = zoo.round_s2_base(1.0, polar_margin=0.25).structure.chart
        base = np.array([math.pi / 2, math.pi])
        loops = [segment_loop(np.array([theta0, 0.0]),
                              np.array([0.0, 2.0 * math.pi]),
                              steps=300, label=f"lat_{theta0}")
                 for theta0 in (1.52, 1.57, 1.62, 0.32)]
        est = loop_holonomy(chart, loops, base, allow_shifted=True)
        assert est.algebra_dim == 1
        assert est.rank_gap >= 10

    def test_agreement_on_zoo(self, hopf2, calabi_sin, warped_sin, rng):
        for entry in (hopf2, calabi_sin, warped_sin):
            H = entry.holonomy_structure
            chart = H.chart
            base = chart.center()
            est_s = curvature_span(chart, base,
                                   default_probes(chart, base, rng),
                                   J_fn=H.J_fn)
            est_l = loop_holonomy(chart, default_holonomy_loops(chart, base),
                                  base, J_fn=H.J_fn)
            assert est_s.classification == est_l.classification, entry.label
            assert est_s.algebra_dim == est_l.algebra_dim, entry.label

    def test_large_loop_rejected(self):
        """A latitude whose wrapped rotation exceeds 0.5 must not be logged."""
        chart = zoo.round_s2_base(1.0, polar_margin=0.25).structure.chart
        theta0 = 1.0          # cone angle 2 pi cos(1) ~ 3.39: far from Id
        lat = segment_loop(np.array([theta0, 0.0]),
                           np.array([0.0, 2.0 * math.pi]), steps=300)
        with pytest.raises(LoopTooLargeError):
            loop_holonomy(chart, [lat], np.array([theta0, 0.1]),
                          allow_shifted=True)

    def test_shifted_loop_rejected(self, hopf2):
        H = hopf2.main_structure
        with pytest.raises(PreconditionError):
            loop_holonomy(H.chart, [hopf2.loops["s1_generator"]],
                          H.chart.center())

    def test_no_loops_rejected(self, hopf2):
        """No loops raise the typed error that too few probes raise in
        curvature_span, not numpy's broadcast error."""
        chart = hopf2.holonomy_structure.chart
        with pytest.raises(PreconditionError, match="at least one loop"):
            loop_holonomy(chart, [], chart.center())


def _block_rotation(angles):
    """Block-diagonal rotation by the given angles and its exact logarithm."""
    m = 2 * len(angles)
    R, X = np.zeros((m, m)), np.zeros((m, m))
    for k, a in enumerate(angles):
        block = slice(2 * k, 2 * k + 2)
        R[block, block] = [[math.cos(a), -math.sin(a)],
                           [math.sin(a), math.cos(a)]]
        X[block, block] = [[0.0, -a], [a, 0.0]]
    return R, X


# |R - I|_2 = 2 sin(angle / 2) reaches the 0.5 gate at this angle
GATE_ANGLE = 2.0 * math.asin(0.25)


class TestLoopLog:
    """The Gregory-series logarithm inside the 0.5 gate, in the identity
    frame."""

    @pytest.mark.parametrize("angles", [(0.3,), (GATE_ANGLE - 1e-9, 1e-3),
                                        (0.1, -0.4, -GATE_ANGLE + 1e-9)])
    def test_block_rotations(self, angles):
        R, X = _block_rotation(angles)
        assert np.linalg.norm(R - np.eye(len(R)), 2) < 0.5
        log = _loop_log(np.eye(len(R)), [None], R[None])[0]
        assert np.max(np.abs(log - X)) <= 1e-15

    def test_worst_case_of_the_gate(self):
        """H = h Id with h just above 1/2 is inside the gate, and |C|_2 =
        (1 - h) / (1 + h) tends to 1/3, the bound the term count rests on."""
        h = 0.5 + 1e-9
        log = _loop_log(np.eye(4), [None], h * np.eye(4)[None])[0]
        assert np.max(np.abs(log - math.log(h) * np.eye(4))) <= 1e-15

    def test_orthogonal_gives_real_skew(self, rng):
        """Real, and skew up to the round-off of H's own orthogonality."""
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        R, X = _block_rotation((0.45, -0.2, 0.05))
        H = Q @ R @ Q.T
        log = _loop_log(np.eye(6), [None], H[None])[0]
        assert log.dtype == np.float64
        defect = np.max(np.abs(H.T @ H - np.eye(6)))
        assert np.max(np.abs(log + log.T)) <= 2.0 * defect + 2.3e-16
        assert np.max(np.abs(log - Q @ X @ Q.T)) <= 1e-14

    def test_matches_eigen_logarithm(self, rng):
        """A non-normal H inside the gate: the principal logarithm from its
        eigendecomposition."""
        A = rng.standard_normal((4, 4))
        H = np.eye(4) + 0.45 * A / np.linalg.norm(A, 2)
        lam, V = np.linalg.eig(H)
        ref = (V * np.log(lam)) @ np.linalg.inv(V)
        assert np.max(np.abs(ref.imag)) < 1e-14
        npt.assert_allclose(_loop_log(np.eye(4), [None], H[None])[0],
                            ref.real, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    def test_stack_is_each_matrix_alone(self, hopf2, rng, mode):
        """The default loops' transports in the base frame, and non-normal
        matrices inside the gate: the stacked logarithms are bitwise the
        per-matrix ones.  With loops 1 and 3 too large, the stack raises
        loop 1's error."""
        entry = zoo.stencil_only(hopf2) if mode == "fd" else hopf2
        chart = entry.holonomy_structure.chart
        base = chart.center()
        loops = default_holonomy_loops(chart, base)
        L = _orthonormal_frame(chart.metric(base))
        A = rng.standard_normal((4, 4, 4))
        A *= 0.4 / np.linalg.norm(A, 2, axis=(1, 2))[:, None, None]
        Hs = np.concatenate([np.array(_loop_transports(chart, loops, base)),
                             np.eye(4) + np.linalg.inv(L).T @ A @ L.T])
        labels = loops + loops[:4]
        stacked = _loop_log(L, labels, Hs)
        assert stacked.shape == Hs.shape
        for k, (loop, H) in enumerate(zip(labels, Hs)):
            assert np.array_equal(stacked[k],
                                  _loop_log(L, [loop], H[None])[0]), k

        large = Hs.copy()
        large[[1, 3]] = 1.6 * np.eye(4)
        err = _raised(lambda: _loop_log(L, labels, large))
        ref = _raised(lambda: _loop_log(L, labels[1:2], large[1:2]))
        assert type(err) is type(ref) is LoopTooLargeError
        assert str(err) == str(ref)
        assert f"'{labels[1].label}'" in str(err)


def _raised(fn):
    try:
        fn()
    except Exception as exc:       # the error itself is compared
        return exc
    raise AssertionError("no error raised")


def _sorted_rows(rows):
    rows = np.concatenate(rows)
    return rows[np.lexsort(rows.T[::-1])]


class TestBundles:
    """All probes, and all loops of one schedule, transported as one bundle."""

    def test_earlier_curve_error_wins(self):
        """The bundle stops at the second loop's non-finite state, earlier in
        time than the first loop's exit from the chart; the first loop's
        DomainExitError is raised, as loop-by-loop transport raises it, and
        before the deck generator's PreconditionError."""
        chart = Chart(domain=((-1, 1), (-1, 1)),
                      metric_fn=lambda p: np.eye(2) * np.where(
                          p[..., 0] < 0.5, 1.0, np.nan)[..., None, None],
                      label="nan_half")
        base = np.zeros(2)
        leaves = polygon_loop([base, [0.0, 1.5], [0.2, 0.0]],
                              steps_per_edge=40)
        diverges = polygon_loop([base, [0.9, 0.0], [0.0, 0.2]],
                                steps_per_edge=40)
        deck = segment_loop(base, [0.0, 0.3], steps=120)
        pair = (leaves, diverges)
        bundle = _raised(lambda: transport_along(
            chart, lambda t: np.stack([lp.point(t) for lp in pair], -2),
            lambda t: np.stack([lp.velocity(t) for lp in pair], -2),
            np.broadcast_to(np.eye(2), (2, 2, 2)), steps=leaves.steps,
            breakpoints=leaves.breakpoints))
        assert type(bundle) is IntegrationError
        err = _raised(lambda: loop_holonomy(chart, [leaves, diverges, deck],
                                            base))
        ref = _raised(lambda: parallel_transport(chart, leaves, np.eye(2)))
        assert type(err) is type(ref) is DomainExitError
        assert err.exit_time == ref.exit_time
        assert np.array_equal(err.point, ref.point)
        assert str(err) == str(ref)

    def test_third_of_twelve_loops_fails_as_one_by_one(self):
        """On a curved chart the 12 default loops share one schedule.  The
        metric is nan where only the third loop, rect_03_1, goes (x0 > 0.1,
        x3 > 0.12: step 120 of its second edge) and where only the sixth,
        rect_23_1, goes (x2 > 0.1, x3 > 0.03: step 30, earlier in time).
        The bundle stops at the sixth; loop_holonomy raises the third's
        error, as transport loop by loop does."""
        def metric_fn(p):
            x0, x1, x2, x3 = np.moveaxis(p, -1, 0)
            nan = ((x0 > 0.1) & (x3 > 0.12)) | ((x2 > 0.1) & (x3 > 0.03))
            f = 2.0 + np.sin(x0 + 2.0 * x1) + 0.5 * x2 * x3
            return np.eye(4) * np.where(nan, np.nan, f)[..., None, None]

        chart = Chart(domain=((-1, 1),) * 4, metric_fn=metric_fn,
                      label="nan_corners")
        base = chart.center()
        loops = default_holonomy_loops(chart, base)
        assert [lp.label for lp in loops[2::3]] == [
            "rect_03_1", "rect_23_1", "rect_03_0.6", "rect_23_0.6"]
        bundle = _raised(lambda: transport_along(
            chart, lambda t: np.stack([lp.point(t) for lp in loops], -2),
            lambda t: np.stack([lp.velocity(t) for lp in loops], -2),
            np.broadcast_to(np.eye(4), (12, 4, 4)), steps=loops[0].steps,
            breakpoints=loops[0].breakpoints))
        err = _raised(lambda: loop_holonomy(chart, loops, base))
        refs = [_raised(lambda: parallel_transport(chart, loop, np.eye(4)))
                for loop in loops[2:6:3]]
        assert type(bundle) is type(err) is IntegrationError
        assert str(bundle) == str(refs[1]) != str(refs[0]) == str(err)
        for loop in loops[:2]:
            parallel_transport(chart, loop, np.eye(4))

    def test_fourth_of_eighteen_probes_fails_as_one_by_one(self, rng):
        """The metric is nan in two small balls: one that the fourth probe's
        segment to the base crosses near t = 0.1, and one that the first
        probe's crosses near t = 0.75, later in time.  The other probes have
        x0 <= -0.1 and |q| < 0.45, so their segments miss both.  The bundle
        stops at the fourth; curvature_span raises the first's error, as
        curvature and transport probe by probe do."""
        first = np.array([0.4, 0.0, 0.0, 0.4])
        fourth = np.array([0.0, 0.4, -0.4, 0.0])
        holes = (0.2 * first, 0.85 * fourth)

        def metric_fn(p):
            nan = np.any([np.linalg.norm(p - c, axis=-1) < 0.03
                          for c in holes], axis=0)
            x0, x1, x2, x3 = np.moveaxis(p, -1, 0)
            f = 2.0 + np.sin(x0 + 2.0 * x1) + 0.5 * x2 * x3
            return np.eye(4) * np.where(nan, np.nan, f)[..., None, None]

        chart = Chart(domain=((-1, 1),) * 4, metric_fn=metric_fn,
                      label="two_holes")
        base = chart.center()
        others = rng.uniform((-0.2, -0.2, -0.2, -0.2), (-0.1, 0.2, 0.2, 0.2),
                             size=(16, 4))
        qs = [first, *others[:2], fourth, *others[2:]]
        probes = [(q, (rng.standard_normal(4), rng.standard_normal(4)))
                  for q in qs]
        bundle = _raised(lambda: transport_segment(
            chart, np.array(qs), base, np.broadcast_to(np.eye(4), (18, 4, 4)),
            TRANSPORT_STEPS))
        refs = [_raised(lambda: transport_segment(chart, q, base, np.eye(4),
                                                  steps=TRANSPORT_STEPS))
                for q in (first, fourth)]

        def probe_by_probe():
            for q, _ in probes:
                riemann(chart, q)
                transport_segment(chart, q, base, np.eye(4),
                                  steps=TRANSPORT_STEPS)

        err = _raised(lambda: curvature_span(chart, base, probes))
        ref = _raised(probe_by_probe)
        assert type(bundle) is type(err) is type(ref) is IntegrationError
        assert str(bundle) == str(refs[1]) != str(refs[0]) == str(ref)
        assert str(err) == str(ref)

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    def test_conjugation_is_each_matrix_alone(self, hopf2, rng, monkeypatch,
                                              mode):
        """The probes' curvatures and the loops' transports are moved to the
        base by one stacked inverse and product: each is bit for bit
        P G P^-1 for its matrix alone, and a probe or loop at the base keeps
        its G."""
        entry = zoo.stencil_only(hopf2) if mode == "fd" else hopf2
        chart = entry.holonomy_structure.chart
        base = chart.center()
        probes = default_probes(chart, base, rng)
        probes.insert(2, (base, probes[2][1]))
        seen = []
        to_frame = holonomy._to_frame

        def recorded(L, G):
            seen.append(G.copy())
            return to_frame(L, G)

        monkeypatch.setattr(holonomy, "_to_frame", recorded)
        curvature_span(chart, base, probes)
        loops = (default_holonomy_loops(chart, base)[:6]
                 + default_holonomy_loops(chart, base + 0.05)[:6])
        Hs = _loop_transports(chart, loops, base)

        def alone(q, G):
            if np.array_equal(q, base):
                return G
            P = transport_segment(chart, q, base, np.eye(4),
                                  steps=TRANSPORT_STEPS)
            return P @ G @ np.linalg.inv(P)

        assert len(seen) == 1
        for k, (q, (x, y)) in enumerate(probes):
            assert np.array_equal(seen[0][k],
                                  alone(q, _curvature(chart, q, x, y))), k
        assert [np.array_equal(lp.point(0.0), base) for lp in loops] == [
            True] * 6 + [False] * 6
        for k, loop in enumerate(loops):
            assert np.array_equal(Hs[k], alone(loop.point(0.0), (
                parallel_transport(chart, loop, np.eye(4))))), k

    def test_too_large_loop_wins_over_later_deck_generator(self):
        """A rectangle enclosing area 0.57 of the unit sphere turns by that
        angle, 0.57 from the identity; the latitude after it is never
        reached."""
        chart = zoo.round_s2_base(1.0, polar_margin=0.25).structure.chart
        base = np.array([1.0, 0.1])
        rect = coordinate_rectangle(base, 0, 1, 1.0, 0.6, steps_per_edge=100)
        lat = segment_loop(np.array([1.5, 0.0]),
                           np.array([0.0, 2.0 * math.pi]), steps=300)
        with pytest.raises(LoopTooLargeError):
            loop_holonomy(chart, [rect, lat], base)
        with pytest.raises(PreconditionError):
            loop_holonomy(chart, [lat, rect], base)

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    @pytest.mark.parametrize("name", ["hopf2", "hopf3", "warped_sin",
                                      "calabi_sin", "flat_inv2"])
    def test_stacked_curvature_is_the_per_probe_one(self, request, name,
                                                    mode, rng):
        """R(x, y) at all the probes in one stacked evaluation is, bit for
        bit, R(x, y) probe by probe."""
        entry = request.getfixturevalue(name)
        if mode == "fd":
            entry = zoo.stencil_only(entry)
        chart = entry.holonomy_structure.chart
        probes = default_probes(chart, chart.center(), rng)
        qs = np.array([q for q, _ in probes])
        xs = np.array([x for _, (x, _) in probes])
        ys = np.array([y for _, (_, y) in probes])
        for R, q, x, y in zip(_curvature(chart, qs, xs, ys), qs, xs, ys):
            assert np.array_equal(R, np.einsum(
                "abcd,c,d->ab", riemann(chart, q), x, y))

    def test_curvature_span_evaluates_per_probe_points(self, hopf2, rng):
        """The metric is evaluated at exactly the points of the per-probe
        curvature and transport, and once at the base point."""
        chart = dataclasses.replace(hopf2.holonomy_structure.chart,
                                    metric_derivative_fn=None)
        base = chart.center()
        probes = default_probes(chart, base, rng)
        seen = []

        def counted(q):
            seen.append(np.asarray(q).reshape(-1, 4))
            return chart.metric_fn(q)

        counted_chart = dataclasses.replace(chart, metric_fn=counted)
        curvature_span(counted_chart, base, probes)
        bundled, seen[:] = list(seen), [base[None]]
        for q, _ in probes:
            riemann(counted_chart, q)
            transport_segment(counted_chart, q, base, np.eye(4),
                              steps=TRANSPORT_STEPS)
        assert sum(len(x) for x in bundled) == sum(len(x) for x in seen)
        assert np.array_equal(_sorted_rows(bundled), _sorted_rows(seen))

    def test_loop_holonomy_leaves_no_reference_cycles(self, hopf2):
        H = zoo.stencil_only(hopf2).holonomy_structure
        base = H.chart.center()
        loops = default_holonomy_loops(H.chart, base, steps_per_edge=20)
        gc.collect()
        gc.disable()
        try:
            loop_holonomy(H.chart, loops, base, J_fn=H.J_fn)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_loop_holonomy_peak_memory_is_bounded(self, hopf2):
        """The 12 default loops in blocks of ``NODE_BLOCK`` = 512 node points
        peak near 1.27 MB of Python allocations (0.47 MB at 128); the
        stencil of a whole bundle piece would take several MB."""
        H = zoo.stencil_only(hopf2).holonomy_structure
        base = H.chart.center()
        loops = default_holonomy_loops(H.chart, base)
        tracemalloc.start()
        try:
            loop_holonomy(H.chart, loops, base, J_fn=H.J_fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


def _conformal_bump(p):
    """f = sin(s) cos(a1) + sin(a2) cos(a3) / 2 on the hopf{n=2} chart."""
    return (np.sin(p[..., 0]) * np.cos(p[..., 1])
            + 0.5 * np.sin(p[..., 2]) * np.cos(p[..., 3]))


class TestSchedule:
    """The default RK4 schedule: 40 steps per loop edge and TRANSPORT_STEPS
    = 50 per segment back to the base."""

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    def test_conformal_hopf_is_so2n(self, hopf2, rng, mode, eps):
        """g' = e^(2 eps f) g_hopf with the Hopf J is strictly lcK for
        eps != 0, and both estimators read SO(2n), dim 6.  The generators
        are projected onto skew matrices before the span is closed: without
        that, the commutators lift the rows' non-skew noise, the fd span
        reads "inconclusive", dim 16, from eps = 1e-2 to 1e-5, and the fd
        loop estimate at eps = 1e-4 reads so at this schedule but SO(2n) at
        150 and at 20 steps per edge.  At eps = 1e-6 the weak directions
        fall below RANK_CUT and both read SO(2n-1), so that eps is not
        asserted."""
        H = (zoo.stencil_only(hopf2) if mode == "fd" else hopf2).main_structure
        chart = conformal_rescale(H.chart, lambda p: eps * _conformal_bump(p))
        base = chart.center()
        for est in (curvature_span(chart, base,
                                   default_probes(chart, base, rng),
                                   J_fn=H.J_fn),
                    loop_holonomy(chart, default_holonomy_loops(chart, base),
                                  base, J_fn=H.J_fn)):
            assert (est.classification, est.algebra_dim) == ("SO(2n)", 6)

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    @pytest.mark.parametrize("name", ["hopf2", "warped_sin", "calabi_sin"])
    def test_default_schedule_is_converged(self, request, monkeypatch, name,
                                           mode):
        """Against a 4x finer schedule, the loop logarithms move by at most
        1.12e-11 of the largest one (calabi, fd) and the transports of the
        seed-1 probes of the holonomy suite by at most 8.4e-13 (warped,
        analytic), far below the ~1e-8 fd Christoffel noise.  The bounds
        leave a margin of 2.7 and 2.4; at 20 steps per edge and 25 per
        segment the logs move by 4.5e-11 and the transports by 1.3e-11
        (warped), and both bounds fail."""
        entry = request.getfixturevalue(name)
        if mode == "fd":
            entry = zoo.stencil_only(entry)
        chart = entry.holonomy_structure.chart
        base = chart.center()
        L = _orthonormal_frame(chart.metric(base))
        edge = inspect.signature(default_holonomy_loops).parameters[
            "steps_per_edge"].default
        logs = []
        for steps in (edge, 4 * edge):
            loops = default_holonomy_loops(chart, base, steps_per_edge=steps)
            logs.append(np.array([
                _loop_log(L, [loop], H[None])[0] for loop, H in
                zip(loops, _loop_transports(chart, loops, base))]))
        coarse, fine = logs
        assert np.max(np.abs(coarse - fine)) <= 3e-11 * np.max(np.abs(fine))

        rng = np.random.default_rng((1, zlib.crc32(b"holonomy")))
        qs = np.array([q for q, _ in default_probes(chart, base, rng)])
        coarse = _segment_transports(chart, qs, base)[1]
        monkeypatch.setattr("lckgeo.holonomy.TRANSPORT_STEPS",
                            4 * TRANSPORT_STEPS)
        fine = _segment_transports(chart, qs, base)[1]
        assert np.max(np.abs(coarse - fine)) <= 2e-12 * np.max(np.abs(fine))


class TestClassifyAlgebra:
    def _so4_basis(self):
        basis = []
        for i in range(4):
            for j in range(i + 1, 4):
                B = np.zeros((4, 4))
                B[i, j] = 1.0
                B[j, i] = -1.0
                basis.append(B)
        return basis

    def test_full_dimension_is_generic(self):
        basis = self._so4_basis()
        assert classify_algebra(basis, 6, np.inf, n=2) == "SO(2n)"

    def test_stabilizer_is_so3(self):
        basis = [B for B in self._so4_basis() if not B[0].any()]
        assert classify_algebra(basis, 3, np.inf, n=2) == "SO(2n-1)"

    def test_unitary_detected(self):
        J = zoo._standard_j(4)
        # u(2) = span of skew matrices commuting with J
        basis = []
        for B in self._so4_basis():
            C = B - J @ B @ J      # project onto the J-commutant
            if np.max(np.abs(C)) > 1e-12:
                basis.append(C / np.max(np.abs(C)))
        assert classify_algebra(basis, 4, np.inf, n=2,
                                hat_J=J) == "U(n)"

    def test_ambiguous_rank_is_inconclusive(self):
        basis = self._so4_basis()
        assert classify_algebra(basis, 6, 5.0, n=2) == "inconclusive"

    def test_dim_zero(self):
        assert classify_algebra([], 0, np.inf, n=2) == "reducible/other"

    def test_span_above_so2n_is_inconclusive(self):
        basis = self._so4_basis() + [np.eye(4) / 2.0]
        assert classify_algebra(basis, 7, np.inf, n=2) == "inconclusive"


class TestSpanRank:
    def test_full_rank_with_more_rows_than_entries(self, rng):
        """21 generic 4x4 matrices span all 16 dimensions: the rank stops
        at the 16 singular values there are, with no gap below it."""
        rank, gap, sv = _span_rank(rng.standard_normal((21, 16)))
        assert (rank, gap, sv.size) == (16, np.inf, 16)

    def test_closure_of_a_full_span_is_inconclusive(self, rng):
        basis, dim, gap = _close_under_commutators(
            list(rng.standard_normal((21, 4, 4))), 4)
        assert (len(basis), dim, gap) == (16, 16, np.inf)
        assert classify_algebra(basis, dim, gap, n=2) == "inconclusive"


class TestOrthonormalFrame:
    def test_skew_defect_on_non_diagonal_base_metric(self, calabi_sin, rng):
        """The g_+ base metric has off-diagonal entries: the frame map must
        send g-skew curvature endomorphisms to Euclidean-skew matrices."""
        H = calabi_sin.holonomy_structure
        chart = H.chart
        base = chart.center()
        base[0] = 1.0            # away from theta = pi/2: g_(phi,psi) != 0
        est = curvature_span(chart, base, default_probes(chart, base, rng),
                             J_fn=H.J_fn)
        assert est.skew_defect < 1e-6
        M = chart.metric(base)
        assert np.max(np.abs(M - np.diag(np.diag(M)))) > 1e-3  # really non-diagonal
        for G in est.generators:
            assert np.max(np.abs(G.T @ M + M @ G)) < 1e-6
