"""Hermitian-structure tests: fundamental form, Nijenhuis, Lee forms."""

import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from lckgeo import fd, report, zoo
from lckgeo.calculus import (christoffel_components, codifferential,
                              covariant_derivative_full,
                              exterior_of_partials, riemann)
from lckgeo.charts import coordinate_rectangle, form_norm
from lckgeo.errors import (ChartDomainError, CompatibilityError, MetricError,
                           NotLcKError)
from lckgeo.hermitian import (HermitianStructure, conformal_rescale,
                              fundamental_form, lck_residual, lee_field,
                              lee_form, lee_form_components, lee_form_parts,
                              nabla_theta, nested_lee,
                              nijenhuis_residual, nijenhuis_tensor)
from lckgeo.transport import loop_integral


def _stencil(H):
    """H on its chart without the metric derivative: g is differenced on a
    stencil."""
    return dataclasses.replace(
        H, chart=dataclasses.replace(H.chart, metric_derivative_fn=None))


def _variants(H):
    """H with its metric differenced on a stencil, and as given where its
    chart has a metric derivative."""
    return [_stencil(H)] + [H] * (H.chart.metric_derivative_fn is not None)


def twisted_structure(m=4, angle_scale=1.0):
    """Position-dependent rotation of J_0 on a flat chart: not integrable.

    A coordinate-constant J always has vanishing Nijenhuis tensor, so the
    non-integrability control must twist J with the position.  Note that in
    real dimension 4 the twist still satisfies d Omega = 2 theta ^ Omega
    pointwise (Omega ^ . maps 1-forms onto 3-forms there), so the structure
    gate control needs m >= 6.
    """
    chart = zoo.euclidean(m).charts["flat"]
    J0 = zoo._standard_j(m)

    def J_fn(p):
        a = angle_scale * (p[..., 0] + 0.7 * p[..., 1])
        R = np.zeros(a.shape + (m, m))
        R[...] = np.eye(m)
        R[..., 0, 0] = R[..., 2, 2] = np.cos(a)
        R[..., 0, 2] = -np.sin(a)
        R[..., 2, 0] = np.sin(a)
        return R @ J0 @ np.swapaxes(R, -1, -2)

    return HermitianStructure(chart=chart, J_fn=J_fn, label="twisted")


class TestFundamentalForm:
    def test_flat_standard_form(self, euclid4):
        """Omega = dx1 ^ dy1 + dx2 ^ dy2 for the standard flat structure."""
        H = euclid4.structures["flat"]
        om = fundamental_form(H, np.zeros(4)).components
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[2, 3] = 1.0
        expected[1, 0] = expected[3, 2] = -1.0
        npt.assert_allclose(om, expected, atol=1e-14)

    def test_antisymmetry_and_unit_vectors(self, hopf2, rng):
        H = hopf2.main_structure
        for p in H.chart.sample_points(rng, 5):
            om = fundamental_form(H, p).components
            npt.assert_allclose(om, -om.T, atol=1e-12)
            g = H.chart.metric(p)
            x = rng.standard_normal(4)
            x = x / math.sqrt(float(x @ g @ x))
            # Omega(X, JX) = -|X|^2 with Omega = g(J., .)
            assert abs(float(om @ (H.J(p) @ x) @ x) - 1.0) < 1e-10

    def test_calabi_vertical_pairing(self, calabi_sin, rng):
        """Omega(xi, d_r) = g(J xi, d_r) = +l since J xi = l d_r."""
        H = calabi_sin.structures["g_ell,J+"]
        c_w = calabi_sin.params["c_w"]
        xi = np.array([0.0, 0.0, 1.0 / c_w, 0.0])
        e_r = np.array([0.0, 0.0, 0.0, 1.0])
        for p in H.chart.sample_points(rng, 5):
            om = fundamental_form(H, p).components
            assert abs(float(xi @ om @ e_r) - math.sin(p[3])) < 1e-12

    def test_warped_form_blocks(self, warped_sin, rng):
        """Omega = ds ^ dt + e^(2c) Omega_N."""
        H = warped_sin.main_structure
        for p in H.chart.sample_points(rng, 3):
            om = fundamental_form(H, p).components
            assert abs(om[0, 1] - 1.0) < 1e-12
            f = math.exp(2.0 * math.sin(p[1]))
            omega_n = warped_sin.base.structure.omega(p[2:])
            npt.assert_allclose(om[2:, 2:], f * omega_n, atol=1e-12)

    def test_fields_evaluated_once(self, hopf2):
        """The compatibility check and Omega read one value of J and of the
        metric at p, and give the form H.omega gives."""
        H = hopf2.main_structure
        points = {"J": 0, "g": 0}

        def counted(name, fn):
            def wrapper(q):
                points[name] += np.asarray(q)[..., 0].size
                return fn(q)
            return wrapper

        chart = dataclasses.replace(
            H.chart, metric_fn=counted("g", H.chart.metric_fn))
        H_counted = dataclasses.replace(H, chart=chart,
                                        J_fn=counted("J", H.J_fn))
        p = H.chart.center()
        om = fundamental_form(H_counted, p).components
        assert points == {"J": 1, "g": 1}
        assert np.array_equal(om, H.omega(p))

    def test_label_is_keyword_only(self, hopf2):
        """n is derived from the chart, so a positional third argument is an
        error, not a label."""
        H = hopf2.main_structure
        assert H.n == H.chart.dim // 2 == 2
        with pytest.raises(TypeError):
            HermitianStructure(H.chart, H.J_fn, 3)

    def test_incompatible_structure_errors(self):
        chart = zoo.round_s2_base(1.0).structure.chart
        bad = HermitianStructure(chart=chart,
                                 J_fn=lambda p: np.array([[0.0, -1.0], [1.0, 0.0]]),
                                 label="bad")
        with pytest.raises(CompatibilityError):
            fundamental_form(bad, np.array([0.9, 1.0]))


class TestNijenhuis:
    def test_flat_standard_vanishes(self, euclid4):
        H = euclid4.structures["flat"]
        assert nijenhuis_residual(H, np.array([0.1, 0.2, -0.3, 0.4])) < 1e-12

    def test_calabi_both_structures_integrable(self, calabi_sin, rng):
        for key in ("g_ell,J+", "g_ell,J-"):
            H = calabi_sin.structures[key]
            for p in H.chart.sample_points(rng, 5):
                assert nijenhuis_residual(H, p) < 1e-4

    def test_hopf_integrable(self, hopf2, hopf3, rng):
        for entry in (hopf2, hopf3):
            H = entry.main_structure
            for p in H.chart.sample_points(rng, 3):
                assert nijenhuis_residual(H, p) < 1e-4

    def test_residual_differentiates_j_once(self, hopf2):
        """One J stencil and one J at p, and the residual of the two-stencil
        formula bit for bit."""
        H = hopf2.main_structure
        p = H.chart.center() + 0.1
        points = [0]

        def counted(q):
            points[0] += np.asarray(q)[..., 0].size
            return H.J_fn(q)

        res = nijenhuis_residual(dataclasses.replace(H, J_fn=counted), p)
        assert points[0] == 2 * H.chart.dim + 1
        g = H.chart.metric(p)
        lowered = np.einsum("ak,kij->aij", g, nijenhuis_tensor(H, p))
        dJ = fd.gradient(H.J_fn, p, fd.DIRECT)
        scale = float(np.max(np.abs(dJ)) * np.max(np.abs(H.J(p))))
        assert res == form_norm(lowered, g) / (1.0 + scale)

    def test_twisted_control_not_integrable(self, rng):
        """Brute-force Nijenhuis of the position-dependent twist is large."""
        H = twisted_structure()
        worst = max(nijenhuis_residual(H, p)
                    for p in H.chart.sample_points(rng, 10))
        assert worst > 10 * 1e-4

    def test_constant_j_has_zero_nijenhuis(self, rng):
        """Any coordinate-constant J is flat-integrable: N depends on dJ only."""
        chart = zoo.round_s2_base(1.0).structure.chart   # curved chart, constant J
        J = np.array([[0.3, -1.0], [1.09, -0.3]])
        J[:] = J / math.sqrt(abs(np.linalg.det(J)))  # normalize to J^2 ~ -Id
        H = HermitianStructure(chart=chart, J_fn=fd.constant(J))
        N = nijenhuis_tensor(H, np.array([1.0, 1.0]))
        assert np.max(np.abs(N)) < 1e-9


class TestLeeForm:
    def test_kahler_structures_have_zero_lee(self, calabi_sin, warped_flat, rng):
        for H in (calabi_sin.structures["g+,J+"], calabi_sin.structures["g-,J-"],
                  warped_flat.main_structure):
            for p in H.chart.sample_points(rng, 5):
                data = lee_form(_stencil(H), p)
                assert data.norm_sq < 1e-10
                assert data.theta.norm() < 1e-6

    def test_flat_inversion_closed_form(self, flat_inv2, flat_inv3, rng):
        """theta = -2 d ln r = -2 x / r^2."""
        for entry in (flat_inv2, flat_inv3):
            H = _stencil(entry.main_structure)
            for p in H.chart.sample_points(rng, 5):
                data = lee_form(H, p)
                expected = -2.0 * p / float(p @ p)
                npt.assert_allclose(data.theta.components, expected, atol=1e-8)
                # J theta (X) = -theta(JX)
                J = H.J(p)
                npt.assert_allclose(data.J_theta.components,
                                    -J.T @ data.theta.components, atol=1e-12)

    def test_calabi_lee_forms(self, calabi_sin, rng):
        """theta_eps = 1/2 eps l(r) dr on (g_ell, J_eps)."""
        for eps, key in ((1.0, "g_ell,J+"), (-1.0, "g_ell,J-")):
            H = _stencil(calabi_sin.structures[key])
            for p in H.chart.sample_points(rng, 5):
                theta = lee_form_components(H, p)
                expected = np.array([0, 0, 0, 0.5 * eps * math.sin(p[3])])
                npt.assert_allclose(theta, expected, atol=1e-9)

    def test_lee_data_s_tensor_symmetric(self, flat_inv2, rng):
        H = _stencil(flat_inv2.main_structure)
        for p in H.chart.sample_points(rng, 3):
            S = lee_form(H, p).S.components
            assert np.max(np.abs(S - S.T)) < 1e-5

    def test_closedness(self, hopf2, calabi_sin, rng):
        from lckgeo.calculus import exterior_derivative
        from lckgeo.hermitian import lee_field
        for entry in (hopf2, calabi_sin):
            H = _stencil(entry.main_structure)
            for p in H.chart.sample_points(rng, 3):
                d_theta = exterior_derivative(H.chart, lee_field(H), p,
                                              k=1, stencil=fd.NESTED).components
                assert form_norm(d_theta, H.chart.metric(p)) < 1e-6

    def test_not_lck_gate(self, rng):
        """The 6-dim twisted control fails d Omega = 2 theta ^ Omega loudly."""
        H = _stencil(twisted_structure(m=6))
        failed = False
        for p in H.chart.sample_points(rng, 10):
            try:
                lee_form(H, p)
            except NotLcKError:
                failed = True
                break
        assert failed
        # the residual really is a structural failure, not stencil noise
        worst = max(lck_residual(lee_form_parts(H, p))
                    for p in H.chart.sample_points(rng, 5))
        assert worst > 1e-2

    def test_conformal_covariance(self, hopf2, rng):
        """Rescaling g by e^(2u) shifts the Lee form by +du."""
        H = _stencil(hopf2.main_structure)

        def u(p):
            return 0.1 * np.sin(p[..., 1]) * np.cos(p[..., 2])

        def du(p):
            out = np.zeros(np.shape(p))
            out[..., 1] = 0.1 * np.cos(p[..., 1]) * np.cos(p[..., 2])
            out[..., 2] = -0.1 * np.sin(p[..., 1]) * np.sin(p[..., 2])
            return out

        chart_u = conformal_rescale(H.chart, u, label="hopf_rescaled")
        H_u = HermitianStructure(chart_u, H.J_fn, label="hopf_rescaled")
        for p in H.chart.sample_points(rng, 5):
            theta = lee_form_components(H, p)
            theta_u = lee_form_components(H_u, p)
            npt.assert_allclose(theta_u, theta + du(p), atol=1e-3)

    def test_stacked_matches_per_point(self, hopf2, hopf3, flat_inv2,
                                       warped_sin, calabi_sin, rng):
        """Points of shape (..., m) give the per-point Lee forms bit for bit,
        on every structure of every zoo entry, with the metric differenced
        on a stencil and with its derivative where the chart has one."""
        for entry in (hopf2, hopf3, flat_inv2, warped_sin, calabi_sin):
            for H in entry.structures.values():
                chart = H.chart
                pts = chart.sample_points(rng, 6).reshape(2, 3, chart.dim)
                for V in _variants(H):
                    stacked = lee_form_components(V, pts)
                    single = [[lee_form_components(V, q) for q in row]
                              for row in pts]
                    assert np.array_equal(stacked, np.array(single)), (
                        V.label, V.chart.metric_derivative_fn)

    def test_rejects_complex_dimension_one(self):
        H = zoo.round_s2_base(1.0).structure
        assert H.n == 1
        p = np.array([1.0, 1.0])
        with pytest.raises(NotLcKError):
            lee_form(H, p)
        # the bare components hold the same gate: no division by 2n - 2 = 0
        with pytest.raises(NotLcKError, match="n >= 2"):
            lee_form_components(H, p)


class TestOnePassLeeForm:
    """lee_form_parts evaluates J and the metric once on the DIRECT stencil
    and once at p; every part, and the partials of the J values it keeps,
    is bitwise what the generic route gives."""

    @staticmethod
    def generic_lee(H, p):
        delta = codifferential(H.chart, H.omega, p, k=2).components
        return H.j_form(p, delta) / (2.0 * H.n - 2.0)

    def test_matches_generic_route(self, hopf2, hopf3, flat_inv2, warped_sin,
                                   calabi_sin, rng):
        """On every structure of every zoo entry with n >= 2, for stacked and
        single points, with the metric differenced on a stencil and with its
        derivative where the chart has one."""
        for entry in (hopf2, hopf3, flat_inv2, warped_sin, calabi_sin):
            for H in entry.structures.values():
                stack = H.chart.sample_points(rng, 4).reshape(2, 2, -1)
                for V, p in itertools.product(_variants(H),
                                              (stack, stack[0, 1])):
                    chart = V.chart
                    parts = lee_form_parts(V, p)
                    where = (V.label, chart.metric_derivative_fn, p.shape)
                    assert np.array_equal(parts.theta,
                                          self.generic_lee(V, p)), where
                    assert np.array_equal(
                        parts.gamma, christoffel_components(chart, p)), where
                    assert np.array_equal(
                        parts.dg, chart.metric_jacobian(p)), where
                    dJ = fd.difference(parts.J_around, fd.DIRECT, p.ndim - 1)
                    assert np.array_equal(
                        dJ, fd.gradient(H.J_fn, p, fd.DIRECT)), where
                    assert np.array_equal(
                        parts.omega_partials,
                        fd.gradient(H.omega, p, fd.DIRECT)), where
                    assert np.array_equal(parts.g_inv,
                                          np.linalg.inv(chart.metric(p)))
                    assert np.array_equal(lee_form_components(V, p),
                                          parts.theta)

    def test_metric_error_names_the_one_bad_stencil_point(self, hopf2):
        """A metric that fails SPD at exactly one DIRECT stencil point raises
        MetricError naming that point, as the generic route does."""
        H = hopf2.main_structure
        p = H.chart.center()
        bad = fd.stencil_points(p, fd.DIRECT)[2, 1]     # p - h e_2

        def metric_fn(q):
            g = np.array(H.chart.metric_fn(q))
            g[(np.asarray(q) == bad).all(axis=-1)] *= -1.0
            return g

        H_bad = dataclasses.replace(
            H, chart=dataclasses.replace(H.chart, metric_fn=metric_fn,
                                         metric_derivative_fn=None))
        with pytest.raises(MetricError) as err:
            lee_form_components(H_bad, p)
        assert str(bad) in str(err.value)
        assert "positive definite" in str(err.value)
        with pytest.raises(MetricError) as ref:
            self.generic_lee(H_bad, p)
        assert str(err.value) == str(ref.value)

    def test_base_point_near_a_face(self, hopf2):
        """A base point inside the chart but within the DIRECT stencil extent
        of a face raises ChartDomainError, as the generic route does."""
        H = _stencil(hopf2.main_structure)
        p = H.chart.center()
        p[1] = H.chart.domain[1][0] + 0.5 * fd.DIRECT.extent
        assert H.chart.contains(p)
        with pytest.raises(ChartDomainError) as err:
            lee_form_components(H, p)
        with pytest.raises(ChartDomainError) as ref:
            self.generic_lee(H, p)
        assert str(err.value) == str(ref.value)

    def test_nan_structure_fails_the_lck_gate(self, hopf2):
        """A J field of NaNs gives a NaN residual, which fails the gate."""
        H = _stencil(hopf2.main_structure)
        H_nan = dataclasses.replace(
            H, J_fn=lambda q: np.full(np.shape(q)[:-1] + (4, 4), np.nan))
        with pytest.raises(NotLcKError, match="fails the lcK gate"):
            lee_form(H_nan, H.chart.center())


class TestNestedLee:
    """nested_lee is the one route to nabla theta: it differences the
    Lee-form parts on one NESTED stencil, bitwise as the generic operators
    differentiate the Lee field and the Christoffel symbols."""

    def test_matches_generic_route(self, hopf2, flat_inv2, warped_sin,
                                   calabi_sin, rng):
        for entry in (hopf2, flat_inv2, warped_sin, calabi_sin):
            for H in _variants(entry.main_structure):
                chart = H.chart
                p = chart.sample_points(rng, 1)[0]
                nested = nested_lee(H, p, lee_form_parts(H, p))
                where = (H.label, chart.metric_derivative_fn)
                generic = covariant_derivative_full(
                    chart, lee_field(H), p, (1, 0), stencil=fd.NESTED)
                assert np.array_equal(nested.ntheta, generic), where
                assert np.array_equal(
                    nested.theta_partials,
                    fd.gradient(lee_field(H), p, fd.NESTED)), where
                assert np.array_equal(
                    nested.riemann, riemann(chart, p).components), where
                assert np.array_equal(nabla_theta(H, p), generic)

    def test_stacked_matches_per_point(self, flat_inv2, rng):
        H = _stencil(flat_inv2.main_structure)
        pts = H.chart.sample_points(rng, 4).reshape(2, 2, H.chart.dim)
        stacked = nabla_theta(H, pts)
        single = [[nabla_theta(H, q) for q in row] for row in pts]
        assert np.array_equal(stacked, np.array(single))

    def test_one_pass_evaluates_two_stacks_each(self, hopf2):
        """lee_form_parts evaluates J on its DIRECT stencil and at p, and
        nested_lee, given those parts, does the same on the NESTED stencil
        points only; the parts it returns are those of lee_form_parts
        there."""
        H = _stencil(hopf2.main_structure)
        calls = []

        def J_fn(q):
            calls.append(np.shape(q))
            return H.J_fn(q)

        H_counted = dataclasses.replace(H, J_fn=J_fn)
        p = H.chart.center()
        parts = lee_form_parts(H_counted, p)
        assert calls == [(4, 2, 4), (4,)]
        nested = nested_lee(H_counted, p, parts)
        assert calls[2:] == [(4, 4, 4, 2, 4), (4, 4, 4)]
        around = lee_form_parts(H, fd.stencil_points(p, fd.NESTED))
        for name in type(parts)._fields:
            assert np.array_equal(getattr(nested.around, name),
                                  getattr(around, name)), name

    def test_near_a_face(self, hopf2):
        """A base point within the NESTED extent of a face raises
        ChartDomainError, as the generic route does."""
        H = _stencil(hopf2.main_structure)
        p = H.chart.center()
        p[1] = H.chart.domain[1][0] + 0.5 * fd.NESTED.extent
        with pytest.raises(ChartDomainError) as err:
            nabla_theta(H, p)
        with pytest.raises(ChartDomainError) as ref:
            covariant_derivative_full(H.chart, lee_field(H), p, (1, 0),
                                      stencil=fd.NESTED)
        assert str(err.value) == str(ref.value)



# The side of the coordinate squares of the Stokes route, and the bound on
# |Stokes - stencil| per component of d theta: the worst value measured at
# seed 1 over the cases below is 1.14e-8 (hopf{n=3}, analytic), and the
# bound leaves a margin of 2.6 above it.
STOKES_SIDE = 0.02
STOKES_BOUND = 3e-8


def _dtheta_two_ways(H, p):
    """d theta at p from the NESTED stencil of theta, and by Stokes: the
    period of theta around the coordinate square of side STOKES_SIDE
    centred at p in each plane (i, j), over the square's area."""
    nested = nested_lee(H, p, lee_form_parts(H, p))
    stencil = exterior_of_partials(nested.theta_partials, 1)
    m = H.chart.dim
    stokes = np.zeros((m, m))
    for i, j in itertools.combinations(range(m), 2):
        corner = p.copy()
        corner[[i, j]] -= STOKES_SIDE / 2
        square = coordinate_rectangle(corner, i, j, STOKES_SIDE, STOKES_SIDE,
                                      steps_per_edge=20)
        stokes[i, j] = (loop_integral(H.chart, lee_field(H), square)
                        / STOKES_SIDE ** 2)
        stokes[j, i] = -stokes[i, j]
    return stencil, stokes


def _hermitian_defect(H, delta):
    """H on hopf{n=2} with g_delta = g + delta sin(2 a2) (alpha (x) alpha +
    (alpha o J) (x) (alpha o J)), alpha = da1: J-invariant, so (g_delta, J)
    is Hermitian, and not conformal to g, so d theta ~ delta."""
    chart = H.chart

    def metric_fn(p):
        p = np.asarray(p)
        alpha_j = H.J_fn(p)[..., 1, :]
        h = (np.eye(chart.dim)[1][:, None] * np.eye(chart.dim)[1]
             + alpha_j[..., :, None] * alpha_j[..., None, :])
        bump = delta * np.sin(2.0 * p[..., 2])
        return chart.metric_fn(p) + bump[..., None, None] * h

    return dataclasses.replace(
        H, chart=chart.with_metric(metric_fn, f"{chart.label}_g{delta:g}"))


class TestLeeDifferentialByStokes:
    """The stencil d theta, as classify computes it, against the Lee-form
    period around small coordinate squares, at one sample point."""

    @staticmethod
    def structure(selector, mode):
        entry = report.resolve_manifold(selector)
        if mode == "fd":
            entry = zoo.stencil_only(entry)
        return entry.main_structure

    @staticmethod
    def sample(H):
        return H.chart.sample_points(np.random.default_rng(1), 1,
                                     margin=0.1)[0]

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    @pytest.mark.parametrize("selector", [
        "hopf{n=2}", "flat_inversion{n=2}", "warped{c=sin,base=cp1}",
        "warped{c=cos,base=c2}", "calabi{ell=sin,b=pi}", "euclidean{m=4}",
        "hopf{n=3}", "flat_inversion{n=3}"])
    def test_zoo_entries_agree(self, selector, mode):
        H = self.structure(selector, mode)
        stencil, stokes = _dtheta_two_ways(H, self.sample(H))
        assert np.max(np.abs(stokes - stencil)) < STOKES_BOUND

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    def test_both_routes_see_a_non_conformal_defect(self, mode):
        """At delta = 1e-5 max |d theta_ij| reads 7.5e-6, 250 times the
        bound, and the routes agree to 7.7e-9."""
        H = _hermitian_defect(self.structure("hopf{n=2}", mode), 1e-5)
        stencil, stokes = _dtheta_two_ways(H, self.sample(H))
        assert np.max(np.abs(stokes - stencil)) < STOKES_BOUND
        assert np.max(np.abs(stencil)) >= 100 * STOKES_BOUND
        assert np.max(np.abs(stokes)) >= 100 * STOKES_BOUND
