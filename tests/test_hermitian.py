"""Hermitian-structure tests: fundamental form, Nijenhuis, Lee forms."""

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from lckgeo import fd, zoo
from lckgeo.charts import form_norm
from lckgeo.errors import CompatibilityError, NotLcKError
from lckgeo.hermitian import (HermitianStructure, conformal_rescale,
                              fundamental_form, lck_residual, lee_form,
                              lee_form_components, nijenhuis_residual,
                              nijenhuis_tensor)


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

    return HermitianStructure(chart=chart, J_fn=J_fn, n=m // 2,
                              label="twisted")


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
            omega_n = warped_sin.base.omega_fn(p[2:])
            npt.assert_allclose(om[2:, 2:], f * omega_n, atol=1e-12)

    def test_incompatible_structure_errors(self):
        chart = zoo.round_s2_base(1.0).chart()
        bad = HermitianStructure(chart=chart,
                                 J_fn=lambda p: np.array([[0.0, -1.0], [1.0, 0.0]]),
                                 n=1, label="bad")
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
        dJ = fd.gradient(H.J_fn, p, fd.STEP_DIRECT, order=fd.ORDER_DIRECT)
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
        chart = zoo.round_s2_base(1.0).chart()   # curved chart, constant J
        J = np.array([[0.3, -1.0], [1.09, -0.3]])
        J[:] = J / math.sqrt(abs(np.linalg.det(J)))  # normalize to J^2 ~ -Id
        H = HermitianStructure(chart=chart, J_fn=fd.constant(J), n=1)
        N = nijenhuis_tensor(H, np.array([1.0, 1.0]))
        assert np.max(np.abs(N)) < 1e-9


class TestLeeForm:
    def test_kahler_structures_have_zero_lee(self, calabi_sin, warped_flat, rng):
        for H in (calabi_sin.structures["g+,J+"], calabi_sin.structures["g-,J-"],
                  warped_flat.main_structure):
            for p in H.chart.sample_points(rng, 5):
                data = lee_form(H, p, mode="fd")
                assert data.norm_sq < 1e-10
                assert data.theta.norm() < 1e-6

    def test_flat_inversion_closed_form(self, flat_inv2, flat_inv3, rng):
        """theta = -2 d ln r = -2 x / r^2."""
        for entry in (flat_inv2, flat_inv3):
            H = entry.main_structure
            for p in H.chart.sample_points(rng, 5):
                data = lee_form(H, p, mode="fd")
                expected = -2.0 * p / float(p @ p)
                npt.assert_allclose(data.theta.components, expected, atol=1e-8)
                # J theta (X) = -theta(JX)
                J = H.J(p)
                npt.assert_allclose(data.J_theta.components,
                                    -J.T @ data.theta.components, atol=1e-12)

    def test_calabi_lee_forms(self, calabi_sin, rng):
        """theta_eps = 1/2 eps l(r) dr on (g_ell, J_eps)."""
        for eps, key in ((1.0, "g_ell,J+"), (-1.0, "g_ell,J-")):
            H = calabi_sin.structures[key]
            for p in H.chart.sample_points(rng, 5):
                theta = lee_form_components(H, p, mode="fd")
                expected = np.array([0, 0, 0, 0.5 * eps * math.sin(p[3])])
                npt.assert_allclose(theta, expected, atol=1e-9)

    def test_lee_data_s_tensor_symmetric(self, flat_inv2, rng):
        H = flat_inv2.main_structure
        for p in H.chart.sample_points(rng, 3):
            S = lee_form(H, p, mode="fd").S.components
            assert np.max(np.abs(S - S.T)) < 1e-5

    def test_closedness(self, hopf2, calabi_sin, rng):
        from lckgeo.calculus import exterior_derivative
        from lckgeo.hermitian import lee_field
        for entry in (hopf2, calabi_sin):
            H = entry.main_structure
            for p in H.chart.sample_points(rng, 3):
                d_theta = exterior_derivative(H.chart, lee_field(H, "fd"), p,
                                              k=1, step=1e-3, order=4).components
                assert form_norm(d_theta, H.chart.metric(p)) < 1e-6

    def test_not_lck_gate(self, rng):
        """The 6-dim twisted control fails d Omega = 2 theta ^ Omega loudly."""
        H = twisted_structure(m=6)
        failed = False
        for p in H.chart.sample_points(rng, 10):
            try:
                lee_form(H, p, mode="fd")
            except NotLcKError:
                failed = True
                break
        assert failed
        # the residual really is a structural failure, not stencil noise
        worst = max(lck_residual(H, p, mode="fd")
                    for p in H.chart.sample_points(rng, 5))
        assert worst > 1e-2

    def test_conformal_covariance(self, hopf2, rng):
        """Rescaling g by e^(2u) shifts the Lee form by +du."""
        H = hopf2.main_structure

        def u(p):
            return 0.1 * np.sin(p[..., 1]) * np.cos(p[..., 2])

        def du(p):
            out = np.zeros(np.shape(p))
            out[..., 1] = 0.1 * np.cos(p[..., 1]) * np.cos(p[..., 2])
            out[..., 2] = -0.1 * np.sin(p[..., 1]) * np.sin(p[..., 2])
            return out

        chart_u = conformal_rescale(H.chart, u, du, label="hopf_rescaled")
        H_u = HermitianStructure(chart_u, H.J_fn, H.n, label="hopf_rescaled")
        for p in H.chart.sample_points(rng, 5):
            theta = lee_form_components(H, p, mode="fd")
            theta_u = lee_form_components(H_u, p, mode="fd")
            npt.assert_allclose(theta_u, theta + du(p), atol=1e-3)

    def test_stacked_matches_per_point(self, hopf2, hopf3, flat_inv2,
                                       warped_sin, calabi_sin, rng):
        """Points of shape (..., m) give the per-point Lee forms bit for bit,
        on every structure of every zoo entry, in fd mode and in analytic
        mode where the chart has a metric derivative."""
        for entry in (hopf2, hopf3, flat_inv2, warped_sin, calabi_sin):
            for H in entry.structures.values():
                chart = H.chart
                modes = ["fd"] + ["analytic"] * (
                    chart.metric_derivative_fn is not None)
                pts = chart.sample_points(rng, 6).reshape(2, 3, chart.dim)
                for mode in modes:
                    stacked = lee_form_components(H, pts, mode=mode)
                    single = [[lee_form_components(H, q, mode=mode)
                               for q in row] for row in pts]
                    assert np.array_equal(stacked, np.array(single)), (
                        H.label, mode)

    def test_rejects_complex_dimension_one(self):
        chart = zoo.round_s2_base(1.0).chart()
        H = HermitianStructure(chart, zoo.round_s2_base(1.0).J_fn, n=1)
        with pytest.raises(NotLcKError):
            lee_form(H, np.array([1.0, 1.0]))
