"""Residual-checker tests for the lcK identity suites."""

import dataclasses
import json
import math
import re
import sys
import zlib

import numpy as np
import pytest

from lckgeo import fd, zoo
from lckgeo.calculus import (covariant_partials, exterior_derivative,
                             exterior_of_partials)
from lckgeo.charts import (form_of_endomorphism, raised_norm, segment_loop,
                           vector_norm, wedge)
from lckgeo.cli import main as cli_main
from lckgeo.errors import (ChartDomainError, InconsistencyError, MetricError,
                           NotLcKError, PreconditionError, SingularPointError)
from lckgeo.hermitian import (HermitianStructure, lee_form,
                              lee_form_parts, lee_form_passes)
from lckgeo.identities import (PotentialField, _lee_form_of_d_omega,
                               _pair_parts,
                               average_metric_residuals,
                               classify_structure, commuting_pair_residuals,
                               curvature_j_residuals, einstein_chain_residuals,
                               einstein_deviation, hamiltonian_form_residual,
                               lck_identity_residuals, nabla_j_residual,
                               parallel_field_residuals,
                               s_commutator_residual)
from lckgeo.report import SuiteConfig, resolve_manifold, run

CHAIN_NAMES = ("Sth", "trS", "nablaJth", "diffJth", "lieJth", "codiffth",
               "codiffom", "eqJdel2", "eqJdel3", "summ", "eqf")


# Every check in this module runs in fd mode: on the zoo entries without
# their metric derivatives, so each metric is differenced on a stencil.

@pytest.fixture(scope="module")
def hopf2(hopf2):
    return zoo.stencil_only(hopf2)


@pytest.fixture(scope="module")
def flat_inv2(flat_inv2):
    return zoo.stencil_only(flat_inv2)


@pytest.fixture(scope="module")
def warped_sin(warped_sin):
    return zoo.stencil_only(warped_sin)


@pytest.fixture(scope="module")
def warped_flat(warped_flat):
    return zoo.stencil_only(warped_flat)


@pytest.fixture(scope="module")
def calabi_sin(calabi_sin):
    return zoo.stencil_only(calabi_sin)


@pytest.fixture(scope="module")
def euclid4(euclid4):
    return zoo.stencil_only(euclid4)


def _curvature_j(H, p, x, y):
    parts, _, nested = lee_form_passes(H, p, None)
    return curvature_j_residuals(H, parts, nested, x, y)


class TestNablaJ:
    def test_kahler_vanishes(self, warped_flat, rng):
        H = warped_flat.main_structure
        for p in H.chart.sample_points(rng, 3):
            parts = lee_form_parts(H, p)
            assert nabla_j_residual(parts, rng.standard_normal(4)) < 1e-9

    def test_hopf_sampled(self, hopf2, rng):
        H = hopf2.main_structure
        worst = max(nabla_j_residual(lee_form_parts(H, p),
                                     rng.standard_normal(4))
                    for p in H.chart.sample_points(rng, 25))
        assert worst < 1e-4

    def test_calabi_independent_paths(self, calabi_sin, rng):
        H = calabi_sin.structures["g_ell,J+"]
        worst = max(nabla_j_residual(lee_form_parts(H, p),
                                     rng.standard_normal(4))
                    for p in H.chart.sample_points(rng, 10))
        assert worst < 1e-4


class TestCurvatureJ:
    def test_kahler_both_sides_zero(self, warped_flat, rng):
        H = warped_flat.main_structure
        p = H.chart.sample_points(rng, 1)[0]
        r1, r2 = _curvature_j(H, p, rng.standard_normal(4),
                              rng.standard_normal(4))
        assert r1 < 1e-8 and r2 < 1e-8

    def test_hopf_sampled(self, hopf2, rng):
        H = hopf2.main_structure
        for p in H.chart.sample_points(rng, 8):
            r1, r2 = _curvature_j(H, p, rng.standard_normal(4),
                                  rng.standard_normal(4))
            assert r1 < 1e-4 and r2 < 1e-4

    def test_flat_inversion_contraction_closes(self, flat_inv2, rng):
        """With R = 0 the contraction reduces to delta theta = (1-n)|theta|^2.

        Both the residual and the raw left side must vanish.
        """
        from lckgeo.calculus import riemann
        H = flat_inv2.main_structure
        for p in H.chart.sample_points(rng, 5):
            r1, r2 = _curvature_j(H, p, rng.standard_normal(4),
                                  rng.standard_normal(4))
            assert r1 < 1e-4 and r2 < 1e-4
            R = riemann(H.chart, p)
            assert np.max(np.abs(R)) < 1e-4


class TestSCommutator:
    def test_flat_inversion(self, flat_inv2, rng):
        H = flat_inv2.main_structure
        for p in H.chart.sample_points(rng, 5):
            assert s_commutator_residual(H, p) < 1e-4

    def test_kahler_trivial(self, warped_flat, rng):
        H = warped_flat.main_structure
        p = H.chart.sample_points(rng, 1)[0]
        assert s_commutator_residual(H, p) < 1e-8

    def test_calabi_conformal_reference(self, calabi_sin, rng):
        """(g_+, J_-) is Einstein-free but conformally Kahler: S commutes."""
        H = calabi_sin.pair.J
        for p in H.chart.sample_points(rng, 5):
            assert s_commutator_residual(H, p) < 1e-4


class TestEinsteinChain:
    def test_flat_inversion_all_residuals(self, flat_inv2, rng):
        H = flat_inv2.main_structure
        worst = {}
        for p in H.chart.sample_points(rng, 15):
            res = einstein_chain_residuals(H, p, 0.0)
            for k, v in res.items():
                worst[k] = max(worst.get(k, 0.0), v)
        assert set(worst) == set(CHAIN_NAMES)
        for name, value in worst.items():
            assert value < 1e-3, f"{name}: {value:.2e}"

    def test_kahler_flat_trivial(self, euclid4, rng):
        H = euclid4.structures["flat"]
        res = einstein_chain_residuals(H, np.zeros(4), 0.0)
        for name, value in res.items():
            assert value < 1e-8, name

    def test_eqf_closed_form_at_unit_radius(self, flat_inv2):
        """f = delta theta + |theta|^2 = -4 + 4 = 0 at r = 1 for n = 2."""
        from lckgeo.calculus import codifferential
        from lckgeo.hermitian import lee_field, lee_form_components
        H = flat_inv2.main_structure
        p = np.full(4, 0.5)
        theta = lee_form_components(H, p)
        norm_sq = float(theta @ np.linalg.solve(H.chart.metric(p), theta))
        delta_theta = float(codifferential(H.chart, lee_field(H), p,
                                           k=1))
        assert abs(delta_theta + norm_sq) < 1e-4
        res = einstein_chain_residuals(H, p, 0.0)
        assert res["eqf"] < 1e-3

    def test_nabla_theta_evaluated_once_per_point(self, flat_inv2):
        """The DEEP stencils of S, JS, delta theta and f share nabla theta."""
        H = flat_inv2.main_structure
        calls = [0]

        def counted(q):
            calls[0] += 1
            return H.chart.metric_fn(q)

        chart = dataclasses.replace(H.chart, metric_fn=counted)
        counted_H = dataclasses.replace(H, chart=chart)
        einstein_chain_residuals(counted_H, np.full(4, 0.5), 0.0)
        assert calls[0] < 7500

    def test_wrong_lambda_rejected(self, flat_inv2):
        H = flat_inv2.main_structure
        with pytest.raises(PreconditionError):
            einstein_chain_residuals(H, np.full(4, 0.5), 1.0)

    def test_einstein_deviation_zero_on_flat(self, flat_inv2, rng):
        H = flat_inv2.main_structure
        p = H.chart.sample_points(rng, 1)[0]
        assert einstein_deviation(H, p, 0.0) < 1e-5


class TestNearAFace:
    """A point inside the chart but within a stencil's extent of a face
    raises ChartDomainError naming it with that stencil's extent."""

    @staticmethod
    def near_face(chart, stencil):
        p = chart.center()
        p[1] = chart.domain[1][0] + 0.5 * stencil.extent
        assert chart.inside(p)
        return p

    @staticmethod
    def message(chart, p, stencil):
        return (f"point {p} outside chart '{chart.label}' domain with "
                f"margin {stencil.extent}")

    def test_einstein_chain_within_the_deep_extent(self, flat_inv2):
        H = flat_inv2.main_structure
        p = self.near_face(H.chart, fd.DEEP)
        with pytest.raises(ChartDomainError) as err:
            einstein_chain_residuals(H, p, 0.0)
        assert str(err.value) == self.message(H.chart, p, fd.DEEP)

    def test_curvature_j_within_the_nested_extent(self, hopf2):
        """Through the lck-identities suite, whose curvature residuals read
        the NESTED pass."""
        chart = hopf2.main_structure.chart
        p = self.near_face(chart, fd.NESTED)
        with pytest.raises(ChartDomainError) as err:
            run(SuiteConfig(manifold="hopf{n=2}", suites=("lck-identities",),
                            at=tuple(p)))
        assert str(err.value) == self.message(chart, p, fd.NESTED)

    def test_hamiltonian_form_within_the_direct_extent(self, calabi_sin):
        I, J = calabi_sin.pair.I, calabi_sin.pair.J
        p = self.near_face(I.chart, fd.DIRECT)
        with pytest.raises(ChartDomainError) as err:
            hamiltonian_form_residual(I, J, p, np.ones(4), PotentialField(J))
        assert str(err.value) == self.message(I.chart, p, fd.DIRECT)


class TestParallelField:
    def test_warped_branch_values(self, warped_sin, rng):
        """a = 0, b = c'(t) on the warped chart (the gcK branch)."""
        H = warped_sin.main_structure
        for p in H.chart.sample_points(rng, 5):
            res = parallel_field_residuals(H, p, warped_sin.parallel_field)
            assert res["nablaJV"] < 1e-4
            assert res["ddJV"] < 1e-4
            assert abs(res["a"]) < 1e-9
            assert abs(res["b"] - math.cos(p[1])) < 1e-8
            assert res["ab"] < 1e-9

    def test_hopf_branch_values(self, hopf2, rng):
        """a = |theta| = 1, b = 0 on the Hopf chart (the Vaisman branch)."""
        H = hopf2.main_structure
        for p in H.chart.sample_points(rng, 5):
            res = parallel_field_residuals(H, p, hopf2.parallel_field)
            assert res["nablaJV"] < 1e-4 and res["ddJV"] < 1e-4
            assert abs(res["a"] - 1.0) < 1e-8
            assert abs(res["b"]) < 1e-8

    def test_kahler_product_trivial(self, warped_flat, rng):
        H = warped_flat.main_structure
        p = H.chart.sample_points(rng, 1)[0]
        res = parallel_field_residuals(H, p, warped_flat.parallel_field)
        assert res["nablaJV"] < 1e-9 and res["ddJV"] < 1e-9
        assert abs(res["a"]) < 1e-12 and abs(res["b"]) < 1e-12

    def test_non_parallel_field_rejected(self, warped_sin):
        H = warped_sin.main_structure
        v = np.array([0.0, 1.0, 0.0, 0.0])   # d_t is not parallel
        with pytest.raises(PreconditionError):
            parallel_field_residuals(H, H.chart.center(), v)


class TestCommutingPair:
    def test_calabi_all_residuals(self, calabi_sin, rng):
        I, J = calabi_sin.pair.I, calabi_sin.pair.J
        for p in I.chart.sample_points(rng, 8):
            res = commuting_pair_residuals(I, J, p, rng.standard_normal(4))
            for name in ("commute", "traceIJ", "to", "sigma", "deromega"):
                assert res[name] < 1e-4, name
            assert res["Itheta"] < 1e-5
            for name in ("eqJ", "nablath", "et"):
                assert res[name] < 1e-3, name

    def test_sign_flip_detected(self, calabi_sin, rng):
        """Replacing I by -I flips I theta: |I theta - J theta| goes large."""
        I, J = calabi_sin.pair.I, calabi_sin.pair.J
        minus_I = HermitianStructure(I.chart, lambda q: -I.J(q),
                                     label="minus_I")
        p = I.chart.sample_points(rng, 1)[0]
        res = commuting_pair_residuals(minus_I, J, p)
        assert res["Itheta"] > 0.1
        theta = J.J(p)  # just to keep shape handy
        g_inv = np.linalg.inv(I.chart.metric(p))
        from lckgeo.hermitian import lee_form_components
        th = lee_form_components(J, p)
        i_th = -minus_I.J(p).T @ th
        j_th = -J.J(p).T @ th
        total = i_th + j_th
        assert math.sqrt(abs(total @ g_inv @ total)) < 1e-8

    def test_a_second_metric_is_rejected(self, calabi_sin):
        """I on a chart of the same label but the metric 4 g: both pair
        checks read one metric for I and J, so they refuse the two."""
        I, J = calabi_sin.pair.I, calabi_sin.pair.J
        scaled = dataclasses.replace(I, chart=I.chart.with_metric(
            lambda q: 4.0 * I.chart.metric_fn(q), I.chart.label))
        p = I.chart.center()
        with pytest.raises(PreconditionError, match="share one chart metric"):
            commuting_pair_residuals(scaled, J, p)
        with pytest.raises(PreconditionError, match="share one chart metric"):
            hamiltonian_form_residual(scaled, J, p, np.ones(4),
                                      PotentialField(J))

    @pytest.mark.parametrize("check", ["commuting-pair", "hamiltonian-form"])
    def test_stencil_metric_is_validated(self, calabi_sin, check, rng):
        """Both pair checks read the metric on the DIRECT stencil of p through
        the validation gate: a metric that is NaN at one stencil point, bit
        for bit, raises MetricError naming that point.  (p is off the chart
        centre, where the potential's segment starts.)"""
        I, J = calabi_sin.pair.I, calabi_sin.pair.J
        p = I.chart.sample_points(rng, 1)[0]
        bad = fd.stencil_points(p, fd.DIRECT)[2, 1]     # p - h e_2
        metric_fn = I.chart.metric_fn

        def broken(q):
            g = np.array(metric_fn(q), dtype=float)
            g[(np.asarray(q) == bad).all(axis=-1)] = np.nan
            return g

        chart = dataclasses.replace(I.chart, metric_fn=broken)
        I, J = (dataclasses.replace(H, chart=chart) for H in (I, J))
        with pytest.raises(MetricError) as err:
            if check == "commuting-pair":
                commuting_pair_residuals(I, J, p, np.ones(4))
            else:
                hamiltonian_form_residual(I, J, p, np.ones(4),
                                          PotentialField(J))
        assert str(err.value) == (
            f"metric not finite at {bad} on '{chart.label}'")

    def test_singular_point_guard(self, calabi_sin, rng):
        """theta = 0 input (a Kahler J) trips the |theta|^2 division guard."""
        I = calabi_sin.pair.I
        with pytest.raises(SingularPointError):
            commuting_pair_residuals(I, I, I.chart.center())


class TestLeePassStencilValues:
    """parallel-field and commuting-pair difference the J and g values that
    the Lee-form pass holds.  Their residuals are bitwise those of the
    generic route kept here, which evaluates each differenced field on the
    DIRECT stencil again, in both modes."""

    @staticmethod
    def generic_parallel(H, p, v):
        """nablaJV and ddJV from the fields JV and its lowering."""
        parts = lee_form_parts(H, p)
        g, g_inv, J, theta, omega = (parts.g, parts.g_inv, parts.J,
                                     parts.theta, parts.omega)
        a, jv = float(theta @ v), J @ v
        b = float(theta @ jv)
        njv = covariant_partials(
            fd.gradient(lambda q: H.J(q) @ v, p, fd.DIRECT), jv, parts.gamma,
            (0, 1))
        rows = []
        for c, x in enumerate(np.eye(len(p))):
            rows.append(float(g[c] @ v) * (-b * v + a * jv) + b * x
                        - float(g[c] @ jv) * (a * v + b * jv) - a * (J @ x))
        L, Rh = njv, np.array(rows)
        norms = [raised_norm(g @ L.T, g_inv), raised_norm(g @ Rh.T, g_inv)]
        nabla_jv = raised_norm(g @ (L - Rh).T, g_inv) / (1.0 + max(norms))
        d_jv = exterior_derivative(
            H.chart, lambda q: np.matvec(H.chart.metric_fn(q), H.J(q) @ v), p,
            k=1, stencil=fd.DIRECT)
        rhs = 2.0 * a * (wedge(g @ v, g @ jv) - omega)
        norms = [raised_norm(d_jv, g_inv), raised_norm(rhs, g_inv),
                 2.0 * abs(a) * raised_norm(omega, g_inv)]
        return nabla_jv, raised_norm(d_jv - rhs, g_inv) / (1.0 + max(norms))

    @staticmethod
    def generic_deromega(I, J, p, x):
        """deromega from the field sigma = 1/2 (Omega^I + Omega^J)."""
        parts = lee_form_parts(J, p)
        g, g_inv, theta = parts.g, parts.g_inv, parts.theta
        Im = I.J(p)
        i_theta = -Im.T @ theta

        def sigma_of(q):
            gq = np.asarray(I.chart.metric_fn(q), dtype=float)
            return 0.5 * (form_of_endomorphism(I.J(q), gq)
                          + form_of_endomorphism(J.J(q), gq))

        sigma = 0.5 * (form_of_endomorphism(Im, g)
                       + form_of_endomorphism(parts.J, g))
        nsigma = covariant_partials(fd.gradient(sigma_of, p, fd.DIRECT),
                                    sigma, parts.gamma, (2, 0))
        lhs = np.tensordot(x, nsigma, axes=(0, 0))
        rhs = (0.5 * (wedge(g @ x, i_theta) - wedge(g @ (Im @ x), theta))
               - float(theta @ x) * sigma)
        norms = [raised_norm(lhs, g_inv), raised_norm(rhs, g_inv)]
        return raised_norm(lhs - rhs, g_inv) / (1.0 + max(norms))

    @pytest.mark.parametrize("selector", ["hopf{n=2}", "warped{c=cos,base=c2}"])
    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    def test_parallel_field(self, selector, mode, rng):
        entry = resolve_manifold(selector)
        if mode == "fd":
            entry = zoo.stencil_only(entry)
        H, v = entry.main_structure, entry.parallel_field
        for p in H.chart.sample_points(rng, 3):
            res = parallel_field_residuals(H, p, v)
            assert (res["nablaJV"], res["ddJV"]) == self.generic_parallel(
                H, p, v)

    @pytest.mark.parametrize("mode", ["fd", "analytic"])
    def test_commuting_pair(self, mode, rng):
        entry = resolve_manifold("calabi{ell=sin,b=pi}")
        if mode == "fd":
            entry = zoo.stencil_only(entry)
        I, J = entry.pair.I, entry.pair.J
        for p in I.chart.sample_points(rng, 3):
            x = rng.standard_normal(4)
            assert (commuting_pair_residuals(I, J, p, x)["deromega"]
                    == self.generic_deromega(I, J, p, x))


class TestPairParts:
    """_pair_parts evaluates I once, on the DIRECT stencil points and then
    the points."""

    @staticmethod
    def logged(I, log, bad=()):
        """I with a J_fn that logs each call's points and raises ValueError
        naming the first of its points in ``bad``, in C order."""
        def J_fn(q):
            q = np.asarray(q)
            log.append(np.array(q))
            hit = np.zeros(q.shape[:-1], dtype=bool)
            for point in bad:
                hit |= (q == point).all(axis=-1)
            if hit.any():
                raise ValueError(f"I undefined at {q[hit][0]}")
            return I.J_fn(q)
        return dataclasses.replace(I, J_fn=J_fn)

    def test_one_call_of_I(self, calabi_sin, rng):
        """One call, and I and Omega^I around p are those of two calls."""
        I, J = calabi_sin.pair.I, calabi_sin.pair.J
        p = I.chart.sample_points(rng, 4).reshape(2, 2, 4)
        around = fd.stencil_points(p, fd.DIRECT)
        parts = lee_form_parts(J, p)
        log = []
        Im, omega_i_around, _, _ = _pair_parts(self.logged(I, log), parts, p)
        assert len(log) == 1
        assert np.array_equal(log[0], np.concatenate(
            [around.reshape(-1, 4), p.reshape(-1, 4)]))
        assert np.array_equal(Im, I.J(p))
        assert np.array_equal(omega_i_around, form_of_endomorphism(
            I.J(around), parts.g_around))

    def test_errors_are_those_of_two_calls(self, calabi_sin, rng):
        """I at p, then on the DIRECT stencil around it: where I raises at
        a stencil point of the first point and at the second point, the
        second point is named; where only at a stencil point, that one."""
        I, J = calabi_sin.pair.I, calabi_sin.pair.J
        p = I.chart.sample_points(rng, 2)
        around = fd.stencil_points(p, fd.DIRECT)
        parts = lee_form_parts(J, p)
        for bad, named in (([around[0, 1, 0], p[1]], p[1]),
                           ([around[1, 3, 1]], around[1, 3, 1])):
            I_bad = self.logged(I, [], bad)
            with pytest.raises(ValueError) as err:
                _pair_parts(I_bad, parts, p)
            with pytest.raises(ValueError) as ref:
                I_bad.J(p)
                I_bad.J(around)
            assert str(err.value) == str(ref.value)
            assert str(named) in str(err.value)


class TestHamiltonianForm:
    def test_calabi_sampled(self, calabi_sin, rng):
        I, J = calabi_sin.pair.I, calabi_sin.pair.J
        pot = PotentialField(J)
        worst = max(hamiltonian_form_residual(I, J, p, rng.standard_normal(4),
                                              pot)
                    for p in I.chart.sample_points(rng, 10))
        assert worst < 1e-3

    def test_zero_direction(self, calabi_sin):
        I, J = calabi_sin.pair.I, calabi_sin.pair.J
        pot = PotentialField(J)
        res = hamiltonian_form_residual(I, J, I.chart.center(), np.zeros(4),
                                        pot)
        assert res == 0.0

    def test_potential_path_independence(self, calabi_sin, rng):
        J = calabi_sin.pair.J
        pot = PotentialField(J)
        p = J.chart.sample_points(rng, 1)[0]
        waypoint = J.chart.sample_points(rng, 1)[0]
        detour = pot(waypoint) + pot.increment(waypoint, p, nodes=32)
        assert abs(pot(p) - detour) < 1e-6
        q = p + np.array([0.01, 0.0, -0.01, 0.02])
        assert abs(pot(q) - (pot(p) + pot.increment(p, q, nodes=16))) < 1e-9


class TestAverageMetric:
    def test_calabi_field_equations(self, calabi_sin, rng):
        avg = calabi_sin.average
        pair_J = calabi_sin.pair.J
        for p in avg.chart.sample_points(rng, 6):
            res = average_metric_residuals(avg, p, rng.standard_normal(4),
                                           pair_J=pair_J)
            for name in ("der0theta", "der0Jxi", "der0xi", "derIxi", "derzeta"):
                assert res[name] < 1e-3, name
            assert res["killing"] < 1e-4
            assert res["theta0_vs_pair"] < 1e-4

    def test_singular_xi_guard(self, calabi_sin):
        """A Kahler structure has theta0 = 0, so xi = 0: singular point."""
        kahler = calabi_sin.pair.I
        with pytest.raises(SingularPointError):
            average_metric_residuals(kahler, kahler.chart.center())


class TestClassify:
    def test_hopf_vaisman_with_period(self, hopf2, rng):
        H = hopf2.main_structure
        pts = H.chart.sample_points(rng, 10)
        out = classify_structure(H, pts, hopf2.loops)
        assert out.kind == "Vaisman"
        periods = dict(out.periods)
        assert abs(periods["s1_generator"] - 2.0 * math.pi) < 1e-4

    def test_calabi_gck(self, calabi_sin, rng):
        H = calabi_sin.main_structure
        pts = H.chart.sample_points(rng, 10)
        out = classify_structure(H, pts, calabi_sin.loops)
        assert out.kind == "gcK"

    def test_flat_standard_kahler(self, euclid4, rng):
        H = euclid4.structures["flat"]
        pts = H.chart.sample_points(rng, 5)
        assert classify_structure(H, pts, {}).kind == "Kahler"

    @pytest.mark.parametrize("name, loops", [
        ("flat_inv2", False), ("hopf2", False), ("hopf2", True)])
    def test_no_samples_raise_before_any_evaluation(self, request, name,
                                                    loops):
        """No samples give no Lee-form evidence, so there is no kind to
        answer: gcK flat inversion and Vaisman Hopf would both read
        Kahler, and Hopf with its loops an inconsistency.  The error comes
        before the Lee form or a loop period is evaluated."""
        entry = request.getfixturevalue(name)
        H = entry.main_structure

        def unreachable(q):
            raise AssertionError("a field was evaluated")

        silent = dataclasses.replace(H, J_fn=unreachable)
        with pytest.raises(PreconditionError,
                           match="need at least one sample, got 0"):
            classify_structure(silent, np.empty((0, 4)),
                               entry.loops if loops else {})

    def test_scale_invariance(self, calabi_sin, rng):
        """A constant homothety leaves the classification unchanged."""
        H = calabi_sin.main_structure
        scaled = HermitianStructure(H.chart.with_metric(
            lambda q: 100.0 * H.chart.metric_fn(q), "scaled"), H.J_fn,
            label="scaled")
        pts = H.chart.sample_points(rng, 6)
        k1 = classify_structure(H, pts, {}).kind
        k2 = classify_structure(scaled, pts, {}).kind
        assert k1 == k2 == "gcK"

    def test_strict_candidate_branch(self, calabi_sin, rng):
        """A synthetic open 'loop' with a real period flags the candidate."""
        H = calabi_sin.main_structure
        pts = H.chart.sample_points(rng, 5)
        p0 = H.chart.center().copy()
        p0[3] -= 0.3
        fake = segment_loop(p0, np.array([0.0, 0.0, 0.0, 0.6]), steps=100)
        out = classify_structure(H, pts, {"fake": fake})
        assert out.kind == "strictly-lcK-candidate"

    def test_nan_structure_fails_the_lck_gate(self, hopf2):
        """A J field of NaNs gives a NaN lcK residual: NotLcKError, where
        the gate used to let it through to a Kahler verdict."""
        H = hopf2.main_structure
        H_nan = dataclasses.replace(
            H, J_fn=lambda q: np.full(np.shape(q)[:-1] + (4, 4), np.nan))
        with pytest.raises(NotLcKError, match="fails the lcK gate"):
            classify_structure(H_nan, [H.chart.center()], {})

    def test_nan_evidence_is_not_dropped(self, hopf2):
        """J is NaN near the second sample but off its DIRECT stencil: the
        lcK residual there is finite, while nabla theta and d theta, read on
        the wider NESTED stencil, are NaN.  They fail the gate instead of
        losing to the first sample's values in max(old, new)."""
        H = hopf2.main_structure
        p0 = H.chart.center()
        p1 = p0 + np.array([0.0, 0.3, 0.0, 0.0])

        def J_fn(q):
            J = np.array(H.J_fn(q))
            gap = np.abs(np.asarray(q) - p1).max(axis=-1)
            J[(gap > 1e-4) & (gap < 0.1)] = np.nan
            return J

        H_nan = dataclasses.replace(H, J_fn=J_fn)
        with pytest.raises(NotLcKError, match="NaN Lee-form evidence"):
            classify_structure(H_nan, [p0, p1], {})

    def test_the_first_samples_error_is_raised(self, hopf2):
        """The Lee-form evidence of the samples is one stacked pass.  J is
        NaN on the DIRECT stencil of the second sample, which fails the lcK
        gate there, and near the first sample off its DIRECT stencil, which
        passes the gate and gives NaN evidence, a later stage.  The stacked
        pass meets the second sample's gate first; the samples checked one
        by one raise the first sample's error, as a loop over them does."""
        H = hopf2.main_structure
        p0 = H.chart.center()
        p1 = p0 + np.array([0.0, 0.6, 0.0, 0.0])

        def J_fn(q):
            J = np.array(H.J_fn(q))
            gap0 = np.abs(np.asarray(q) - p0).max(axis=-1)
            gap1 = np.abs(np.asarray(q) - p1).max(axis=-1)
            J[((gap0 > 1e-4) & (gap0 < 0.1)) | (gap1 < 1e-4)] = np.nan
            return J

        H_nan = dataclasses.replace(H, J_fn=J_fn)
        with pytest.raises(NotLcKError, match="fails the lcK gate"):
            classify_structure(H_nan, [p1], {})
        with pytest.raises(NotLcKError) as err:
            classify_structure(H_nan, [p0, p1], {})
        assert str(err.value).startswith(
            f"'{H.label}' has NaN Lee-form evidence at {p0}: ")

    def test_nan_period_is_not_dropped(self, hopf2):
        """J is NaN away from the one sample, so the samples pass and the
        s1_generator period is NaN: it fails the gate instead of losing to
        the other period in max()."""
        H = hopf2.main_structure
        p0 = H.chart.center()

        def J_fn(q):
            J = np.array(H.J_fn(q))
            J[np.abs(np.asarray(q) - p0).max(axis=-1) > 0.1] = np.nan
            return J

        H_nan = dataclasses.replace(H, J_fn=J_fn)
        loops = {"none": segment_loop(p0, np.zeros(4), steps=4),
                 "s1_generator": hopf2.loops["s1_generator"]}
        with pytest.raises(NotLcKError, match="NaN Lee-form period"):
            classify_structure(H_nan, [p0], loops)

    def test_ambiguous_period_band_rejected(self, calabi_sin, rng):
        """Periods between tol_ode and 10 tol_ode are refused, not guessed."""
        H = calabi_sin.main_structure
        pts = H.chart.sample_points(rng, 3)
        p0 = H.chart.center().copy()
        # period = phi(r + dr) - phi(r) ~ (l/2) dr: aim for ~3e-6
        dr = 3e-6 / (0.5 * math.sin(p0[3]))
        fake = segment_loop(p0, np.array([0.0, 0.0, 0.0, dr]), steps=50)
        with pytest.raises(InconsistencyError):
            classify_structure(H, pts, {"fake": fake})


def test_to_antisymmetry_near_small_lee_locus(calabi_sin, rng):
    """theta ^ Omega^J = -theta ^ Omega^I holds approaching the r edges,
    where l(r) (and hence |theta|) is smallest on the chart."""
    I, J = calabi_sin.pair.I, calabi_sin.pair.J
    lo, hi = I.chart.domain[3]
    for r in (lo + 0.01, hi - 0.01):
        p = I.chart.center().copy()
        p[3] = r
        res = commuting_pair_residuals(I, J, p, rng.standard_normal(4))
        assert res["to"] < 1e-4
        assert res["sigma"] < 1e-4


def _sampled_checks(entry):
    """Each sampled check of the entry as a function of the points and one
    direction at each, with the entry's fixed arguments bound."""
    H = entry.main_structure
    checks = {"lck-identities": lambda p, x: lck_identity_residuals(
        H, p, x, x[..., ::-1])}
    if entry.einstein_lambda is not None:
        checks["einstein-chain"] = lambda p, x: einstein_chain_residuals(
            H, p, entry.einstein_lambda)
    if entry.parallel_field is not None:
        checks["parallel-field"] = lambda p, x: parallel_field_residuals(
            H, p, entry.parallel_field)
    if entry.pair is not None:
        I, J = entry.pair.I, entry.pair.J
        pot = PotentialField(J)
        checks["commuting-pair"] = lambda p, x: commuting_pair_residuals(
            I, J, p, x)
        checks["hamiltonian-form"] = lambda p, x: {
            "tilom": hamiltonian_form_residual(I, J, p, x, pot)}
        checks["average-metric"] = lambda p, x: average_metric_residuals(
            entry.average, p, x, pair_J=J)
    return checks


@pytest.mark.parametrize("mode", ["fd", "analytic"])
@pytest.mark.parametrize("selector", [
    "hopf{n=3}", "flat_inversion{n=2}", "warped{c=cos,base=c2}",
    "calabi{ell=sin,b=pi}"])
def test_stacked_checks_are_the_per_sample_loop(selector, mode):
    """Every sampled check on a stack of points gives, bit for bit, what it
    gives at each point alone, the chart centre (the potential's base point)
    among them."""
    entry = resolve_manifold(selector)
    if mode == "fd":
        entry = zoo.stencil_only(entry)
    chart = entry.main_structure.chart
    rng = np.random.default_rng(4)
    points = np.vstack([chart.sample_points(rng, 3), [chart.center()]])
    directions = rng.standard_normal(points.shape)
    for name, check in _sampled_checks(entry).items():
        stacked = check(points, directions)
        for k, (p, x) in enumerate(zip(points, directions)):
            alone = check(p, x)
            assert list(alone) == list(stacked), name
            for key, value in alone.items():
                assert np.array_equal(value, stacked[key][k],
                                      equal_nan=True), (name, key, k)


@pytest.mark.parametrize("selector", ["hopf{n=2}", "warped{c=sin,base=cp1}"])
def test_lck_identity_residuals_are_the_suite_at_one_point(selector, capsys):
    """At one point the lck-identities suite reports, as each residual's
    max, exactly what the check returns there; with ``--at`` its two
    directions are the first two draws of the suite's generator."""
    H = zoo.stencil_only(resolve_manifold(selector)).main_structure
    p = H.chart.sample_points(np.random.default_rng(0), 1)[0]
    rng = np.random.default_rng((7, zlib.crc32(b"lck-identities")))
    x, y = (rng.standard_normal((1, H.chart.dim))[0] for _ in range(2))
    res = lck_identity_residuals(H, p, x, y)
    assert list(res) == ["nablaJ", "dOmega", "deltaOmega", "RJ", "RJcontr"]
    assert cli_main(["run", "--manifold", selector, "--suite",
                     "lck-identities", "--json", "-",
                     "--at=" + ",".join(repr(float(c)) for c in p)]) == 0
    reported = json.loads(capsys.readouterr().out)["suites"][0]["residuals"]
    assert {name: rec["max"] for name, rec in reported.items()} == res


def _least_squares_lee_form(parts):
    """theta from d Omega = 2 theta ^ Omega by least squares over the m^3
    components of d Omega, one point at a time."""
    m = parts.g.shape[-1]
    d_omega = exterior_of_partials(parts.omega_partials, 2, 1)
    return np.array([
        np.linalg.lstsq(np.stack([2.0 * wedge(e, omega).reshape(-1)
                                  for e in np.eye(m)], axis=-1),
                        d.reshape(-1), rcond=None)[0]
        for omega, d in zip(parts.omega, d_omega)])


@pytest.mark.parametrize("mode", ["fd", "analytic"])
@pytest.mark.parametrize("selector", [
    "hopf{n=2}", "hopf{n=3}", "flat_inversion{n=2}", "flat_inversion{n=3}",
    "warped{c=sin,base=cp1}", "warped{c=cos,base=c2}",
    "calabi{ell=sin,b=pi}", "euclidean{m=4}"])
def test_lee_form_of_d_omega_is_the_least_squares_solution(selector, mode):
    """deltaOmega's theta, the contraction of d Omega with Omega, is the
    least-squares solution of d Omega = 2 theta ^ Omega, to |difference|_g
    / (1 + |theta|_g) within 1e-10 on hopf{n=3} and 2e-15 elsewhere, over
    100 samples at seed 1.  Measured: 4.45e-11 on hopf{n=3}, whose stencil
    d Omega is furthest from the form 2 theta ^ Omega, and at most 5.0e-16
    on the others, in both modes; the margins are x2.2 and x4."""
    entry = resolve_manifold(selector)
    if mode == "fd":
        entry = zoo.stencil_only(entry)
    H = entry.main_structure
    parts = lee_form_parts(
        H, H.chart.sample_points(np.random.default_rng(1), 100))
    reference = _least_squares_lee_form(parts)
    diff = _lee_form_of_d_omega(parts, H.n) - reference
    bound = 1e-10 if selector == "hopf{n=3}" else 2e-15
    assert np.max(vector_norm(diff, parts.g_inv)
                  / (1.0 + vector_norm(reference, parts.g_inv))) < bound


@pytest.mark.parametrize("manifold, suite", [
    ("hopf{n=2}", "lck-identities"),
    ("calabi{ell=sin,b=pi}", "commuting-pair")])
def test_per_sample_path_avoids_numpy_axis_wrappers(monkeypatch, manifold,
                                                    suite):
    """np.tensordot and np.moveaxis normalise their axes in Python, which
    cost more than the small products they wrap.  Counted over the calls
    lckgeo itself makes (numpy's own calls, such as leggauss's, are left
    out), a 2-sample run makes none: the direction contractions of
    nabla_j_residual and commuting_pair_residuals are one matmul on the
    stack of samples."""
    calls = {"tensordot": 0, "moveaxis": 0}
    for name in calls:
        def counted(*args, _fn=getattr(np, name), _name=name, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("lckgeo"):
                calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    run(SuiteConfig(manifold=manifold, suites=(suite,), samples=2, seed=1))
    assert calls == {"tensordot": 0, "moveaxis": 0}


def _near_face(chart, reach):
    """The chart centre moved to ``reach`` inside the lower face of its
    second coordinate."""
    p = chart.center().copy()
    p[1] = chart.domain[1][0] + reach
    return p


class TestFusedPassErrors:
    """Each check evaluates its Lee-form passes in one call; an input that
    fails a gate between two passes and also a later pass raises the gate's
    error, as the passes one after the other do."""

    def _nan_j(self, H):
        return dataclasses.replace(
            H, J_fn=lambda q: np.full(np.shape(q)[:-1] + (4, 4), np.nan))

    def test_lck_gate_before_the_nested_margin(self, hopf2):
        """J is NaN, so the lcK gate fails at p, and p lies inside the
        NESTED extent of a face, so the NESTED pass fails too."""
        H = self._nan_j(hopf2.main_structure)
        p = _near_face(H.chart, 0.5 * fd.NESTED.extent)
        with pytest.raises(ChartDomainError):
            H.chart.require_inside(p, margin=fd.NESTED.extent)
        message = (f"structure '{H.label}' fails the lcK gate at {p}: "
                   "|dOmega - 2 theta ^ Omega| = nan")
        for check in (lambda: classify_structure(H, [p], {}),
                      lambda: lee_form(H, p)):
            with pytest.raises(NotLcKError) as err:
                check()
            assert str(err.value) == message

    def test_einstein_gate_before_the_deep_passes(self, flat_inv2):
        """lambda = 1 fails the Einstein gate of flat_inversion, and p lies
        inside the DEEP extent of a face; with lambda = 0 the gate passes
        and the DEEP margin raises."""
        H = flat_inv2.main_structure
        p = _near_face(H.chart, 0.5 * fd.DEEP.extent)
        with pytest.raises(PreconditionError) as err:
            einstein_chain_residuals(H, p, 1.0)
        assert str(err.value) == (f"structure '{H.label}' is not Einstein "
                                  f"with lambda=1.0 at {p}")
        with pytest.raises(ChartDomainError):
            einstein_chain_residuals(H, p, 0.0)

    def test_singular_gate_before_the_nested_margin(self, calabi_sin):
        """theta = 0 for the Kahler I as the lcK partner fails the |theta|^2
        gate, and p lies inside the NESTED extent of a face."""
        I = calabi_sin.pair.I
        p = _near_face(I.chart, 0.5 * fd.NESTED.extent)
        with pytest.raises(SingularPointError, match=r"^\|theta\|\^2 = .* at "
                           + re.escape(f"{p}: the sigma- and J-reconstruction")):
            commuting_pair_residuals(I, I, p, np.ones(4))

    def test_direction_error_before_the_nested_margin(self, calabi_sin):
        """A direction of the wrong shape is broadcast between the passes of
        average-metric and of commuting-pair, before the NESTED margin."""
        p = _near_face(calabi_sin.average.chart, 0.5 * fd.NESTED.extent)
        for check in (
                lambda: average_metric_residuals(calabi_sin.average, p,
                                                 np.ones(3)),
                lambda: commuting_pair_residuals(calabi_sin.pair.I,
                                                 calabi_sin.pair.J, p,
                                                 np.ones(3))):
            with pytest.raises(ValueError, match="broadcast"):
                check()


class TestOneLeeCallPerStack:
    """The Lee-form passes of a check are one lee_form_parts call on all the
    points of its stack, and the first rule pairs of classify's periods are
    one more per block of pieces."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from lckgeo import hermitian
        shapes = []
        parts = hermitian.lee_form_parts

        def counted(H, p):
            shapes.append(np.shape(p))
            return parts(H, p)

        monkeypatch.setattr(hermitian, "lee_form_parts", counted)
        return shapes

    def test_pointwise_checks(self, calls, hopf2, calabi_sin, rng):
        H = hopf2.main_structure
        pts = H.chart.sample_points(rng, 5)
        lck_identity_residuals(H, pts, np.ones((5, 4)), np.ones((5, 4)))
        assert calls == [(5 + 5 * 16, 4)]
        avg = calabi_sin.average
        calls.clear()
        average_metric_residuals(avg, avg.chart.sample_points(rng, 5))
        assert calls == [(5 + 5 * 16, 4)]

    def test_classify(self, calls, hopf2, rng):
        """Two samples and their NESTED stencils, then the 33 nodes of each
        of the 5 smooth pieces of the two hopf{n=2} loops, in a block of 2
        pieces and one of 3."""
        H = hopf2.main_structure
        assert sum(len(loop.breakpoints) + 1
                   for loop in hopf2.loops.values()) == 5
        classify_structure(H, H.chart.sample_points(rng, 2), hopf2.loops)
        assert calls == [(2 + 2 * 16, 4), (2 * 33, 4), (3 * 33, 4)]
