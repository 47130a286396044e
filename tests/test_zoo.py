"""Zoo constructor tests: the explicit examples and their declared data."""

import dataclasses
import importlib
import inspect
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from lckgeo import fd, zoo
from lckgeo.calculus import ricci_scalar, riemann
from lckgeo.charts import Chart, form_norm
from lckgeo.errors import BundleError, ParameterError
from lckgeo.hermitian import (HermitianStructure, lck_residual, lee_field,
                              lee_form_components, lee_form_parts,
                              nijenhuis_residual)
from lckgeo.identities import parallel_field_residuals
from lckgeo.report import SuiteConfig, resolve_manifold, run


def _entries(hopf2, flat_inv2, warped_sin, calabi_sin):
    """The entries with every metric differenced on a stencil (fd mode)."""
    return [zoo.stencil_only(e)
            for e in (hopf2, flat_inv2, warped_sin, calabi_sin)]


# Every entry a fixture builds, and the Kahler base entries by name.
WITNESSES = ["hopf2", "hopf3", "flat_inv2", "flat_inv3", "warped_sin",
             "warped_flat", "warped_cos_c2", "calabi_sin", "euclid4",
             "c1", "c2", "cp1"]


def _witness(name, request):
    """The zoo entry ``name`` of WITNESSES."""
    if name in zoo.KAHLER_BASES:
        entry, = (e for e in zoo.kaehler_bases() if e.params["name"] == name)
        return entry
    return request.getfixturevalue(name)


def _reached_structures(entry):
    """Every structure an entry reaches, by name: its own and the base's."""
    structures = dict(entry.structures)
    if entry.base is not None:
        structures["base"] = entry.base.structure
    return structures


def _fields(entry):
    """Every chart and structure field of a zoo entry, by name."""
    fields = {"expected_lee_fn": entry.expected_lee_fn}
    for name, chart in entry.charts.items():
        fields[f"{name}.metric_fn"] = chart.metric_fn
        if chart.metric_derivative_fn is not None:
            fields[f"{name}.metric_derivative_fn"] = chart.metric_derivative_fn
    for name, H in entry.structures.items():
        fields[f"{name}.J_fn"] = H.J_fn
        fields[f"{name}.omega"] = H.omega
        if H.n >= 2:
            fields[f"{name}.lee"] = lee_field(H)
    return fields


@pytest.mark.parametrize("mode", ["fd", "analytic"])
@pytest.mark.parametrize("name", WITNESSES)
def test_fields_take_point_stacks(name, mode, request, rng):
    """On a (3, 5, m) stack every field gives its per-point values bit for
    bit, and at a single point the bare value shape."""
    entry = _witness(name, request)
    chart = entry.main_structure.chart
    pts = chart.sample_points(rng, 15).reshape(3, 5, chart.dim)
    # the derivative functions of the entry, and the fields of the variant
    # whose metrics are differenced on a stencil ("fd") or by them
    variant = zoo.stencil_only(entry) if mode == "fd" else entry
    for label, f in {**_fields(entry), **_fields(variant)}.items():
        single = np.array([[f(q) for q in row] for row in pts])
        assert np.array_equal(f(pts), single), label
        assert np.shape(f(pts[1, 2])) == single.shape[2:], label


@pytest.mark.parametrize("mode", ["fd", "analytic"])
@pytest.mark.parametrize("name", WITNESSES)
def test_complex_dimension_is_half_the_chart_dimension(name, mode, request):
    """Every structure an entry reaches (its own and the base's) and the
    entry itself have n = dim / 2 of their charts."""
    entry = _witness(name, request)
    if mode == "fd":
        entry = zoo.stencil_only(entry)
    for key, H in _reached_structures(entry).items():
        assert 2 * H.n == H.chart.dim, key
    for chart in entry.charts.values():
        assert 2 * entry.n == chart.dim, chart.label


def test_derived_values_are_not_fields():
    """A chart's dimension, a structure's and an entry's n, a profile's
    derivative, and an entry's pair, average and holonomy structure are
    derived from the fields they would duplicate."""
    for cls, derived in ((Chart, "dim"), (HermitianStructure, "n"),
                         (zoo.ZooEntry, "n"), (zoo.ProfileFn, "derivative_fn"),
                         (zoo.ZooEntry, "pair"), (zoo.ZooEntry, "average"),
                         (zoo.ZooEntry, "holonomy_key")):
        assert derived not in {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("name", WITNESSES)
def test_metric_fields_are_complex_safe(name, request, rng):
    """Every zoo metric field carries a complex stack through without a
    warning or an error: unless the field is constant, it returns a complex
    array whose imaginary part is the directional derivative, as the central
    stencil along the same direction gives it.  A field that drops the
    imaginary part of its input fails here."""
    entry = _witness(name, request)
    for chart in entry.charts.values():
        pts = chart.sample_points(rng, 6).reshape(2, 3, chart.dim)
        v = rng.standard_normal(chart.dim)
        h = 1e-5
        along = (chart.metric_fn(pts + h * v)
                 - chart.metric_fn(pts - h * v)) / (2.0 * h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = chart.metric_fn(pts + 1e-20j * v)
        assert values.shape == pts.shape[:-1] + (chart.dim, chart.dim)
        assert np.iscomplexobj(values) or not along.any(), chart.label
        assert np.max(np.abs(values.imag / 1e-20 - along)) < 1e-8 * (
            1 + np.max(np.abs(along))), chart.label


class TestStencilOnly:
    """zoo.stencil_only is the one place an fd run drops the metric
    derivatives."""

    @staticmethod
    def derivative_holders(entry):
        """Every chart of the entry, with what holds each, the base's
        structure included."""
        charts = {f"{k}.chart": H.chart
                  for k, H in _reached_structures(entry).items()}
        charts.update(entry.charts)
        return charts

    @pytest.mark.parametrize("name", WITNESSES)
    def test_drops_every_derivative(self, name, request):
        entry = _witness(name, request)
        stripped = zoo.stencil_only(entry)
        charts = self.derivative_holders(entry)
        assert all(c.metric_derivative_fn is not None
                   for c in charts.values()), "the input keeps its derivatives"
        charts = self.derivative_holders(stripped)
        assert all(c.metric_derivative_fn is None for c in charts.values())
        for key, H in stripped.structures.items():
            assert H.J_fn is entry.structures[key].J_fn
            assert H.chart.metric_fn is entry.structures[key].chart.metric_fn
        assert stripped.loops is entry.loops

    def test_keeps_the_sharing(self, calabi_sin):
        """The pair, the average and the holonomy structure are structures
        the entry holds, and its structures share their charts, before and
        after stencil_only."""
        for e in (calabi_sin, zoo.stencil_only(calabi_sin)):
            s = e.structures
            assert e.pair.I is s["g+,J+"] is e.holonomy_structure
            assert e.pair.J is s["g+,J-"] and e.average is s["g_ell,J+"]
            assert (s["g_ell,J+"].chart is s["g_ell,J-"].chart
                    is e.charts["g_ell"])
            assert s["g+,J+"].chart is s["g+,J-"].chart is e.charts["g_plus"]
            assert s["g-,J-"].chart is e.charts["g_minus"]


def test_a_replaced_structure_is_read_everywhere(calabi_sin):
    """An entry with one structure replaced reads the new one as the pair's
    Kahler member and as its holonomy structure."""
    s = calabi_sin.structures
    H2 = dataclasses.replace(s["g+,J+"], label="g+,J+ replaced")
    entry = dataclasses.replace(calabi_sin, structures={**s, "g+,J+": H2})
    assert entry.pair.I is H2 and entry.holonomy_structure is H2
    assert entry.pair.J is s["g+,J-"] and entry.average is s["g_ell,J+"]


def test_no_layer_function_takes_a_mode():
    """Charts decide how their metric is differentiated, so no function or
    method below the report takes a derivative mode."""
    modules = [importlib.import_module(f"lckgeo.{name}")
               for name in ("charts", "calculus", "hermitian", "identities",
                            "transport", "holonomy", "zoo")]
    found = []
    for module in modules:
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for fn in members:
                if inspect.isfunction(fn) and (
                        "mode" in inspect.signature(fn).parameters):
                    found.append(fn.__qualname__)
    assert found == []


class TestZooGates:
    def test_every_structure_passes_lck_gate(self, hopf2, flat_inv2,
                                             warped_sin, calabi_sin, rng):
        """Compatibility, integrability, and the dOmega cross-check."""
        for entry in _entries(hopf2, flat_inv2, warped_sin, calabi_sin):
            for key, H in entry.structures.items():
                for p in H.chart.sample_points(rng, 6):
                    d2, dm = H.compatibility_defects(p)
                    scale = 1 + np.max(np.abs(H.chart.metric(p)))
                    assert d2 < 1e-10 and dm < 1e-10 * scale, (entry.label, key)
                    assert nijenhuis_residual(H, p) < 1e-4, (entry.label, key)
                    parts = lee_form_parts(H, p)
                    assert lck_residual(parts) < 1e-6, (entry.label, key)

    def test_declared_lee_forms_match(self, hopf2, flat_inv2, warped_sin,
                                      calabi_sin, rng):
        for entry in _entries(hopf2, flat_inv2, warped_sin, calabi_sin):
            H = entry.main_structure
            for p in H.chart.sample_points(rng, 8):
                theta = lee_form_components(H, p)
                expected = entry.expected_lee_fn(p)
                g_inv = np.linalg.inv(H.chart.metric(p))
                diff = theta - expected
                assert math.sqrt(abs(diff @ g_inv @ diff)) < 1e-4, entry.label


class TestHopf:
    def test_unit_parallel_lee_form(self, hopf2, hopf3, rng):
        from lckgeo.hermitian import nabla_theta
        for entry in (hopf2, hopf3):
            H = zoo.stencil_only(entry).main_structure
            for p in H.chart.sample_points(rng, 5):
                theta = lee_form_components(H, p)
                g = H.chart.metric(p)
                norm = math.sqrt(float(theta @ np.linalg.solve(g, theta)))
                assert abs(norm - 1.0) < 1e-8
                assert form_norm(nabla_theta(H, p), g) < 1e-6

    def test_sphere_factor_curvature_identity(self, hopf2, rng):
        """R(X, Y) xi = <Y, xi> X - <X, xi> Y on the sphere factor (|theta|=1)."""
        H = zoo.stencil_only(hopf2).main_structure
        for p in H.chart.sample_points(rng, 5):
            g = H.chart.metric(p)
            theta = lee_form_components(H, p)
            xi = H.J(p) @ np.linalg.solve(g, theta)
            R = riemann(H.chart, p).components
            # sphere-factor directions: no d_s component
            x = np.concatenate([[0.0], rng.standard_normal(3)])
            y = np.concatenate([[0.0], rng.standard_normal(3)])
            lhs = np.einsum("abcd,b,c,d->a", R, xi, x, y)
            rhs = float(y @ g @ xi) * x - float(x @ g @ xi) * y
            assert np.max(np.abs(lhs - rhs)) < 1e-5 * (1 + np.max(np.abs(rhs)))

    def test_product_metric_is_pullback(self, hopf2, rng):
        """The closed-form metric equals the embedding pullback of r^-2 g_0."""
        chart = hopf2.main_structure.chart
        for p in chart.sample_points(rng, 5):
            B = zoo._hypersphere_frame(p[1:])
            npt.assert_allclose(B.T @ B, chart.metric_fn(p), atol=1e-12)

    def test_hypersphere_jacobian_matches_loop_reference(self, rng):
        """The frame's sigma and d sigma blocks are bit-identical to the
        entrywise product forms, multiplied left to right."""
        def reference(angles):
            d = angles.size
            sin, cos = np.sin(angles), np.cos(angles)
            sigma = np.zeros(d + 1)
            jac = np.zeros((d + 1, d))
            for i in range(d + 1):
                if i < d:
                    base = [sin[k] for k in range(i)] + [cos[i]]
                else:
                    base = [sin[k] for k in range(d)]
                sigma[i] = float(np.prod(base))
                for j in range(min(i + 1, d) if i < d else d):
                    terms = list(base)
                    terms[j] = cos[j] if j < i else -sin[j]
                    jac[i, j] = float(np.prod(terms))
            return sigma, jac

        for d in range(1, 6):
            for angles in rng.uniform(-math.pi, 2.0 * math.pi, size=(400, d)):
                B = zoo._hypersphere_frame(angles)
                sigma, jac = reference(angles)
                assert np.array_equal(-B[:, 0], sigma), angles
                assert np.array_equal(B[:, 1:], jac), angles

    def test_batched_fields_match_pointwise_reference(self, hopf2, hopf3,
                                                      rng):
        """The stacked metric and J equal the per-point forms they replaced,
        bit for bit, on a stack and on a single point."""
        def metric_reference(p, m):
            g = np.eye(m)
            prod = 1.0
            for i in range(1, m - 1):
                prod *= np.sin(p[i]) ** 2     # a numpy-scalar power
                g[i + 1, i + 1] = prod
            return g

        def j_reference(p, m):
            angles = np.asarray(p[1:], dtype=float)
            d = angles.size
            sin, cos = np.sin(angles).tolist(), np.cos(angles).tolist()
            u = np.empty(d + 1)
            jac = np.zeros((d + 1, d))
            prod = prefix = 1.0
            for j in range(d):
                u[j] = prod * cos[j]
                prod *= sin[j]
                jac[j, j] = prefix * -sin[j]
                run = prefix * cos[j]
                for i in range(j + 1, d):
                    jac[i, j] = run * cos[i]
                    run *= sin[i]
                jac[d, j] = run
                prefix *= sin[j]
            u[d] = prod
            B = np.column_stack([-u, jac])
            # B^-1 = B^T / |columns|^2: the columns are orthogonal
            return B.T @ zoo._standard_j(m) @ B / np.sum(B * B, axis=0)[:, None]

        for entry in (hopf2, hopf3):
            H = entry.main_structure
            m = H.chart.dim
            # an array ``** 2`` differs from the scalar one in about one
            # square in a thousand, so the stack is large
            pts = H.chart.sample_points(rng, 3000)
            for fn, ref in ((H.chart.metric_fn, metric_reference),
                            (H.J_fn, j_reference)):
                expected = np.array([ref(q, m) for q in pts])
                assert np.array_equal(fn(pts.reshape(3, 1000, m)),
                                      expected.reshape(3, 1000, m, m))
                for q, e in zip(pts[:50], expected):
                    assert np.array_equal(fn(q), e), q

    def test_j_matches_solved_pullback(self, hopf2, hopf3, rng):
        """J = B^-1 J_0 B as a linear solve gives it, and J is a
        g-orthogonal complex structure."""
        for entry in (hopf2, hopf3):
            H = entry.main_structure
            m = H.chart.dim
            pts = H.chart.sample_points(rng, 500)
            J, g = H.J_fn(pts), H.chart.metric_fn(pts)
            B = zoo._hypersphere_frame(pts[:, 1:])
            solved = np.linalg.solve(B, zoo._standard_j(m) @ B)
            assert np.max(np.abs(J - solved)) < 1e-14
            assert np.max(np.abs(J @ J + np.eye(m))) < 1e-14
            Jt = np.swapaxes(J, -1, -2)
            assert np.max(np.abs(Jt @ g @ J - g)) < 1e-14

    def test_j_is_complex_safe_without_a_solve(self, hopf2, hopf3, rng,
                                               monkeypatch):
        """J_fn solves no linear system and carries a complex stack through
        without a warning; its complex step matches the DIRECT stencil."""
        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        for entry in (hopf2, hopf3):
            H = entry.main_structure
            m = H.chart.dim
            pts = H.chart.sample_points(rng, 6).reshape(2, 3, m)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                real = H.J_fn(pts)
                values = H.J_fn(pts + 1e-20j * rng.standard_normal(m))
                exact = fd.complex_step(H.J_fn)(pts)
            assert real.dtype == float and np.iscomplexobj(values)
            npt.assert_allclose(values.real, real, rtol=0, atol=1e-15)
            stencil = fd.gradient(H.J_fn, pts, fd.DIRECT)
            assert np.max(np.abs(exact - stencil)) < 1e-7

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            zoo.hopf(1)
        with pytest.raises(ParameterError):
            zoo.hopf(2, circumference=-1.0)


class TestFlatInversion:
    def test_flat_and_einstein(self, flat_inv2, rng):
        chart = zoo.stencil_only(flat_inv2).charts["inverted"]
        for p in chart.sample_points(rng, 8):
            g = chart.metric(p)
            R = riemann(chart, p).components
            assert form_norm(np.einsum("ae,ebcd->abcd", g, R), g) < 1e-4
        ric, scal = ricci_scalar(chart, chart.center())
        assert abs(scal) < 1e-4

    def test_lee_norm_closed_form(self, flat_inv2, rng):
        """|theta|^2_g = 4 r^2 (= 4 exactly at r = 1)."""
        H = zoo.stencil_only(flat_inv2).main_structure
        p = np.full(4, 0.5)
        theta = lee_form_components(H, p)
        assert abs(float(theta @ np.linalg.solve(H.chart.metric(p), theta))
                   - 4.0) < 1e-8
        for p in H.chart.sample_points(rng, 5):
            theta = lee_form_components(H, p)
            norm_sq = float(theta @ np.linalg.solve(H.chart.metric(p), theta))
            assert abs(norm_sq - 4.0 * float(p @ p)) < 1e-7

    def test_codifferential_identity_n3(self, flat_inv3, rng):
        """delta theta = (1 - n)|theta|^2 = -2 |theta|^2 for n = 3."""
        from lckgeo.calculus import codifferential
        from lckgeo.hermitian import lee_field
        H = zoo.stencil_only(flat_inv3).main_structure
        for p in H.chart.sample_points(rng, 4):
            theta = lee_form_components(H, p)
            norm_sq = float(theta @ np.linalg.solve(H.chart.metric(p), theta))
            delta = float(codifferential(H.chart, lee_field(H), p,
                                         k=1).components)
            assert abs(delta - (1 - 3) * norm_sq) < 1e-4 * (1 + norm_sq)


class TestWarped:
    def test_kahler_degenerate_case(self, warped_flat, rng):
        H = zoo.stencil_only(warped_flat).main_structure
        assert warped_flat.expected_kind == "Kahler"
        p = H.chart.sample_points(rng, 1)[0]
        theta = lee_form_components(H, p)
        assert np.max(np.abs(theta)) < 1e-9

    def test_lee_form_and_parallel_branch(self, warped_sin, rng):
        H = zoo.stencil_only(warped_sin).main_structure
        for p in H.chart.sample_points(rng, 4):
            theta = lee_form_components(H, p)
            expected = np.array([0.0, math.cos(p[1]), 0.0, 0.0])
            npt.assert_allclose(theta, expected, atol=1e-8)
            res = parallel_field_residuals(H, p, warped_sin.parallel_field)
            assert res["nablaJV"] < 1e-4 and abs(res["a"]) < 1e-9

    def test_symmetric_profile_is_not_constant(self, warped_sin,
                                               warped_flat):
        """cos on (0, 2 pi) has c'(pi) ~ 1e-16 and c(t) = c(2 pi - t), yet
        is not constant: the entry declares gcK and SO(2n-1), and classify
        and holonomy confirm it.  The sin and zero profiles keep theirs."""
        selector = "warped{c=cos,base=cp1}"
        entry = resolve_manifold(selector)
        assert (entry.expected_kind, entry.expected_holonomy) == (
            "gcK", "SO(2n-1)")
        report = run(SuiteConfig(manifold=selector, samples=2, seed=1,
                                 suites=("classify", "holonomy")))
        assert report.passed and not report.inconclusive
        assert (warped_sin.expected_kind, warped_sin.expected_holonomy) == (
            "gcK", "SO(2n-1)")
        assert (warped_flat.expected_kind, warped_flat.expected_holonomy) == (
            "Kahler", "trivial")

    def test_base_gate(self):
        chart = Chart(domain=((-1, 1), (-1, 1)),
                      metric_fn=lambda y: np.eye(2),
                      metric_derivative_fn=lambda y: np.zeros((2, 2, 2)),
                      label="bad")
        bad = zoo.KahlerBase(HermitianStructure(
            chart, lambda y: np.eye(2), label="bad"))   # J^2 = +Id
        with pytest.raises(ParameterError):
            zoo.warped_vaisman_gck(
                zoo.named_profile("sin", (0, 2 * math.pi)), bad)


class TestCalabi:
    def test_boundary_function_series(self):
        """A(x) = (sin^2 sqrt(x) - x)/x = -x/3 + 2x^2/45 - ... near 0."""
        for x in (1e-2, 1e-3, 1e-4):
            A = (math.sin(math.sqrt(x)) ** 2 - x) / x
            series = -x / 3.0 + 2.0 * x ** 2 / 45.0
            assert abs(A - series) < 1e-3 * x ** 2 + 1e-15

    def test_compactification_components_bounded(self):
        """l/r and A(r^2)/l^2 stay bounded on a shrinking radius sequence."""
        ell = zoo.named_profile("sin", (0.0, math.pi))
        for r in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            lv = ell(r)
            A = (lv ** 2 - r ** 2) / r ** 2
            assert abs(lv / r - 1.0) < 0.01
            assert abs(A / lv ** 2 + 1.0 / 3.0) < 0.01

    def test_potential_closed_form(self, calabi_sin):
        """phi(r) = 1/2 (1 - cos r) for the sine profile, by quadrature."""
        for r in (0.4, 1.0, 2.0, 2.7):
            assert abs(calabi_sin.potential(r)
                       - 0.5 * (1.0 - math.cos(r))) < 1e-12

    def test_connection_table_rows(self, calabi_sin, rng):
        entry = zoo.stencil_only(calabi_sin)
        for p in entry.charts["g_ell"].sample_points(rng, 6):
            res = zoo.calabi_connection_table_residuals(entry, p)
            for name, value in res.items():
                assert value < 1e-4, (name, value)

    def test_conformal_pair_relations(self, calabi_sin, rng):
        """e^(-2 Phi) g_+ = g_-, g_0 = e^(-Phi) g_+ = g_ell, Lee forms +-dPhi."""
        e = calabi_sin
        p = e.charts["g_ell"].sample_points(rng, 1)[0]
        Phi = -2.0 * e.potential(p[3])
        gp = e.charts["g_plus"].metric_fn(p)
        gm = e.charts["g_minus"].metric_fn(p)
        gl = e.charts["g_ell"].metric_fn(p)
        npt.assert_allclose(math.exp(-2 * Phi) * gp, gm, atol=1e-12)
        npt.assert_allclose(math.exp(-Phi) * gp, gl, atol=1e-12)
        npt.assert_allclose(math.exp(Phi) * gm, gl, atol=1e-12)
        # lee_form(g_+, J_-) = +dPhi, lee_form(g_-, J_+) = -dPhi
        d_phi = np.array([0.0, 0.0, 0.0, -math.sin(p[3])])
        e = zoo.stencil_only(e)
        th_plus = lee_form_components(e.structures["g+,J-"], p)
        npt.assert_allclose(th_plus, d_phi, atol=1e-8)
        g_minus_J_plus = HermitianStructure(
            e.charts["g_minus"], e.structures["g_ell,J+"].J_fn)
        th_minus = lee_form_components(g_minus_J_plus, p)
        npt.assert_allclose(th_minus, -d_phi, atol=1e-8)

    def test_commuting_structures(self, calabi_sin, rng):
        """J_+ J_- = J_- J_+ and tr(J_+ J_-) = 2n - 4 at every sample."""
        e = calabi_sin
        Jp = e.structures["g_ell,J+"].J_fn
        Jm = e.structures["g_ell,J-"].J_fn
        for p in e.charts["g_ell"].sample_points(rng, 8):
            A, B = Jp(p), Jm(p)
            assert np.max(np.abs(A @ B - B @ A)) < 1e-12
            assert abs(np.trace(A @ B) - 0.0) < 1e-12

    def test_parameter_and_bundle_errors(self):
        with pytest.raises(ParameterError):
            zoo.calabi_ansatz(zoo.named_profile("cos", (0, math.pi)), math.pi)
        with pytest.raises(BundleError):
            zoo.calabi_ansatz(zoo.named_profile("sin", (0, math.pi)), math.pi,
                              base=zoo.round_s2_base(0.9))

    def test_hodge_but_larger_base_accepted(self):
        """Area 4 pi (radius 1) is still an integer class: c_w = 1 bundle."""
        entry = zoo.calabi_ansatz(zoo.named_profile("sin", (0, math.pi)),
                                  math.pi, base=zoo.round_s2_base(1.0))
        assert abs(entry.params["c_w"] - 1.0) < 1e-12


class TestKahlerBases:
    def test_gate_and_curvature(self, rng):
        entries = zoo.kaehler_bases()
        by_name = {e.params["name"]: zoo.stencil_only(e) for e in entries}
        flat = by_name["c1"].charts["base"]
        _, scal = ricci_scalar(flat, np.zeros(2))
        assert abs(scal) < 1e-8
        cp1 = by_name["cp1"].charts["base"]
        _, scal = ricci_scalar(cp1, cp1.center())
        assert abs(scal - 4.0) < 1e-6          # 2/R^2 with R^2 = 1/2
        for e in entries:
            H = e.structures["kahler"]
            p = H.chart.sample_points(rng, 1)[0]
            assert nijenhuis_residual(H, p) < 1e-8
            d2, dm = H.compatibility_defects(p)
            assert d2 < 1e-12 and dm < 1e-12

    def test_cp1_normalized_area(self):
        """Total integral of Omega_N over the sphere is 2 pi (quadrature)."""
        base = zoo.cp1_base()
        thetas, wt = np.polynomial.legendre.leggauss(64)
        thetas = (thetas + 1.0) / 2.0 * math.pi
        wt = wt / 2.0 * math.pi
        total = 0.0
        for th, w in zip(thetas, wt):
            omega_n = base.structure.omega(np.array([th, 0.0]))
            total += w * abs(omega_n[0, 1]) * 2.0 * math.pi
        assert abs(total - 2.0 * math.pi) < 1e-8

    def test_round_sphere_scalar_generic_radius(self):
        chart = dataclasses.replace(zoo.round_s2_base(2.0).structure.chart,
                                    metric_derivative_fn=None)
        _, scal = ricci_scalar(chart, np.array([1.2, 1.0]))
        assert abs(scal - 0.5) < 1e-7


class TestExpectedClassifications:
    def test_zoo_expectations_confirmed(self, hopf2, flat_inv2, warped_sin,
                                        calabi_sin, rng):
        """The zoo's declared kinds are what classify_structure returns."""
        from lckgeo.identities import classify_structure
        for entry in _entries(hopf2, flat_inv2, warped_sin, calabi_sin):
            H = entry.main_structure
            pts = H.chart.sample_points(rng, 6)
            out = classify_structure(H, pts, entry.loops)
            assert out.kind == entry.expected_kind, entry.label


class TestProfileFn:
    def test_analytic_derivative_matches_stencil(self):
        """The complex-step derivative agrees with a central stencil."""
        prof = zoo.named_profile("sin", (0.0, math.pi))
        for r in (0.4, 1.1, 2.3):
            fd_val = (prof(r + 1e-5) - prof(r - 1e-5)) / 2e-5
            assert abs(prof.derivative(r) - fd_val) < 1e-5

    @pytest.mark.parametrize("name, derivative", [
        ("sin", np.cos), ("cos", lambda r: -np.sin(r)),
        ("zero", np.zeros_like)], ids=["sin", "cos", "zero"])
    def test_complex_step_matches_closed_form(self, name, derivative):
        """The complex step of the values is the closed-form derivative to
        rounding, elementwise on arrays and at a scalar."""
        prof = zoo.named_profile(name, (0.0, 2.0 * math.pi))
        r = np.linspace(0.0, 2.0 * math.pi, 201).reshape(3, 67)
        assert prof.derivative_fn(r).shape == r.shape
        assert np.max(np.abs(prof.derivative_fn(r) - derivative(r))) <= 1.2e-16
        assert abs(prof.derivative(1.1) - derivative(1.1)) <= 1.2e-16

    def test_unknown_profile_rejected(self):
        with pytest.raises(ParameterError):
            zoo.named_profile("tan", (0.0, 1.0))
