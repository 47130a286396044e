"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single CRITERION line so a -s run reads as a checklist.
All numeric work runs in fd mode (stencil differentiation of the metric):
on :func:`lckgeo.zoo.stencil_only` entries, whose charts carry no metric
derivative.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from lckgeo import zoo
from lckgeo.calculus import codifferential, exterior_derivative, riemann
from lckgeo.charts import form_norm
from lckgeo.hermitian import (lee_field, lee_form_components,
                              nabla_theta, nijenhuis_residual)
from lckgeo.holonomy import (common_fixed_vectors, curvature_span,
                             default_holonomy_loops, default_probes,
                             loop_holonomy)
from lckgeo.identities import (PotentialField, average_metric_residuals,
                               classify_structure, commuting_pair_residuals,
                               einstein_chain_residuals,
                               hamiltonian_form_residual)
from lckgeo.report import SuiteConfig, run
from lckgeo.transport import (loop_integral, orthogonality_defect,
                              parallel_transport)
from lckgeo.charts import segment_loop

SEED = 1789


def _line(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def _report(num, ok, detail):
    _line(num, ok, detail)
    assert ok, detail


@pytest.fixture(scope="module")
def entries(hopf2, hopf3, flat_inv2, flat_inv3, warped_sin, calabi_sin):
    analytic = {"hopf2": hopf2, "hopf3": hopf3, "flat2": flat_inv2,
                "flat3": flat_inv3, "warped": warped_sin, "calabi": calabi_sin}
    return {k: zoo.stencil_only(e) for k, e in analytic.items()}


def test_criterion_01_lck_identity_suite(entries):
    """nablaJ, dOmega, deltaOmega, RJ, RJcontr < 1e-4 at 100 samples each."""
    selectors = ["hopf{n=2}", "hopf{n=3}", "flat_inversion{n=2}",
                 "flat_inversion{n=3}", "warped{c=sin,base=cp1}",
                 "calabi{ell=sin,b=pi}"]
    t0 = time.monotonic()
    worst = {}
    for sel in selectors:
        cfg = SuiteConfig(manifold=sel, suites=("lck-identities",),
                          samples=100, seed=SEED, mode="fd")
        report = run(cfg)
        for name, rec in report.suites[0].residuals.items():
            worst[(sel, name)] = rec["max"]
    elapsed = time.monotonic() - t0
    bad = {k: v for k, v in worst.items() if v >= 1e-4}
    ok = not bad and elapsed < 60.0
    _report(1, ok, f"max residual {max(worst.values()):.2e} over "
            f"{len(selectors)} manifolds x 100 samples in {elapsed:.1f}s "
            f"(limit 60s){'; FAILURES ' + str(bad) if bad else ''}")


def test_criterion_02_flat_inversion_example(entries):
    """Riemann < 1e-4, |theta - (-2 d ln r)| < 1e-5, delta theta identity."""
    H = entries["flat2"].main_structure
    chart = H.chart
    rng = np.random.default_rng(SEED)
    pts = chart.sample_points(rng, 100)
    worst_r = worst_th = worst_d = 0.0
    for p in pts:
        g = chart.metric(p)
        R = riemann(chart, p)
        worst_r = max(worst_r, form_norm(np.einsum("ae,ebcd->abcd", g, R), g))
        theta = lee_form_components(H, p)
        diff = theta - (-2.0 * p / float(p @ p))
        worst_th = max(worst_th,
                       math.sqrt(abs(diff @ np.linalg.solve(g, diff))))
        norm_sq = float(theta @ np.linalg.solve(g, theta))
        delta = float(codifferential(chart, lee_field(H), p, k=1))
        worst_d = max(worst_d, abs(delta - (1 - 2) * norm_sq))
    ok = worst_r < 1e-4 and worst_th < 1e-5 and worst_d < 1e-4
    _report(2, ok, f"|Riemann| {worst_r:.2e} (<1e-4), "
            f"|theta - closed form| {worst_th:.2e} (<1e-5), "
            f"|delta theta - (1-n)|theta|^2| {worst_d:.2e} (<1e-4)")


def test_criterion_03_einstein_chain(entries):
    """All eleven chain residuals < 1e-3 on flat_inversion(2), 50 samples."""
    H = entries["flat2"].main_structure
    rng = np.random.default_rng(SEED)
    worst = {}
    for p in H.chart.sample_points(rng, 50):
        for name, val in einstein_chain_residuals(H, p, 0.0).items():
            worst[name] = max(worst.get(name, 0.0), val)
    ok = len(worst) == 11 and all(v < 1e-3 for v in worst.values())
    top = max(worst, key=worst.get)
    _report(3, ok, f"11 residuals, worst {top} = {worst[top]:.2e} (<1e-3)")


def test_criterion_04_vaisman_witness(entries):
    """hopf(n): |nabla theta| < 1e-5, |theta| constant to 1e-5, (rs) < 1e-4."""
    rng = np.random.default_rng(SEED)
    worst_n = worst_c = worst_rs = 0.0
    for key in ("hopf2", "hopf3"):
        H = entries[key].main_structure
        chart = H.chart
        m = chart.dim
        norms = []
        for p in chart.sample_points(rng, 30):
            g = chart.metric(p)
            theta = lee_form_components(H, p)
            norms.append(math.sqrt(float(theta @ np.linalg.solve(g, theta))))
            worst_n = max(worst_n, form_norm(nabla_theta(H, p), g))
            xi = H.J(p) @ np.linalg.solve(g, theta)
            R = riemann(chart, p)
            x = np.concatenate([[0.0], rng.standard_normal(m - 1)])
            y = np.concatenate([[0.0], rng.standard_normal(m - 1)])
            lhs = np.einsum("abcd,b,c,d->a", R, xi, x, y)
            rhs = float(y @ g @ xi) * x - float(x @ g @ xi) * y
            vn = lambda v: float(np.sqrt(abs(v @ g @ v)))
            worst_rs = max(worst_rs, vn(lhs - rhs) / (1.0 + vn(rhs)))
        worst_c = max(worst_c, max(norms) - min(norms))
    ok = worst_n < 1e-5 and worst_c < 1e-5 and worst_rs < 1e-4
    _report(4, ok, f"|nabla theta| {worst_n:.2e} (<1e-5), |theta| spread "
            f"{worst_c:.2e} (<1e-5), (rs) residual {worst_rs:.2e} (<1e-4)")


def test_criterion_05_calabi_ansatz(entries):
    """Connection table < 1e-4, dOmega_+- < 1e-4, Lee forms, Nijenhuis."""
    e = entries["calabi"]
    rng = np.random.default_rng(SEED)
    worst_row = worst_dom = worst_lee = worst_nij = 0.0
    pts = e.charts["g_ell"].sample_points(rng, 40)
    for p in pts:
        rows = zoo.calabi_connection_table_residuals(e, p)
        worst_row = max(worst_row, max(rows.values()))
        for key in ("g+,J+", "g-,J-"):
            H = e.structures[key]
            g = H.chart.metric(p)
            d_om = exterior_derivative(H.chart, H.omega, p, k=2)
            worst_dom = max(worst_dom,
                            form_norm(d_om, g) / (1 + form_norm(H.omega(p), g)))
        for eps, key in ((1.0, "g_ell,J+"), (-1.0, "g_ell,J-")):
            H = e.structures[key]
            theta = lee_form_components(H, p)
            expected = np.array([0, 0, 0, 0.5 * eps * math.sin(p[3])])
            g = H.chart.metric(p)
            diff = theta - expected
            worst_lee = max(worst_lee,
                            math.sqrt(abs(diff @ np.linalg.solve(g, diff))))
            worst_nij = max(worst_nij, nijenhuis_residual(H, p))
    ok = (worst_row < 1e-4 and worst_dom < 1e-4 and worst_lee < 1e-5
          and worst_nij < 1e-4)
    _report(5, ok, f"table rows {worst_row:.2e} (<1e-4), dOmega_+- "
            f"{worst_dom:.2e} (<1e-4), theta_eps {worst_lee:.2e} (<1e-5), "
            f"Nijenhuis {worst_nij:.2e} (<1e-4)")


def test_criterion_06_commuting_pair(entries):
    """IJ-JI, tr(IJ)-(2n-4) < 1e-4; I theta - J theta < 1e-5; eqJ/et/nablath < 1e-3."""
    e = entries["calabi"]
    I, J = e.pair.I, e.pair.J
    rng = np.random.default_rng(SEED)
    worst = {}
    for p in I.chart.sample_points(rng, 50):
        res = commuting_pair_residuals(I, J, p, rng.standard_normal(4))
        for k, v in res.items():
            worst[k] = max(worst.get(k, 0.0), v)
    ok = (worst["commute"] < 1e-4 and worst["traceIJ"] < 1e-4
          and worst["Itheta"] < 1e-5 and worst["eqJ"] < 1e-3
          and worst["et"] < 1e-3 and worst["nablath"] < 1e-3)
    _report(6, ok, f"commute {worst['commute']:.1e}, trace "
            f"{worst['traceIJ']:.1e} (<1e-4); Itheta {worst['Itheta']:.1e} "
            f"(<1e-5); eqJ {worst['eqJ']:.1e}, et {worst['et']:.1e}, "
            f"nablath {worst['nablath']:.1e} (<1e-3)")


def test_criterion_07_hamiltonian_and_average(entries):
    """tilom < 1e-3 at 100 samples; field equations < 1e-3; Killing < 1e-4."""
    e = entries["calabi"]
    I, J = e.pair.I, e.pair.J
    rng = np.random.default_rng(SEED)
    pot = PotentialField(J)
    worst_t = 0.0
    for p in I.chart.sample_points(rng, 100):
        worst_t = max(worst_t, hamiltonian_form_residual(
            I, J, p, rng.standard_normal(4), pot))
    avg = e.average
    worst = {}
    for p in avg.chart.sample_points(rng, 40):
        res = average_metric_residuals(avg, p, rng.standard_normal(4),
                                       pair_J=J)
        for k, v in res.items():
            if k != "f":
                worst[k] = max(worst.get(k, 0.0), abs(v))
    field_eqs = ("der0theta", "der0Jxi", "der0xi", "derIxi", "derzeta")
    ok = (worst_t < 1e-3 and all(worst[k] < 1e-3 for k in field_eqs)
          and worst["killing"] < 1e-4)
    _report(7, ok, f"tilom {worst_t:.2e} (<1e-3 at 100 pts); field eqs worst "
            f"{max(worst[k] for k in field_eqs):.2e} (<1e-3); Killing "
            f"{worst['killing']:.2e} (<1e-4)")


def test_criterion_08_holonomy_trichotomy(entries, euclid4):
    """Both estimators agree: SO(3)/U(2)/trivial with witnesses, gap >= 10."""
    rng = np.random.default_rng(SEED)
    results = {}
    cases = [("hopf2", entries["hopf2"], "SO(2n-1)"),
             ("calabi", entries["calabi"], "U(n)"),
             ("euclidean", zoo.stencil_only(euclid4), "reducible/other"),
             ("warped", entries["warped"], "SO(2n-1)")]
    ok = True
    details = []
    for name, entry, expected in cases:
        H = entry.holonomy_structure
        chart = H.chart
        base = chart.center()
        est_s = curvature_span(chart, base, default_probes(chart, base, rng),
                               J_fn=H.J_fn)
        est_l = loop_holonomy(chart, default_holonomy_loops(chart, base),
                              base, J_fn=H.J_fn)
        good = (est_s.classification == est_l.classification == expected
                and est_s.rank_gap >= 10 and est_l.rank_gap >= 10)
        if name == "hopf2":
            good = good and est_s.algebra_dim == 3
            fixed = common_fixed_vectors(est_s, chart.metric(base))
            good = good and fixed.shape[1] >= 1
        if name == "calabi":
            good = good and est_s.algebra_dim <= 4
            Jb = H.J(base)
            good = good and all(
                np.max(np.abs(G @ Jb - Jb @ G)) < 1e-4 * (1 + np.max(np.abs(G)))
                for G in est_s.generators)
        if name == "euclidean":
            good = good and est_s.algebra_dim == 0
        if name == "warped":
            fixed = common_fixed_vectors(est_s, chart.metric(base))
            direction = fixed[:, 0] / np.max(np.abs(fixed[:, 0]))
            good = good and abs(abs(direction[0]) - 1.0) < 1e-5
        ok = ok and good
        details.append(f"{name}: dim {est_s.algebra_dim} {est_s.classification}")
    _report(8, ok, "; ".join(details))


def test_criterion_09_period_discrimination(entries):
    """Hopf period = circumference +- 1e-4; others < 1e-5; kinds match."""
    rng = np.random.default_rng(SEED)
    h = entries["hopf2"]
    H = h.main_structure
    period = loop_integral(H.chart, lee_field(H), h.loops["s1_generator"])
    ok = abs(period - h.params["circumference"]) < 1e-4
    worst_zero = 0.0
    for entry in (entries["calabi"], entries["flat2"]):
        He = entry.main_structure
        for loop in entry.loops.values():
            worst_zero = max(worst_zero, abs(
                loop_integral(He.chart, lee_field(He), loop)))
    ok = ok and worst_zero < 1e-5
    kinds = {}
    for name, entry in (("hopf2", h), ("calabi", entries["calabi"]),
                        ("flat2", entries["flat2"])):
        He = entry.main_structure
        pts = He.chart.sample_points(rng, 8)
        kinds[name] = classify_structure(He, pts, entry.loops).kind
    ok = ok and kinds == {"hopf2": "Vaisman", "calabi": "gcK", "flat2": "gcK"}
    _report(9, ok, f"Hopf period {period:.6f} vs 2 pi; zero periods "
            f"{worst_zero:.2e} (<1e-5); kinds {kinds}")


def test_criterion_10_convergence_witnesses():
    """Doubling ODE steps: defect / >= 4; halving fd step: Christoffel / >= 3."""
    chart = zoo.round_s2_base(1.0, polar_margin=0.25).structure.chart
    loop = segment_loop(np.array([1.1, 0.0]), np.array([0.0, 2 * math.pi]),
                        steps=32, label="latitude")
    M_c = parallel_transport(chart, loop, np.eye(2), steps=32)
    M_f = parallel_transport(chart, loop, np.eye(2), steps=64)
    d_c = orthogonality_defect(chart, loop, M_c)
    d_f = orthogonality_defect(chart, loop, M_f)
    ode_ratio = d_c / d_f

    from lckgeo.calculus import christoffel
    p = np.array([0.9, 2.0])
    exact = christoffel(chart, p)
    stencil_chart = dataclasses.replace(chart, metric_derivative_fn=None)
    err = lambda h: np.max(np.abs(
        christoffel(stencil_chart, p, step=h) - exact))
    fd_ratio = err(1e-3) / err(5e-4)
    ok = ode_ratio >= 4.0 and fd_ratio >= 3.0
    _report(10, ok, f"ODE defect ratio {ode_ratio:.1f} (>=4), "
            f"Christoffel fd ratio {fd_ratio:.2f} (>=3)")
