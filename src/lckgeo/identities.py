"""Pointwise residual checkers for the lcK structure equations.

Every checker evaluates the two sides of an identity through independent
code paths (stencil differentiation of a field vs. pointwise algebra) and
returns scale-free residuals: |left - right| divided by (1 + the largest
term norm of the formula), all norms taken with the chart metric.

Identity inventory (vectors and 1-forms identified via the metric; the
wedge endomorphism is (X ^ tau)(Y) = g(X, Y) tau_sharp - tau(Y) X):

* nabla_X J = X ^ J theta + JX ^ theta
* [R(X,Y), J] = the ten-term curvature formula in theta, J theta, nabla theta
* its frame contraction
  sum_j (R_{X,e_j} J)(e_j) = (2n-3)(theta(X) J theta - |theta|^2 JX
    + J nabla_X theta) - theta(JX) theta - nabla_{JX} theta - (delta theta) JX
* the Einstein-case chain (S = nabla theta + theta (x) theta, f = delta theta
  + |theta|^2):  S theta, tr S, nabla(J theta), d(J theta), [theta, J theta],
  delta(theta ^ J theta), delta(|theta|^2 Omega), delta S, J delta(JS) + delta S,
  the summed identity, and d f = (2 lambda - 3 f + (4-2n)|theta|^2) theta
* the parallel-unit-field formulas for nabla(JV) and d(JV)
* the commuting-pair (Kahler + lcK) conclusions: IJ = JI, tr(IJ) = 2n-4,
  I theta = J theta, the reconstruction of J from I, theta ^ Omega^J =
  - theta ^ Omega^I, sigma = theta ^ I theta / |theta|^2, nabla sigma, the
  trace identity, and the closed form of nabla theta
* the Hamiltonian-2-form equation for sigma~ = e^Phi sigma
* the average-metric field equations (fitting the proportionality function
  by least squares) and the Killing property of xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fd
from .calculus import (codifferential, covariant_derivative_full,
                       exterior_derivative, lie_bracket, ricci_scalar, riemann)
from .charts import form_norm, form_of_endomorphism, wedge, wedge_endo
from .errors import (InconsistencyError, NotLcKError, PreconditionError,
                     SingularPointError)
from .hermitian import (LCK_GATE, HermitianStructure, lck_residual,
                        lee_field, lee_form_components, nabla_theta)
from .transport import line_integral_segment, loop_integral


def _endo_norm(a: np.ndarray, g: np.ndarray) -> float:
    return form_norm(a.T @ g, g)


def _normalized(diff_norm: float, term_norms) -> float:
    return diff_norm / (1.0 + max(term_norms))


def _solve(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g^-1 v at each point of a stack of matrices g and vectors v."""
    return np.linalg.solve(g, v[..., None])[..., 0]


def _pair_sigma(I: HermitianStructure, J: HermitianStructure, q) -> np.ndarray:
    """sigma = 1/2 (Omega^I + Omega^J) at each of the points q, from the raw
    metric of I's chart."""
    gq = np.asarray(I.chart.metric_fn(q), dtype=float)
    return 0.5 * (form_of_endomorphism(I.J(q), gq)
                  + form_of_endomorphism(J.J(q), gq))


# ---------------------------------------------------------------------------
# single-identity residuals
# ---------------------------------------------------------------------------

def nabla_j_residual(H: HermitianStructure, p, x, mode: str = "auto") -> float:
    """|nabla_X J - (X ^ J theta + JX ^ theta)| at p, term-normalized."""
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    g = H.chart.metric(p)
    J = H.J(p)
    theta = lee_form_components(H, p, mode=mode)
    j_theta = -J.T @ theta
    nJ = covariant_derivative_full(H.chart, H.J_fn, p, (1, 1), mode=mode,
                                   step=fd.STEP_DIRECT, order=fd.ORDER_DIRECT)
    lhs = np.tensordot(x, nJ, axes=(0, 0))
    t1 = wedge_endo(x, j_theta, g)
    t2 = wedge_endo(J @ x, theta, g)
    rhs = t1 + t2
    terms = [_endo_norm(t, g) for t in (lhs, t1, t2)]
    return _normalized(_endo_norm(lhs - rhs, g), terms)


def curvature_j_residuals(H: HermitianStructure, p, x, y,
                          mode: str = "auto") -> tuple:
    """Residuals of the full R.J formula and of its frame contraction."""
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g = H.chart.metric(p)
    g_inv = np.linalg.inv(g)
    J = H.J(p)
    theta = lee_form_components(H, p, mode=mode)
    j_theta = -J.T @ theta
    ntheta = nabla_theta(H, p, mode=mode)           # ntheta[c, j]
    norm_sq = float(theta @ g_inv @ theta)
    R = riemann(H.chart, p, mode=mode).components   # R[a, b, c, d]

    # --- full formula -------------------------------------------------------
    RXY = np.einsum("abcd,c,d->ab", R, x, y)
    lhs = RXY @ J - J @ RXY
    nx_theta = x @ ntheta                            # (nabla_X theta)_j
    ny_theta = y @ ntheta
    jx, jy = J @ x, J @ y
    terms = [
        float(theta @ x) * wedge_endo(y, j_theta, g),
        -float(theta @ y) * wedge_endo(x, j_theta, g),
        -float(theta @ y) * wedge_endo(jx, theta, g),
        float(theta @ x) * wedge_endo(jy, theta, g),
        -norm_sq * wedge_endo(y, g @ jx, g),
        norm_sq * wedge_endo(x, g @ jy, g),
        wedge_endo(y, -J.T @ nx_theta, g),
        wedge_endo(jy, nx_theta, g),
        -wedge_endo(x, -J.T @ ny_theta, g),
        -wedge_endo(jx, ny_theta, g),
    ]
    rhs = sum(terms)
    norms = [_endo_norm(t, g) for t in terms] + [_endo_norm(lhs, g)]
    res_full = _normalized(_endo_norm(lhs - rhs, g), norms)

    # --- contraction --------------------------------------------------------
    # sum_j (R_{X,e_j} J)(e_j) = g^{jl} [R(X, e_j)(J e_l) - J R(X, e_j) e_l]
    lhs_c = (np.einsum("abcj,c,bl,jl->a", R, x, J, g_inv)
             - np.einsum("ae,elcj,c,jl->a", J, R, x, g_inv))
    delta_theta = -float(np.einsum("ij,ij->", g_inv, ntheta))
    sharp = lambda tau: g_inv @ tau
    c_terms = [
        (2.0 * H.n - 3.0) * float(theta @ x) * sharp(j_theta),
        -(2.0 * H.n - 3.0) * norm_sq * jx,
        (2.0 * H.n - 3.0) * (J @ sharp(nx_theta)),
        -float(theta @ jx) * sharp(theta),
        -sharp(jx @ ntheta),
        -delta_theta * jx,
    ]
    rhs_c = sum(c_terms)
    vec_norm = lambda v: float(np.sqrt(abs(v @ g @ v)))
    c_norms = [vec_norm(t) for t in c_terms] + [vec_norm(lhs_c)]
    res_contr = _normalized(vec_norm(lhs_c - rhs_c), c_norms)
    return res_full, res_contr


def s_commutator_residual(H: HermitianStructure, p, mode: str = "auto") -> float:
    """|SJ - JS| for S = nabla theta + theta (x) theta (Einstein assumption)."""
    p = np.asarray(p, dtype=float)
    g = H.chart.metric(p)
    J = H.J(p)
    theta = lee_form_components(H, p, mode=mode)
    s_cov = nabla_theta(H, p, mode=mode) + np.outer(theta, theta)
    s_endo = np.linalg.solve(g, s_cov)
    comm = s_endo @ J - J @ s_endo
    return _normalized(_endo_norm(comm, g),
                       [_endo_norm(s_endo @ J, g), _endo_norm(J @ s_endo, g)])


# ---------------------------------------------------------------------------
# Einstein chain
# ---------------------------------------------------------------------------

def einstein_deviation(H: HermitianStructure, p, lam: float,
                       mode: str = "auto") -> float:
    """Term-normalized |Ric - lambda g| at p."""
    ric, _ = ricci_scalar(H.chart, p, mode=mode)
    g = H.chart.metric(p)
    diff = ric.components - lam * g
    return _normalized(form_norm(diff, g),
                       [form_norm(ric.components, g), abs(lam) * form_norm(g, g)])


def einstein_chain_residuals(H: HermitianStructure, p, lam: float,
                             mode: str = "auto") -> dict:
    """The eleven named residuals of the Einstein-case derivation at p.

    Requires (chart, J) Einstein with constant ``lam``; the flat inversion
    chart realizes lam = 0.
    """
    p = np.asarray(p, dtype=float)
    chart = H.chart
    if einstein_deviation(H, p, lam, mode=mode) > 1e-3:
        raise PreconditionError(
            f"structure '{H.label}' is not Einstein with lambda={lam} at {p}")

    g = chart.metric(p)
    g_inv = np.linalg.inv(g)
    J = H.J(p)
    omega = H.omega(p)
    n = H.n
    n2 = 2 * n

    theta_f = lee_field(H, mode)
    theta = theta_f(p)
    j_theta = -J.T @ theta
    theta_sharp = g_inv @ theta
    norm_sq = float(theta @ theta_sharp)

    # nabla theta on each stack of points, computed once: the DEEP stencils
    # of S, JS, delta theta and f all evaluate it on the same stack
    ntheta_cache = {}

    def ntheta_at(q):
        key = (q.shape, q.tobytes())
        if key not in ntheta_cache:
            ntheta_cache[key] = nabla_theta(H, q, mode=mode)
        return ntheta_cache[key]

    ntheta = ntheta_at(p)
    s_cov = ntheta + np.outer(theta, theta)
    s_endo = g_inv @ s_cov
    delta_theta = -float(np.einsum("ij,ij->", g_inv, ntheta))
    js_endo = J @ s_endo
    js_form = form_of_endomorphism(js_endo, g)

    # derived fields (evaluation noise one stencil deep -> NESTED steps;
    # two deep (S, delta theta, f) -> DEEP steps)
    def jtheta_field(q):
        return H.j_form(q, theta_f(q))

    def theta_sharp_field(q):
        return _solve(chart.metric_fn(q), theta_f(q))

    def jtheta_sharp_field(q):
        return _solve(chart.metric_fn(q), jtheta_field(q))

    def norm_sq_field(q):
        t = theta_f(q)
        return np.vecdot(t, _solve(chart.metric_fn(q), t))

    def s_field(q):
        t = theta_f(q)
        return ntheta_at(q) + t[..., :, None] * t[..., None, :]

    def js_form_field(q):
        gq = np.asarray(chart.metric_fn(q), dtype=float)
        endo = H.J(q) @ np.linalg.solve(gq, s_field(q))
        return form_of_endomorphism(endo, gq)

    def delta_theta_field(q):
        gq = np.asarray(chart.metric_fn(q), dtype=float)
        return -np.einsum("...ij,...ij->...", np.linalg.inv(gq), ntheta_at(q))

    def f_field(q):
        return delta_theta_field(q) + norm_sq_field(q)

    def theta_wedge_jtheta_field(q):
        t = theta_f(q)
        return wedge(t, jtheta_field(q), lead=t.ndim - 1)

    def norm_sq_omega_field(q):
        return norm_sq_field(q)[..., None, None] * H.omega(q)

    d_norm_sq = fd.gradient(norm_sq_field, p, fd.STEP_NESTED, fd.ORDER_NESTED)
    vec = lambda tau: float(np.sqrt(abs(tau @ g_inv @ tau)))
    res = {}

    # (Sth)  S theta = 1/2 d|theta|^2 + |theta|^2 theta
    lhs = s_cov @ theta_sharp
    t1, t2 = 0.5 * d_norm_sq, norm_sq * theta
    res["Sth"] = _normalized(vec(lhs - t1 - t2), [vec(lhs), vec(t1), vec(t2)])

    # (trS)  tr S = |theta|^2 - delta theta
    tr_s = float(np.trace(s_endo))
    res["trS"] = _normalized(abs(tr_s - (norm_sq - delta_theta)),
                             [abs(tr_s), abs(norm_sq), abs(delta_theta)])

    # (nablaJth)  nabla_X (J theta) = (J S X)^flat - J theta(X) theta
    #             - |theta|^2 (JX)^flat, checked on coordinate directions
    njtheta = covariant_derivative_full(chart, jtheta_field, p, (1, 0),
                                        mode=mode, step=fd.STEP_NESTED,
                                        order=fd.ORDER_NESTED)
    # row c: (JS e_c)^flat - (J theta)(e_c) theta - |theta|^2 (J e_c)^flat
    rhs_njt = (g @ js_endo).T - np.outer(j_theta, theta) - norm_sq * (g @ J).T
    diff = njtheta - rhs_njt
    scale = [form_norm(njtheta, g), form_norm(rhs_njt, g)]
    res["nablaJth"] = _normalized(form_norm(diff, g), scale)

    # (diffJth)  d(J theta) = 2 JS + theta ^ J theta - 2 |theta|^2 Omega
    d_jtheta = exterior_derivative(chart, jtheta_field, p, k=1,
                                   step=fd.STEP_NESTED,
                                   order=fd.ORDER_NESTED).components
    t1 = 2.0 * js_form
    t2 = wedge(theta, j_theta)
    t3 = -2.0 * norm_sq * omega
    res["diffJth"] = _normalized(form_norm(d_jtheta - t1 - t2 - t3, g),
                                 [form_norm(t, g) for t in (d_jtheta, t1, t2, t3)])

    # (lieJth)  [theta, J theta] = -|theta|^2 J theta     (as vector fields)
    br = lie_bracket(theta_sharp_field, jtheta_sharp_field, p,
                     step=fd.STEP_NESTED, order=fd.ORDER_NESTED)
    rhs_br = -norm_sq * (g_inv @ j_theta)
    vnorm = lambda v: float(np.sqrt(abs(v @ g @ v)))
    res["lieJth"] = _normalized(vnorm(br - rhs_br), [vnorm(br), vnorm(rhs_br)])

    # (codiffth)  delta(theta ^ J theta) = (delta theta + |theta|^2) J theta
    d_tj = codifferential(chart, theta_wedge_jtheta_field, p, k=2, mode=mode,
                          step=fd.STEP_NESTED, order=fd.ORDER_NESTED).components
    rhs_tj = (delta_theta + norm_sq) * j_theta
    res["codiffth"] = _normalized(vec(d_tj - rhs_tj), [vec(d_tj), vec(rhs_tj)])

    # (codiffom)  delta(|theta|^2 Omega) = -J(d|theta|^2) + (2-2n)|theta|^2 J theta
    d_no = codifferential(chart, norm_sq_omega_field, p, k=2, mode=mode,
                          step=fd.STEP_NESTED, order=fd.ORDER_NESTED).components
    t1 = J.T @ d_norm_sq                      # -J(d|theta|^2) = +J^T d|theta|^2
    t2 = (2.0 - n2) * norm_sq * j_theta
    res["codiffom"] = _normalized(vec(d_no - t1 - t2),
                                  [vec(d_no), vec(t1), vec(t2)])

    # (eqJdel2)  delta S = (delta theta) theta - 1/2 d|theta|^2 - lambda theta
    #            + d(delta theta)
    delta_s = -np.einsum("ab,ab...->...", g_inv,
                         covariant_derivative_full(chart, s_field, p, (2, 0),
                                                   mode=mode, step=fd.STEP_DEEP,
                                                   order=fd.ORDER_DEEP))
    d_delta_theta = fd.gradient(delta_theta_field, p, fd.STEP_DEEP, fd.ORDER_DEEP)
    terms = [delta_theta * theta, -0.5 * d_norm_sq, -lam * theta, d_delta_theta]
    res["eqJdel2"] = _normalized(vec(delta_s - sum(terms)),
                                 [vec(delta_s)] + [vec(t) for t in terms])

    # (eqJdel3)  J delta(JS) + delta S = -(delta theta) theta - d|theta|^2
    #            - |theta|^2 theta
    delta_js = codifferential(chart, js_form_field, p, k=2, mode=mode,
                              step=fd.STEP_DEEP, order=fd.ORDER_DEEP).components
    lhs3 = -J.T @ delta_js + delta_s
    terms3 = [-delta_theta * theta, -d_norm_sq, -norm_sq * theta]
    res["eqJdel3"] = _normalized(vec(lhs3 - sum(terms3)),
                                 [vec(lhs3)] + [vec(t) for t in terms3])

    # (summ)  3 (delta theta) theta - 2 lambda theta + d delta theta
    #         + d|theta|^2 + (2n-1)|theta|^2 theta = 0
    terms4 = [3.0 * delta_theta * theta, -2.0 * lam * theta, d_delta_theta,
              d_norm_sq, (n2 - 1.0) * norm_sq * theta]
    res["summ"] = _normalized(vec(sum(terms4)), [vec(t) for t in terms4])

    # (eqf)  d f = (2 lambda - 3 f + (4-2n)|theta|^2) theta,
    #        f = delta theta + |theta|^2
    f_val = delta_theta + norm_sq
    df = fd.gradient(f_field, p, fd.STEP_DEEP, fd.ORDER_DEEP)
    rhs_f = (2.0 * lam - 3.0 * f_val + (4.0 - n2) * norm_sq) * theta
    res["eqf"] = _normalized(vec(df - rhs_f), [vec(df), vec(rhs_f)])

    return res


# ---------------------------------------------------------------------------
# parallel unit field: the a/b decomposition of the Lee form
# ---------------------------------------------------------------------------

def parallel_field_residuals(H: HermitianStructure, p, v,
                             mode: str = "auto") -> dict:
    """Residuals of the nabla(JV) and d(JV) formulas for a parallel unit V.

    ``v`` holds constant coordinate components of the field.  Returns the
    residuals together with the sampled values a = <theta, V>, b = <theta, JV>.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    chart = H.chart
    g = chart.metric(p)
    J = H.J(p)

    nv = covariant_derivative_full(chart, fd.constant(v), p, (0, 1), mode=mode,
                                   step=fd.STEP_DIRECT, order=fd.ORDER_DIRECT)
    vnorm = lambda w: float(np.sqrt(abs(w @ g @ w)))
    if float(np.max(np.abs(nv))) > 1e-6 or abs(vnorm(v) - 1.0) > 1e-8:
        raise PreconditionError(
            f"V is not a parallel unit field on '{H.label}' at {p}")

    theta = lee_form_components(H, p, mode=mode)
    a = float(theta @ v)
    jv = J @ v
    b = float(theta @ jv)
    omega = H.omega(p)

    jv_field = lambda q: H.J(q) @ v
    njv = covariant_derivative_full(chart, jv_field, p, (0, 1), mode=mode,
                                    step=fd.STEP_DIRECT, order=fd.ORDER_DIRECT)
    res = {}
    rows_lhs = []
    rows_rhs = []
    m = chart.dim
    for c in range(m):
        x = np.zeros(m)
        x[c] = 1.0
        rhs = (float(g[c] @ v) * (-b * v + a * jv) + b * x
               - float(g[c] @ jv) * (a * v + b * jv) - a * (J @ x))
        rows_lhs.append(njv[c])
        rows_rhs.append(rhs)
    L = np.array(rows_lhs)
    Rh = np.array(rows_rhs)
    res["nablaJV"] = _normalized(
        form_norm(g @ (L - Rh).T, g), [form_norm(g @ L.T, g), form_norm(g @ Rh.T, g)])

    jv_flat_field = lambda q: np.matvec(chart.metric_fn(q), H.J(q) @ v)
    d_jv = exterior_derivative(chart, jv_flat_field, p, k=1,
                               step=fd.STEP_DIRECT,
                               order=fd.ORDER_DIRECT).components
    rhs_d = 2.0 * a * (wedge(g @ v, g @ jv) - omega)
    res["ddJV"] = _normalized(form_norm(d_jv - rhs_d, g),
                              [form_norm(d_jv, g), form_norm(rhs_d, g),
                               2.0 * abs(a) * form_norm(omega, g)])
    res["a"] = a
    res["b"] = b
    res["ab"] = abs(a * b)
    return res


# ---------------------------------------------------------------------------
# commuting Kahler/lcK pair and the Hamiltonian 2-form
# ---------------------------------------------------------------------------

def commuting_pair_residuals(I: HermitianStructure, J: HermitianStructure,
                             p, x=None, mode: str = "auto",
                             rng: Optional[np.random.Generator] = None) -> dict:
    """Structural relations of a Kahler/lcK pair: (g, I) Kahler, (g, J) lcK.

    The reconstruction of J from I carries the coefficient 2/|theta|^2, so
    points with |theta|^2 below the gate raise :class:`SingularPointError`.
    """
    p = np.asarray(p, dtype=float)
    if I.chart is not J.chart and I.chart.label != J.chart.label:
        raise PreconditionError("I and J must share one chart metric")
    chart = I.chart
    g = chart.metric(p)
    g_inv = np.linalg.inv(g)
    Im = I.J(p)
    Jm = J.J(p)
    n = I.n
    if x is None:
        rng = rng or np.random.default_rng(0)
        x = rng.standard_normal(chart.dim)
    x = np.asarray(x, dtype=float)

    theta = lee_form_components(J, p, mode=mode)
    norm_sq = float(theta @ g_inv @ theta)
    if norm_sq < 1e-10:
        raise SingularPointError(
            f"|theta|^2 = {norm_sq:.2e} at {p}: the sigma- and J-reconstruction "
            "identities divide by |theta|^2")
    i_theta = -Im.T @ theta
    j_theta = -Jm.T @ theta
    vec = lambda tau: float(np.sqrt(abs(tau @ g_inv @ tau)))
    res = {}

    comm = Im @ Jm - Jm @ Im
    res["commute"] = _normalized(_endo_norm(comm, g),
                                 [_endo_norm(Im @ Jm, g)])
    res["traceIJ"] = _normalized(abs(float(np.trace(Im @ Jm)) - (2.0 * n - 4.0)),
                                 [abs(float(np.trace(Im @ Jm))), 2.0 * n - 4.0])
    res["Itheta"] = _normalized(vec(i_theta - j_theta), [vec(i_theta), vec(j_theta)])

    # (J)  JX = -IX + 2/|theta|^2 (<X,theta> I theta - <X,I theta> theta)
    lhs_j = Jm @ x
    rhs_j = (-Im @ x + (2.0 / norm_sq) * (float(theta @ x) * (g_inv @ i_theta)
                                          - float(i_theta @ x) * (g_inv @ theta)))
    vnorm = lambda w: float(np.sqrt(abs(w @ g @ w)))
    res["eqJ"] = _normalized(vnorm(lhs_j - rhs_j), [vnorm(lhs_j), vnorm(rhs_j)])

    # (to)  theta ^ Omega^J = - theta ^ Omega^I
    om_i = form_of_endomorphism(Im, g)
    om_j = form_of_endomorphism(Jm, g)
    t1 = wedge(theta, om_j)
    t2 = wedge(theta, om_i)
    res["to"] = _normalized(form_norm(t1 + t2, g),
                            [form_norm(t1, g), form_norm(t2, g)])

    # (sigma)  1/2 (Omega^I + Omega^J) = theta ^ I theta / |theta|^2
    sigma = 0.5 * (om_i + om_j)
    rhs_s = wedge(theta, i_theta) / norm_sq
    res["sigma"] = _normalized(form_norm(sigma - rhs_s, g),
                               [form_norm(sigma, g), form_norm(rhs_s, g)])

    # (deromega)  nabla_X sigma = 1/2 (X ^ I theta - IX ^ theta) - <X,theta> sigma
    nsigma = covariant_derivative_full(chart, lambda q: _pair_sigma(I, J, q), p,
                                       (2, 0), mode=mode, step=fd.STEP_DIRECT,
                                       order=fd.ORDER_DIRECT)
    lhs_d = np.tensordot(x, nsigma, axes=(0, 0))
    rhs_d = (0.5 * (wedge(g @ x, i_theta) - wedge(g @ (Im @ x), theta))
             - float(theta @ x) * sigma)
    res["deromega"] = _normalized(form_norm(lhs_d - rhs_d, g),
                                  [form_norm(lhs_d, g), form_norm(rhs_d, g)])

    # (nablath)  sum_i <IJ nabla_{e_i} theta, e_i> = 2(n-1)|theta|^2 + delta theta
    ntheta = covariant_derivative_full(chart, lee_field(J, mode), p, (1, 0),
                                       mode=mode, step=fd.STEP_NESTED,
                                       order=fd.ORDER_NESTED)
    delta_theta = -float(np.einsum("ij,ij->", g_inv, ntheta))
    lhs_t = float(np.trace(Im @ Jm @ g_inv @ ntheta.T))
    rhs_t = 2.0 * (n - 1.0) * norm_sq + delta_theta
    res["nablath"] = _normalized(abs(lhs_t - rhs_t), [abs(lhs_t), abs(rhs_t)])

    # (et)  nabla_X theta = 1/2 |theta|^2 X - 1/2 (delta theta/|theta|^2 + n+1)
    #       <X,theta> theta - 1/2 (delta theta/|theta|^2 + n-1) <X,I theta> I theta
    lhs_e = x @ ntheta
    q = delta_theta / norm_sq
    rhs_e = (0.5 * norm_sq * (g @ x)
             - 0.5 * (q + n + 1.0) * float(theta @ x) * theta
             - 0.5 * (q + n - 1.0) * float(i_theta @ x) * i_theta)
    res["et"] = _normalized(vec(lhs_e - rhs_e),
                            [vec(lhs_e), vec(rhs_e), 0.5 * norm_sq * vnorm(x)])
    return res


class PotentialField:
    """Line-integrated conformal potential phi with d phi = theta.

    The value at a point is the integral of the Lee form along the straight
    segment from the chart base point; short increments between nearby points
    reuse path independence so stencil differences stay noise-free.  Safe for
    concurrent reads once constructed.
    """

    def __init__(self, H: HermitianStructure, base_point=None, nodes: int = 32,
                 mode: str = "auto"):
        self.H = H
        self.mode = mode
        self.nodes = nodes
        self.base_point = np.asarray(
            H.chart.center() if base_point is None else base_point, dtype=float)
        self._field = lee_field(H, mode)

    def __call__(self, p) -> float:
        return line_integral_segment(self.H.chart, self._field,
                                     self.base_point, p, nodes=self.nodes)

    def increment(self, p, q, nodes: int = 4):
        """Integral of theta from p to each of the points q, shape (..., m)
        (short-segment refinement)."""
        return line_integral_segment(self.H.chart, self._field, p, q, nodes=nodes)

    def path_defect(self, p, waypoint) -> float:
        """Difference between the direct path and a detour via ``waypoint``."""
        direct = self(p)
        detour = (line_integral_segment(self.H.chart, self._field,
                                        self.base_point, waypoint,
                                        nodes=self.nodes)
                  + line_integral_segment(self.H.chart, self._field,
                                          waypoint, p, nodes=self.nodes))
        return abs(direct - detour)


def hamiltonian_form_residual(I: HermitianStructure, J: HermitianStructure,
                              p, x, potential: PotentialField,
                              mode: str = "auto",
                              normalized: bool = True) -> float:
    """Residual of nabla_X sigma~ = 1/2 (d(tr sigma~) ^ IX - d^c(tr sigma~) ^ X).

    sigma~ = e^phi sigma with phi line-integrated from theta = d phi;
    tr sigma~ is the trace against the Kahler form of (g, I).  With
    ``normalized=False`` the raw |lhs - rhs| is returned (1-homogeneous in X).
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    chart = I.chart
    g = chart.metric(p)
    Im = I.J(p)
    phi_p = potential(p)

    def sigma_tilde_local(q):
        scale = np.exp(phi_p + potential.increment(p, q))
        return scale[..., None, None] * _pair_sigma(I, J, q)

    def trace_local(q):
        gq = np.asarray(chart.metric_fn(q), dtype=float)
        g_inv_q = np.linalg.inv(gq)
        om_i = form_of_endomorphism(I.J(q), gq)
        st = sigma_tilde_local(q)
        return 0.5 * np.einsum("...ab,...cd,...ac,...bd->...",
                               st, om_i, g_inv_q, g_inv_q)

    lhs = np.tensordot(
        x, covariant_derivative_full(chart, sigma_tilde_local, p, (2, 0),
                                     mode=mode, step=fd.STEP_DIRECT,
                                     order=fd.ORDER_DIRECT), axes=(0, 0))
    d_tr = fd.gradient(trace_local, p, fd.STEP_DIRECT, fd.ORDER_DIRECT)
    dc_tr = -Im.T @ d_tr
    rhs = 0.5 * (wedge(d_tr, g @ (Im @ x)) - wedge(dc_tr, g @ x))
    if not normalized:
        return form_norm(lhs - rhs, g)
    return _normalized(form_norm(lhs - rhs, g),
                       [form_norm(lhs, g), form_norm(rhs, g)])


# ---------------------------------------------------------------------------
# average-metric field equations
# ---------------------------------------------------------------------------

def average_metric_residuals(avg: HermitianStructure, p, x=None,
                             mode: str = "auto",
                             pair_J: Optional[HermitianStructure] = None,
                             rng: Optional[np.random.Generator] = None) -> dict:
    """Field equations of the average metric g0 with theta0 the Lee form of I.

    Fits the proportionality function f of nabla0 theta0 = f (theta0 (x)
    theta0 + I theta0 (x) I theta0) by least squares over the coordinate
    directions, then checks the xi / I xi / zeta derivative formulas, the
    Killing property of xi, and (when the conformal pair is supplied)
    theta0 = -1/2 d Phi against the pair Lee form.
    """
    p = np.asarray(p, dtype=float)
    chart = avg.chart
    g = chart.metric(p)
    g_inv = np.linalg.inv(g)
    Im = avg.J(p)
    if x is None:
        rng = rng or np.random.default_rng(0)
        x = rng.standard_normal(chart.dim)
    x = np.asarray(x, dtype=float)

    theta0_f = lee_field(avg, mode)
    theta0 = theta0_f(p)
    i_theta0 = -Im.T @ theta0
    ntheta0 = nabla_theta(avg, p, mode=mode)

    # least-squares fit of f over the 2n coordinate directions
    basis = np.einsum("c,j->cj", theta0, theta0) + np.einsum("c,j->cj", i_theta0, i_theta0)
    denom = float(np.sum(basis * basis))
    f_val = float(np.sum(basis * ntheta0)) / denom if denom > 0 else 0.0
    fit_res = form_norm(ntheta0 - f_val * basis, g)
    res = {"der0theta": _normalized(fit_res, [form_norm(ntheta0, g),
                                              abs(f_val) * form_norm(basis, g)])}

    def xi_field(q):
        gq = np.asarray(chart.metric_fn(q), dtype=float)
        return _solve(gq, avg.j_form(q, theta0_f(q)))

    xi = xi_field(p)
    xi_norm = float(np.sqrt(abs(xi @ g @ xi)))
    if xi_norm < 1e-5:
        raise SingularPointError(f"|xi| = {xi_norm:.2e} at {p}: zeta is undefined")
    i_xi_field = lambda q: np.matvec(avg.J(q), xi_field(q))
    i_xi = i_xi_field(p)

    vnorm = lambda w: float(np.sqrt(abs(w @ g @ w)))
    gdot = lambda u, w: float(u @ g @ w)

    # (der0Jxi)  nabla0_X (I xi) = -f (<X, I xi> I xi + <X, xi> xi)
    n_ixi = covariant_derivative_full(chart, i_xi_field, p, (0, 1), mode=mode,
                                      step=fd.STEP_NESTED, order=fd.ORDER_NESTED)
    lhs = x @ n_ixi
    rhs = -f_val * (gdot(x, i_xi) * i_xi + gdot(x, xi) * xi)
    res["der0Jxi"] = _normalized(vnorm(lhs - rhs), [vnorm(lhs), vnorm(rhs)])

    # (der0xi)  nabla0_X xi = (1+f)(<X,xi> I xi - <X,I xi> xi) - |xi|^2 I X
    n_xi = covariant_derivative_full(chart, xi_field, p, (0, 1), mode=mode,
                                     step=fd.STEP_NESTED, order=fd.ORDER_NESTED)
    lhs = x @ n_xi
    rhs = ((1.0 + f_val) * (gdot(x, xi) * i_xi - gdot(x, i_xi) * xi)
           - xi_norm ** 2 * (Im @ x))
    res["der0xi"] = _normalized(vnorm(lhs - rhs), [vnorm(lhs), vnorm(rhs)])

    # (derIxi)  nabla0_X zeta = -(f/|xi|) <X, xi> xi, zeta = I xi / |I xi|
    def zeta_field(q):
        gq = np.asarray(chart.metric_fn(q), dtype=float)
        w = i_xi_field(q)
        return w / np.sqrt(abs(np.vecdot(np.vecmat(w, gq), w)))[..., None]

    n_zeta = covariant_derivative_full(chart, zeta_field, p, (0, 1), mode=mode,
                                       step=fd.STEP_NESTED, order=fd.ORDER_NESTED)
    lhs = x @ n_zeta
    rhs = -(f_val / xi_norm) * gdot(x, xi) * xi
    res["derIxi"] = _normalized(vnorm(lhs - rhs), [vnorm(lhs), vnorm(rhs),
                                                   abs(f_val) * xi_norm * vnorm(x)])

    # (derzeta)  nabla0_zeta (I zeta) = 0
    i_zeta_field = lambda q: np.matvec(avg.J(q), zeta_field(q))
    n_izeta = covariant_derivative_full(chart, i_zeta_field, p, (0, 1),
                                        mode=mode, step=fd.STEP_NESTED,
                                        order=fd.ORDER_NESTED)
    zeta = zeta_field(p)
    res["derzeta"] = _normalized(vnorm(zeta @ n_izeta), [1.0])

    # Killing:  (L_xi g)_ij = xi^k d_k g_ij + g_kj d_i xi^k + g_ik d_j xi^k
    dg = chart.metric_jacobian(p, mode=mode)
    dxi = fd.gradient(xi_field, p, fd.STEP_NESTED, fd.ORDER_NESTED)
    lie_g = (np.einsum("k,kij->ij", xi, dg)
             + np.einsum("ik,kj->ij", dxi, g)
             + np.einsum("jk,ik->ij", dxi, g))
    res["killing"] = _normalized(form_norm(lie_g, g),
                                 [form_norm(np.einsum("k,kij->ij", xi, dg), g),
                                  form_norm(np.einsum("ik,kj->ij", dxi, g), g), 1.0])

    if pair_J is not None:
        theta_pair = lee_form_components(pair_J, p, mode=mode)
        vec = lambda tau: float(np.sqrt(abs(tau @ g_inv @ tau)))
        res["theta0_vs_pair"] = _normalized(vec(theta0 + 0.5 * theta_pair),
                                            [vec(theta0), 0.5 * vec(theta_pair)])
    res["f"] = f_val
    return res


# ---------------------------------------------------------------------------
# structure classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureClass:
    """Outcome of the Kahler / gcK / strictly-lcK / Vaisman discrimination."""

    kind: str
    evidence: dict
    periods: list = field(default_factory=list)


def classify_structure(H: HermitianStructure, samples, loops=None,
                       tol_id: float = 1e-4, tol_ode: float = 1e-6,
                       mode: str = "auto") -> StructureClass:
    """Classify (g, J) from sampled Lee-form data and loop periods.

    Gates are scale-normalized: |theta| is measured against the local metric
    scale sqrt(tr g / m) so a global homothety of g leaves every gate value
    unchanged.  Kinds: Kahler (theta = 0), Vaisman (nabla theta = 0,
    theta != 0), gcK (theta closed, all supplied periods ~ 0), or
    strictly-lcK-candidate (some period clearly nonzero; "candidate" because
    only the supplied loops are tested).
    """
    loops = loops or {}
    chart = H.chart
    m = chart.dim
    max_theta = 0.0
    max_nabla = 0.0
    max_dtheta = 0.0
    for p in samples:
        p = np.asarray(p, dtype=float)
        g = chart.metric(p)
        g_inv = np.linalg.inv(g)
        scale = float(np.sqrt(np.trace(g) / m))
        theta = lee_form_components(H, p, mode=mode)
        lck = lck_residual(H, p, theta, mode=mode)
        if lck > LCK_GATE:
            raise NotLcKError(f"'{H.label}' fails the lcK gate at {p}: {lck:.2e}")
        t_norm = float(np.sqrt(abs(theta @ g_inv @ theta))) * scale
        max_theta = max(max_theta, t_norm)
        ntheta = nabla_theta(H, p, mode=mode)
        max_nabla = max(max_nabla, form_norm(ntheta, g) * scale ** 2)
        dtheta = exterior_derivative(chart, lee_field(H, mode), p, k=1,
                                     step=fd.STEP_NESTED,
                                     order=fd.ORDER_NESTED).components
        max_dtheta = max(max_dtheta, form_norm(dtheta, g) * scale ** 2)

    periods = []
    for name, loop in loops.items():
        periods.append((name, loop_integral(chart, lee_field(H, mode), loop)))
    max_period = max((abs(v) for _, v in periods), default=0.0)

    evidence = {"max_theta": max_theta, "max_nabla_theta": max_nabla,
                "max_dtheta": max_dtheta, "max_period": max_period}

    if max_dtheta > 10.0 * tol_id:
        raise InconsistencyError(
            f"Lee form of '{H.label}' is not closed: max |d theta| = {max_dtheta:.2e}")

    if max_theta < tol_id:
        if max_period > 10.0 * tol_ode:
            raise InconsistencyError(
                f"'{H.label}': theta ~ 0 but a loop period is {max_period:.2e}")
        kind = "Kahler"
    elif max_nabla < tol_id:
        kind = "Vaisman"
    elif max_period < tol_ode * (1.0 + max_theta):
        kind = "gcK"
    elif max_period >= 10.0 * tol_ode:
        kind = "strictly-lcK-candidate"
    else:
        raise InconsistencyError(
            f"'{H.label}': periods in the ambiguous band around tol_ode "
            f"({max_period:.2e})")
    return StructureClass(kind=kind, evidence=evidence, periods=periods)
