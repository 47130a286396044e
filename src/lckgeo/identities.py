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
* :func:`lck_identity_residuals`, the five lcK identities at a sample: the
  three above, d Omega = 2 theta ^ Omega, and delta Omega = (2-2n) J theta
  with theta read from d Omega by least squares (the cross road)
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

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fd
from .calculus import (codifferential_of, covariant_partials,
                       exterior_of_partials, ricci_scalar)
from .charts import (first_flagged, form_of_endomorphism, raised_norm,
                     vector_norm, wedge, wedge_endo)
from .errors import (InconsistencyError, NotLcKError, PreconditionError,
                     SingularPointError, in_item_order)
from .hermitian import (HermitianStructure, LeeParts, NestedLee, j_on_forms,
                        lck_residual, lee_field, lee_form_components,
                        lee_form_parts, nested_lee, require_lck)
from .transport import line_integral_segment, loop_integral


def _endo_norm(a: np.ndarray, g: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    return raised_norm(np.swapaxes(a, -1, -2) @ g, g_inv)


def _normalized(diff_norm, term_norms) -> np.ndarray:
    """diff_norm / (1 + the largest term norm) at each point; the largest is
    the first one no later norm exceeds, as ``max`` picks it."""
    largest = functools.reduce(lambda a, b: np.where(b > a, b, a), term_norms)
    return diff_norm / (1.0 + largest)


def _solve(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g^-1 v at each point of a stack of matrices g and vectors v."""
    return np.linalg.solve(g, v[..., None])[..., 0]


# The products of vectors and matrices at each point of a stack, each one
# matrix product per point, shaped as the single-point ``@`` shapes it.  Two
# vectors are contracted by ``np.vecdot``, the one dot product of ``u @ v``.

def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The matrix a times the vector v."""
    return (a @ v[..., None])[..., 0]


def _along(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The direction x contracted with the first axis of the tensor t after
    the point axes: ``np.tensordot(x, t, axes=(0, 0))`` at one point, and
    ``x @ t`` for a matrix t."""
    points = t.shape[:x.ndim - 1]
    flat = t.reshape(points + t.shape[x.ndim - 1:x.ndim] + (-1,))
    return (x[..., None, :] @ flat).reshape(points + t.shape[x.ndim:])


def _scaled(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The tensor t times the number s at each point."""
    return s[(...,) + (None,) * (t.ndim - s.ndim)] * t


def _squared(s) -> np.ndarray:
    """s ** 2 at each point, squared as Python squares a float: by the C
    library's pow, which does not always round as s * s does."""
    return np.reshape([v ** 2 for v in np.ravel(s).tolist()], np.shape(s))


def _covariant(values: np.ndarray, value: np.ndarray, gamma: np.ndarray,
               valence: tuple, stencil: fd.Stencil) -> np.ndarray:
    """All covariant partials at each point of a tensor field, from its
    values at the stencil points around it, its value there and the
    Christoffel symbols there: bitwise what the generic route gives from the
    field."""
    lead = gamma.ndim - 3
    return covariant_partials(fd.difference(values, stencil, lead), value,
                              gamma, valence, lead)


def _directions(x, p: np.ndarray) -> np.ndarray:
    """The direction at each of the points p: x, or without it one draw of
    ``np.random.default_rng(0)`` at every point."""
    if x is None:
        x = np.random.default_rng(0).standard_normal(p.shape[-1])
    return np.broadcast_to(np.asarray(x, dtype=float), p.shape)


# ---------------------------------------------------------------------------
# single-identity residuals
# ---------------------------------------------------------------------------

def nabla_j_residual(parts: LeeParts, x) -> np.ndarray:
    """|nabla_X J - (X ^ J theta + JX ^ theta)| at each point, term-
    normalized, from the :func:`lckgeo.hermitian.lee_form_parts` there."""
    x = np.asarray(x, dtype=float)
    g, g_inv, J, theta = parts.g, parts.g_inv, parts.J, parts.theta
    j_theta = j_on_forms(J, theta)
    nJ = _covariant(parts.J_around, J, parts.gamma, (1, 1), fd.DIRECT)
    lhs = _along(x, nJ)
    t1 = wedge_endo(x, j_theta, g)
    t2 = wedge_endo(_mv(J, x), theta, g)
    rhs = t1 + t2
    terms = [_endo_norm(t, g, g_inv) for t in (lhs, t1, t2)]
    return _normalized(_endo_norm(lhs - rhs, g, g_inv), terms)


def curvature_j_residuals(H: HermitianStructure, parts: LeeParts,
                          nested: NestedLee, x, y) -> tuple:
    """Residuals of the full R.J formula and of its frame contraction at
    each point, from the :func:`lckgeo.hermitian.lee_form_parts` there and
    the :func:`lckgeo.hermitian.nested_lee` pass around it."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    g, g_inv, J, theta = parts.g, parts.g_inv, parts.J, parts.theta
    j_theta = j_on_forms(J, theta)
    ntheta = nested.ntheta                          # ntheta[c, j]
    norm_sq = np.vecdot(_along(theta, g_inv), theta)
    R = nested.riemann                              # R[a, b, c, d]

    # --- full formula -------------------------------------------------------
    RXY = np.einsum("...abcd,...c,...d->...ab", R, x, y)
    lhs = RXY @ J - J @ RXY
    nx_theta = _along(x, ntheta)                     # (nabla_X theta)_j
    ny_theta = _along(y, ntheta)
    jx, jy = _mv(J, x), _mv(J, y)
    theta_x, theta_y = np.vecdot(theta, x), np.vecdot(theta, y)
    terms = [
        _scaled(theta_x, wedge_endo(y, j_theta, g)),
        _scaled(-theta_y, wedge_endo(x, j_theta, g)),
        _scaled(-theta_y, wedge_endo(jx, theta, g)),
        _scaled(theta_x, wedge_endo(jy, theta, g)),
        _scaled(-norm_sq, wedge_endo(y, _mv(g, jx), g)),
        _scaled(norm_sq, wedge_endo(x, _mv(g, jy), g)),
        wedge_endo(y, j_on_forms(J, nx_theta), g),
        wedge_endo(jy, nx_theta, g),
        -wedge_endo(x, j_on_forms(J, ny_theta), g),
        -wedge_endo(jx, ny_theta, g),
    ]
    rhs = sum(terms)
    norms = ([_endo_norm(t, g, g_inv) for t in terms]
             + [_endo_norm(lhs, g, g_inv)])
    res_full = _normalized(_endo_norm(lhs - rhs, g, g_inv), norms)

    # --- contraction --------------------------------------------------------
    # sum_j (R_{X,e_j} J)(e_j) = g^{jl} [R(X, e_j)(J e_l) - J R(X, e_j) e_l]
    lhs_c = (np.einsum("...abcj,...c,...bl,...jl->...a", R, x, J, g_inv)
             - np.einsum("...ae,...elcj,...c,...jl->...a", J, R, x, g_inv))
    delta_theta = -np.einsum("...ij,...ij->...", g_inv, ntheta)
    sharp = lambda tau: _mv(g_inv, tau)
    c_terms = [
        _scaled((2.0 * H.n - 3.0) * theta_x, sharp(j_theta)),
        _scaled(-(2.0 * H.n - 3.0) * norm_sq, jx),
        (2.0 * H.n - 3.0) * _mv(J, sharp(nx_theta)),
        _scaled(-np.vecdot(theta, jx), sharp(theta)),
        -sharp(_along(jx, ntheta)),
        _scaled(-delta_theta, jx),
    ]
    rhs_c = sum(c_terms)
    c_norms = [vector_norm(t, g) for t in c_terms] + [vector_norm(lhs_c, g)]
    res_contr = _normalized(vector_norm(lhs_c - rhs_c, g), c_norms)
    return res_full, res_contr


def lck_identity_residuals(H: HermitianStructure, p, x, y) -> dict:
    """The lcK identities at each of the points p, shape (..., m), in the
    directions x, y there: nablaJ, dOmega, deltaOmega, RJ and RJcontr, each
    of shape (...,).

    Every check reads the Lee-form parts at p, and the curvature checks the
    NESTED pass around it.  deltaOmega takes theta from d Omega = 2 theta ^
    Omega by least squares, one point at a time, so it crosses the d Omega
    road with the delta Omega road that gives parts.theta.
    """
    p = np.asarray(p, dtype=float)
    lead = p.ndim - 1
    parts = lee_form_parts(H, p)
    omega, g_inv = parts.omega, parts.g_inv
    points, m = p.shape[:lead], p.shape[-1]
    cols = np.stack([2.0 * wedge(np.broadcast_to(e, p.shape), omega,
                                 lead).reshape(points + (-1,))
                     for e in np.eye(m)], axis=-1)
    d_omega = exterior_of_partials(parts.omega_partials, 2, lead)
    theta_d = np.reshape([
        np.linalg.lstsq(a, b, rcond=None)[0]
        for a, b in zip(cols.reshape((-1,) + cols.shape[lead:]),
                        d_omega.reshape(-1, m ** 3))], p.shape)
    j_theta_d = j_on_forms(parts.J, theta_d)
    delta_om = parts.delta_omega
    coef = 2.0 - 2.0 * H.n
    r_rj, r_rjc = curvature_j_residuals(H, parts, nested_lee(H, p, parts),
                                        x, y)
    return {"nablaJ": nabla_j_residual(parts, x),
            "dOmega": lck_residual(parts),
            "deltaOmega": _normalized(
                vector_norm(delta_om - coef * j_theta_d, g_inv),
                [vector_norm(delta_om, g_inv),
                 abs(coef) * vector_norm(j_theta_d, g_inv)]),
            "RJ": r_rj, "RJcontr": r_rjc}


def s_commutator_residual(H: HermitianStructure, p) -> float:
    """|SJ - JS| for S = nabla theta + theta (x) theta (Einstein assumption)."""
    p = np.asarray(p, dtype=float)
    parts = lee_form_parts(H, p)
    g, g_inv, J, theta = parts.g, parts.g_inv, parts.J, parts.theta
    s_cov = nested_lee(H, p, parts).ntheta + np.outer(theta, theta)
    s_endo = np.linalg.solve(g, s_cov)
    comm = s_endo @ J - J @ s_endo
    return _normalized(_endo_norm(comm, g, g_inv),
                       [_endo_norm(s_endo @ J, g, g_inv),
                        _endo_norm(J @ s_endo, g, g_inv)])


# ---------------------------------------------------------------------------
# Einstein chain
# ---------------------------------------------------------------------------

def einstein_deviation(H: HermitianStructure, p, lam: float) -> float:
    """Term-normalized |Ric - lambda g| at p."""
    ric, _ = ricci_scalar(H.chart, p)
    g = H.chart.metric(p)
    return _ricci_deviation(ric.components, lam, g, np.linalg.inv(g))


def _ricci_deviation(ric: np.ndarray, lam: float, g: np.ndarray,
                     g_inv: np.ndarray) -> float:
    diff = ric - lam * g
    return _normalized(raised_norm(diff, g_inv),
                       [raised_norm(ric, g_inv),
                        abs(lam) * raised_norm(g, g_inv)])


def einstein_chain_residuals(H: HermitianStructure, p, lam: float) -> dict:
    """The eleven named residuals of the Einstein-case derivation at each of
    the points p, shape (..., m), each of shape (...,).

    Requires (chart, J) Einstein with constant ``lam``; the flat inversion
    chart realizes lam = 0.
    """
    p = np.asarray(p, dtype=float)
    lead = p.ndim - 1
    chart = H.chart

    # The Lee-form parts at p and on the NESTED stencil around it; Ric comes
    # from the curvature of the NESTED pass at p.
    parts = lee_form_parts(H, p)
    nested = nested_lee(H, p, parts)
    around = nested.around
    R = nested.riemann
    g, g_inv, J, omega = parts.g, parts.g_inv, parts.J, parts.omega
    deviation = _ricci_deviation(np.einsum("...abad->...bd", R), lam, g, g_inv)
    if (deviation > 1e-3).any():
        raise PreconditionError(
            f"structure '{H.label}' is not Einstein with lambda={lam} at "
            f"{p[first_flagged(deviation > 1e-3)]}")

    # derived fields as functions of the parts (and of nabla theta for S),
    # differenced on the stencil whose parts they read: evaluation noise one
    # stencil deep -> NESTED steps; two deep (S, delta theta, f) -> DEEP steps
    def jtheta_of(at):
        return j_on_forms(at.J, at.theta)

    def norm_sq_of(at):
        return np.vecdot(at.theta, _solve(at.g, at.theta))

    def s_of(at, ntheta):
        return ntheta + at.theta[..., :, None] * at.theta[..., None, :]

    def js_form_of(at, ntheta):
        endo = at.J @ np.linalg.solve(at.g, s_of(at, ntheta))
        return form_of_endomorphism(endo, at.g)

    def wedge_jtheta_of(at):
        return wedge(at.theta, jtheta_of(at), lead=at.theta.ndim - 1)

    def norm_sq_omega_of(at):
        return norm_sq_of(at)[..., None, None] * at.omega

    n = H.n
    n2 = 2 * n
    theta = parts.theta
    j_theta = j_on_forms(J, theta)
    theta_sharp = _mv(g_inv, theta)
    norm_sq = np.vecdot(theta, theta_sharp)

    ntheta = nested.ntheta
    s_cov = s_of(parts, ntheta)
    s_endo = g_inv @ s_cov
    delta_theta = -np.einsum("...ij,...ij->...", g_inv, ntheta)
    js_endo = J @ s_endo
    js_form = form_of_endomorphism(js_endo, g)

    d_norm_sq = fd.difference(norm_sq_of(around), fd.NESTED, lead)
    d_jtheta = fd.difference(jtheta_of(around), fd.NESTED, lead)
    res = {}

    # (Sth)  S theta = 1/2 d|theta|^2 + |theta|^2 theta
    lhs = _mv(s_cov, theta_sharp)
    t1, t2 = 0.5 * d_norm_sq, _scaled(norm_sq, theta)
    res["Sth"] = _normalized(vector_norm(lhs - t1 - t2, g_inv),
                             [vector_norm(t, g_inv) for t in (lhs, t1, t2)])

    # (trS)  tr S = |theta|^2 - delta theta
    tr_s = np.trace(s_endo, axis1=-2, axis2=-1)
    res["trS"] = _normalized(abs(tr_s - (norm_sq - delta_theta)),
                             [abs(tr_s), abs(norm_sq), abs(delta_theta)])

    # (nablaJth)  nabla_X (J theta) = (J S X)^flat - J theta(X) theta
    #             - |theta|^2 (JX)^flat, checked on coordinate directions
    njtheta = covariant_partials(d_jtheta, jtheta_of(parts), parts.gamma,
                                 (1, 0), lead)
    # row c: (JS e_c)^flat - (J theta)(e_c) theta - |theta|^2 (J e_c)^flat
    rhs_njt = (np.swapaxes(g @ js_endo, -1, -2)
               - j_theta[..., :, None] * theta[..., None, :]
               - _scaled(norm_sq, np.swapaxes(g @ J, -1, -2)))
    diff = njtheta - rhs_njt
    scale = [raised_norm(njtheta, g_inv), raised_norm(rhs_njt, g_inv)]
    res["nablaJth"] = _normalized(raised_norm(diff, g_inv), scale)

    # (diffJth)  d(J theta) = 2 JS + theta ^ J theta - 2 |theta|^2 Omega
    dj_form = exterior_of_partials(d_jtheta, 1, lead)
    t1 = 2.0 * js_form
    t2 = wedge(theta, j_theta, lead)
    t3 = _scaled(-2.0 * norm_sq, omega)
    res["diffJth"] = _normalized(raised_norm(dj_form - t1 - t2 - t3, g_inv),
                                 [raised_norm(t, g_inv)
                                  for t in (dj_form, t1, t2, t3)])

    # (lieJth)  [theta, J theta] = -|theta|^2 J theta     (as vector fields)
    #            by the coordinate bracket v^j d_j w^k - w^j d_j v^k
    d_sharp = fd.difference(_solve(around.g, around.theta), fd.NESTED, lead)
    d_jsharp = fd.difference(_solve(around.g, jtheta_of(around)), fd.NESTED,
                             lead)
    br = (_along(_solve(g, theta), d_jsharp)
          - _along(_solve(g, jtheta_of(parts)), d_sharp))
    rhs_br = _scaled(-norm_sq, _mv(g_inv, j_theta))
    res["lieJth"] = _normalized(vector_norm(br - rhs_br, g),
                                [vector_norm(br, g), vector_norm(rhs_br, g)])

    # (codiffth)  delta(theta ^ J theta) = (delta theta + |theta|^2) J theta
    d_tj = codifferential_of(_covariant(
        wedge_jtheta_of(around), wedge_jtheta_of(parts), parts.gamma, (2, 0),
        fd.NESTED), g_inv, lead)
    rhs_tj = _scaled(delta_theta + norm_sq, j_theta)
    res["codiffth"] = _normalized(vector_norm(d_tj - rhs_tj, g_inv),
                                  [vector_norm(d_tj, g_inv),
                                   vector_norm(rhs_tj, g_inv)])

    # (codiffom)  delta(|theta|^2 Omega) = -J(d|theta|^2) + (2-2n)|theta|^2 J theta
    d_no = codifferential_of(_covariant(
        norm_sq_omega_of(around), norm_sq_omega_of(parts), parts.gamma,
        (2, 0), fd.NESTED), g_inv, lead)
    # -J(d|theta|^2) = +J^T d|theta|^2
    t1 = _mv(np.swapaxes(J, -1, -2), d_norm_sq)
    t2 = _scaled((2.0 - n2) * norm_sq, j_theta)
    res["codiffom"] = _normalized(vector_norm(d_no - t1 - t2, g_inv),
                                  [vector_norm(t, g_inv)
                                   for t in (d_no, t1, t2)])

    # (eqJdel2)  delta S = (delta theta) theta - 1/2 d|theta|^2 - lambda theta
    #            + d(delta theta)
    # the parts and the NESTED pass on the DEEP stencil
    chart.require_inside(p, margin=fd.DEEP.extent)
    deep_points = fd.stencil_points(p, fd.DEEP)
    deep = lee_form_parts(H, deep_points)
    deep_ntheta = nested_lee(H, deep_points, deep).ntheta
    deep_delta_theta = -np.einsum("...ij,...ij->...", deep.g_inv, deep_ntheta)
    delta_s = -np.einsum("...ab,...abj->...j", g_inv, _covariant(
        s_of(deep, deep_ntheta), s_cov, parts.gamma, (2, 0), fd.DEEP))
    d_delta_theta = fd.difference(deep_delta_theta, fd.DEEP, lead)
    terms = [_scaled(delta_theta, theta), -0.5 * d_norm_sq, -lam * theta,
             d_delta_theta]
    res["eqJdel2"] = _normalized(vector_norm(delta_s - sum(terms), g_inv),
                                 [vector_norm(t, g_inv)
                                  for t in [delta_s] + terms])

    # (eqJdel3)  J delta(JS) + delta S = -(delta theta) theta - d|theta|^2
    #            - |theta|^2 theta
    delta_js = codifferential_of(_covariant(
        js_form_of(deep, deep_ntheta), js_form_of(parts, ntheta), parts.gamma,
        (2, 0), fd.DEEP), g_inv, lead)
    lhs3 = j_on_forms(J, delta_js) + delta_s
    terms3 = [_scaled(-delta_theta, theta), -d_norm_sq,
              _scaled(-norm_sq, theta)]
    res["eqJdel3"] = _normalized(vector_norm(lhs3 - sum(terms3), g_inv),
                                 [vector_norm(t, g_inv)
                                  for t in [lhs3] + terms3])

    # (summ)  3 (delta theta) theta - 2 lambda theta + d delta theta
    #         + d|theta|^2 + (2n-1)|theta|^2 theta = 0
    terms4 = [_scaled(3.0 * delta_theta, theta), -2.0 * lam * theta,
              d_delta_theta, d_norm_sq, _scaled((n2 - 1.0) * norm_sq, theta)]
    res["summ"] = _normalized(vector_norm(sum(terms4), g_inv),
                              [vector_norm(t, g_inv) for t in terms4])

    # (eqf)  d f = (2 lambda - 3 f + (4-2n)|theta|^2) theta,
    #        f = delta theta + |theta|^2
    f_val = delta_theta + norm_sq
    df = fd.difference(deep_delta_theta + norm_sq_of(deep), fd.DEEP, lead)
    rhs_f = _scaled(2.0 * lam - 3.0 * f_val + (4.0 - n2) * norm_sq, theta)
    res["eqf"] = _normalized(vector_norm(df - rhs_f, g_inv),
                             [vector_norm(df, g_inv),
                              vector_norm(rhs_f, g_inv)])

    return res


# ---------------------------------------------------------------------------
# parallel unit field: the a/b decomposition of the Lee form
# ---------------------------------------------------------------------------

def parallel_field_residuals(H: HermitianStructure, p, v) -> dict:
    """Residuals of the nabla(JV) and d(JV) formulas for a parallel unit V
    at each of the points p, shape (..., m).

    ``v`` holds constant coordinate components of the field.  Returns the
    residuals together with the sampled values a = <theta, V>, b = <theta, JV>,
    each of shape (...,).
    """
    p = np.asarray(p, dtype=float)
    lead = p.ndim - 1
    v = np.broadcast_to(np.asarray(v, dtype=float), p.shape)
    m = H.chart.dim
    parts = lee_form_parts(H, p)
    g, g_inv, J = parts.g, parts.g_inv, parts.J

    # V has constant components; JV is differenced from parts.J_around
    nv = covariant_partials(np.zeros(p.shape + (m,)), v, parts.gamma, (0, 1),
                            lead)
    failed = ((np.max(np.abs(nv), axis=(-2, -1)) > 1e-6)
              | (abs(vector_norm(v, g) - 1.0) > 1e-8))
    if failed.any():
        raise PreconditionError(
            f"V is not a parallel unit field on '{H.label}' at "
            f"{p[first_flagged(failed)]}")

    theta = parts.theta
    a = np.vecdot(theta, v)
    jv = _mv(J, v)
    b = np.vecdot(theta, jv)
    omega = parts.omega

    jv_around = _mv(parts.J_around, v[..., None, None, :])
    njv = _covariant(jv_around, jv, parts.gamma, (0, 1), fd.DIRECT)
    res = {}
    rows = []       # row c: the formula for nabla_{e_c} (JV)
    for c in range(m):
        x = np.broadcast_to(np.eye(m)[c], p.shape)
        rows.append(_scaled(np.vecdot(g[..., c, :], v),
                            _scaled(-b, v) + _scaled(a, jv))
                    + _scaled(b, x)
                    - _scaled(np.vecdot(g[..., c, :], jv),
                              _scaled(a, v) + _scaled(b, jv))
                    - _scaled(a, _mv(J, x)))
    rhs = np.stack(rows, axis=-2)
    res["nablaJV"] = _normalized(
        raised_norm(g @ np.swapaxes(njv - rhs, -1, -2), g_inv),
        [raised_norm(g @ np.swapaxes(njv, -1, -2), g_inv),
         raised_norm(g @ np.swapaxes(rhs, -1, -2), g_inv)])

    d_jv = exterior_of_partials(fd.difference(
        np.matvec(parts.g_around, jv_around), fd.DIRECT, lead), 1, lead)
    rhs_d = _scaled(2.0 * a, wedge(_mv(g, v), _mv(g, jv), lead) - omega)
    res["ddJV"] = _normalized(raised_norm(d_jv - rhs_d, g_inv),
                              [raised_norm(d_jv, g_inv),
                               raised_norm(rhs_d, g_inv),
                               2.0 * abs(a) * raised_norm(omega, g_inv)])
    res["a"] = a
    res["b"] = b
    res["ab"] = abs(a * b)
    return res


# ---------------------------------------------------------------------------
# commuting Kahler/lcK pair and the Hamiltonian 2-form
# ---------------------------------------------------------------------------

def _pair_parts(I: HermitianStructure, J: HermitianStructure, p) -> tuple:
    """The one pass of both pair checks at each of the points p: J's
    Lee-form parts, I, Omega^I on the DIRECT stencil around p, and sigma =
    1/2 (Omega^I + Omega^J) at p and on that stencil.  J's Lee-form pass
    gives the validated values of the metric I and J must share, and I is
    evaluated at the same points."""
    if I.chart.metric_fn is not J.chart.metric_fn:
        raise PreconditionError("I and J must share one chart metric")
    parts = lee_form_parts(J, p)
    Im = I.J(p)
    omega_i_around = form_of_endomorphism(
        I.J(fd.stencil_points(p, fd.DIRECT)), parts.g_around)
    sigma = 0.5 * (form_of_endomorphism(Im, parts.g) + parts.omega)
    sigma_around = 0.5 * (omega_i_around + form_of_endomorphism(
        parts.J_around, parts.g_around))
    return parts, Im, omega_i_around, sigma, sigma_around


def commuting_pair_residuals(I: HermitianStructure, J: HermitianStructure,
                             p, x=None) -> dict:
    """Structural relations of a Kahler/lcK pair, (g, I) Kahler and (g, J)
    lcK, at each of the points p, shape (..., m), in the direction x there.

    The reconstruction of J from I carries the coefficient 2/|theta|^2, so
    points with |theta|^2 below the gate raise :class:`SingularPointError`.
    Without ``x`` the direction is drawn from ``np.random.default_rng(0)``.
    I and J must share one ``metric_fn``, or :class:`PreconditionError` is
    raised, here and in :func:`hamiltonian_form_residual`.
    """
    p = np.asarray(p, dtype=float)
    lead = p.ndim - 1
    parts, Im, _, sigma, sigma_around = _pair_parts(I, J, p)
    g, g_inv, Jm, theta = parts.g, parts.g_inv, parts.J, parts.theta
    n = I.n
    x = _directions(x, p)

    norm_sq = np.vecdot(_along(theta, g_inv), theta)
    if (norm_sq < 1e-10).any():
        k = first_flagged(norm_sq < 1e-10)
        raise SingularPointError(
            f"|theta|^2 = {norm_sq[k]:.2e} at {p[k]}: the sigma- and "
            "J-reconstruction identities divide by |theta|^2")
    i_theta = j_on_forms(Im, theta)
    j_theta = j_on_forms(Jm, theta)
    theta_x, i_theta_x = np.vecdot(theta, x), np.vecdot(i_theta, x)
    res = {}

    comm = Im @ Jm - Jm @ Im
    res["commute"] = _normalized(_endo_norm(comm, g, g_inv),
                                 [_endo_norm(Im @ Jm, g, g_inv)])
    trace_ij = np.trace(Im @ Jm, axis1=-2, axis2=-1)
    res["traceIJ"] = _normalized(abs(trace_ij - (2.0 * n - 4.0)),
                                 [abs(trace_ij), 2.0 * n - 4.0])
    res["Itheta"] = _normalized(vector_norm(i_theta - j_theta, g_inv),
                                [vector_norm(i_theta, g_inv),
                                 vector_norm(j_theta, g_inv)])

    # (J)  JX = -IX + 2/|theta|^2 (<X,theta> I theta - <X,I theta> theta)
    lhs_j = _mv(Jm, x)
    rhs_j = (_mv(-Im, x)
             + _scaled(2.0 / norm_sq,
                       _scaled(theta_x, _mv(g_inv, i_theta))
                       - _scaled(i_theta_x, _mv(g_inv, theta))))
    res["eqJ"] = _normalized(vector_norm(lhs_j - rhs_j, g),
                             [vector_norm(lhs_j, g), vector_norm(rhs_j, g)])

    # (to)  theta ^ Omega^J = - theta ^ Omega^I
    t1 = wedge(theta, parts.omega, lead)
    t2 = wedge(theta, form_of_endomorphism(Im, g), lead)
    res["to"] = _normalized(raised_norm(t1 + t2, g_inv),
                            [raised_norm(t1, g_inv), raised_norm(t2, g_inv)])

    # (sigma)  1/2 (Omega^I + Omega^J) = theta ^ I theta / |theta|^2
    rhs_s = wedge(theta, i_theta, lead) / norm_sq[..., None, None]
    res["sigma"] = _normalized(raised_norm(sigma - rhs_s, g_inv),
                               [raised_norm(sigma, g_inv),
                                raised_norm(rhs_s, g_inv)])

    # (deromega)  nabla_X sigma = 1/2 (X ^ I theta - IX ^ theta) - <X,theta> sigma
    nsigma = _covariant(sigma_around, sigma, parts.gamma, (2, 0), fd.DIRECT)
    lhs_d = _along(x, nsigma)
    rhs_d = (0.5 * (wedge(_mv(g, x), i_theta, lead)
                    - wedge(_mv(g, _mv(Im, x)), theta, lead))
             - _scaled(theta_x, sigma))
    res["deromega"] = _normalized(raised_norm(lhs_d - rhs_d, g_inv),
                                  [raised_norm(lhs_d, g_inv),
                                   raised_norm(rhs_d, g_inv)])

    # (nablath)  sum_i <IJ nabla_{e_i} theta, e_i> = 2(n-1)|theta|^2 + delta theta
    ntheta = nested_lee(J, p, parts).ntheta
    delta_theta = -np.einsum("...ij,...ij->...", g_inv, ntheta)
    lhs_t = np.trace(Im @ Jm @ g_inv @ np.swapaxes(ntheta, -1, -2),
                     axis1=-2, axis2=-1)
    rhs_t = 2.0 * (n - 1.0) * norm_sq + delta_theta
    res["nablath"] = _normalized(abs(lhs_t - rhs_t), [abs(lhs_t), abs(rhs_t)])

    # (et)  nabla_X theta = 1/2 |theta|^2 X - 1/2 (delta theta/|theta|^2 + n+1)
    #       <X,theta> theta - 1/2 (delta theta/|theta|^2 + n-1) <X,I theta> I theta
    lhs_e = _along(x, ntheta)
    q = delta_theta / norm_sq
    rhs_e = (_scaled(0.5 * norm_sq, _mv(g, x))
             - _scaled(0.5 * (q + n + 1.0) * theta_x, theta)
             - _scaled(0.5 * (q + n - 1.0) * i_theta_x, i_theta))
    res["et"] = _normalized(vector_norm(lhs_e - rhs_e, g_inv),
                            [vector_norm(lhs_e, g_inv),
                             vector_norm(rhs_e, g_inv),
                             0.5 * norm_sq * vector_norm(x, g)])
    return res


class PotentialField:
    """Line-integrated conformal potential phi with d phi = theta.

    The value at each of the points p, shape (..., m), is the integral of
    the Lee form along the straight segment from the chart centre (32
    Gauss-Legendre nodes), and 0.0 at the centre itself; short increments
    between nearby points reuse path independence so stencil differences
    stay noise-free.
    """

    def __init__(self, H: HermitianStructure):
        self.H = H
        self.base_point = H.chart.center()
        self._field = lee_field(H)

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        # a segment of length 0 evaluates no field
        away = (p != self.base_point).any(axis=-1)
        phi = np.zeros(p.shape[:-1])
        if away.any():
            phi[away] = self.increment(self.base_point, p[away], nodes=32)
        return phi[()]

    def increment(self, p, q, nodes: int = 4):
        """Integral of theta from p to each of the points q, shape (..., m)
        (short-segment refinement); p is one point or one per segment."""
        return line_integral_segment(self._field, p, q, nodes=nodes)

    def path_defect(self, p, waypoint) -> float:
        """Difference between the direct path and a detour via ``waypoint``."""
        detour = self(waypoint) + self.increment(waypoint, p, nodes=32)
        return abs(self(p) - detour)


def hamiltonian_form_residual(I: HermitianStructure, J: HermitianStructure,
                              p, x, potential: PotentialField,
                              normalized: bool = True) -> np.ndarray:
    """Residual of nabla_X sigma~ = 1/2 (d(tr sigma~) ^ IX - d^c(tr sigma~) ^ X),
    at each of the points p, shape (..., m), in the direction x there.

    sigma~ = e^phi sigma with phi line-integrated from theta = d phi;
    tr sigma~ is the trace against the Kahler form of (g, I).  With
    ``normalized=False`` the raw |lhs - rhs| is returned (1-homogeneous in X).
    """
    p = np.asarray(p, dtype=float)
    x = np.asarray(x, dtype=float)
    lead = p.ndim - 1
    parts, Im, omega_i_around, sigma, sigma_around = _pair_parts(I, J, p)
    g, g_inv = parts.g, parts.g_inv
    phi_p = potential(p)

    # sigma~ and the trace of sigma~ on the DIRECT stencil; sigma~ at p is
    # e^phi(p) sigma: theta over the segment p -> p is +0.0
    around = fd.stencil_points(p, fd.DIRECT)
    scale = np.exp(np.asarray(phi_p)[..., None, None] + potential.increment(
        p[..., None, None, :], around))
    sigma_tilde = scale[..., None, None] * sigma_around
    g_inv_around = np.linalg.inv(parts.g_around)
    trace = 0.5 * np.einsum("...ab,...cd,...ac,...bd->...", sigma_tilde,
                            omega_i_around, g_inv_around, g_inv_around)
    lhs = _along(x, _covariant(sigma_tilde, _scaled(np.exp(phi_p), sigma),
                               parts.gamma, (2, 0), fd.DIRECT))
    d_tr = fd.difference(trace, fd.DIRECT, lead)
    dc_tr = j_on_forms(Im, d_tr)
    rhs = 0.5 * (wedge(d_tr, _mv(g, _mv(Im, x)), lead)
                 - wedge(dc_tr, _mv(g, x), lead))
    if not normalized:
        return raised_norm(lhs - rhs, g_inv)
    return _normalized(raised_norm(lhs - rhs, g_inv),
                       [raised_norm(lhs, g_inv), raised_norm(rhs, g_inv)])


# ---------------------------------------------------------------------------
# average-metric field equations
# ---------------------------------------------------------------------------

def average_metric_residuals(avg: HermitianStructure, p, x=None,
                             pair_J: Optional[HermitianStructure] = None) -> dict:
    """Field equations of the average metric g0 with theta0 the Lee form of
    I, at each of the points p, shape (..., m), in the direction x there.

    Fits the proportionality function f of nabla0 theta0 = f (theta0 (x)
    theta0 + I theta0 (x) I theta0) by least squares over the coordinate
    directions, then checks the xi / I xi / zeta derivative formulas, the
    Killing property of xi, and (when the conformal pair is supplied)
    theta0 = -1/2 d Phi against the pair Lee form.  Without ``x`` the
    direction is drawn from ``np.random.default_rng(0)``.
    """
    p = np.asarray(p, dtype=float)
    lead = p.ndim - 1
    parts = lee_form_parts(avg, p)
    g, g_inv, Im = parts.g, parts.g_inv, parts.J
    x = _directions(x, p)

    theta0 = parts.theta
    i_theta0 = j_on_forms(Im, theta0)
    # the NESTED pass of theta0 gives the parts that the NESTED stencils of
    # xi, I xi, zeta, I zeta and d xi read
    nested = nested_lee(avg, p, parts)
    ntheta0, around = nested.ntheta, nested.around

    # least-squares fit of f over the 2n coordinate directions
    basis = (np.einsum("...c,...j->...cj", theta0, theta0)
             + np.einsum("...c,...j->...cj", i_theta0, i_theta0))
    denom = np.sum(basis * basis, axis=(-2, -1))
    f_val = np.divide(np.sum(basis * ntheta0, axis=(-2, -1)), denom,
                      out=np.zeros_like(denom), where=denom > 0)[()]
    fit_res = raised_norm(ntheta0 - _scaled(f_val, basis), g_inv)
    res = {"der0theta": _normalized(
        fit_res, [raised_norm(ntheta0, g_inv),
                  abs(f_val) * raised_norm(basis, g_inv)])}

    def xi_of(at):
        return _solve(at.g, j_on_forms(at.J, at.theta))

    def i_xi_of(at):
        return np.matvec(at.J, xi_of(at))

    def zeta_of(at):
        w = i_xi_of(at)
        return w / np.sqrt(abs(np.vecdot(np.vecmat(w, at.g), w)))[..., None]

    def i_zeta_of(at):
        return np.matvec(at.J, zeta_of(at))

    def nabla0(of):
        """nabla0 of the vector field ``of`` of the parts, at p."""
        return _covariant(of(around), of(parts), parts.gamma, (0, 1),
                          fd.NESTED)

    xi = xi_of(parts)
    xi_norm = vector_norm(xi, g)
    if (xi_norm < 1e-5).any():
        k = first_flagged(xi_norm < 1e-5)
        raise SingularPointError(
            f"|xi| = {xi_norm[k]:.2e} at {p[k]}: zeta is undefined")
    i_xi = i_xi_of(parts)

    gdot = lambda u, w: np.vecdot(_along(u, g), w)

    # (der0Jxi)  nabla0_X (I xi) = -f (<X, I xi> I xi + <X, xi> xi)
    n_ixi = nabla0(i_xi_of)
    lhs = _along(x, n_ixi)
    rhs = _scaled(-f_val, _scaled(gdot(x, i_xi), i_xi)
                  + _scaled(gdot(x, xi), xi))
    res["der0Jxi"] = _normalized(vector_norm(lhs - rhs, g),
                                 [vector_norm(lhs, g), vector_norm(rhs, g)])

    # (der0xi)  nabla0_X xi = (1+f)(<X,xi> I xi - <X,I xi> xi) - |xi|^2 I X
    n_xi = nabla0(xi_of)
    lhs = _along(x, n_xi)
    rhs = (_scaled(1.0 + f_val, _scaled(gdot(x, xi), i_xi)
                   - _scaled(gdot(x, i_xi), xi))
           - _scaled(_squared(xi_norm), _mv(Im, x)))
    res["der0xi"] = _normalized(vector_norm(lhs - rhs, g),
                                [vector_norm(lhs, g), vector_norm(rhs, g)])

    # (derIxi)  nabla0_X zeta = -(f/|xi|) <X, xi> xi, zeta = I xi / |I xi|
    n_zeta = nabla0(zeta_of)
    lhs = _along(x, n_zeta)
    rhs = _scaled(-(f_val / xi_norm) * gdot(x, xi), xi)
    res["derIxi"] = _normalized(vector_norm(lhs - rhs, g),
                                [vector_norm(lhs, g), vector_norm(rhs, g),
                                 abs(f_val) * xi_norm * vector_norm(x, g)])

    # (derzeta)  nabla0_zeta (I zeta) = 0
    n_izeta = nabla0(i_zeta_of)
    zeta = zeta_of(parts)
    res["derzeta"] = _normalized(vector_norm(_along(zeta, n_izeta), g), [1.0])

    # Killing:  (L_xi g)_ij = xi^k d_k g_ij + g_kj d_i xi^k + g_ik d_j xi^k
    dg = parts.dg
    dxi = fd.difference(xi_of(around), fd.NESTED, lead)
    lie_g = (np.einsum("...k,...kij->...ij", xi, dg)
             + np.einsum("...ik,...kj->...ij", dxi, g)
             + np.einsum("...jk,...ik->...ij", dxi, g))
    res["killing"] = _normalized(
        raised_norm(lie_g, g_inv),
        [raised_norm(np.einsum("...k,...kij->...ij", xi, dg), g_inv),
         raised_norm(np.einsum("...ik,...kj->...ij", dxi, g), g_inv), 1.0])

    if pair_J is not None:
        theta_pair = lee_form_components(pair_J, p)
        res["theta0_vs_pair"] = _normalized(
            vector_norm(theta0 + 0.5 * theta_pair, g_inv),
            [vector_norm(theta0, g_inv), 0.5 * vector_norm(theta_pair, g_inv)])
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


def _lee_evidence(H: HermitianStructure, p) -> tuple:
    """|theta|, |nabla theta| and |d theta| at each of the points p, shape
    (..., m), scale-normalized; :class:`NotLcKError` naming the first point
    where the lcK gate fails, or else where the evidence is NaN."""
    p = np.asarray(p, dtype=float)
    lead = p.ndim - 1
    parts = lee_form_parts(H, p)
    g, g_inv, theta = parts.g, parts.g_inv, parts.theta
    scale = np.sqrt(np.trace(g, axis1=-2, axis2=-1) / H.chart.dim)
    require_lck(H, p, parts)
    # nabla theta and d theta come from one NESTED stencil of theta
    nested = nested_lee(H, p, parts)
    dtheta = exterior_of_partials(nested.theta_partials, 1, lead)
    scale_sq = _squared(scale)
    at_p = (vector_norm(theta, g_inv) * scale,
            raised_norm(nested.ntheta, g_inv) * scale_sq,
            raised_norm(dtheta, g_inv) * scale_sq)
    nan = np.isnan(at_p[0]) | np.isnan(at_p[1]) | np.isnan(at_p[2])
    if nan.any():
        k = first_flagged(nan)
        raise NotLcKError(f"'{H.label}' has NaN Lee-form evidence at {p[k]}: "
                          f"{tuple(float(v[k]) for v in at_p)}")
    return at_p


def classify_structure(H: HermitianStructure, samples, loops=None,
                       tol_id: float = 1e-4,
                       tol_ode: float = 1e-6) -> StructureClass:
    """Classify (g, J) from sampled Lee-form data and loop periods.

    Gates are scale-normalized: |theta| is measured against the local metric
    scale sqrt(tr g / m) so a global homothety of g leaves every gate value
    unchanged.  Kinds: Kahler (theta = 0), Vaisman (nabla theta = 0,
    theta != 0), gcK (theta closed, all supplied periods ~ 0), or
    strictly-lcK-candidate (some period clearly nonzero; "candidate" because
    only the supplied loops are tested).  The Lee-form evidence of all the
    samples is one stacked pass, whose error is chosen by
    :func:`~lckgeo.errors.in_item_order`.
    """
    loops = loops or {}
    chart = H.chart
    pts = np.asarray(samples, dtype=float).reshape(-1, chart.dim)
    evidence = in_item_order(lambda: _lee_evidence(H, pts),
                             lambda p: _lee_evidence(H, p), pts)
    # each maximum taken in sample order
    max_theta, max_nabla, max_dtheta = (max([0.0, *map(float, values)])
                                        for values in evidence)

    periods = []
    for name, loop in loops.items():
        periods.append((name, loop_integral(chart, lee_field(H), loop)))
    if any(math.isnan(v) for _, v in periods):
        raise NotLcKError(f"'{H.label}' has a NaN Lee-form period: {periods}")
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
