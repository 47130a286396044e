"""Chart-local tensor calculus: connection, curvature, and form calculus.

Sign conventions (asserted by the round-sphere tests):

* Gamma^k_{ij} = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij);
* R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y], in components
  R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
            + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb},
  so that the unit round sphere satisfies R(X, Y)Y = |Y|^2 X - <X, Y> Y;
* Ric_bd = R^a_{bad}, scal = g^{bd} Ric_bd;
* the codifferential is delta = -sum_i e_i . nabla_{e_i} over an orthonormal
  frame, i.e. (delta alpha)_{...} = -g^{ab} (nabla_a alpha)_{b ...}; on
  1-forms delta tau = -trace_g(nabla tau).  This is the sign that makes
  delta(Omega) = (2 - 2n) J theta hold on the Hopf chart.

Fields passed to the derivative operators take stacks of points (see
:mod:`lckgeo.fd`); the ``stencil`` argument is the :class:`lckgeo.fd.Stencil`
tier used on the field itself (see :mod:`lckgeo.fd` for the tiering policy).
The chart decides how its metric is differentiated (see
:meth:`lckgeo.charts.Chart.metric_jacobian`); :func:`christoffel` and
:func:`christoffel_components` take only the step of its order-2 stencil.

Each operator evaluates its field and then applies one algebraic step:
:func:`levi_civita`, :func:`connection_matrix`, :func:`covariant_partials`,
:func:`codifferential_of`, :func:`exterior_of_partials` and
:func:`riemann_components`.  A caller that already holds the values (the
one-pass Lee form of :mod:`lckgeo.hermitian`, the RK4 nodes of
:mod:`lckgeo.transport`) applies the step itself, with the same formula and
the same bits.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import fd
from .charts import Chart, _move_axis, alt


def christoffel(chart: Chart, p, step: float = fd.DIRECT.step) -> np.ndarray:
    """Levi-Civita symbols Gamma^k_{ij} at p, in ``G[k, i, j]``, with p
    checked inside the chart and g checked on the SPD cone."""
    p = np.asarray(p, dtype=float)
    chart.require_inside(p, margin=chart.stencil_margin(step))
    chart.metric(p)     # raises MetricError off the SPD cone
    return christoffel_components(chart, p, step)


def christoffel_components(chart: Chart, p,
                           step: float = fd.DIRECT.step) -> np.ndarray:
    """Gamma^k_{ij} at each of the points p, shape (..., m) -> (..., m, m, m)."""
    dg, g = metric_partials(chart, p, step)
    return levi_civita(dg, np.linalg.inv(g))


def metric_partials(chart: Chart, p, step: float) -> tuple:
    """dg[..., k, i, j] = d_k g_ij, by a stencil of the given step where the
    chart has no derivative function, and g at each of the points p: the
    reads of :func:`christoffel_components` and :func:`connection_matrix`."""
    # hot path: raw metric_fn, positivity is asserted by the chart gate tests
    return chart.metric_jacobian(p, step=step), chart.metric_fn(p)


def levi_civita(dg: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Gamma^k_{ij} from dg[..., k, i, j] = d_k g_ij and g^-1 at each point
    of a stack."""
    sym = (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg)
           - dg)
    return 0.5 * np.einsum("...kl,...lij->...kij", g_inv, sym)


def connection_matrix(dg: np.ndarray, g: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """B = -Gamma(v, .), B[..., k, j] = -Gamma^k_{ij} v^i, at each point of a
    stack from dg[..., k, i, j] = d_k g_ij, g and the vectors v.

    It contracts :func:`levi_civita` with v before raising the index, in
    m^2 work per point: B = -1/2 g^-1 S with S = d_v g + C^T - C and
    C_jl = v^i d_j g_il, and g^-1 S by :func:`spd_solve`.
    """
    lead, m = v.shape[:-1], v.shape[-1]
    d_v_g = (v[..., None, :] @ dg.reshape(lead + (m, m * m))).reshape(
        lead + (m, m))
    C = (np.swapaxes(dg, -1, -2).reshape(lead + (m * m, m))
         @ v[..., None]).reshape(lead + (m, m))
    return -0.5 * spd_solve(g, d_v_g + np.swapaxes(C, -1, -2) - C)


def spd_solve(g: np.ndarray, S: np.ndarray) -> np.ndarray:
    """g^-1 S for each symmetric positive definite g of a stack, shapes
    (..., m, m) and (..., m, k), by the Cholesky factorization g = L L^T
    and the sweeps L Y = S and L^T X = Y.

    The loops run over m: each operation is one elementwise ufunc over the
    whole stack, held on the last axis, (m, m, N).  Without pivoting this is
    backward stable for SPD g (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 10).  A g with a pivot that is not positive
    and finite, as a singular, indefinite or NaN one has, gives NaN for all
    of its g^-1 S, and no warning.
    """
    lead, (m, k) = g.shape[:-2], S.shape[-2:]
    L = g.reshape(-1, m * m).T.copy().reshape(m, m, -1)
    X = S.reshape(-1, m * k).T.copy().reshape(m, k, -1)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(m):      # L overwrites the lower triangle, by columns
            L[j, j] = np.sqrt(L[j, j])
            L[j + 1:, j] /= L[j, j]
            L[j + 1:, j + 1:] -= L[j + 1:, None, j] * L[None, j + 1:, j]
        for j in range(m):
            X[j] /= L[j, j]
            X[j + 1:] -= L[j + 1:, j, None] * X[j]
        for j in reversed(range(m)):
            X[j] /= L[j, j]
            X[:j] -= L[j, :j, None] * X[j]
        pivots = np.diagonal(L)
        X[..., ~np.all((pivots > 0.0) & (pivots < np.inf), axis=-1)] = np.nan
    return np.moveaxis(X, (0, 1), (-2, -1)).reshape(lead + (m, k))


def riemann(chart: Chart, p) -> np.ndarray:
    """Curvature tensor R^a_{bcd} in ``R[..., a, b, c, d]`` at each of the
    points p, shape (..., m)."""
    p = np.asarray(p, dtype=float)
    gamma_field = lambda q: christoffel_components(chart, q)
    chart.require_inside(p, margin=fd.NESTED.extent)
    dG = fd.gradient(gamma_field, p, fd.NESTED)
    return riemann_components(dG, gamma_field(p))


def riemann_components(dG: np.ndarray, G: np.ndarray) -> np.ndarray:
    """R^a_{bcd} at each point of a stack from its Christoffel symbols G and
    their NESTED-stencil partials dG[..., c, a, i, j] = d_c G^a_{ij}."""
    # R^a_{bcd} = d_c G^a_{db} - d_d G^a_{cb} + G^a_{ce} G^e_{db} - G^a_{de} G^e_{cb}
    return (np.einsum("...cadb->...abcd", dG)
            - np.einsum("...dacb->...abcd", dG)
            + np.einsum("...ace,...edb->...abcd", G, G)
            - np.einsum("...ade,...ecb->...abcd", G, G))


def ricci_scalar(chart: Chart, p) -> tuple:
    """(ric, scal): the Ricci tensor Ric_bd in ``ric[b, d]`` and the scalar
    curvature at p."""
    ric = np.einsum("abad->bd", riemann(chart, p))
    scal = float(np.einsum("bd,bd->", np.linalg.inv(chart.metric(p)), ric))
    return ric, scal


def covariant_derivative_full(chart: Chart, field: Callable, p,
                              valence: tuple, stencil: fd.Stencil = fd.NESTED,
                              gamma: np.ndarray = None) -> np.ndarray:
    """All covariant partials of a tensor field at each of the points p.

    ``field`` is a field of component arrays laid out contravariant axes
    first.  For points of shape (..., m) returns
    ``out[..., c, ...] = (nabla_{d_c} T)(...)``: the derivative axis follows
    the point axes, so at a single point it comes first.  ``gamma``, when
    given, holds the Christoffel symbols at p.
    """
    p = np.asarray(p, dtype=float)
    chart.require_inside(p, margin=stencil.extent)
    dT = fd.gradient(field, p, stencil)
    T = np.asarray(field(p), dtype=float)
    if gamma is None:
        gamma = christoffel_components(chart, p)
    return covariant_partials(dT, T, gamma, valence, p.ndim - 1)


def covariant_partials(dT: np.ndarray, T: np.ndarray, gamma: np.ndarray,
                       valence: tuple, lead: int = 0) -> np.ndarray:
    """:func:`covariant_derivative_full` from a field's values T, their
    partials dT and the Christoffel symbols at each point; ``lead`` counts
    the point axes in front."""
    cov, con = valence
    if T.ndim - lead != cov + con:
        raise ValueError("field rank does not match declared valence")
    out = dT.copy()
    for axis in range(con):
        corr = _tensordot(gamma, 2, T, axis, lead)    # [..., k, c, ...]
        out += _move_axis(corr, lead, lead + axis + 1)
    for axis in range(cov):
        corr = _tensordot(gamma, 0, T, con + axis, lead)    # [..., c, i, ...]
        out -= _move_axis(corr, lead + 1, lead + con + axis + 1)
    return out


def _tensordot(a: np.ndarray, a_axis: int, b: np.ndarray, b_axis: int,
               lead: int) -> np.ndarray:
    """``np.tensordot(a, b, axes=(a_axis, b_axis))`` at each point of a stack.

    a and b carry ``lead`` point axes in front, and the axis numbers count
    after them.  Each point's product is the (rows, m) @ (m, cols) matrix
    product that tensordot hands to dot, so it rounds the same.
    """
    a = _move_axis(a, lead + a_axis, -1)
    b = _move_axis(b, lead + b_axis, lead)
    points, free_a, free_b = a.shape[:lead], a.shape[lead:-1], b.shape[lead + 1:]
    m = a.shape[-1]
    prod = (a.reshape(points + (math.prod(free_a), m))
            @ b.reshape(points + (m, math.prod(free_b))))
    return prod.reshape(points + free_a + free_b)


def exterior_derivative(chart: Chart, form_field: Callable, p, k: int,
                        stencil: fd.Stencil = fd.DIRECT) -> np.ndarray:
    """Exterior derivative of a k-form field: the components of a
    (k+1)-form at each of the points p, shape (..., m).

    Uses plain partial derivatives (no connection): d = (k+1) Alt(d alpha).
    """
    p = np.asarray(p, dtype=float)
    chart.require_inside(p, margin=stencil.extent)
    da = fd.gradient(form_field, p, stencil)
    return exterior_of_partials(da, k, p.ndim - 1)


def exterior_of_partials(da: np.ndarray, k: int, lead: int = 0) -> np.ndarray:
    """d alpha = (k+1) Alt(d alpha) from the partials da[..., c, ...] of a
    k-form at each point."""
    return alt(da, lead=lead) * (k + 1)


def codifferential(chart: Chart, form_field: Callable, p, k: int,
                   stencil: fd.Stencil = fd.DIRECT,
                   gamma: np.ndarray = None) -> np.ndarray:
    """Codifferential delta alpha = -g^{ab} (nabla_a alpha)_{b...}, the
    components of a (k-1)-form at each of the points p, shape (..., m);
    ``gamma`` as for :func:`covariant_derivative_full`."""
    p = np.asarray(p, dtype=float)
    nabla = covariant_derivative_full(chart, form_field, p, (k, 0),
                                      stencil=stencil, gamma=gamma)
    return codifferential_of(nabla, np.linalg.inv(chart.metric(p)),
                             p.ndim - 1)


def codifferential_of(nabla: np.ndarray, g_inv: np.ndarray,
                      lead: int = 0) -> np.ndarray:
    """-g^{ab} (nabla_a alpha)_{b...} from the covariant partials of a form
    and g^-1 at each point; ``lead`` counts the point axes in front."""
    # -np.tensordot(g_inv, nabla, axes=([0, 1], [0, 1])) at each point
    points, m = nabla.shape[:lead], nabla.shape[lead]
    rest = nabla.shape[lead + 2:]
    comp = -(g_inv.reshape(points + (1, m * m))
             @ nabla.reshape(points + (m * m, math.prod(rest))))
    return comp.reshape(points + rest)


def metric_compatibility_defect(chart: Chart, p) -> float:
    """Max |nabla_k g_ij| = |d_k g_ij - Gamma^m_{ki} g_mj - Gamma^m_{kj} g_im|."""
    p = np.asarray(p, dtype=float)
    dg = chart.metric_jacobian(p)
    g = chart.metric(p)
    gamma = christoffel_components(chart, p)
    nabla_g = (dg - np.einsum("mki,mj->kij", gamma, g)
               - np.einsum("mkj,im->kij", gamma, g))
    return float(np.max(np.abs(nabla_g)))


def lowered_riemann(chart: Chart, p) -> np.ndarray:
    """Fully covariant R_abcd = g_ae R^e_{bcd}."""
    return np.einsum("ae,ebcd->abcd", chart.metric(p), riemann(chart, p))
