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
The metric itself is always differentiated at order 2; :func:`christoffel`
and :func:`christoffel_components` take only that stencil's ``step``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import fd
from .charts import Chart, FrameTensor, alt


def christoffel(chart: Chart, p, mode: str = "auto",
                step: float = fd.DIRECT.step) -> FrameTensor:
    """Levi-Civita symbols Gamma^k_{ij} at p, as a valence (2,1) tensor."""
    p = np.asarray(p, dtype=float)
    chart.require_inside(p, margin=chart.stencil_margin(mode, step))
    chart.metric(p)     # raises MetricError off the SPD cone
    comp = christoffel_components(chart, p, mode, step)
    return FrameTensor(comp, valence=(2, 1), point=p)


def christoffel_components(chart: Chart, p, mode: str = "auto",
                           step: float = fd.DIRECT.step) -> np.ndarray:
    """Gamma^k_{ij} at each of the points p, shape (..., m) -> (..., m, m, m)."""
    # hot path: raw metric_fn, positivity is asserted by the chart gate tests
    dg = chart.metric_jacobian(p, mode=mode, step=step)
    g_inv = np.linalg.inv(chart.metric_fn(p))
    # dg[..., k, i, j] = d_k g_ij
    sym = (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg)
           - dg)
    return 0.5 * np.einsum("...kl,...lij->...kij", g_inv, sym)


def riemann(chart: Chart, p, mode: str = "auto") -> FrameTensor:
    """Curvature tensor R^a_{bcd} at p (valence (3,1))."""
    p = np.asarray(p, dtype=float)
    gamma_field = lambda q: christoffel_components(chart, q, mode=mode)
    chart.require_inside(p, margin=fd.NESTED.extent)
    dG = fd.gradient(gamma_field, p, fd.NESTED)
    G = gamma_field(p)
    # R^a_{bcd} = d_c G^a_{db} - d_d G^a_{cb} + G^a_{ce} G^e_{db} - G^a_{de} G^e_{cb}
    comp = (np.einsum("cadb->abcd", dG) - np.einsum("dacb->abcd", dG)
            + np.einsum("ace,edb->abcd", G, G)
            - np.einsum("ade,ecb->abcd", G, G))
    return FrameTensor(comp, valence=(3, 1), point=p)


def ricci_scalar(chart: Chart, p, mode: str = "auto"):
    """Ricci tensor (valence (2,0)) and scalar curvature at p."""
    R = riemann(chart, p, mode=mode)
    ric = np.einsum("abad->bd", R.components)
    scal = float(np.einsum("bd,bd->", np.linalg.inv(chart.metric(p)), ric))
    return FrameTensor(ric, valence=(2, 0), point=np.asarray(p, dtype=float)), scal


def covariant_derivative_full(chart: Chart, field: Callable, p,
                              valence: tuple, mode: str = "auto",
                              stencil: fd.Stencil = fd.NESTED,
                              gamma: np.ndarray = None) -> np.ndarray:
    """All covariant partials of a tensor field at each of the points p.

    ``field`` is a field of component arrays laid out contravariant axes
    first.  For points of shape (..., m) returns
    ``out[..., c, ...] = (nabla_{d_c} T)(...)``: the derivative axis follows
    the point axes, so at a single point it comes first.
    """
    p = np.asarray(p, dtype=float)
    chart.require_inside(p, margin=stencil.extent)
    dT = fd.gradient(field, p, stencil)
    T = np.asarray(field(p), dtype=float)
    lead = p.ndim - 1
    cov, con = valence
    if T.ndim - lead != cov + con:
        raise ValueError("field rank does not match declared valence")
    if gamma is None:
        gamma = christoffel_components(chart, p, mode=mode)
    out = dT.copy()
    for axis in range(con):
        corr = _tensordot(gamma, 2, T, axis, lead)    # [..., k, c, ...]
        out += np.moveaxis(corr, lead, lead + axis + 1)
    for axis in range(cov):
        corr = _tensordot(gamma, 0, T, con + axis, lead)    # [..., c, i, ...]
        out -= np.moveaxis(corr, lead + 1, lead + con + axis + 1)
    return out


def _tensordot(a: np.ndarray, a_axis: int, b: np.ndarray, b_axis: int,
               lead: int) -> np.ndarray:
    """``np.tensordot(a, b, axes=(a_axis, b_axis))`` at each point of a stack.

    a and b carry ``lead`` point axes in front, and the axis numbers count
    after them.  Each point's product is the (rows, m) @ (m, cols) matrix
    product that tensordot hands to dot, so it rounds the same.
    """
    a = np.moveaxis(a, lead + a_axis, -1)
    b = np.moveaxis(b, lead + b_axis, lead)
    points, free_a, free_b = a.shape[:lead], a.shape[lead:-1], b.shape[lead + 1:]
    m = a.shape[-1]
    prod = (a.reshape(points + (math.prod(free_a), m))
            @ b.reshape(points + (m, math.prod(free_b))))
    return prod.reshape(points + free_a + free_b)


def covariant_derivative(chart: Chart, field: Callable, p, x,
                         valence: tuple, mode: str = "auto") -> FrameTensor:
    """Directional covariant derivative nabla_X T at p (same valence as T)."""
    full = covariant_derivative_full(chart, field, p, valence, mode=mode)
    comp = np.tensordot(np.asarray(x, dtype=float), full, axes=(0, 0))
    return FrameTensor(comp, valence=valence, point=np.asarray(p, dtype=float))


def exterior_derivative(chart: Chart, form_field: Callable, p, k: int,
                        stencil: fd.Stencil = fd.DIRECT) -> FrameTensor:
    """Exterior derivative of a k-form field: a (k+1)-form at each of the
    points p, shape (..., m).

    Uses plain partial derivatives (no connection): d = (k+1) Alt(d alpha).
    """
    p = np.asarray(p, dtype=float)
    chart.require_inside(p, margin=stencil.extent)
    da = fd.gradient(form_field, p, stencil)
    comp = alt(da, lead=p.ndim - 1) * (k + 1)
    return FrameTensor(comp, valence=(k + 1, 0), point=p)


def codifferential(chart: Chart, form_field: Callable, p, k: int,
                   mode: str = "auto",
                   stencil: fd.Stencil = fd.DIRECT) -> FrameTensor:
    """Codifferential delta alpha = -g^{ab} (nabla_a alpha)_{b...} at each of
    the points p, shape (..., m)."""
    p = np.asarray(p, dtype=float)
    nabla = covariant_derivative_full(chart, form_field, p, (k, 0),
                                      mode=mode, stencil=stencil)
    g_inv = np.linalg.inv(chart.metric(p))
    # -np.tensordot(g_inv, nabla, axes=([0, 1], [0, 1])) at each point
    points, m = p.shape[:-1], p.shape[-1]
    rest = nabla.shape[p.ndim + 1:]
    comp = -(g_inv.reshape(points + (1, m * m))
             @ nabla.reshape(points + (m * m, math.prod(rest))))
    return FrameTensor(comp.reshape(points + rest), valence=(k - 1, 0), point=p)


def lie_bracket(v_field: Callable, w_field: Callable, p) -> np.ndarray:
    """[V, W]^k = V^j d_j W^k - W^j d_j V^k at p (coordinate bracket), by
    NESTED stencils."""
    p = np.asarray(p, dtype=float)
    dV = fd.gradient(v_field, p, fd.NESTED)  # dV[j, k] = d_j V^k
    dW = fd.gradient(w_field, p, fd.NESTED)
    v = np.asarray(v_field(p), dtype=float)
    w = np.asarray(w_field(p), dtype=float)
    return v @ dW - w @ dV


def metric_compatibility_defect(chart: Chart, p, mode: str = "auto") -> float:
    """Max |nabla_k g_ij| = |d_k g_ij - Gamma^m_{ki} g_mj - Gamma^m_{kj} g_im|."""
    p = np.asarray(p, dtype=float)
    dg = chart.metric_jacobian(p, mode=mode)
    g = chart.metric(p)
    gamma = christoffel_components(chart, p, mode=mode)
    nabla_g = (dg - np.einsum("mki,mj->kij", gamma, g)
               - np.einsum("mkj,im->kij", gamma, g))
    return float(np.max(np.abs(nabla_g)))


def lowered_riemann(chart: Chart, p, mode: str = "auto") -> np.ndarray:
    """Fully covariant R_abcd = g_ae R^e_{bcd}."""
    R = riemann(chart, p, mode=mode).components
    return np.einsum("ae,ebcd->abcd", chart.metric(p), R)
