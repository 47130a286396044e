"""Hermitian structures, fundamental forms, Nijenhuis tensor, Lee forms.

A Hermitian structure pairs a chart metric g with an almost complex
structure field J (J^2 = -Id, g(J., J.) = g).  The fundamental 2-form is
Omega := g(J., .), and for an lcK structure

    d Omega = 2 theta ^ Omega,        delta Omega = (2 - 2n) J theta,

which makes the Lee form recoverable by a single contraction:
theta = J(delta Omega) / (2n - 2).  On 1-forms J acts by
(J tau)(X) := -tau(JX).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fd
from .calculus import (codifferential, covariant_derivative_full,
                       exterior_derivative)
from .charts import Chart, FrameTensor, form_norm, form_of_endomorphism, wedge
from .errors import CompatibilityError, NotLcKError

# Largest scale-normalized |dOmega - 2 theta ^ Omega| at which a structure
# still counts as lcK (100 * the default tol_id).
LCK_GATE = 1e-2


@dataclass(frozen=True)
class HermitianStructure:
    """A chart metric paired with an almost complex structure field."""

    chart: Chart
    J_fn: Callable[[np.ndarray], np.ndarray]
    n: int          # complex dimension; chart.dim == 2n
    label: str = ""

    def J(self, p) -> np.ndarray:
        """J^i_j at each of the points p, shape (..., dim)."""
        return np.asarray(self.J_fn(p), dtype=float)

    def omega(self, p) -> np.ndarray:
        """Fundamental 2-form components Omega_ij = g(J d_i, d_j) at each of
        the points p, shape (..., dim)."""
        return form_of_endomorphism(self.J(p), self.chart.metric(p))

    def j_form(self, p, tau: np.ndarray) -> np.ndarray:
        """(J tau)_i = -tau(J d_i) for a 1-form tau at each of the points p."""
        return (-np.swapaxes(self.J(p), -1, -2)
                @ np.asarray(tau)[..., None])[..., 0]

    def compatibility_defects(self, p):
        """(|J^2 + Id|, |J^T G J - G|) max-norms at p."""
        J = self.J(p)
        G = self.chart.metric(p)
        d_square = float(np.max(np.abs(J @ J + np.eye(self.chart.dim))))
        d_metric = float(np.max(np.abs(J.T @ G @ J - G)))
        return d_square, d_metric

    def require_compatible(self, p, tol: float = 1e-8):
        d_square, d_metric = self.compatibility_defects(p)
        scale = 1.0 + float(np.max(np.abs(self.chart.metric(p))))
        if d_square > tol or d_metric > tol * scale:
            raise CompatibilityError(
                f"J incompatible at {np.asarray(p)} on '{self.label}': "
                f"|J^2+Id|={d_square:.2e}, |J^T G J - G|={d_metric:.2e}")


@dataclass(frozen=True)
class LeeData:
    """Lee form and derived quantities of an lcK structure at a point."""

    theta: FrameTensor       # 1-form
    J_theta: FrameTensor     # 1-form, (J theta)(X) = -theta(JX)
    norm_sq: float           # |theta|^2_g
    S: FrameTensor           # (0,2) tensor S = nabla theta + theta (x) theta


def fundamental_form(H: HermitianStructure, p) -> FrameTensor:
    """Omega = g(J., .) at p, checked antisymmetric and J-compatible."""
    p = np.asarray(p, dtype=float)
    H.require_compatible(p)
    omega = H.omega(p)
    return FrameTensor(omega, valence=(2, 0), point=p)


def nijenhuis_tensor(H: HermitianStructure, p,
                     step: float = fd.STEP_DIRECT) -> np.ndarray:
    """N^k_{ij} of the almost complex structure field at p.

    N(X,Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y]; for coordinate fields
    N^k_{ij} = J^l_i d_l J^k_j - J^l_j d_l J^k_i
             + J^k_m d_j J^m_i - J^k_m d_i J^m_j.
    """
    p = np.asarray(p, dtype=float)
    dJ = fd.gradient(H.J_fn, p, step, order=fd.ORDER_DIRECT)
    return _nijenhuis(H.J(p), dJ)


def _nijenhuis(J: np.ndarray, dJ: np.ndarray) -> np.ndarray:
    # dJ[l, k, m] = d_l J^k_m
    t1 = np.einsum("li,lkj->kij", J, dJ)
    t2 = np.einsum("lj,lki->kij", J, dJ)
    t3 = np.einsum("km,jmi->kij", J, dJ)
    t4 = np.einsum("km,imj->kij", J, dJ)
    return t1 - t2 + t3 - t4


def nijenhuis_residual(H: HermitianStructure, p) -> float:
    """Term-normalized norm of the Nijenhuis tensor at p (~0 iff integrable)."""
    p = np.asarray(p, dtype=float)
    J = H.J(p)
    dJ = fd.gradient(H.J_fn, p, fd.STEP_DIRECT, order=fd.ORDER_DIRECT)
    g = H.chart.metric(p)
    lowered = np.einsum("ak,kij->aij", g, _nijenhuis(J, dJ))
    term_scale = float(np.max(np.abs(dJ)) * np.max(np.abs(J)))
    return form_norm(lowered, g) / (1.0 + term_scale)


def lee_form(H: HermitianStructure, p, mode: str = "auto",
             check: bool = True) -> LeeData:
    """Extract the Lee form via theta = J(delta Omega) / (2n - 2).

    With ``check`` the cross-identity d(Omega) - 2 theta ^ Omega is verified
    (scale-normalized) and a :class:`NotLcKError` raised above ``LCK_GATE``.
    """
    if H.n < 2:
        raise NotLcKError("Lee-form extraction needs complex dimension n >= 2")
    p = np.asarray(p, dtype=float)
    theta = lee_form_components(H, p, mode=mode)
    if check:
        res = lck_residual(H, p, theta, mode=mode)
        if res > LCK_GATE:
            raise NotLcKError(
                f"structure '{H.label}' fails the lcK gate at {p}: "
                f"|dOmega - 2 theta ^ Omega| = {res:.2e}")
    g = H.chart.metric(p)
    j_theta = H.j_form(p, theta)
    norm_sq = float(theta @ np.linalg.solve(g, theta))
    S = nabla_theta(H, p, mode=mode) + np.outer(theta, theta)
    return LeeData(theta=FrameTensor(theta, (1, 0), p),
                   J_theta=FrameTensor(j_theta, (1, 0), p),
                   norm_sq=norm_sq,
                   S=FrameTensor(S, (2, 0), p))


def lee_form_components(H: HermitianStructure, p, mode: str = "auto") -> np.ndarray:
    """Bare Lee-form components at each of the points p, shape (..., dim)
    (the cheap inner loop of everything above)."""
    p = np.asarray(p, dtype=float)
    delta_omega = codifferential(H.chart, H.omega, p, k=2, mode=mode).components
    return H.j_form(p, delta_omega) / (2.0 * H.n - 2.0)


def lee_field(H: HermitianStructure, mode: str = "auto") -> Callable:
    """The Lee form as a field, for differentiation and line integrals
    (once-nested noise level)."""
    return lambda q: lee_form_components(H, q, mode=mode)


def nabla_theta(H: HermitianStructure, p, mode: str = "auto") -> np.ndarray:
    """(nabla theta)_ij = (nabla_{d_i} theta)_j by differentiating the Lee field."""
    return covariant_derivative_full(H.chart, lee_field(H, mode), p, (1, 0),
                                     mode=mode, step=fd.STEP_NESTED,
                                     order=fd.ORDER_NESTED)


def lck_residual(H: HermitianStructure, p, theta: np.ndarray = None,
                 mode: str = "auto") -> float:
    """Scale-normalized |dOmega - 2 theta ^ Omega| at p."""
    p = np.asarray(p, dtype=float)
    if theta is None:
        theta = lee_form_components(H, p, mode=mode)
    d_omega = exterior_derivative(H.chart, H.omega, p, k=2).components
    rhs = 2.0 * wedge(theta, H.omega(p))
    g = H.chart.metric(p)
    denom = 1.0 + max(form_norm(d_omega, g), form_norm(rhs, g))
    return form_norm(d_omega - rhs, g) / denom


def conformal_rescale(chart: Chart, log_factor: Callable,
                      log_gradient: Optional[Callable] = None,
                      label: str = "") -> Chart:
    """The chart with metric e^{2u} g for a smooth function u = log_factor.

    ``log_factor`` and ``log_gradient`` are fields, of values and of 1-forms.
    Analytic derivatives are propagated when both the base chart and the
    gradient of u provide them.
    """
    def metric(p):
        factor = np.exp(2.0 * log_factor(p))[..., None, None]
        return factor * chart.metric_fn(p)

    dg_fn = None
    if chart.metric_derivative_fn is not None and log_gradient is not None:
        def dg_fn(p):
            factor = np.exp(2.0 * log_factor(p))[..., None, None, None]
            du = np.asarray(log_gradient(p), dtype=float)
            base = np.asarray(chart.metric_derivative_fn(p), dtype=float)
            g = np.asarray(chart.metric_fn(p), dtype=float)
            outer = np.einsum("...k,...ij->...kij", du, g)
            return factor * (base + 2.0 * outer)

    return Chart(dim=chart.dim, domain=chart.domain, metric_fn=metric,
                 metric_derivative_fn=dg_fn,
                 label=label or f"conformal({chart.label})")


def constant_rescale(chart: Chart, factor: float, label: str = "") -> Chart:
    """Homothety c^2 g (used by the scale-invariance property tests)."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    dg = None
    if chart.metric_derivative_fn is not None:
        dg = lambda p: factor * np.asarray(chart.metric_derivative_fn(p))
    return Chart(dim=chart.dim, domain=chart.domain,
                 metric_fn=lambda p: factor * np.asarray(chart.metric_fn(p)),
                 metric_derivative_fn=dg,
                 label=label or f"scaled({chart.label})")
