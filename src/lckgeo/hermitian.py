"""Hermitian structures, fundamental forms, Nijenhuis tensor, Lee forms.

A Hermitian structure pairs a chart metric g with an almost complex
structure field J (J^2 = -Id, g(J., J.) = g).  The fundamental 2-form is
Omega := g(J., .), and for an lcK structure

    d Omega = 2 theta ^ Omega,        delta Omega = (2 - 2n) J theta,

which makes the Lee form recoverable by a single contraction:
theta = J(delta Omega) / (2n - 2).  On 1-forms J acts by
(J tau)(X) := -tau(JX).

:func:`lee_form_parts` computes theta in one pass: J and the validated
metric are evaluated once on the DIRECT stencil around each point and once
at it, and the Omega partials, the metric partials, one g^-1, the
Christoffel symbols and delta Omega all come from those arrays; the parts
keep them, for the checks that difference other fields of J and g.
:func:`nested_lee` takes these parts and evaluates them again on one NESTED
stencil around each point, whose differences give the partials of theta,
nabla theta and the curvature; it is the one route to nabla theta.  Both
take a stack of points, shape (..., m), and every part keeps the point axes
in front.  The checks of :mod:`lckgeo.identities` take the evaluated parts
and NESTED pass as arguments, so a caller evaluates each once for its whole
stack of samples and passes it to every check that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import fd
from .calculus import (codifferential_of, covariant_partials,
                       exterior_of_partials, levi_civita, riemann_components)
from .charts import (Chart, FrameTensor, first_flagged, form_norm,
                     form_of_endomorphism, raised_norm, wedge)
from .errors import CompatibilityError, NotLcKError

# Largest scale-normalized |dOmega - 2 theta ^ Omega| at which a structure
# still counts as lcK (100 * the default tol_id).
LCK_GATE = 1e-2


@dataclass(frozen=True)
class HermitianStructure:
    """A chart metric paired with an almost complex structure field; the
    complex dimension n is half the chart's dimension."""

    chart: Chart
    J_fn: Callable[[np.ndarray], np.ndarray]
    label: str = field(default="", kw_only=True)

    @property
    def n(self) -> int:
        return self.chart.dim // 2

    def J(self, p) -> np.ndarray:
        """J^i_j at each of the points p, shape (..., dim)."""
        return np.asarray(self.J_fn(p), dtype=float)

    def omega(self, p) -> np.ndarray:
        """Fundamental 2-form components Omega_ij = g(J d_i, d_j) at each of
        the points p, shape (..., dim)."""
        return form_of_endomorphism(self.J(p), self.chart.metric(p))

    def j_form(self, p, tau: np.ndarray) -> np.ndarray:
        """(J tau)_i = -tau(J d_i) for a 1-form tau at each of the points p."""
        return j_on_forms(self.J(p), tau)

    def compatibility_defects(self, p):
        """(|J^2 + Id|, |J^T G J - G|) max-norms at p."""
        return _compatibility_defects(self.J(p), self.chart.metric(p))

    def require_compatible(self, p):
        """J and the validated metric at p, each evaluated once, or
        :class:`CompatibilityError` where |J^2 + Id| exceeds 1e-8 or
        |J^T G J - G| exceeds 1e-8 (1 + max |G|)."""
        J, G = self.J(p), self.chart.metric(p)
        d_square, d_metric = _compatibility_defects(J, G)
        if d_square > 1e-8 or d_metric > 1e-8 * (1.0 + float(np.max(np.abs(G)))):
            raise CompatibilityError(
                f"J incompatible at {np.asarray(p)} on '{self.label}': "
                f"|J^2+Id|={d_square:.2e}, |J^T G J - G|={d_metric:.2e}")
        return J, G


def _compatibility_defects(J: np.ndarray, G: np.ndarray):
    return (float(np.max(np.abs(J @ J + np.eye(len(G))))),
            float(np.max(np.abs(J.T @ G @ J - G))))


def j_on_forms(J: np.ndarray, tau) -> np.ndarray:
    """(J tau)_i = -tau(J d_i) from the values J of the structure at each
    point."""
    return (-np.swapaxes(J, -1, -2) @ np.asarray(tau)[..., None])[..., 0]


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
    return FrameTensor(form_of_endomorphism(*H.require_compatible(p)),
                       valence=(2, 0), point=p)


def nijenhuis_tensor(H: HermitianStructure, p) -> np.ndarray:
    """N^k_{ij} of the almost complex structure field at p.

    N(X,Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y]; for coordinate fields
    N^k_{ij} = J^l_i d_l J^k_j - J^l_j d_l J^k_i
             + J^k_m d_j J^m_i - J^k_m d_i J^m_j.
    """
    p = np.asarray(p, dtype=float)
    dJ = fd.gradient(H.J_fn, p, fd.DIRECT)
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
    dJ = fd.gradient(H.J_fn, p, fd.DIRECT)
    g = H.chart.metric(p)
    lowered = np.einsum("ak,kij->aij", g, _nijenhuis(J, dJ))
    term_scale = float(np.max(np.abs(dJ)) * np.max(np.abs(J)))
    return form_norm(lowered, g) / (1.0 + term_scale)


def lee_form(H: HermitianStructure, p) -> LeeData:
    """Extract the Lee form via theta = J(delta Omega) / (2n - 2).

    The cross-identity d(Omega) - 2 theta ^ Omega is verified
    (scale-normalized) and a :class:`NotLcKError` raised above ``LCK_GATE``
    or where it is NaN.
    """
    p = np.asarray(p, dtype=float)
    parts = lee_form_parts(H, p)
    require_lck(H, p, parts)
    theta = parts.theta
    j_theta = j_on_forms(parts.J, theta)
    norm_sq = float(theta @ np.linalg.solve(parts.g, theta))
    S = nested_lee(H, p, parts).ntheta + np.outer(theta, theta)
    return LeeData(theta=FrameTensor(theta, (1, 0), p),
                   J_theta=FrameTensor(j_theta, (1, 0), p),
                   norm_sq=norm_sq,
                   S=FrameTensor(S, (2, 0), p))


class LeeParts(NamedTuple):
    """The Lee form at each of the points p with what it is made of, its
    DIRECT stencil values included, each array with the point axes in front."""

    theta: np.ndarray           # the Lee form, (J delta Omega) / (2n - 2)
    J: np.ndarray               # J^i_j
    g: np.ndarray               # the validated metric g_ij
    g_inv: np.ndarray           # g^-1
    dg: np.ndarray              # d_k g_ij (see Chart.metric_jacobian)
    gamma: np.ndarray           # Christoffel symbols Gamma^k_{ij}
    omega: np.ndarray           # Omega_ij
    omega_partials: np.ndarray  # d_k Omega_ij, on the DIRECT stencil
    delta_omega: np.ndarray     # (delta Omega)_j
    J_around: np.ndarray        # J^i_j at fd.stencil_points(p, fd.DIRECT)
    g_around: np.ndarray        # the validated g_ij there


def lee_form_parts(H: HermitianStructure, p) -> LeeParts:
    """The Lee form theta = J(delta Omega) / (2n - 2) at each of the points p,
    shape (..., dim), in one pass.

    J and the validated metric are evaluated once on the DIRECT stencil
    points and once at p.  Their stencil values give the partials of Omega
    and (on a chart without a derivative function) of g, and one g^-1 serves
    both the Christoffel symbols and the contraction of delta Omega; the
    values are kept as ``J_around`` and ``g_around``.  Each part is bitwise
    what the generic route gives: ``codifferential(chart, H.omega, p, k=2)``
    and :func:`lckgeo.calculus.christoffel_components`, and ``fd.difference(
    J_around, fd.DIRECT)`` is ``fd.gradient(H.J_fn, p, fd.DIRECT)``.  Errors
    are those of that route: :class:`ChartDomainError` for p within the
    stencil extent of a face, :class:`MetricError` naming the first bad
    stencil point, and :class:`NotLcKError` for complex dimension n < 2,
    where the formula divides by 2n - 2 = 0.
    """
    if H.n < 2:
        raise NotLcKError("Lee-form extraction needs complex dimension n >= 2")
    p = np.asarray(p, dtype=float)
    chart = H.chart
    lead = p.ndim - 1
    chart.require_inside(p, margin=fd.DIRECT.extent)
    around = fd.stencil_points(p, fd.DIRECT)
    J_around = H.J(around)
    g_around = chart.metric(around)
    J = H.J(p)
    g = chart.metric(p)
    omega = form_of_endomorphism(J, g)
    omega_partials = fd.difference(form_of_endomorphism(J_around, g_around),
                                   fd.DIRECT, lead)
    dg = chart.metric_jacobian(p, values=g_around)
    g_inv = np.linalg.inv(g)
    gamma = levi_civita(dg, g_inv)
    nabla_omega = covariant_partials(omega_partials, omega, gamma, (2, 0),
                                     lead)
    delta_omega = codifferential_of(nabla_omega, g_inv, lead)
    theta = j_on_forms(J, delta_omega) / (2.0 * H.n - 2.0)
    return LeeParts(theta, J, g, g_inv, dg, gamma, omega, omega_partials,
                    delta_omega, J_around, g_around)


def lee_form_components(H: HermitianStructure, p) -> np.ndarray:
    """Bare Lee-form components at each of the points p, shape (..., dim)
    (the cheap inner loop of everything above); see :func:`lee_form_parts`."""
    return lee_form_parts(H, p).theta


def lee_field(H: HermitianStructure) -> Callable:
    """The Lee form as a field, for differentiation and line integrals
    (once-nested noise level)."""
    return lambda q: lee_form_components(H, q)


class NestedLee(NamedTuple):
    """The Lee-form parts differenced on the NESTED stencil around each of
    the points p, each array with the point axes in front."""

    theta_partials: np.ndarray  # d_c theta_j
    ntheta: np.ndarray          # (nabla_{d_c} theta)_j
    gamma: np.ndarray           # Gamma^k_{ij} at p
    gamma_partials: np.ndarray  # d_c Gamma^k_{ij}
    around: LeeParts            # the parts at the NESTED stencil points

    @property
    def riemann(self) -> np.ndarray:
        """R^a_{bcd} at each of the points p, as
        :func:`lckgeo.calculus.riemann` gives it."""
        return riemann_components(self.gamma_partials, self.gamma)


def nested_lee(H: HermitianStructure, p, parts: LeeParts) -> NestedLee:
    """theta's partials, nabla theta and the curvature at each of the points
    p, shape (..., dim), from the Lee-form parts on one NESTED stencil.

    ``parts`` are the :func:`lee_form_parts` at p; the parts at the stencil
    points are evaluated here and returned as ``around``.  The Lee form
    carries one stencil level of noise, so it is differenced at NESTED
    steps; the Christoffel symbols of the same parts give R.  nabla theta is
    bitwise ``covariant_derivative_full(chart, lee_field(H), p, (1, 0),
    stencil=fd.NESTED)`` and R is :func:`lckgeo.calculus.riemann`.
    """
    p = np.asarray(p, dtype=float)
    lead = p.ndim - 1
    H.chart.require_inside(p, margin=fd.NESTED.extent)
    around = lee_form_parts(H, fd.stencil_points(p, fd.NESTED))
    d_theta = fd.difference(around.theta, fd.NESTED, lead)
    ntheta = covariant_partials(d_theta, parts.theta, parts.gamma, (1, 0),
                                lead)
    return NestedLee(d_theta, ntheta, parts.gamma,
                     fd.difference(around.gamma, fd.NESTED, lead), around)


def nabla_theta(H: HermitianStructure, p) -> np.ndarray:
    """(nabla theta)_ij = (nabla_{d_i} theta)_j at each of the points p; see
    :func:`nested_lee`."""
    return nested_lee(H, p, lee_form_parts(H, p)).ntheta


def lck_residual(parts: LeeParts) -> np.ndarray:
    """Scale-normalized |dOmega - 2 theta ^ Omega| at each of the points of
    the :func:`lee_form_parts`, shape (...,)."""
    lead = parts.theta.ndim - 1
    d_omega = exterior_of_partials(parts.omega_partials, 2, lead)
    rhs = 2.0 * wedge(parts.theta, parts.omega, lead)
    g_inv = parts.g_inv
    d_norm, rhs_norm = raised_norm(d_omega, g_inv), raised_norm(rhs, g_inv)
    # max(d_norm, rhs_norm) at each point, NaN where d_norm is NaN
    denom = 1.0 + np.where(rhs_norm > d_norm, rhs_norm, d_norm)
    return raised_norm(d_omega - rhs, g_inv) / denom


def require_lck(H: HermitianStructure, p, parts: LeeParts) -> None:
    """The lcK gate: :class:`NotLcKError` where the :func:`lck_residual` of
    the parts of H at the points p exceeds ``LCK_GATE`` or is NaN, naming
    the first such point."""
    res = lck_residual(parts)
    failed = ~(res <= LCK_GATE)     # a NaN residual fails the gate too
    if failed.any():
        k = first_flagged(failed)
        raise NotLcKError(
            f"structure '{H.label}' fails the lcK gate at {p[k]}: "
            f"|dOmega - 2 theta ^ Omega| = {res[k]:.2e}")


def conformal_rescale(chart: Chart, log_factor: Callable,
                      label: str = "") -> Chart:
    """The chart with metric e^{2u} g for a smooth function u = log_factor.

    ``log_factor`` is a field of values.  The new metric is differentiated
    as the base chart's is (:meth:`Chart.with_metric`): where that has a
    derivative function, by the complex step, so both the base metric and
    ``log_factor`` must then be complex-safe.
    """
    def metric(p):
        factor = np.exp(2.0 * log_factor(p))[..., None, None]
        return factor * chart.metric_fn(p)

    return chart.with_metric(metric, label or f"conformal({chart.label})")


def constant_rescale(chart: Chart, factor: float, label: str = "") -> Chart:
    """Homothety c^2 g (used by the scale-invariance property tests)."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")

    return chart.with_metric(lambda p: factor * np.asarray(chart.metric_fn(p)),
                             label or f"scaled({chart.label})")
