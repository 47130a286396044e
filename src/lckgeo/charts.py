"""Coordinate charts, pointwise tensors, loops, and exterior algebra.

A :class:`Chart` is an axis-aligned coordinate box together with a smooth
metric field (and optionally its analytic first derivatives).  Every
geometric computation in the package is chart-local: there are no atlases
or transition maps, only boxes with smooth fields on them.

Conventions used throughout:

* component arrays store contravariant axes first, then covariant axes,
  so Christoffel symbols Gamma^k_{ij} live in ``G[k, i, j]`` and the
  Riemann tensor R^a_{bcd} in ``R[a, b, c, d]``;
* the wedge product carries no 1/k! factor:
  (alpha ^ beta)(X, Y) = alpha(X) beta(Y) - alpha(Y) beta(X);
* an endomorphism A corresponds to the bilinear form g(A., .), i.e. the
  matrix ``A.T @ G``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fd
from .errors import ChartDomainError, MetricError

DEFAULT_MARGIN = 0.05


@dataclass(frozen=True)
class Chart:
    """A coordinate box with a smooth Riemannian metric field.

    ``domain`` holds one (low, high) interval per coordinate, ``dim`` of
    them.  ``metric_fn`` is a field (see :mod:`lckgeo.fd`) of symmetric
    positive definite matrices g_ij.  ``metric_derivative_fn``, when given,
    is the field ``dg[k, i, j] = d_k g_ij``, and the chart differentiates its
    metric with it; without one, on a stencil (see
    :func:`lckgeo.zoo.stencil_only`).  :meth:`exact` and :meth:`with_metric`
    are the one place that sets it to ``fd.complex_step(metric_fn)``, the
    exact first partials of a complex-safe metric; every zoo chart is built
    by one of them.
    """

    domain: tuple
    metric_fn: Callable[[np.ndarray], np.ndarray]
    metric_derivative_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""

    @classmethod
    def exact(cls, domain: tuple, metric_fn: Callable, label: str) -> "Chart":
        """The box with a complex-safe metric field, differentiated by the
        complex step."""
        return cls(domain, metric_fn, fd.complex_step(metric_fn), label)

    def with_metric(self, metric_fn: Callable, label: str) -> "Chart":
        """The box with another metric field, differentiated as this one's:
        by the complex step (of a complex-safe field) or on a stencil."""
        return Chart(self.domain, metric_fn,
                     self.metric_derivative_fn and fd.complex_step(metric_fn),
                     label)

    @property
    def dim(self) -> int:
        return len(self.domain)

    def contains(self, p, margin: float = 0.0) -> bool:
        p = np.asarray(p, dtype=float)
        return all(lo + margin <= x <= hi - margin
                   for x, (lo, hi) in zip(p, self.domain))

    def inside(self, points, margin: float = 0.0) -> np.ndarray:
        """The verdict of :meth:`contains` at each of the points, shape (..., dim)."""
        lows, highs = np.array(self.domain, dtype=float).T
        points = np.asarray(points, dtype=float)
        return ((lows + margin <= points) & (points <= highs - margin)).all(axis=-1)

    def require_inside(self, p, margin: float = 0.0):
        """Raise :class:`ChartDomainError` naming the first of the points
        (shape (..., dim)) outside the box shrunk by ``margin``."""
        if np.ndim(p) > 1:
            outside = np.asarray(p, dtype=float)[~self.inside(p, margin)]
            if len(outside):
                self.require_inside(outside[0], margin)
            return
        if not self.contains(p, margin):
            raise ChartDomainError(
                f"point {np.asarray(p)} outside chart '{self.label}' "
                f"domain with margin {margin}")

    def metric(self, p) -> np.ndarray:
        """Metric matrix at each of the points p, shape (..., dim), validated
        finite, symmetric and positive definite.

        The error names the first bad point in C order and its first failed
        check, as point-by-point calls would.
        """
        q = np.asarray(p, dtype=float)
        g = np.asarray(self.metric_fn(q), dtype=float)
        failure = _spd_failure(g)
        if failure is not None:
            k, check = failure
            at = p if q.ndim == 1 else q.reshape(-1, self.dim)[k]
            raise MetricError(f"metric not {check} at {at} on '{self.label}'")
        return g

    def stencil_margin(self, step: float = fd.DIRECT.step) -> float:
        """Distance from the faces that :meth:`metric_jacobian` needs: its
        stencil step, or 0.0 where the chart has a derivative function."""
        return step if self.metric_derivative_fn is None else 0.0

    def metric_jacobian(self, p, step: float = fd.DIRECT.step,
                        values: np.ndarray = None) -> np.ndarray:
        """dg[..., k, i, j] = d_k g_ij at each of the points p, shape (..., dim).

        ``metric_derivative_fn`` where the chart has one; otherwise the
        2nd-order stencil of the given step.  ``values``, when given, is the
        metric at that stencil's :func:`lckgeo.fd.stencil_points` around p,
        and is differenced in place of new evaluations.
        """
        p = np.asarray(p, dtype=float)
        if self.metric_derivative_fn is not None:
            return np.asarray(self.metric_derivative_fn(p), dtype=float)
        self.require_inside(p, margin=step)
        if values is None:
            return fd.gradient(self.metric_fn, p, fd.Stencil(step, 2))
        return fd.difference(values, fd.Stencil(step, 2), p.ndim - 1)

    def center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.domain])

    def sample_points(self, rng: np.random.Generator, count: int,
                      margin: float = DEFAULT_MARGIN) -> np.ndarray:
        """Uniform interior samples, keeping `margin` away from every face."""
        lows = np.array([lo + margin for lo, hi in self.domain])
        highs = np.array([hi - margin for lo, hi in self.domain])
        if np.any(highs <= lows):
            raise ChartDomainError(
                f"margin {margin} empties the domain of chart '{self.label}'")
        return rng.uniform(lows, highs, size=(count, self.dim))


def first_flagged(flags) -> tuple:
    """The index of the first True of a verdict at each point, in C order:
    () for the verdict at a single point, (k,) for the k-th of a stack."""
    return np.unravel_index(np.argmax(flags), np.shape(flags))


def _spd_failure(g: np.ndarray):
    """The first matrix of the stack g, shape (..., m, m), in C order that is
    not finite, symmetric and positive definite, as (flat index, name of its
    first failed check); None if every matrix passes."""
    g = g.reshape((-1,) + g.shape[-2:])
    # the common case, every entry finite and every matrix exactly symmetric
    # and Cholesky-factorable, is seen on the whole stack at once
    if (g.size and math.isfinite(np.abs(g).max())
            and (g == np.swapaxes(g, 1, 2)).all()):
        try:
            np.linalg.cholesky(g)
            return None
        except np.linalg.LinAlgError:
            pass
    for k, gk in enumerate(g):
        scale = np.abs(gk).max()    # inf or nan unless every entry is finite
        if not math.isfinite(scale):
            return k, "finite"
        # np.allclose(gk, gk.T, atol=1e-10 * (1 + scale)) written out, which
        # gives the same verdict on finite gk without allclose's overhead
        if not (np.abs(gk - gk.T) <= 1e-10 * (1.0 + scale)
                + 1e-5 * np.abs(gk.T)).all():
            return k, "symmetric"
        try:
            np.linalg.cholesky(gk)
        except np.linalg.LinAlgError:
            return k, "positive definite"
    return None


@dataclass(frozen=True)
class FrameTensor:
    """Components of a tensor at a point, in the coordinate frame.

    ``valence`` is (covariant rank, contravariant rank); the component array
    stores contravariant axes first.  A tensor field at each of a stack of
    points (``point`` of shape (..., m)) carries the point axes in front.
    """

    components: np.ndarray
    valence: tuple
    point: np.ndarray

    def __post_init__(self):
        cov, con = self.valence
        if self.components.ndim != cov + con + max(np.ndim(self.point) - 1, 0):
            raise ValueError(f"array rank {self.components.ndim} does not match "
                             f"valence {self.valence}")

    @property
    def rank(self) -> int:
        return sum(self.valence)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.components ** 2)))

    def lower_index(self, g: np.ndarray, axis: int = 0) -> "FrameTensor":
        """Lower the contravariant index living on `axis` with the metric g."""
        cov, con = self.valence
        if axis >= con:
            raise ValueError("axis is not contravariant")
        comp = _contract(g, self.components, axis)
        # lowered axis moves to the front of the covariant block
        comp = _move_axis(comp, axis, con - 1)
        return FrameTensor(comp, (cov + 1, con - 1), self.point)

    def raise_index(self, g: np.ndarray, axis: int = 0) -> "FrameTensor":
        """Raise the covariant index at `axis` (within the covariant block)."""
        cov, con = self.valence
        if axis >= cov:
            raise ValueError("axis is not covariant")
        full_axis = con + axis
        comp = _contract(np.linalg.inv(g), self.components, full_axis)
        comp = _move_axis(comp, full_axis, con)
        return FrameTensor(comp, (cov - 1, con + 1), self.point)


@dataclass(frozen=True)
class Loop:
    """A piecewise-smooth closed curve in one chart.

    ``curve_fn`` maps [0, 1] to chart coordinates and ``velocity_fn`` gives
    its derivative; like fields (see :mod:`lckgeo.fd`) both take stacks,
    mapping parameters of shape (...) to shape (..., m), and each value is
    exactly the value at that parameter alone.  For loops that generate a
    deck translation of the chart (quotient-circle generators), ``shift`` is
    the coordinate translation with curve(1) = curve(0) + shift and all chart
    fields invariant under it; shift = 0 gives an ordinary closed loop.
    ``steps`` is the number of RK4 steps of parallel transport around the
    loop; line integrals choose their own nodes and ignore it.
    """

    curve_fn: Callable[[np.ndarray], np.ndarray]
    velocity_fn: Callable[[np.ndarray], np.ndarray]
    steps: int = 2000
    shift: np.ndarray = None  # type: ignore[assignment]
    label: str = ""
    breakpoints: tuple = ()   # interior parameters where velocity may jump

    def __post_init__(self):
        p0 = np.asarray(self.curve_fn(0.0), dtype=float)
        if self.shift is None:
            object.__setattr__(self, "shift", np.zeros_like(p0))
        p1 = np.asarray(self.curve_fn(1.0), dtype=float)
        defect = np.max(np.abs(p1 - p0 - self.shift))
        if defect > 1e-12 * (1.0 + np.max(np.abs(p0))):
            raise ValueError(f"loop endpoints differ by {defect} after shift")

    def point(self, t) -> np.ndarray:
        return np.asarray(self.curve_fn(t), dtype=float)

    def velocity(self, t) -> np.ndarray:
        return np.asarray(self.velocity_fn(t), dtype=float)


def segment_loop(p0, shift, steps: int = 2000, label: str = "") -> Loop:
    """Straight coordinate segment from p0 to p0+shift (a deck generator)."""
    p0 = np.asarray(p0, dtype=float)
    shift = np.asarray(shift, dtype=float)
    return Loop(curve_fn=lambda t: p0 + np.multiply.outer(t, shift),
                velocity_fn=lambda t: np.tile(shift, np.shape(t) + (1,)),
                steps=steps, shift=shift, label=label)


def polygon_loop(vertices, steps_per_edge: int = 200, label: str = "") -> Loop:
    """Closed piecewise-linear loop through the given vertices (first repeated)."""
    verts = [np.asarray(v, dtype=float) for v in vertices]
    if np.max(np.abs(verts[0] - verts[-1])) > 0:
        verts = verts + [verts[0]]
    n_edge = len(verts) - 1
    if n_edge < 1:
        raise ValueError("polygon needs at least one edge")
    verts = np.array(verts)
    edges = (verts[1:] - verts[:-1]) * n_edge

    def edge(t):
        """Edge index and position along it at each parameter (clamped)."""
        u = np.clip(t, 0.0, 1.0) * n_edge
        k = np.minimum(u.astype(int), n_edge - 1)
        return k, (u - k)[..., None]

    def curve(t):
        k, s = edge(t)
        return (1.0 - s) * verts[k] + s * verts[k + 1]

    def velocity(t):
        return edges[edge(t)[0]]

    return Loop(curve_fn=curve, velocity_fn=velocity,
                steps=n_edge * steps_per_edge, label=label,
                breakpoints=tuple(k / n_edge for k in range(1, n_edge)))


def coordinate_rectangle(p, axis1: int, axis2: int, size1: float, size2: float,
                         steps_per_edge: int = 200, label: str = "") -> Loop:
    """Small contractible rectangle based at p in the (axis1, axis2) plane."""
    p = np.asarray(p, dtype=float)
    e1 = np.zeros_like(p)
    e2 = np.zeros_like(p)
    e1[axis1] = size1
    e2[axis2] = size2
    return polygon_loop([p, p + e1, p + e1 + e2, p + e2],
                        steps_per_edge=steps_per_edge, label=label)


# ---------------------------------------------------------------------------
# exterior algebra on component arrays
# ---------------------------------------------------------------------------

def alt(a: np.ndarray, lead: int = 0) -> np.ndarray:
    """Antisymmetrize over all axes after the first ``lead`` point axes (the
    projection Alt, with 1/k!)."""
    k = a.ndim - lead
    if k <= 1:
        return a
    out = np.zeros_like(a)
    points = tuple(range(lead))
    for sign, perm in _signed_permutations(k):
        out += sign * a.transpose(points + tuple(lead + i for i in perm))
    return out / math.factorial(k)


@functools.cache
def _signed_permutations(k: int) -> tuple:
    """(sign, permutation) of every permutation of range(k), in the order
    of :func:`itertools.permutations`."""
    return tuple((_perm_sign(perm), perm)
                 for perm in itertools.permutations(range(k)))


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def wedge(a: np.ndarray, b: np.ndarray, lead: int = 0) -> np.ndarray:
    """Wedge product of antisymmetric component arrays, determinant convention,
    at each point of a stack when a and b carry ``lead`` point axes in front.

    For 1-forms: (a ^ b)_ij = a_i b_j - a_j b_i.
    """
    k, l = a.ndim - lead, b.ndim - lead
    prod = (a.reshape(a.shape + (1,) * l)
            * b.reshape(b.shape[:lead] + (1,) * k + b.shape[lead:]))
    return alt(prod, lead) * (math.factorial(k + l) /
                              (math.factorial(k) * math.factorial(l)))


def form_of_endomorphism(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """2-form omega(X, Y) = g(AX, Y) of a (g-skew) endomorphism A; a and g
    may be stacks of matrices, shape (..., m, m)."""
    return np.swapaxes(a, -1, -2) @ g


def endomorphism_of_form(omega: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Inverse of :func:`form_of_endomorphism` for antisymmetric omega."""
    return np.linalg.solve(g, omega.T)


def wedge_endo(x: np.ndarray, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Endomorphism (X ^ tau)(Y) = g(X, Y) tau_sharp - tau(Y) X.

    ``x`` is a vector, ``tau`` a 1-form; returns the matrix acting on vectors,
    at each point of a stack when x, tau and g carry the point axes in front.
    """
    tau_sharp = np.linalg.solve(g, tau[..., None])[..., 0]
    gx = (g @ x[..., None])[..., 0]
    return (tau_sharp[..., :, None] * gx[..., None, :]
            - x[..., :, None] * tau[..., None, :])


def form_norm(a: np.ndarray, g: np.ndarray) -> float:
    """Metric norm of a fully covariant tensor: contract every index with g^-1."""
    return raised_norm(a, np.linalg.inv(g))


def raised_norm(a: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """:func:`form_norm` from g^-1, for a caller that takes several norms at
    one point and inverts g once; at each point of a stack when g_inv, shape
    (..., m, m), and a carry the point axes in front."""
    lead = g_inv.ndim - 2
    if a.ndim == lead:
        return abs(a)
    raised = a
    for axis in range(lead, a.ndim):
        raised = _contract(g_inv, raised, axis, lead)
    return np.sqrt(abs(np.sum(raised * a, axis=tuple(range(lead, a.ndim)))))


def _contract(g: np.ndarray, t: np.ndarray, axis: int,
              lead: int = 0) -> np.ndarray:
    """g_ij t^...j... on the given axis of t, the result's index i in its
    place: ``np.moveaxis(np.tensordot(g, t, axes=(1, axis)), 0, axis)`` at
    each point of a stack when g and t carry ``lead`` point axes in front.

    It makes tensordot's transpose and its one matrix product per point, so
    it rounds the same, without tensordot's and moveaxis's axis
    normalisation.
    """
    forward, back = _contraction_orders(t.ndim, lead)[axis - lead]
    moved = t.transpose(forward)
    points = t.shape[:lead]
    prod = g @ moved.reshape(points + (t.shape[axis],
                                       math.prod(moved.shape[lead + 1:])))
    return prod.reshape(points + g.shape[-2:-1]
                        + moved.shape[lead + 1:]).transpose(back)


@functools.cache
def _contraction_orders(rank: int, lead: int) -> tuple:
    """Per axis after the ``lead`` point axes of a rank-``rank`` array: the
    transpose that brings it to the front of them, the others in order, and
    the one that moves it back."""
    points = tuple(range(lead))
    return tuple(((*points, axis, *range(lead, axis), *range(axis + 1, rank)),
                  (*points, *range(lead + 1, axis + 1), lead,
                   *range(axis + 1, rank)))
                 for axis in range(lead, rank))


def _move_axis(a: np.ndarray, source: int, dest: int) -> np.ndarray:
    """``np.moveaxis(a, source, dest)`` for one axis: the same transpose,
    without moveaxis's axis normalisation."""
    order = list(range(a.ndim))
    order.insert(dest % a.ndim, order.pop(source))
    return a.transpose(order)


def vector_norm(v: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """sqrt|v . metric . v|: the length of a vector (metric g) or of a 1-form
    (metric g^-1), at each point of a stack when v and metric carry the point
    axes in front."""
    square = (v[..., None, :] @ metric @ v[..., :, None])[..., 0, 0]
    return np.sqrt(abs(square))
