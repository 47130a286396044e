"""Coordinate charts, loops, and exterior algebra on component arrays.

A :class:`Chart` is an axis-aligned coordinate box together with a smooth
metric field (and optionally its analytic first derivatives).  Every
geometric computation in the package is chart-local: there are no atlases
or transition maps, only boxes with smooth fields on them.

Conventions used throughout:

* a tensor at a point is the array of its components in the coordinate
  frame, contravariant axes first, then covariant axes, so Christoffel
  symbols Gamma^k_{ij} live in ``G[k, i, j]`` and the Riemann tensor
  R^a_{bcd} in ``R[a, b, c, d]``; at each of a stack of points, shape
  (..., m), the point axes come in front;
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
from .errors import ChartDomainError, MetricError, in_item_order

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

    @functools.cached_property
    def bounds(self) -> tuple:
        """The low and the high face of each coordinate, as two read-only
        arrays, derived from ``domain`` once per chart."""
        lows, highs = np.array(self.domain, dtype=float).T
        lows.flags.writeable = highs.flags.writeable = False
        return lows, highs

    def inside(self, points, margin: float = 0.0) -> np.ndarray:
        """Whether each of the points, shape (..., dim), lies in the box
        shrunk by ``margin``."""
        lows, highs = self.bounds
        if margin:      # x + 0.0 and x - 0.0 compare as x does
            lows, highs = lows + margin, highs - margin
        points = np.asarray(points, dtype=float)
        return ((lows <= points) & (points <= highs)).all(axis=-1)

    def require_inside(self, p, margin: float = 0.0):
        """Raise :class:`ChartDomainError` naming the first of the points
        (shape (..., dim)) outside the box shrunk by ``margin``."""
        outside = ~self.inside(p, margin)
        if outside.any():
            raise ChartDomainError(
                f"point {np.asarray(p, dtype=float)[first_flagged(outside)]} "
                f"outside chart '{self.label}' domain with margin {margin}")

    def metric(self, p) -> np.ndarray:
        """Metric matrix at each of the points p, shape (..., dim), validated
        finite, symmetric and positive definite.

        The error names the first bad point in C order and its first failed
        check, as point-by-point calls would.
        """
        q = np.asarray(p, dtype=float)
        g = np.asarray(self.metric_fn(q), dtype=float)
        points = [p] if q.ndim == 1 else q.reshape(-1, self.dim)
        in_item_order(lambda: self._require_spd(g, p),
                      lambda item: self._require_spd(*item),
                      zip(g.reshape((-1,) + g.shape[-2:]), points))
        return g

    def _require_spd(self, g: np.ndarray, at):
        check = _spd_failure(g)
        if check is not None:
            raise MetricError(f"metric not {check} at {at} on '{self.label}'")

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
        lows, highs = self.bounds
        return (lows + highs) / 2.0

    def sample_points(self, rng: np.random.Generator, count: int,
                      margin: float = DEFAULT_MARGIN) -> np.ndarray:
        """Uniform interior samples, keeping `margin` away from every face."""
        lows, highs = self.bounds
        lows, highs = lows + margin, highs - margin
        if np.any(highs <= lows):
            raise ChartDomainError(
                f"margin {margin} empties the domain of chart '{self.label}'")
        return rng.uniform(lows, highs, size=(count, self.dim))


def first_flagged(flags) -> tuple:
    """The index of the first True of a verdict at each point, in C order:
    () for the verdict at a single point, (k,) for the k-th of a stack."""
    return np.unravel_index(np.argmax(flags), np.shape(flags))


def _spd_failure(g: np.ndarray):
    """The first of the checks finite, symmetric and positive definite that
    the matrix g, or a matrix of the stack g, shape (..., m, m), fails; None
    if every matrix passes, as an empty stack does."""
    if not math.isfinite(np.abs(g).max(initial=0.0)):
        return "finite"
    gT = np.swapaxes(g, -1, -2)
    # An exactly symmetric stack, the common case, needs no tolerance.  Else
    # np.allclose(gk, gk.T, atol=1e-10 * (1 + max |gk|)) per matrix, written
    # out, which gives the same verdict on finite gk without its overhead.
    if not (g == gT).all():
        scale = np.abs(g).max(axis=(-2, -1), keepdims=True)
        if not (np.abs(g - gT) <= 1e-10 * (1.0 + scale)
                + 1e-5 * np.abs(gT)).all():
            return "symmetric"
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return "positive definite"
    return None


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
        if not (defect <= 1e-12 * (1.0 + np.max(np.abs(p0)))):
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


def wedge_endo(x: np.ndarray, tau: np.ndarray, g: np.ndarray,
               g_inv: np.ndarray) -> np.ndarray:
    """Endomorphism (X ^ tau)(Y) = g(X, Y) tau_sharp - tau(Y) X.

    ``x`` is a vector, ``tau`` a 1-form raised by ``g_inv``, the caller's
    g^-1; returns the matrix acting on vectors, at each point of a stack
    when x, tau, g and g_inv carry the point axes in front.
    """
    tau_sharp = (g_inv @ tau[..., None])[..., 0]
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
              lead: int) -> np.ndarray:
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
