"""Derivatives of chart fields: central finite-difference stencils and the
complex step.

Stencil differentiation funnels through :func:`gradient`, which is
:func:`stencil_points` followed by :func:`difference`.  A caller that
needs several fields on one stencil (the one-pass Lee form of
:mod:`lckgeo.hermitian` reads J and the metric there) calls the two itself:
it evaluates each field once and differences what it derives from the
values.  :func:`joined` stacks the stencil points with the points
themselves, so one call of a field serves both.  The one exact first
derivative is :func:`complex_step`, which a chart with a complex-safe
metric uses for its metric partials.  A :class:`Stencil` is one (step,
order) pair, and there is one per tier, tiered by how much stencil noise
the differentiated field already carries:

* ``DIRECT`` -- fields evaluated in closed form (metric, J, fundamental
  form), and sigma~ and its trace in the Hamiltonian-form check:
  2nd-order stencil, step 1e-5.
* ``NESTED`` -- fields whose evaluation contains one stencil level
  (Christoffel fields, Lee forms, grad of scalar invariants): 4th-order
  stencil, step 1e-3.  The wider, higher-order stencil keeps the amplified
  inner-stencil noise (~eps/h) well below the 1e-4 identity tolerances.
* ``DEEP`` -- twice-nested fields (S-tensor, delta-theta, the Einstein-chain
  stack): 2nd-order, step 1e-2.

A field is a callable from points of shape (..., m) to the stack of its
values, shape (...,) + the value shape; a single point of shape (m,) gives
the bare value.  Every field takes stacks, and it must give at each point of
a stack exactly what the call at that point alone gives.  Where several
points fail, the error it raises may be a later point's; callers choose
the error by :func:`~lckgeo.errors.in_item_order`.  A function of one point
becomes a field through
``np.vectorize(f, signature="(m)->(i,j)", otypes=[float])``; such a field
drops the imaginary part of a complex input, so it has no
:func:`complex_step`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np


@lru_cache(maxsize=32)
def gauss_legendre_01(nodes: int):
    """Cached Gauss-Legendre nodes and weights on [0, 1]."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    return (xs + 1.0) / 2.0, ws / 2.0


@lru_cache(maxsize=32)
def gauss_kronrod_01(nodes: int):
    """Cached Gauss-Kronrod pair on [0, 1]: the Gauss-Legendre rule of the
    given number of nodes n and its Kronrod extension.  Its 2n + 1 nodes in
    increasing order, with the n Gauss nodes of :func:`gauss_legendre_01`
    bitwise at the odd positions between the n + 1 Kronrod nodes; the
    Kronrod weights at all of them, exact through degree 3n + 1; and the
    Gauss weights of :func:`gauss_legendre_01` at the odd positions.

    Laurie's algorithm extends the Legendre recurrence to the Jacobi-Kronrod
    matrix (D. P. Laurie, Math. Comp. 66, 1997); its eigenvalues are the
    nodes and the squared first components of its eigenvectors the weights
    (Golub and Welsch, Math. Comp. 23, 1969).
    """
    n = nodes
    # the recurrence coefficients on [-1, 1]: a_k = 0, b_0 = 2 the mass and
    # b_k = k^2 / (4k^2 - 1); Laurie's algorithm fills in a_k and b_k above
    # 3n/2
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1)
    k = np.arange(1.0, (3 * n + 1) // 2 + 1)
    b[0] = 2.0
    b[1:len(k) + 1] = k * k / (4.0 * k * k - 1.0)
    # s[j + 1] and t[j + 1] hold Laurie's s_j and t_j, j = -1 .. n // 2
    s = np.zeros(n // 2 + 2)
    t = np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            l = m - k
            u += ((a[k + n + 1] - a[l]) * t[k + 1] + b[k + n + 1] * s[k]
                  - b[l] * s[k + 1])
            s[k + 1] = u
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            l = m - k
            j = n - 1 - l
            u += (-(a[k + n + 1] - a[l]) * t[j + 1] - b[k + n + 1] * s[j + 1]
                  + b[l] * s[j + 2])
            s[j + 1] = u
        k = (m + 1) // 2
        if m % 2 == 0:
            a[k + n + 1] = (a[k] + (s[j + 1] - b[k + n + 1] * s[j + 2])
                            / t[j + 2])
        else:
            b[k + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    a[2 * n] = a[n - 1] - b[2 * n] * s[1] / t[1]
    off = np.sqrt(b[1:])
    xs, vs = np.linalg.eigh(np.diag(a) + np.diag(off, 1) + np.diag(off, -1))
    xs = (xs + 1.0) / 2.0
    gauss_xs, gauss_ws = gauss_legendre_01(n)
    xs[1::2] = gauss_xs
    # the weights of [-1, 1], b_0 v_0^2, halved
    return xs, vs[0] * vs[0], gauss_ws


class Stencil(NamedTuple):
    """A central stencil: its step and its order (2 or 4)."""

    step: float
    order: int

    @property
    def extent(self) -> float:
        """Largest coordinate offset the stencil reaches from the base point."""
        return self.step * (2.0 if self.order == 4 else 1.0)


DIRECT = Stencil(1e-5, 2)
NESTED = Stencil(1e-3, 4)
DEEP = Stencil(1e-2, 2)


def constant(value) -> Callable:
    """The field that takes the given value at every point."""
    value = np.asarray(value, dtype=float)
    return lambda p: np.array(np.broadcast_to(
        value, np.shape(p)[:-1] + value.shape))


def gradient(f: Callable, p, stencil: Stencil) -> np.ndarray:
    """All partials of f at each of the points p, shape (..., m).

    ``out[..., k, ...] = d_k f``: the derivative axis follows the point axes,
    so at a single point it comes first.  f is called once, on the stack of
    all :func:`stencil_points`, and :func:`difference` combines its values.
    """
    p = np.asarray(p, dtype=float)
    return difference(np.asarray(f(stencil_points(p, stencil))), stencil,
                      p.ndim - 1)


COMPLEX_STEP = 1e-20


def complex_step(f: Callable) -> Callable:
    """The field of all first partials of f, laid out as by :func:`gradient`,
    by the complex step: ``d_k f(p) = Im f(p + i h e_k) / h``, h = 1e-20.

    No difference is taken, so there is no cancellation, and the result is
    exact to rounding (Squire & Trapp, SIAM Rev. 40, 1998).  f must be
    complex-safe: an analytic expression in the coordinates that carries a
    complex input through, with no cast to float on the way.
    """
    def partials(p):
        p = np.asarray(p, dtype=float)
        steps = np.eye(p.shape[-1]) * (1j * COMPLEX_STEP)
        return np.imag(f(p[..., None, :] + steps)) / COMPLEX_STEP
    return partials


def stencil_points(p, stencil: Stencil) -> np.ndarray:
    """The stencil around each of the points p, shape (..., m) -> (..., m,
    order, m): axis by axis, in the order +h, -h (, +2h, -2h).

    A caller that needs several fields on one stencil evaluates each of them
    once on these points and differences each with :func:`difference`.
    """
    p = np.asarray(p, dtype=float)
    h, order = stencil
    if order == 2:
        scales = np.array([h, -h])
    elif order == 4:
        scales = np.array([h, -h, 2.0 * h, -2.0 * h])
    else:
        raise ValueError(f"unsupported stencil order {order}")
    # offsets[k, s] = scales[s] * e_k; p + (-h e_k) rounds like p - h e_k
    offsets = np.eye(p.shape[-1])[:, None, :] * scales[:, None]
    return p[..., None, None, :] + offsets


def joined(*stacks):
    """The points of the stacks, each of shape (..., m), as one stack of
    shape (N, m), stack after stack in C order, and the function that
    splits the values of a field on it, shape (N,) + the value shape, back
    to one array per stack, shape (...) + the value shape.

    By the field protocol each value is bitwise what the call on its own
    stack gives, so one call serves every stack.
    """
    m = stacks[0].shape[-1]
    shapes = [s.shape[:-1] for s in stacks]
    starts = [0, *accumulate(math.prod(shape) for shape in shapes)]

    def split(values):
        return tuple(values[a:b].reshape(shape + values.shape[1:])
                     for a, b, shape in zip(starts, starts[1:], shapes))

    return np.concatenate([s.reshape(-1, m) for s in stacks]), split


def difference(values: np.ndarray, stencil: Stencil,
               lead: int = 0) -> np.ndarray:
    """All partials at each base point from a field's values at its
    :func:`stencil_points`, shape (..., m, order) + the value shape ->
    (..., m) + the value shape; ``lead`` counts the base point axes."""
    at = (slice(None),) * (lead + 1)
    f_s = [values[at + (s,)] for s in range(stencil.order)]
    h = stencil.step
    if stencil.order == 2:
        return (f_s[0] - f_s[1]) / (2.0 * h)
    return (8.0 * (f_s[0] - f_s[1]) - (f_s[2] - f_s[3])) / (12.0 * h)
