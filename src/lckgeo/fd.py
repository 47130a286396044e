"""Central finite-difference stencils for chart fields.

All differentiation in the package funnels through these helpers.  Step
sizes are tiered by how much stencil noise the differentiated field already
carries:

* ``STEP_DIRECT``  -- fields evaluated in closed form (metric, J, fundamental
  form): 2nd-order stencil, step 1e-5.
* ``STEP_NESTED``  -- fields whose evaluation contains one stencil level
  (Christoffel fields, Lee forms, grad of scalar invariants): 4th-order
  stencil, step 1e-3.  The wider, higher-order stencil keeps the amplified
  inner-stencil noise (~eps/h) well below the 1e-4 identity tolerances.
* ``STEP_DEEP``    -- twice-nested fields (S-tensor, delta-theta, the
  Einstein-chain and Hamiltonian-form stacks): 2nd-order, step 1e-2.

A field is a callable from a point, shape (m,), to a component array.  A
field declared with :func:`batched` also takes a stack of points, shape
(..., m), and returns the stack of its values, shape (...,) + the value
shape, in one call; it must give at each point exactly what the call at that
point alone gives.  :func:`evaluate` calls a batched field once on a whole
stack and any other field once per point, so fields stay per-point unless
they say otherwise.  A batched field works stage by stage across its stack,
so where several points fail, the error it raises may belong to a later
point than the first; the line integrals of :mod:`transport` re-evaluate
their nodes one by one on an error, to raise the first node's.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np


@lru_cache(maxsize=32)
def gauss_legendre_01(nodes: int):
    """Cached Gauss-Legendre nodes and weights on [0, 1]."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    return (xs + 1.0) / 2.0, ws / 2.0

STEP_DIRECT = 1e-5
STEP_NESTED = 1e-3
STEP_DEEP = 1e-2

ORDER_DIRECT = 2
ORDER_NESTED = 4
ORDER_DEEP = 2


def batched(f: Callable) -> Callable:
    """Declare that the field f takes a stack of points, shape (..., m).

    The mark is a function attribute, so a ``functools.wraps`` wrapper of f
    carries it too.
    """
    f.batched = True
    return f


def evaluate(f: Callable, points) -> np.ndarray:
    """f at each of the points, shape (..., m): out[...] = f(points[...]).

    A single point of shape (m,) and a stack for a :func:`batched` field are
    passed through as they are; any other field sees a stack one point at a
    time, in C order, and its values are stacked as floats, which must all
    have one shape.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1 or getattr(f, "batched", False):
        return np.asarray(f(points))
    flat = points.reshape(-1, points.shape[-1])
    first = np.asarray(f(flat[0]), dtype=float)
    shape = first.shape
    values = np.empty((len(flat),) + shape)
    values[0] = first
    for i, q in enumerate(flat[1:], 1):
        value = f(q)
        # an array's own shape attribute is much cheaper than np.shape
        if getattr(value, "shape", None) != shape and np.shape(value) != shape:
            raise ValueError(f"field value of shape {np.shape(value)} at {q}, "
                             f"after {shape} at {flat[0]}")
        values[i] = value
    return values.reshape(points.shape[:-1] + shape)


def gradient(f: Callable, p, step: float, order: int = 2) -> np.ndarray:
    """All partials of f at each of the points p, shape (..., m).

    ``out[..., k, ...] = d_k f``: the derivative axis follows the point axes,
    so at a single point it comes first.  The central stencil of the given
    order (2 or 4) is built for every point at once, and f is evaluated on it
    axis by axis in the order +h, -h (, +2h, -2h).
    """
    p = np.asarray(p, dtype=float)
    h = step
    if order == 2:
        scales = np.array([h, -h])
    elif order == 4:
        scales = np.array([h, -h, 2.0 * h, -2.0 * h])
    else:
        raise ValueError(f"unsupported stencil order {order}")
    # offsets[k, s] = scales[s] * e_k; p + (-h e_k) rounds like p - h e_k
    offsets = np.eye(p.shape[-1])[:, None, :] * scales[:, None]
    values = evaluate(f, p[..., None, None, :] + offsets)
    f_s = np.moveaxis(values, p.ndim, 0)
    if order == 2:
        return (f_s[0] - f_s[1]) / (2.0 * h)
    return (8.0 * (f_s[0] - f_s[1]) - (f_s[2] - f_s[3])) / (12.0 * h)


def stencil_extent(step: float, order: int = 2) -> float:
    """Largest coordinate offset the stencil reaches from the base point."""
    return step * (2.0 if order == 4 else 1.0)
