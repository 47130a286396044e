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

A field is a callable from points of shape (..., m) to the stack of its
values, shape (...,) + the value shape; a single point of shape (m,) gives
the bare value.  Every field takes stacks, and it must give at each point of
a stack exactly what the call at that point alone gives.  A field works
stage by stage across its stack, so where several points fail, the error it
raises may belong to a later point than the first; the line integrals of
:mod:`transport` re-evaluate their nodes one by one on an error, to raise
the first node's.  A function of one point becomes a field through
``np.vectorize(f, signature="(m)->(i,j)", otypes=[float])``.
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


def constant(value) -> Callable:
    """The field that takes the given value at every point."""
    value = np.asarray(value, dtype=float)
    return lambda p: np.array(np.broadcast_to(
        value, np.shape(p)[:-1] + value.shape))


def gradient(f: Callable, p, step: float, order: int = 2) -> np.ndarray:
    """All partials of f at each of the points p, shape (..., m).

    ``out[..., k, ...] = d_k f``: the derivative axis follows the point axes,
    so at a single point it comes first.  The central stencil of the given
    order (2 or 4) is built for every point at once, and f is called once on
    the stack of stencil points, shape (..., m, order, m): axis by axis, in
    the order +h, -h (, +2h, -2h).
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
    values = np.asarray(f(p[..., None, None, :] + offsets))
    f_s = np.moveaxis(values, p.ndim, 0)
    if order == 2:
        return (f_s[0] - f_s[1]) / (2.0 * h)
    return (8.0 * (f_s[0] - f_s[1]) - (f_s[2] - f_s[3])) / (12.0 * h)


def stencil_extent(step: float, order: int = 2) -> float:
    """Largest coordinate offset the stencil reaches from the base point."""
    return step * (2.0 if order == 4 else 1.0)
