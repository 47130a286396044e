"""Geodesics, parallel transport, and line integrals along curves.

Geodesics and transport use the classical 4-stage Runge-Kutta scheme with a
fixed number of steps; line integrals use Gauss-Legendre quadrature, and a
loop integral compares the 16-node Gauss rule with its 33-node Kronrod
extension, which shares its nodes, on each smooth piece, halving the piece
until they agree.  :func:`loop_integrals` takes the first rule pair of up
to ``PIECE_BLOCK`` pieces, of one loop or of several, from one field call,
and both halves of a piece whose rules disagree from one more.  Transport
around a :class:`~lckgeo.charts.Loop` with a deck-translation shift is well
defined because the chart fields are invariant under the shift.  Curves,
like fields, take stacks: parameters of shape (...) give points and
velocities of shape (..., m).

Parallel transport solves the linear ODE V' = B(t) V with
B = -Gamma(x(t))(x'(t), .).  RK4 samples B at t, t + h/2 and t + h, the next
step's t, so a smooth piece of s steps needs it at 2s + 1 node times, all
known before integration starts, and each step is a matrix, V -> V + D V.
Each piece finds its node times by the float recurrence of the integrator,
and a transport takes the curve points and velocities at the nodes of all
its pieces with one call each; each piece runs the domain check of every
node at once.  B is evaluated in blocks of about ``NODE_BLOCK`` points,
straight from the metric partials and metric of
:func:`~lckgeo.calculus.metric_partials`, the reads of
:func:`~lckgeo.calculus.christoffel_components`, by
:func:`~lckgeo.calculus.connection_matrix`: m^2 work per node, where Gamma
takes m^3, and g^-1 by a Cholesky solve over the block.  No table the size
of a piece is held, and each block's increments D come from batched
matmuls and are applied one step at a time.  The result agrees with
stage-by-stage RK4 to rounding, and the errors are its errors: a state
that turns non-finite raises with the end time of its step, and a node
that fails a domain check raises after the steps before it.  A metric off
the SPD cone gives a NaN connection, so a node where it is singular or
indefinite ends its step non-finite.

A bundle is several curves on one schedule (steps and breakpoints), their
points stacked on an axis before the coordinate axis, with one frame per
curve.  One integration carries every frame of the bundle; each curve's
result is bit for bit its transport alone, and the bundle raises the first
error in time of any of its curves.  Curves whose node points and
velocities on a smooth piece are bitwise equal, as rectangles from one
corner are on a common edge, share that piece's blocks of B and step
increments: B is evaluated once per distinct curve, in blocks of
about ``NODE_BLOCK`` distinct points, and each curve's frame takes the
increments of its curve's class.  Callers that need the error of the
first curve in their own order, as :mod:`~lckgeo.holonomy` does, go
through :func:`~lckgeo.errors.in_item_order`.  Geodesics depend on the
state and evaluate stage by stage.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import fd
from .calculus import (christoffel_components, connection_matrix,
                       metric_partials)
from .charts import Chart, Loop
from .errors import (DomainExitError, IntegrationError, ParameterError,
                     in_item_order)

DEFAULT_STEPS = 2000

# Evaluation points per stacked metric call in transport_along: RK4 nodes
# times curves.  Large enough to amortise the calls of a block, small enough
# that its fd stencil values stay near a megabyte: 0.5 MB at m = 4 and 1.8 MB
# at m = 6.  A loop-holonomy estimate on hopf{n=2} peaks at 1.3 MB.
NODE_BLOCK = 512

# The nodes of the Gauss-Legendre rule loop_integral checks each smooth
# piece with: the piece keeps the value of the rule's Kronrod extension, on
# 2 GUARD_NODES + 1 nodes that include them.  MAX_BISECTIONS is how many
# times a piece may be halved before the two rules' disagreement is an
# error (a piece of the unit parameter interval then spans about 1e-6).
GUARD_NODES = 16
MAX_BISECTIONS = 20

# Smooth pieces whose first rule pair loop_integrals takes from one field
# call: 99 Gauss-Kronrod nodes.  The Lee-form field holds about 7 KB a node
# at m = 4 (J and the metric on the DIRECT stencil, and their partials), so
# a call peaks below a megabyte, as a block of NODE_BLOCK transport points
# does.
PIECE_BLOCK = 3


def _rk4(f: Callable, y0: np.ndarray, t0: float, t1: float, steps: int) -> np.ndarray:
    """Fixed-step RK4 for y' = f(t, y)."""
    _require_steps(steps)
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state at t={t + h}")
        t += h
    return y


def geodesic(chart: Chart, p, v, time: float,
             steps: int = DEFAULT_STEPS) -> np.ndarray:
    """Integrate the geodesic from (p, v) for the given time; returns the endpoint.

    Raises :class:`DomainExitError` with the exit time if the trajectory
    leaves the chart box.
    """
    return geodesic_with_velocity(chart, p, v, time, steps)[0]


def geodesic_with_velocity(chart: Chart, p, v, time: float,
                           steps: int = DEFAULT_STEPS):
    """Like :func:`geodesic` but also returns the final velocity."""
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    m = chart.dim

    def rhs(t, y):
        x, vel = y[:m], y[m:]
        if not chart.inside(x):
            raise DomainExitError(f"geodesic left chart '{chart.label}'",
                                  exit_time=t, point=x)
        gamma = christoffel_components(chart, x)
        return np.concatenate([vel, -np.einsum("kij,i,j->k", gamma, vel, vel)])

    y = _rk4(rhs, np.concatenate([p, v]), 0.0, time, steps)
    return y[:m], y[m:]


def parallel_transport(chart: Chart, loop: Loop, frame: np.ndarray,
                       steps: int = None) -> np.ndarray:
    """Parallel-transport a frame (columns = vectors) around a loop.

    Returns the transported frame at the base point; for an isometrically
    shifted loop the columns are expressed in the coordinates at
    curve(1) = curve(0) + shift, which the field invariance identifies with
    the base point.
    """
    return transport_along(chart, loop.point, loop.velocity, frame,
                           steps=loop.steps if steps is None else steps,
                           breakpoints=loop.breakpoints)


def transport_along(chart: Chart, point_fn: Callable, velocity_fn: Callable,
                    frame: np.ndarray, steps: int = DEFAULT_STEPS,
                    breakpoints: tuple = ()) -> np.ndarray:
    """Transport frame columns along the parametrized curve on [0, 1].

    ``point_fn`` and ``velocity_fn`` take stacks of parameters, shape (...),
    like :class:`~lckgeo.charts.Loop`.  For one curve they give shape
    (..., m) and ``frame`` is (m, k); for a bundle of curves on one schedule
    they give (..., K, m), curve axes after the parameter axes, and ``frame``
    is (K, m, k), one frame per curve.  Each curve's result is bit for bit
    its transport alone.  ``breakpoints`` are interior parameters where the
    velocity may jump (polygon corners); each smooth piece is integrated
    separately so no RK4 stage samples the velocity across a corner.  The
    curve functions are called once, on the nodes of every piece; where
    that call raises, the error is the first piece's, by
    :func:`~lckgeo.errors.in_item_order`, before any piece is integrated.
    """
    _require_steps(steps)
    y = np.asarray(frame, dtype=float)
    knots = _knots(breakpoints)
    pieces = [_node_times(t0, t1, max(int(round(steps * (t1 - t0))), 1))
              for t0, t1 in zip(knots[:-1], knots[1:])]
    xs, vels = in_item_order(
        lambda: _curve_nodes(chart, point_fn, velocity_fn, np.concatenate(
            [params for _, _, params in pieces])),
        lambda piece: _curve_nodes(chart, point_fn, velocity_fn, piece[2]),
        pieces)
    start = 0
    for h, times, params in pieces:
        end = start + len(params)
        y = _transport_piece(chart, xs[start:end], vels[start:end], y, h,
                             times)
        start = end
    return y


def _require_steps(steps: int):
    if steps < 1:
        raise ParameterError(f"need at least 1 step, got {steps}")


def _knots(breakpoints: tuple) -> list:
    """0, the interior breakpoints in order, and 1: the ends of the smooth
    pieces of a curve on [0, 1]."""
    return [0.0] + sorted(t for t in breakpoints if 0.0 < t < 1.0) + [1.0]


def _node_times(t0: float, t1: float, steps: int):
    """The step h of a smooth piece over [t0, t1] in the given RK4 steps,
    its node times by the float recurrence of :func:`_rk4`, and the curve
    parameters at which they sample it: clipped into the piece, so that no
    stage samples the velocity at a corner."""
    h = (t1 - t0) / steps
    times, t = [], t0
    for _ in range(steps):
        times += (t, t + 0.5 * h)
        t += h
    times.append(t)
    eps = 1e-9 * (t1 - t0)
    return h, times, np.clip(times, t0 + eps, t1 - eps)


def _curve_nodes(chart: Chart, point_fn: Callable, velocity_fn: Callable,
                 params: np.ndarray):
    """Points and velocities of the curve at the parameters, shape
    (nodes, curves, coordinates); one curve is a bundle of one."""
    xs = np.asarray(point_fn(params), dtype=float).reshape(
        len(params), -1, chart.dim)
    return xs, np.asarray(velocity_fn(params), dtype=float).reshape(xs.shape)


def _transport_piece(chart: Chart, xs: np.ndarray, vels: np.ndarray,
                     y: np.ndarray, h: float, times: list) -> np.ndarray:
    """The frames y carried over one smooth piece, with curve points xs and
    velocities vels at its node times, by RK4 step propagators applied one
    step at a time as in :func:`_rk4`: a state that turns non-finite raises
    with the end time of its step, and the first node that fails a domain
    check raises after the steps before it.  Curves of a bundle that
    coincide on the piece share their increments D.

    The state is checked once per block of steps: a non-finite entry stays
    non-finite under y + D y, so only a block that ends non-finite is
    replayed step by step, with numpy's warnings, to find its step."""
    # the fd stencil of metric_jacobian needs its step inside the box
    margin = chart.stencil_margin()
    ok = chart.inside(xs, margin)
    bad = np.flatnonzero(~ok.all(axis=1))
    n_ok = bad[0] if len(bad) else len(times)
    curve_of, distinct = _coinciding_curves(xs, vels)
    shape = y.shape
    y = y.reshape((len(curve_of),) + shape[-2:])
    step = 0
    for D in _step_blocks(chart, xs[:n_ok], vels[:n_ok], distinct, h,
                          max(NODE_BLOCK // len(distinct), 1)):
        D = D[:, curve_of]
        y_block = y
        with np.errstate(all="ignore"):
            for D_j in D:
                y = y + D_j @ y
        if not np.all(np.isfinite(y)):
            _raise_non_finite(D, y_block, times, step)
        step += len(D)
    if n_ok < len(times):
        _raise_domain_error(chart, xs[n_ok], times[n_ok], margin)
    return y.reshape(shape)


def _raise_non_finite(D: np.ndarray, y: np.ndarray, times: list, step: int):
    """Replay the steps y -> y + D_j y from y, the state after ``step``
    steps, and raise at the first that turns it non-finite, with the end
    time of that step."""
    for D_j in D:
        y = y + D_j @ y
        step += 1
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state at t={times[2 * step]}")


def _coinciding_curves(xs: np.ndarray, vels: np.ndarray):
    """For the curves of a bundle piece, nodes xs and velocities vels of
    shape (nodes, curves, m): each curve's class, numbered in order of
    first appearance, and the first curve of each class.  Curves are equal
    when their bits are, so -0.0 and 0.0 stay apart and a NaN matches only
    its own bit pattern.  Curves are filed by the bits of their end nodes,
    and only a curve filed with others is compared with them node by node."""
    bits = (xs.view(np.int64), vels.view(np.int64))
    by_ends = {}
    curve_of, distinct = [], []
    for k in range(xs.shape[1]):
        ends = b"".join(b[[0, -1], k].tobytes() for b in bits)
        classes = by_ends.setdefault(ends, [])
        for c in classes:
            if all(np.array_equal(b[:, k], b[:, distinct[c]]) for b in bits):
                break
        else:
            c = len(distinct)
            distinct.append(k)
            classes.append(c)
        curve_of.append(c)
    return np.array(curve_of), np.array(distinct)


def _step_blocks(chart: Chart, xs: np.ndarray, vels: np.ndarray,
                 curves: np.ndarray, h: float, per_block: int):
    """The increments of the RK4 steps of the given curves over the nodes
    xs, shape (nodes, curves, m), ``per_block`` nodes of
    B = -Gamma(x)(v, .), by :func:`~lckgeo.calculus.connection_matrix`, at a
    time; the nodes of an unfinished step carry over to the next block."""
    carry = np.empty((0, len(curves)) + xs.shape[-1:] * 2)
    for start in range(0, len(xs), per_block):
        B = np.concatenate([carry, connection_matrix(
            *metric_partials(chart, xs[start:start + per_block, curves],
                             fd.DIRECT.step),
            vels[start:start + per_block, curves])])
        s = (len(B) - 1) // 2
        carry = B[2 * s:]
        # the stages k_i = K_i y of a step from B0, B1/2, B1 at t, t + h/2,
        # t + h; the step is y + D y
        B0, B_half, B1 = B[0:2 * s:2], B[1:2 * s:2], B[2:2 * s + 1:2]
        K2 = B_half + (0.5 * h) * (B_half @ B0)
        K3 = B_half + (0.5 * h) * (B_half @ K2)
        K4 = B1 + h * (B1 @ K3)
        yield (h / 6.0) * (B0 + 2.0 * K2 + 2.0 * K3 + K4)


def _raise_domain_error(chart: Chart, x: np.ndarray, exit_time: float,
                        margin: float):
    """Raise the domain error of the first of the curve points x, shape
    (..., m), that fails the domain check with the given margin."""
    x = x.reshape(-1, chart.dim)[~chart.inside(x, margin).reshape(-1)][0]
    if not chart.inside(x):
        raise DomainExitError(f"transport curve left chart '{chart.label}'",
                              exit_time=exit_time, point=x)
    chart.require_inside(x, margin)


def transport_segment(chart: Chart, p_from, p_to, frame: np.ndarray,
                      steps: int = 200) -> np.ndarray:
    """Transport along the straight coordinate segment p_from -> p_to.

    With p_from or p_to a stack of points, shape (K, m), the K segments are
    transported as one bundle and ``frame`` is (K, m, k).
    """
    p_from = np.asarray(p_from, dtype=float)
    p_to = np.asarray(p_to, dtype=float)
    vel = p_to - p_from
    return transport_along(
        chart, lambda t: p_from + np.multiply.outer(t, vel),
        lambda t: np.broadcast_to(vel, np.shape(t) + vel.shape),
        frame, steps=steps)


def orthogonality_defect(chart: Chart, loop: Loop, transported: np.ndarray) -> float:
    """Max-norm of M^T G M - G at the loop base point (isometry defect)."""
    G = chart.metric(loop.point(0.0))
    return float(np.max(np.abs(transported.T @ G @ transported - G)))


def loop_integral(chart: Chart, oneform_field: Callable, loop: Loop) -> float:
    """Line integral of a 1-form field around the loop; see
    :func:`loop_integrals`."""
    return loop_integrals(chart, oneform_field, [loop])[0]


def loop_integrals(chart: Chart, oneform_field: Callable, loops) -> list:
    """Line integrals of a 1-form field around each of the loops.

    Each loop is split at its breakpoints, and the smooth pieces of all the
    loops, in order, are integrated by :func:`_block_integrals` in blocks
    of at most ``PIECE_BLOCK``: the first rule pair of every piece of a
    block comes from one field call on all their nodes, and a piece whose
    two rules disagree is then refined, its two halves one call, before the
    next piece and the next block are evaluated.  Exact-form
    integrals over shift-free loops vanish to quadrature accuracy, and the
    integral is additive under loop concatenation.  The errors are those of
    the pieces integrated one after the other, loop by loop and in
    parameter order: the first node that fails, the domain check or the
    field call, raises first, and a piece's halving raises before a later
    piece's nodes.  Where a block's call raises, its pieces are integrated
    in that order by :func:`~lckgeo.errors.in_item_order`.

    A kink of the curve or a jump of the integrand must be declared as a
    breakpoint.  The Kronrod rule has a node at the centre of a piece, where
    the Gauss rule has none, so the guard sees a jump near the centre too:
    an undeclared jump raises at the depth cap, unless a halving lands on
    it, or unless it lies within x_1 of an end of a piece, where x_1, the
    first node of the pair, is 8.8e-4 of the piece's length.  No node of
    either rule sees it there, the two rules agree, and the kept value
    errs by at most x_1 times the length of that piece.
    """
    knots = [_knots(loop.breakpoints) for loop in loops]
    pieces = [(loop, t0, t1) for loop, ts in zip(loops, knots)
              for t0, t1 in zip(ts[:-1], ts[1:])]
    # blocks of near-equal size, the later ones the larger
    blocks = -(-len(pieces) // PIECE_BLOCK)
    values = []
    for k in range(blocks):
        values += _block_integrals(chart, oneform_field, pieces[
            k * len(pieces) // blocks:(k + 1) * len(pieces) // blocks])
    values = iter(values)
    totals = []
    for ts in knots:
        total = 0.0
        for _ in ts[1:]:
            total += next(values)
        totals.append(total)
    return totals


def _block_integrals(chart: Chart, oneform_field: Callable, pieces: list,
                     depth: int = 0) -> list:
    """The integrals of the pieces, in order, by guarded Gauss-Kronrod,
    from one field call on the :func:`_guard_nodes` of them all; each piece
    is ``depth`` halvings of a smooth piece of its loop.

    A piece keeps its 33-node Kronrod value when the 16-node Gauss rule
    agrees with it to ``1e-12 (1 + sum |w_i alpha . v|)`` over the 33
    nodes, and otherwise its two halves are one block a level deeper,
    refined before the next piece.  A value that is not finite is returned
    as it is, for the caller to judge, and a piece still split
    ``MAX_BISECTIONS`` deep raises :class:`IntegrationError`.  Where the
    call raises, the pieces are integrated alone, in order, by
    :func:`~lckgeo.errors.in_item_order`, and the nodes of a lone piece are
    checked one at a time in parameter order.
    """
    def field(x):
        chart.require_inside(x)
        return np.asarray(oneform_field(x), dtype=float)

    if len(pieces) == 1:
        nodes = [_guard_nodes(*pieces[0])]
        xs = nodes[0][0]
        alphas = in_item_order(lambda: field(xs), field, xs)
    else:
        def stacked():
            nodes = [_guard_nodes(*piece) for piece in pieces]
            return nodes, field(np.concatenate([xs for xs, _ in nodes]))

        nodes, alphas = in_item_order(
            stacked, lambda piece: _block_integrals(
                chart, oneform_field, [piece], depth), pieces)
    values = []
    # every piece has the same number of nodes
    for (loop, t0, t1), (_, vels), piece_alphas in zip(
            pieces, nodes, np.split(alphas, len(pieces))):
        gauss, kronrod, scale = _rule_sums(t1 - t0, vels, piece_alphas)
        if not (math.isfinite(gauss) and math.isfinite(kronrod)):
            values.append(gauss if math.isfinite(kronrod) else kronrod)
        elif abs(kronrod - gauss) <= 1e-12 * (1.0 + scale):
            values.append(kronrod)
        elif depth == MAX_BISECTIONS:
            raise IntegrationError(
                f"loop integral does not converge on [{t0!r}, {t1!r}]: its "
                f"two rules differ by {abs(kronrod - gauss):.2e}")
        else:
            mid = 0.5 * (t0 + t1)
            first, second = _block_integrals(
                chart, oneform_field, [(loop, t0, mid), (loop, mid, t1)],
                depth + 1)
            values.append(first + second)
    return values


def _guard_nodes(loop: Loop, t0: float, t1: float) -> tuple:
    """The loop's points and velocities at the nodes of the
    Gauss-Kronrod pair over [t0, t1], in parameter order, from one loop
    call each."""
    ts = t0 + fd.gauss_kronrod_01(GUARD_NODES)[0] * (t1 - t0)
    return loop.point(ts), loop.velocity(ts)


def _rule_sums(h: float, vels: np.ndarray, alphas: np.ndarray) -> tuple:
    """The 16-node Gauss and the 33-node Kronrod value over a piece of
    length h, and the sum of |w_i alpha . v| over the Kronrod nodes, from
    the field values alphas and the velocities vels at the
    :func:`_guard_nodes`; the Gauss nodes are every second one."""
    _, kronrod_weights, gauss_weights = fd.gauss_kronrod_01(GUARD_NODES)
    terms = np.vecdot(alphas, vels)
    parts = kronrod_weights * h * terms
    return (float(np.sum(gauss_weights * h * terms[1::2])),
            float(np.sum(parts)), float(np.sum(np.abs(parts))))


def line_integral_segment(oneform_field: Callable, p_from, p_to,
                          nodes: int = 16):
    """Integral of a 1-form along the straight segment from p_from to each of
    the points p_to, shape (..., m) (Gauss-Legendre); p_from is one point or
    one per segment, with the point axes of p_to.

    The field is evaluated on the nodes of every segment in one call, and
    the error raised is the first node's in C order, segment by segment, by
    :func:`~lckgeo.errors.in_item_order`.
    """
    p_from = np.asarray(p_from, dtype=float)
    p_to = np.asarray(p_to, dtype=float)
    ts, ws = fd.gauss_legendre_01(nodes)
    vel = p_to - p_from
    xs = p_from[..., None, :] + ts[:, None] * vel[..., None, :]
    alphas = np.asarray(in_item_order(lambda: oneform_field(xs), oneform_field,
                                      xs.reshape(-1, xs.shape[-1])),
                        dtype=float)
    return np.vecdot(np.vecdot(alphas, vel[..., None, :]), ws)
