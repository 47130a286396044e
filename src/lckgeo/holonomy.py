"""Numerical restricted-holonomy estimation and trichotomy classification.

Two independent estimators generate candidate holonomy-algebra elements at a
base point:

* ``curvature_span`` -- curvature endomorphisms R(X, Y) at probe points,
  parallel-transported to the base (the Ambrose-Singer picture);
* ``loop_holonomy`` -- principal logarithms of parallel transport around
  small contractible loops, conjugated to the base.

Both work in a metric-orthonormal frame at the base point, close the span
under commutators (two passes), and measure the numerical rank with a fixed
relative singular-value cut plus a mandatory rank-gap confidence check:
ambiguous ranks yield "inconclusive", never a wrong label.

Classification against the candidate algebras so(2n), u(n), so(2n-1) uses
dimension plus structural witnesses: a u(n) label needs every generator to
commute with a supplied J, an so(2n-1) label needs a common fixed
vector (kernel intersection) of all generators.

The loop logarithm is the Gregory series log H = 2 sum_k C^(2k+1)/(2k+1),
C = (H - I)(H + I)^-1 (Higham, *Functions of Matrices*, SIAM 2008, ch. 11).
Logged transports have |H - I|_2 < 0.5, so |C|_2 < 0.5 / (2 - 0.5) = 1/3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import riemann
from .charts import Chart, Loop, coordinate_rectangle
from .errors import (LoopTooLargeError, ParameterError, PreconditionError,
                     in_item_order)
from .transport import transport_along, transport_segment

RANK_CUT = 1e-6           # relative singular-value cut for the span rank
GENERATOR_FLOOR = 1e-7    # below this scale the algebra is declared trivial
MIN_RANK_GAP = 10.0
CLOSURE_PASSES = 2        # commutator passes over the span basis
U_N_COMMUTATOR = 1e-3     # relative [B, J] below which J commutes with B
FIXED_VECTOR_CUT = 1e-5   # relative singular value of a common fixed vector
FACE_MARGIN = 0.06        # least distance of a probe or loop from a chart face
LOOP_SIZE = 0.15          # default loop edge, and its corners' margin
LOOP_SCALES = (1.0, 0.6)  # the default loop edges, in units of LOOP_SIZE
LOG_TERMS = 16    # |C|_2 < 1/3: tail < 9^-16 / 33 * 9/8 < 2e-17 < 2^-53
TRANSPORT_STEPS = 200     # RK4 steps of each segment back to the base


@dataclass(frozen=True)
class HolonomyEstimate:
    """Span data of one holonomy-algebra estimate at a base point."""

    algebra_dim: int
    generators: list                 # coordinate-frame endomorphisms at base
    classification: str
    rank_gap: float
    base_point: np.ndarray
    skew_defect: float = 0.0


def _orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Lower-triangular L with g = L L^T.

    The columns of E = L^-T are a g-orthonormal frame, so an endomorphism G
    reads Ghat = E^-1 G E = L^T G L^-T in that frame (g-skew G <-> Euclidean
    skew Ghat, g-orthogonal H <-> orthogonal Hhat).
    """
    return np.linalg.cholesky(g)


def _complex_dimension(chart: Chart, n) -> int:
    """Half the chart's dimension; an ``n`` given beside it must equal it."""
    if n is not None and n != chart.dim // 2:
        raise ParameterError(
            f"n = {n} does not match chart '{chart.label}' of dimension "
            f"{chart.dim}, whose n is {chart.dim // 2}")
    return chart.dim // 2


def _to_frame(L: np.ndarray, G: np.ndarray) -> np.ndarray:
    return L.T @ G @ np.linalg.inv(L).T


def _from_frame(L: np.ndarray, G_hat: np.ndarray) -> np.ndarray:
    return np.linalg.inv(L).T @ G_hat @ L.T


def _span_rank(rows: np.ndarray):
    """Numerical rank and confidence gap of a stack of vectorized matrices."""
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, np.inf, sv
    rel = sv / sv[0]
    rank = int(np.sum(rel > RANK_CUT))
    if rank == sv.size or rank == 0 or sv[rank] == 0.0:
        gap = np.inf
    else:
        gap = sv[rank - 1] / sv[rank]
    return rank, gap, sv


def _orthonormal_span_basis(mats, m: int):
    rows = np.array([a.reshape(-1) for a in mats])
    rank, gap, _ = _span_rank(rows)
    _, _, vt = np.linalg.svd(rows, full_matrices=False)
    basis = [vt[i].reshape(m, m) for i in range(rank)]
    return basis, rank, gap


def _close_under_commutators(mats, m: int):
    """Span basis closed under [.,.]; returns (basis, dim, rank_gap)."""
    basis, rank, gap = _orthonormal_span_basis(mats, m)
    for _ in range(CLOSURE_PASSES):
        extended = list(basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                extended.append(basis[i] @ basis[j] - basis[j] @ basis[i])
        basis, new_rank, gap = _orthonormal_span_basis(extended, m)
        if new_rank == rank:
            break
        rank = new_rank
    return basis, rank, gap


def _assemble(L: np.ndarray, base, hat_generators, n: int,
              J_fn=None) -> HolonomyEstimate:
    """Common path in the base frame L: scale gate, closure, rank, labels."""
    scale = max((float(np.max(np.abs(G))) for G in hat_generators), default=0.0)
    if scale < GENERATOR_FLOOR:
        return HolonomyEstimate(algebra_dim=0, generators=[],
                                classification="reducible/other",
                                rank_gap=np.inf, base_point=base)

    skew_defect = max(float(np.max(np.abs(G + G.T)))
                      for G in hat_generators) / scale
    basis, dim, gap = _close_under_commutators(
        [G / scale for G in hat_generators], len(L))
    hat_J = None if J_fn is None else _to_frame(L, np.asarray(J_fn(base)))
    label = classify_algebra(basis, dim, gap, n, hat_J)
    coord_generators = [_from_frame(L, B) for B in basis]
    return HolonomyEstimate(algebra_dim=dim, generators=coord_generators,
                            classification=label, rank_gap=float(gap),
                            base_point=base, skew_defect=skew_defect)


def classify_algebra(hat_basis, dim: int, rank_gap: float, n: int,
                     hat_J=None) -> str:
    """Label a holonomy algebra given its orthonormal-frame span basis.

    Never guesses: an ambiguous rank gap returns "inconclusive".  The u(n)
    label requires every generator to commute with ``hat_J``, a J in the
    same frame (dim may be below n^2: the algebra is then still unitary);
    so(2n-1) requires the matching dimension plus a common fixed vector.
    A span above n(2n-1) = dim so(2n) fits in no holonomy algebra, and is
    "inconclusive" too.
    """
    if rank_gap < MIN_RANK_GAP or dim > n * (2 * n - 1):
        return "inconclusive"
    if dim == 0:
        return "reducible/other"
    if hat_J is not None:
        comm = max(float(np.max(np.abs(B @ hat_J - hat_J @ B)))
                   / max(float(np.max(np.abs(B))), 1e-300) for B in hat_basis)
        if comm < U_N_COMMUTATOR and dim <= n * n:
            return "U(n)"
    if dim == (2 * n - 1) * (n - 1) and _common_fixed_vector(hat_basis):
        return "SO(2n-1)"
    if dim == n * (2 * n - 1):
        return "SO(2n)"
    return "reducible/other"


def _common_fixed_vector(hat_basis) -> bool:
    stacked = np.vstack(hat_basis)
    sv = np.linalg.svd(stacked, compute_uv=False)
    return bool(sv[-1] < FIXED_VECTOR_CUT * sv[0])


def common_fixed_vectors(est: HolonomyEstimate, g: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the joint kernel of all generators."""
    if not est.generators:
        return np.eye(g.shape[0])
    L = _orthonormal_frame(g)
    stacked = np.vstack([_to_frame(L, G) for G in est.generators])
    _, sv, vt = np.linalg.svd(stacked)
    keep = [i for i in range(vt.shape[0])
            if i >= sv.size or sv[i] < FIXED_VECTOR_CUT * max(sv[0], 1e-300)]
    hat_vs = vt[keep].T
    # frame components back to coordinates: v = E vhat = L^-T vhat
    return np.linalg.inv(L).T @ hat_vs


def _probe_minimum(n: int) -> int:
    """Probes :func:`curvature_span` needs: three per dimension of so(2n)."""
    return 3 * n * (2 * n - 1)


def default_probes(chart: Chart, base, rng: np.random.Generator):
    """Probe set for :func:`curvature_span`, as few as it takes: points
    within 0.2 of base in each coordinate, random 2-planes."""
    base = np.asarray(base, dtype=float)
    m = chart.dim
    probes = []
    lows, highs = np.array(chart.domain, dtype=float).T
    for _ in range(_probe_minimum(m // 2)):
        q = base + rng.uniform(-0.2, 0.2, size=m)
        q = np.clip(q, lows + FACE_MARGIN, highs - FACE_MARGIN)
        probes.append((q, (rng.standard_normal(m), rng.standard_normal(m))))
    return probes


def curvature_span(chart: Chart, base, probes, n: int = None,
                   J_fn=None) -> HolonomyEstimate:
    """Holonomy-algebra estimate from transported curvature endomorphisms.

    Each probe contributes R(X, Y) at its point, parallel-transported to the
    base point along the straight coordinate segment.  ``n`` is half the
    chart's dimension; a different one raises :class:`ParameterError`.  The
    probes are transported as one bundle, and the error raised is the first
    probe's, by :func:`~lckgeo.errors.in_item_order`.
    """
    base = np.asarray(base, dtype=float)
    n = _complex_dimension(chart, n)
    if len(probes) < _probe_minimum(n):
        raise PreconditionError(
            f"need at least {_probe_minimum(n)} probes, got {len(probes)}")
    L = _orthonormal_frame(chart.metric(base))
    qs = [np.asarray(q, dtype=float) for q, _ in probes]

    def one_probe(probe):
        q, (_, (x, y)) = probe
        _probe_curvature(chart, q, x, y)
        _segment_transports(chart, [q], base)

    Ps = in_item_order(lambda: _segment_transports(chart, qs, base),
                       one_probe, zip(qs, probes))
    hats = [_to_frame(L, _conjugate(P, _probe_curvature(chart, q, x, y)))
            for q, P, (_, (x, y)) in zip(qs, Ps, probes)]
    return _assemble(L, base, hats, n, J_fn)


def _probe_curvature(chart: Chart, q, x, y) -> np.ndarray:
    """The curvature endomorphism R(x, y) at q."""
    R = riemann(chart, q).components
    return np.einsum("abcd,c,d->ab", R, np.asarray(x, float),
                     np.asarray(y, float))


def _conjugate(P, G: np.ndarray) -> np.ndarray:
    """P G P^-1, or G where P is None."""
    return G if P is None else P @ G @ np.linalg.inv(P)


def _segment_transports(chart: Chart, starts, base):
    """Transport from each start to base along a coordinate segment of
    ``TRANSPORT_STEPS`` steps: None for a start at the base, the others
    transported as one bundle."""
    moved = [k for k, q in enumerate(starts)
             if np.max(np.abs(q - base)) > 1e-14]
    Ps = [None] * len(starts)
    if moved:
        m = chart.dim
        bundle = transport_segment(
            chart, np.array([starts[k] for k in moved]), base,
            np.broadcast_to(np.eye(m), (len(moved), m, m)), TRANSPORT_STEPS)
        for k, P in zip(moved, bundle):
            Ps[k] = P
    return Ps


def default_holonomy_loops(chart: Chart, base, steps_per_edge: int = 150):
    """Small contractible rectangles around base in every coordinate plane."""
    base = np.asarray(base, dtype=float)
    m = chart.dim
    loops = []
    lows, highs = np.array(chart.domain, dtype=float).T
    corner = np.clip(base, lows + FACE_MARGIN + LOOP_SIZE,
                     highs - FACE_MARGIN - LOOP_SIZE)
    for scale in LOOP_SCALES:
        for i in range(m):
            for j in range(i + 1, m):
                loops.append(coordinate_rectangle(
                    corner, i, j, scale * LOOP_SIZE, scale * LOOP_SIZE,
                    steps_per_edge=steps_per_edge,
                    label=f"rect_{i}{j}_{scale:g}"))
    return loops


def loop_holonomy(chart: Chart, loops, base, n: int = None,
                  J_fn=None, allow_shifted: bool = False) -> HolonomyEstimate:
    """Holonomy-algebra estimate from transport logarithms around loops.

    Loops must be contractible; a coordinate shift normally marks a deck
    generator and is rejected, but ``allow_shifted`` admits loops whose
    shift is a periodic-coordinate wrap of a contractible curve (latitude
    circles in polar charts).  Transports farther than 0.5 from the
    identity in the orthonormal operator norm raise
    :class:`LoopTooLargeError` (subdivide or shrink the loop).  ``n`` is
    half the chart's dimension; a different one raises
    :class:`ParameterError`.  The error raised is the first loop's, by
    :func:`~lckgeo.errors.in_item_order`.
    """
    base = np.asarray(base, dtype=float)
    n = _complex_dimension(chart, n)
    L = _orthonormal_frame(chart.metric(base))

    def logs(batch):
        for loop in batch:
            if float(np.max(np.abs(loop.shift))) > 0.0 and not allow_shifted:
                raise PreconditionError(f"loop '{loop.label}' is a deck "
                                        "generator, not contractible")
        return [_loop_log(L, loop, H)
                for loop, H in zip(batch, _loop_transports(chart, batch, base))]

    hats = in_item_order(lambda: logs(loops), lambda loop: logs([loop]), loops)
    return _assemble(L, base, hats, n, J_fn)


def _loop_transports(chart: Chart, loops, base):
    """Transport around each loop, conjugated to the base along a segment
    where the loop starts off the base.  The loops that share a schedule
    (steps and breakpoints) are transported as one bundle, and the segments
    as another."""
    m = chart.dim
    groups = {}
    for k, loop in enumerate(loops):
        groups.setdefault((loop.steps, loop.breakpoints), []).append(k)
    Hs = [None] * len(loops)
    for (loop_steps, breakpoints), ks in groups.items():
        bundle = [loops[k] for k in ks]
        transported = transport_along(
            chart, lambda t: np.stack([lp.point(t) for lp in bundle], -2),
            lambda t: np.stack([lp.velocity(t) for lp in bundle], -2),
            np.broadcast_to(np.eye(m), (len(ks), m, m)), steps=loop_steps,
            breakpoints=breakpoints)
        for k, H in zip(ks, transported):
            Hs[k] = H
    Ps = _segment_transports(chart, [loop.point(0.0) for loop in loops], base)
    return [_conjugate(P, H) for P, H in zip(Ps, Hs)]


def _loop_log(L: np.ndarray, loop: Loop, H: np.ndarray) -> np.ndarray:
    """Principal logarithm of the transport H in the orthonormal frame L;
    raises :class:`LoopTooLargeError` when H is 0.5 or more from Id."""
    hat_H = _to_frame(L, H)
    eye = np.eye(len(H))
    dist = float(np.linalg.norm(hat_H - eye, 2))
    if dist >= 0.5:
        raise LoopTooLargeError(
            f"transport around '{loop.label}' is {dist:.3f} from the "
            "identity; shrink or subdivide the loop before taking logs")
    C = np.linalg.solve(hat_H + eye, hat_H - eye)   # the factors commute
    C2 = C @ C
    series = eye / (2 * LOG_TERMS - 1)              # Horner in C^2
    for k in range(LOG_TERMS - 2, -1, -1):
        series = eye / (2 * k + 1) + C2 @ series
    return 2.0 * C @ series
