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
commute with a supplied J candidate, an so(2n-1) label needs a common fixed
vector (kernel intersection) of all generators.

The loop estimator's principal logarithm is ``scipy.linalg.logm``, the
package's only scipy use.  It is imported where the first logarithm is
taken, so importing lckgeo and running any other suite loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import riemann
from .charts import Chart, Loop, coordinate_rectangle
from .errors import LoopTooLargeError, PreconditionError
from .transport import transport_along, transport_segment

RANK_CUT = 1e-6           # relative singular-value cut for the span rank
GENERATOR_FLOOR = 1e-7    # below this scale the algebra is declared trivial
MIN_RANK_GAP = 10.0


@dataclass(frozen=True)
class HolonomyEstimate:
    """Span data of one holonomy-algebra estimate at a base point."""

    algebra_dim: int
    generators: list                 # coordinate-frame endomorphisms at base
    classification: str
    rank_gap: float
    base_point: np.ndarray
    skew_defect: float = 0.0
    method: str = ""


def _orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Lower-triangular L with g = L L^T.

    The columns of E = L^-T are a g-orthonormal frame, so an endomorphism G
    reads Ghat = E^-1 G E = L^T G L^-T in that frame (g-skew G <-> Euclidean
    skew Ghat, g-orthogonal H <-> orthogonal Hhat).
    """
    return np.linalg.cholesky(g)


def _to_frame(L: np.ndarray, G: np.ndarray) -> np.ndarray:
    return L.T @ G @ np.linalg.inv(L).T


def _from_frame(L: np.ndarray, G_hat: np.ndarray) -> np.ndarray:
    L_inv = np.linalg.inv(L)
    return L_inv.T @ G_hat @ L.T


def _span_rank(rows: np.ndarray):
    """Numerical rank and confidence gap of a stack of vectorized matrices."""
    sv = np.linalg.svd(rows, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0, np.inf, sv
    rel = sv / sv[0]
    rank = int(np.sum(rel > RANK_CUT))
    if rank == rows.shape[0] or rank == 0 or sv[rank] == 0.0:
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


def _close_under_commutators(mats, m: int, passes: int = 2):
    """Span basis closed under [.,.]; returns (basis, dim, rank_gap)."""
    basis, rank, gap = _orthonormal_span_basis(mats, m)
    for _ in range(passes):
        extended = list(basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                extended.append(basis[i] @ basis[j] - basis[j] @ basis[i])
        basis, new_rank, gap = _orthonormal_span_basis(extended, m)
        if new_rank == rank:
            break
        rank = new_rank
    return basis, rank, gap


def _assemble(chart: Chart, base, hat_generators, method: str, n: int,
              J_candidates=(), mode: str = "auto") -> HolonomyEstimate:
    """Common path: scale gate, closure, rank, classification, frames."""
    base = np.asarray(base, dtype=float)
    m = chart.dim
    g = chart.metric(base)
    L = _orthonormal_frame(g)

    scale = max((float(np.max(np.abs(G))) for G in hat_generators), default=0.0)
    if scale < GENERATOR_FLOOR:
        return HolonomyEstimate(algebra_dim=0, generators=[],
                                classification="reducible/other",
                                rank_gap=np.inf, base_point=base,
                                skew_defect=0.0, method=method)

    skew_defect = max(float(np.max(np.abs(G + G.T)))
                      for G in hat_generators) / scale
    basis, dim, gap = _close_under_commutators(
        [G / scale for G in hat_generators], m)
    hat_J = [_to_frame(L, np.asarray(J_fn(base))) for J_fn in J_candidates]
    label = classify_algebra(basis, dim, gap, n, hat_J)
    coord_generators = [_from_frame(L, B) for B in basis]
    return HolonomyEstimate(algebra_dim=dim, generators=coord_generators,
                            classification=label, rank_gap=float(gap),
                            base_point=base, skew_defect=skew_defect,
                            method=method)


def classify_algebra(hat_basis, dim: int, rank_gap: float, n: int,
                     hat_J_candidates=(), tol: float = 1e-4) -> str:
    """Label a holonomy algebra given its orthonormal-frame span basis.

    Never guesses: an ambiguous rank gap returns "inconclusive".  The u(n)
    label requires every generator to commute with a candidate J (dim may be
    below n^2: the algebra is then still unitary); so(2n-1) requires the
    matching dimension plus a common fixed vector.
    """
    if rank_gap < MIN_RANK_GAP:
        return "inconclusive"
    if dim == 0:
        return "reducible/other"
    m = hat_basis[0].shape[0] if hat_basis else 2 * n
    for hat_J in hat_J_candidates:
        comm = max(float(np.max(np.abs(B @ hat_J - hat_J @ B)))
                   / max(float(np.max(np.abs(B))), 1e-300) for B in hat_basis)
        if comm < 10.0 * tol and dim <= n * n:
            return "U(n)"
    if dim == (2 * n - 1) * (n - 1) and _common_fixed_vector(hat_basis, m):
        return "SO(2n-1)"
    if dim == n * (2 * n - 1):
        return "SO(2n)"
    return "reducible/other"


def _common_fixed_vector(hat_basis, m: int, tol: float = 1e-5) -> bool:
    stacked = np.vstack([B for B in hat_basis])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return bool(sv[-1] < tol * sv[0])


def common_fixed_vectors(est: HolonomyEstimate, g: np.ndarray,
                         tol: float = 1e-5) -> np.ndarray:
    """Orthonormal basis (columns) of the joint kernel of all generators."""
    if not est.generators:
        return np.eye(g.shape[0])
    L = _orthonormal_frame(g)
    stacked = np.vstack([_to_frame(L, G) for G in est.generators])
    _, sv, vt = np.linalg.svd(stacked)
    keep = [i for i in range(vt.shape[0])
            if i >= sv.size or sv[i] < tol * max(sv[0], 1e-300)]
    hat_vs = vt[keep].T
    # frame components back to coordinates: v = E vhat = L^-T vhat
    return np.linalg.inv(L).T @ hat_vs


def default_probes(chart: Chart, base, rng: np.random.Generator,
                   count: int = None):
    """Probe set for :func:`curvature_span`: points within 0.2 of base in
    each coordinate, random 2-planes."""
    base = np.asarray(base, dtype=float)
    m = chart.dim
    if count is None:
        n = m // 2
        count = 3 * n * (2 * n - 1)
    probes = []
    lows = np.array([lo for lo, hi in chart.domain])
    highs = np.array([hi for lo, hi in chart.domain])
    for _ in range(count):
        q = base + rng.uniform(-0.2, 0.2, size=m)
        q = np.clip(q, lows + 0.06, highs - 0.06)
        x = rng.standard_normal(m)
        y = rng.standard_normal(m)
        probes.append((q, (x, y)))
    return probes


def curvature_span(chart: Chart, base, probes, n: int = None,
                   J_candidates=(), mode: str = "auto",
                   transport_steps: int = 200) -> HolonomyEstimate:
    """Holonomy-algebra estimate from transported curvature endomorphisms.

    Each probe contributes R(X, Y) at its point, parallel-transported to the
    base point along the straight coordinate segment.
    """
    base = np.asarray(base, dtype=float)
    m = chart.dim
    n = n or m // 2
    if len(probes) < 3 * n * (2 * n - 1):
        raise PreconditionError(
            f"need at least {3 * n * (2 * n - 1)} probes, got {len(probes)}")
    L = _orthonormal_frame(chart.metric(base))
    qs = [np.asarray(q, dtype=float) for q, _ in probes]
    try:
        Ps = _segment_transports(chart, qs, base, transport_steps, mode)
    except Exception:
        # one probe at a time, the first error of that order raises
        for q, (_, (x, y)) in zip(qs, probes):
            _probe_curvature(chart, q, x, y, mode)
            _segment_transports(chart, [q], base, transport_steps, mode)
        raise
    hats = [_to_frame(L, _conjugate(P, _probe_curvature(chart, q, x, y, mode)))
            for q, P, (_, (x, y)) in zip(qs, Ps, probes)]
    return _assemble(chart, base, hats, "curvature_span", n,
                     J_candidates, mode)


def _probe_curvature(chart: Chart, q, x, y, mode: str) -> np.ndarray:
    """The curvature endomorphism R(x, y) at q."""
    R = riemann(chart, q, mode=mode).components
    return np.einsum("abcd,c,d->ab", R, np.asarray(x, float),
                     np.asarray(y, float))


def _conjugate(P, G: np.ndarray) -> np.ndarray:
    """P G P^-1, or G where P is None."""
    return G if P is None else P @ G @ np.linalg.inv(P)


def _segment_transports(chart: Chart, starts, base, steps: int, mode: str):
    """Transport from each start to base along a coordinate segment: None
    for a start at the base, the others transported as one bundle."""
    moved = [k for k, q in enumerate(starts)
             if np.max(np.abs(q - base)) > 1e-14]
    Ps = [None] * len(starts)
    if moved:
        m = chart.dim
        bundle = transport_segment(
            chart, np.array([starts[k] for k in moved]), base,
            np.broadcast_to(np.eye(m), (len(moved), m, m)), steps=steps,
            mode=mode)
        for k, P in zip(moved, bundle):
            Ps[k] = P
    return Ps


def default_holonomy_loops(chart: Chart, base, size: float = 0.15,
                           sizes=(1.0, 0.6), steps_per_edge: int = 150):
    """Small contractible rectangles around base in every coordinate plane."""
    base = np.asarray(base, dtype=float)
    m = chart.dim
    loops = []
    lows = np.array([lo for lo, hi in chart.domain])
    highs = np.array([hi for lo, hi in chart.domain])
    for scale in sizes:
        for i in range(m):
            for j in range(i + 1, m):
                corner = np.clip(base, lows + 0.06 + size, highs - 0.06 - size)
                loops.append(coordinate_rectangle(
                    corner, i, j, scale * size, scale * size,
                    steps_per_edge=steps_per_edge,
                    label=f"rect_{i}{j}_{scale:g}"))
    return loops


def loop_holonomy(chart: Chart, loops, base, n: int = None,
                  J_candidates=(), mode: str = "auto",
                  transport_steps: int = 200,
                  allow_shifted: bool = False) -> HolonomyEstimate:
    """Holonomy-algebra estimate from transport logarithms around loops.

    Loops must be contractible; a coordinate shift normally marks a deck
    generator and is rejected, but ``allow_shifted`` admits loops whose
    shift is a periodic-coordinate wrap of a contractible curve (latitude
    circles in polar charts).  Transports farther than 0.5 from the
    identity in the orthonormal operator norm raise
    :class:`LoopTooLargeError` (subdivide or shrink the loop).
    """
    base = np.asarray(base, dtype=float)
    m = chart.dim
    n = n or m // 2
    L = _orthonormal_frame(chart.metric(base))
    # the loops before the first deck generator are transported; that one
    # raises after them
    first_deck = next((k for k, loop in enumerate(loops)
                       if float(np.max(np.abs(loop.shift))) > 0.0
                       and not allow_shifted), len(loops))
    admitted = loops[:first_deck]
    try:
        Hs = _loop_transports(chart, admitted, base, mode, transport_steps)
    except Exception:
        # one loop at a time, the first error of that order raises
        for loop in admitted:
            _loop_log(L, loop, _loop_transports(chart, [loop], base, mode,
                                                transport_steps)[0])
        raise
    hats = [_loop_log(L, loop, H) for loop, H in zip(admitted, Hs)]
    if first_deck < len(loops):
        raise PreconditionError(f"loop '{loops[first_deck].label}' is a "
                                "deck generator, not contractible")
    return _assemble(chart, base, hats, "loop_holonomy", n, J_candidates, mode)


def _loop_transports(chart: Chart, loops, base, mode: str, steps: int):
    """Transport around each loop, conjugated to the base along a segment
    of the given steps where the loop starts off the base.  The loops that
    share a schedule (steps and breakpoints) are transported as one bundle,
    and the segments as another."""
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
            mode=mode, breakpoints=breakpoints)
        for k, H in zip(ks, transported):
            Hs[k] = H
    Ps = _segment_transports(chart, [loop.point(0.0) for loop in loops],
                             base, steps, mode)
    return [_conjugate(P, H) for P, H in zip(Ps, Hs)]


def _loop_log(L: np.ndarray, loop: Loop, H: np.ndarray) -> np.ndarray:
    """Principal logarithm of the transport H in the orthonormal frame L;
    raises :class:`LoopTooLargeError` when H is 0.5 or more from Id."""
    hat_H = _to_frame(L, H)
    dist = float(np.linalg.norm(hat_H - np.eye(len(H)), 2))
    if dist >= 0.5:
        raise LoopTooLargeError(
            f"transport around '{loop.label}' is {dist:.3f} from the "
            "identity; shrink or subdivide the loop before taking logs")
    import scipy.linalg
    return np.real(scipy.linalg.logm(hat_H))
