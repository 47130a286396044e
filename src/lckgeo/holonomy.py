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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .calculus import riemann
from .charts import Chart, Loop, coordinate_rectangle
from .errors import LoopTooLargeError, PreconditionError
from .transport import parallel_transport, transport_segment

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
                   count: int = None, spread: float = 0.2):
    """Probe set for :func:`curvature_span`: points near base, random 2-planes."""
    base = np.asarray(base, dtype=float)
    m = chart.dim
    if count is None:
        n = m // 2
        count = 3 * n * (2 * n - 1)
    probes = []
    lows = np.array([lo for lo, hi in chart.domain])
    highs = np.array([hi for lo, hi in chart.domain])
    for _ in range(count):
        q = base + rng.uniform(-spread, spread, size=m)
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
    g = chart.metric(base)
    L = _orthonormal_frame(g)

    hats = []
    for q, (x, y) in probes:
        q = np.asarray(q, dtype=float)
        R = riemann(chart, q, mode=mode).components
        G_q = np.einsum("abcd,c,d->ab", R, np.asarray(x, float),
                        np.asarray(y, float))
        if np.max(np.abs(q - base)) > 1e-14:
            P = transport_segment(chart, q, base, np.eye(m),
                                  steps=transport_steps, mode=mode)
            G_base = P @ G_q @ np.linalg.inv(P)
        else:
            G_base = G_q
        hats.append(_to_frame(L, G_base))
    return _assemble(chart, base, hats, "curvature_span", n,
                     J_candidates, mode)


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
    hats = []
    for loop in loops:
        if float(np.max(np.abs(loop.shift))) > 0.0 and not allow_shifted:
            raise PreconditionError(
                f"loop '{loop.label}' is a deck generator, not contractible")
        H = parallel_transport(chart, loop, np.eye(m), mode=mode)
        q = loop.point(0.0)
        if np.max(np.abs(q - base)) > 1e-14:
            P = transport_segment(chart, q, base, np.eye(m),
                                  steps=transport_steps, mode=mode)
            H = P @ H @ np.linalg.inv(P)
        hat_H = _to_frame(L, H)
        dist = float(np.linalg.norm(hat_H - np.eye(m), 2))
        if dist >= 0.5:
            raise LoopTooLargeError(
                f"transport around '{loop.label}' is {dist:.3f} from the "
                "identity; shrink or subdivide the loop before taking logs")
        gen = np.real(scipy.linalg.logm(hat_H))
        hats.append(gen)
    return _assemble(chart, base, hats, "loop_holonomy", n, J_candidates, mode)
