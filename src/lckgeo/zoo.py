"""Constructors for the explicit lcK structures the workbench verifies.

Entries
-------
* ``hopf(n, circumference)`` -- the product metric on S^1 x S^(2n-1) pulled
  back from (C^n \\ 0, r^-2 g_0, J_0); Vaisman, theta = ds (the unit length
  element of the circle factor).
* ``flat_inversion(n)`` -- C^n \\ 0 with g = r^-4 g_0 and the standard J_0;
  flat, globally conformally Kahler with theta = -2 d ln r, Einstein with
  lambda = 0.
* ``warped_vaisman_gck(c, base)`` -- ds^2 + dt^2 + e^(2c(t)) g_N with
  fundamental form ds ^ dt + e^(2c(t)) Omega_N and theta = c'(t) dt.
* ``calabi_ansatz(ell, b, base)`` -- the circle-bundle metric
  g_ell = pi*h + ell(r)^2 w (x) w + dr^2 over a Hodge surface, carrying the
  two complex structures J_+- with Lee forms theta_eps = 1/2 eps ell dr.
* ``kaehler_bases()`` -- flat C, flat C^2, and the normalized round
  S^2 = CP^1 (area 2 pi), used as bases for the warped and Calabi entries.

Nothing is declared twice: a chart's dimension is the length of its domain,
n is half of it, and a profile's derivative is the complex step of its values.
Every chart comes from :meth:`Chart.exact` or :meth:`Chart.with_metric`,
and an entry holds each structure once.  A new family is its constructor
here and one row of ``report._FAMILIES``.

Potential conventions on the Calabi entry: with phi(r) = 1/2 int_0^r ell
(so theta_eps = eps d phi on (g_ell, J_eps)) the conformally Kahler pair is

    g_+ := e^(Phi) g_ell,   g_- := e^(-Phi) g_ell,   Phi := -2 phi,

the unique scaling making (g_+, J_+) and (g_-, J_-) Kahler under
d Omega = 2 theta ^ Omega.  In terms of the pair potential Phi:
g_+ = e^(2 Phi) g_-, lee_form(g_+, J_-) = d Phi, the average metric
g_0 := e^(-Phi) g_+ = e^(Phi) g_- = g_ell, and theta_0 = -1/2 d Phi = d phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import fd
from .calculus import christoffel_components, covariant_derivative_full
from .charts import Chart, polygon_loop, segment_loop, vector_norm
from .errors import BundleError, CompatibilityError, ParameterError
from .hermitian import HermitianStructure, conformal_rescale

SQRT_HALF = math.sqrt(0.5)
POLAR_MARGIN = 0.35    # a polar angle's chart interval keeps this far from 0, pi


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileFn:
    """A smooth real profile, elementwise on arrays, and its derivative.

    ``value_fn`` must be complex-safe: :func:`lckgeo.fd.complex_step`
    differentiates it and the warped and Calabi metrics built on it.
    """

    value_fn: Callable[[np.ndarray], np.ndarray]
    domain: tuple = (0.0, 1.0)
    label: str = ""

    def __call__(self, r: float) -> float:
        return float(self.value_fn(r))

    def derivative_fn(self, r) -> np.ndarray:
        """The derivative at each r, the complex step of ``value_fn``."""
        partials = fd.complex_step(lambda x: self.value_fn(x[..., 0]))
        return partials(np.asarray(r, dtype=float)[..., None])[..., 0]

    def derivative(self, r: float) -> float:
        return float(self.derivative_fn(r))


def named_profile(name: str, domain: tuple) -> ProfileFn:
    table = {"sin": np.sin, "cos": np.cos,
             "zero": lambda r: np.zeros_like(r, dtype=float)}
    if name not in table:
        raise ParameterError(f"unknown profile '{name}' (known: {sorted(table)})")
    return ProfileFn(table[name], domain, name)


# ---------------------------------------------------------------------------
# Kahler bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KahlerBase:
    """A low-dimensional Kahler factor (N, h, J_N, Omega_N) in coordinates:
    the Hermitian structure (h, J_N), whose label names the base, and the
    total integral of Omega_N, when finite."""

    structure: HermitianStructure
    area: Optional[float] = None


def _standard_j(m: int) -> np.ndarray:
    """Block-diagonal J_0 pairing coordinates (x1,y1,x2,y2,...)."""
    J = np.zeros((m, m))
    for k in range(m // 2):
        J[2 * k + 1, 2 * k] = 1.0
        J[2 * k, 2 * k + 1] = -1.0
    return J


def _coordinate_form(m: int, k: int, coefficient: Callable) -> Callable:
    """The 1-form field coefficient(x_k) dx_k."""
    def fn(p):
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape[:-1] + (m,))
        out[..., k] = coefficient(p[..., k])
        return out
    return fn


def _basis(m: int, k: int) -> np.ndarray:
    e = np.zeros(m)
    e[k] = 1.0
    return e


def flat_base(n: int) -> KahlerBase:
    """Flat C^n on the box [-1, 1]^2n, standard metric and complex structure."""
    m = 2 * n
    metric_fn = fd.constant(np.eye(m))
    chart = Chart.exact(((-1.0, 1.0),) * m, metric_fn, f"flat_C{n}")
    return KahlerBase(HermitianStructure(
        chart, fd.constant(_standard_j(m)), label=f"flat_C{n}"))


def round_s2_base(radius: float, polar_margin: float = POLAR_MARGIN,
                  label: str = "") -> KahlerBase:
    """Round S^2 of the given radius on a polar chart (theta, phi).

    J rotates by 90 degrees with h(J., .) = -R^2 sin(theta) dtheta ^ dphi,
    the orientation for which the Euler-angle contact form satisfies
    d omega = pi* Omega_N on the Hopf bundle.  Area = 4 pi R^2.
    """
    R2 = radius * radius

    def metric_fn(y):
        s = np.sin(y[..., 0])
        sin_sq = s * s
        g = np.zeros(np.shape(y)[:-1] + (2, 2), dtype=sin_sq.dtype)
        g[..., 0, 0] = R2
        g[..., 1, 1] = R2 * sin_sq
        return g

    def J_fn(y):
        s = np.sin(y[..., 0])
        J = np.zeros(np.shape(y)[:-1] + (2, 2), dtype=s.dtype)
        J[..., 0, 1] = s
        J[..., 1, 0] = -1.0 / s
        return J

    label = label or f"round_S2_R{radius:g}"
    chart = Chart.exact(((polar_margin, math.pi - polar_margin),
                         (0.0, 2.0 * math.pi)), metric_fn, label)
    return KahlerBase(HermitianStructure(chart, J_fn, label=label),
                      area=4.0 * math.pi * R2)


def cp1_base() -> KahlerBase:
    """CP^1 = round S^2 normalized so the Kahler class integrates to 2 pi."""
    return round_s2_base(SQRT_HALF, label="cp1")


KAHLER_BASES = {
    "c1": lambda: flat_base(1),
    "c2": lambda: flat_base(2),
    "cp1": cp1_base,
}


# ---------------------------------------------------------------------------
# zoo entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairData:
    """Section-6.1 data on the Calabi chart: g = g_+, I = J_+, J = J_-."""

    I: HermitianStructure
    J: HermitianStructure


@dataclass(frozen=True)
class ZooEntry:
    """Charts, structures, loops and declared expectations of one example;
    n is half the dimension of its charts.  Each structure is held once, in
    ``structures``: the pair and the average are read there by their keys,
    and the holonomy structure is the pair's Kahler member ``pair.I``, or
    the main structure where there is no pair."""

    label: str
    params: dict
    charts: dict
    structures: dict
    main: str
    loops: dict = field(default_factory=dict)
    expected_kind: str = ""
    expected_holonomy: str = ""
    expected_lee_fn: Optional[Callable] = None
    expected_periods: dict = field(default_factory=dict)
    einstein_lambda: Optional[float] = None
    parallel_field: Optional[np.ndarray] = None
    pair_keys: Optional[tuple] = None       # (key of I, key of J)
    average_key: Optional[str] = None
    potential: Optional[Callable] = None     # phi(r) = 1/2 int_0^r ell (Calabi)
    profile: Optional[ProfileFn] = None
    base: Optional[KahlerBase] = None

    @property
    def n(self) -> int:
        return next(iter(self.charts.values())).dim // 2

    @property
    def main_structure(self) -> HermitianStructure:
        if self.main not in self.structures:
            raise ParameterError(f"{self.label} has no Hermitian structure")
        return self.structures[self.main]

    @property
    def pair(self) -> Optional[PairData]:
        if self.pair_keys is None:
            return None
        return PairData(*(self.structures[k] for k in self.pair_keys))

    @property
    def average(self) -> Optional[HermitianStructure]:
        if self.average_key is None:
            return None
        return self.structures[self.average_key]

    @property
    def holonomy_structure(self) -> HermitianStructure:
        pair = self.pair
        return self.main_structure if pair is None else pair.I


def euclidean(m: int) -> ZooEntry:
    """Flat chart on the box [-1, 1]^m; the trivial-holonomy control."""
    if m < 1:
        raise ParameterError("euclidean needs dimension m >= 1")
    metric_fn = fd.constant(np.eye(m))
    chart = Chart.exact(((-1.0, 1.0),) * m, metric_fn, f"euclidean_{m}")
    structures = {}
    main = ""
    if m % 2 == 0:
        structures["flat"] = HermitianStructure(
            chart=chart, J_fn=fd.constant(_standard_j(m)), label="flat")
        main = "flat"
    return ZooEntry(label=f"euclidean_{m}", params={"m": m},
                    charts={"flat": chart}, structures=structures, main=main,
                    expected_kind="Kahler", expected_holonomy="trivial",
                    expected_lee_fn=fd.constant(np.zeros(m)),
                    einstein_lambda=0.0)


# -- Hopf ---------------------------------------------------------------------

def _hypersphere_frame(angles: np.ndarray) -> np.ndarray:
    """B = [-sigma, d sigma / d a] for d angles a, shape (..., d+1, d+1) with
    the dtype of sin(a): sigma_i = cos(a_i) prod_{k<i} sin(a_k) for i < d and
    sigma_d = prod_{k<d} sin(a_k).  Entries multiply their factors left to
    right; column j + 1 shares the prefix sin(a_0) ... sin(a_(j-1)) and one
    running product, whose first value is sigma_j."""
    d = angles.shape[-1]
    sin, cos = np.sin(angles), np.cos(angles)
    B = np.zeros(angles.shape[:-1] + (d + 1, d + 1), dtype=sin.dtype)
    prefix = 1.0
    for j in range(d):
        run = prefix * cos[..., j]
        B[..., j, 0] = -run
        B[..., j, j + 1] = prefix * -sin[..., j]
        for i in range(j + 1, d):
            B[..., i, j + 1] = run * cos[..., i]
            run = run * sin[..., i]
        B[..., d, j + 1] = run
        prefix = prefix * sin[..., j]
    B[..., d, 0] = -prefix
    return B


def hopf(n: int, circumference: float = 2.0 * math.pi) -> ZooEntry:
    """S^1 x S^(2n-1) with the product metric and the inversion-induced J.

    Chart coordinates (s, a_1, ..., a_(2n-1)); the metric is ds^2 plus the
    round hyperspherical metric, J is the pullback of the standard J_0 on
    C^n \\ 0 through (s, a) -> e^(-s) sigma(a), and theta = ds: the unit,
    parallel length element of the circle factor.  The circle generator is
    the deck translation s -> s + circumference.  J = B^-1 J_0 B in the
    frame B of :func:`_hypersphere_frame`, whose columns are orthogonal:
    B^-1 = B^T / diag(B^T B), and no system is solved.
    """
    if n < 2:
        raise ParameterError("hopf needs complex dimension n >= 2")
    if not (0.0 < circumference < math.inf):
        raise ParameterError("circumference must be a finite positive number")
    m = 2 * n
    d = m - 1
    L = float(circumference)
    J0 = _standard_j(m)

    domain = [(-0.7, L + 0.7)]
    for _ in range(d - 1):
        domain.append((POLAR_MARGIN, math.pi - POLAR_MARGIN))
    domain.append((0.0, 2.0 * math.pi))

    eye = np.eye(m)

    def metric_fn(p):
        p = np.asarray(p)
        sines = np.sin(p[..., 1:d])
        squares = sines * sines
        g = np.empty(p.shape[:-1] + (m, m), dtype=squares.dtype)
        g[...] = eye
        prod = 1.0
        for i in range(1, d):
            prod = prod * squares[..., i - 1]
            g[..., i + 1, i + 1] = prod
        return g

    def J_fn(p):
        B = _hypersphere_frame(np.asarray(p)[..., 1:])
        return (np.swapaxes(B, -1, -2) @ J0 @ B
                / np.sum(B * B, axis=-2)[..., :, None])

    chart = Chart.exact(tuple(domain), metric_fn, f"hopf_{n}")
    H = HermitianStructure(chart=chart, J_fn=J_fn, label=f"hopf_{n}")

    center = chart.center()
    gen_start = center.copy()
    gen_start[0] = 0.0
    loops = {
        "s1_generator": segment_loop(gen_start, L * _basis(m, 0), steps=400,
                                     label="s1_generator"),
        "contractible": polygon_loop(
            [center,
             center + 0.15 * _basis(m, 1),
             center + 0.15 * (_basis(m, 1) + _basis(m, 2)),
             center + 0.15 * _basis(m, 2)],
            steps_per_edge=200, label="contractible"),
    }

    return ZooEntry(label=f"hopf(n={n})", params={"n": n, "circumference": L},
                    charts={"product": chart}, structures={"vaisman": H},
                    main="vaisman", loops=loops,
                    expected_kind="Vaisman", expected_holonomy="SO(2n-1)",
                    expected_lee_fn=fd.constant(_basis(m, 0)),
                    expected_periods={"s1_generator": L, "contractible": 0.0},
                    parallel_field=_basis(m, 0))


# -- flat inversion -----------------------------------------------------------

_INVERSION_BOXES = {2: (0.35, 0.85), 3: (0.25, 0.75)}


def flat_inversion(n: int) -> ZooEntry:
    """C^n \\ 0 with the flat inverted metric g = r^-4 g_0.

    The chart is a Cartesian box inside the annulus 1/2 < r < 2, away from
    the coordinate axes; theta = -2 d ln r, |theta|^2_g = 4 r^2, Einstein
    with lambda = 0, and the Riemann tensor vanishes (the metric is the
    pull-back of g_0 through the inversion x -> x / r^2).
    """
    if n < 2:
        raise ParameterError("flat_inversion needs n >= 2")
    m = 2 * n
    lo, hi = _INVERSION_BOXES.get(n, (1.1 / math.sqrt(m), 1.9 / math.sqrt(m)))
    eye = np.eye(m)

    def metric_fn(p):
        # vecdot conjugates its first argument
        r2 = np.vecdot(np.conj(p), p)[..., None, None]
        return eye / (r2 * r2)

    chart = Chart.exact(tuple((lo, hi) for _ in range(m)), metric_fn,
                        f"flat_inversion_{n}")
    H = HermitianStructure(chart=chart, J_fn=fd.constant(_standard_j(m)),
                           label=f"flat_inversion_{n}")

    c = chart.center()
    w = 0.3 * (hi - lo)
    loops = {
        "square": polygon_loop(
            [c, c + w * _basis(m, 0), c + w * (_basis(m, 0) + _basis(m, 1)),
             c + w * _basis(m, 1)], steps_per_edge=200, label="square"),
        "triangle": polygon_loop(
            [c - w * _basis(m, 2), c + w * _basis(m, 0), c + w * _basis(m, 3)],
            steps_per_edge=200, label="triangle"),
    }

    return ZooEntry(label=f"flat_inversion(n={n})", params={"n": n},
                    charts={"inverted": chart}, structures={"gck": H},
                    main="gck", loops=loops,
                    expected_kind="gcK", expected_holonomy="trivial",
                    expected_lee_fn=lambda p: (-2.0 * np.asarray(p)
                                               / np.vecdot(p, p)[..., None]),
                    expected_periods={"square": 0.0, "triangle": 0.0},
                    einstein_lambda=0.0)


# -- warped product -----------------------------------------------------------

def _require_kahler_base(base: KahlerBase):
    """Cheap Kahler gate on a base factor: J_N^2 = -Id and compatibility at
    the centre of its chart."""
    H = base.structure
    try:
        H.require_compatible(H.chart.center())
    except CompatibilityError as err:
        raise ParameterError(
            f"base '{H.label}' fails the Kahler gate: {err}") from err


def warped_vaisman_gck(c: ProfileFn, base: KahlerBase) -> ZooEntry:
    """ds^2 + dt^2 + e^(2c(t)) g_N with form ds ^ dt + e^(2c(t)) Omega_N,
    s in [-pi, pi].

    theta = c'(t) dt; d_s is a parallel unit field.  Kahler when c is
    constant, otherwise globally conformally Kahler with restricted
    holonomy SO(2n-1) (fixed vector d_s) for a generic base.
    """
    _require_kahler_base(base)
    N = base.structure
    m = N.chart.dim + 2
    t_lo, t_hi = c.domain

    def warp(p):
        """e^(2c(t)) at each point, shaped to scale matrices."""
        return np.exp(2.0 * c.value_fn(p[..., 1]))[..., None, None]

    def metric_fn(p):
        p = np.asarray(p)
        gN = warp(p) * np.asarray(N.chart.metric_fn(p[..., 2:]))
        g = np.zeros(p.shape[:-1] + (m, m), dtype=gN.dtype)
        g[..., 0, 0] = g[..., 1, 1] = 1.0
        g[..., 2:, 2:] = gN
        return g

    def J_fn(p):
        JN = np.asarray(N.J_fn(np.asarray(p)[..., 2:]))
        J = np.zeros(np.shape(p)[:-1] + (m, m), dtype=JN.dtype)
        J[..., 1, 0] = 1.0
        J[..., 0, 1] = -1.0
        J[..., 2:, 2:] = JN
        return J

    domain = ((-math.pi, math.pi), (t_lo, t_hi)) + N.chart.domain
    chart = Chart.exact(domain, metric_fn, f"warped_{c.label}_{N.label}")
    H = HermitianStructure(chart=chart, J_fn=J_fn, label=f"warped_{c.label}")

    # c' on a grid over the whole interval: a profile symmetric about the
    # midpoint (cos on (0, 2 pi)) has c'(mid) = 0 without being constant
    constant = bool(np.all(np.abs(c.derivative_fn(
        np.linspace(t_lo, t_hi, 65))) < 1e-14))
    ctr = chart.center()
    w = 0.25
    loops = {
        "st_square": polygon_loop(
            [ctr, ctr + w * _basis(m, 0), ctr + w * (_basis(m, 0) + _basis(m, 1)),
             ctr + w * _basis(m, 1)], steps_per_edge=200, label="st_square"),
    }

    return ZooEntry(label=f"warped(c={c.label}, base={N.label})",
                    params={"c": c.label, "base": N.label},
                    charts={"warped": chart}, structures={"warped": H},
                    main="warped", loops=loops,
                    expected_kind="Kahler" if constant else "gcK",
                    expected_holonomy="trivial" if constant else "SO(2n-1)",
                    expected_lee_fn=_coordinate_form(m, 1, c.derivative_fn),
                    expected_periods={"st_square": 0.0},
                    parallel_field=_basis(m, 0), profile=c, base=base)


# -- Calabi Ansatz ------------------------------------------------------------

def calabi_ansatz(ell: ProfileFn, b: float,
                  base: KahlerBase = None) -> ZooEntry:
    """The circle-bundle Ansatz over a Hodge surface (default CP^1, area 2 pi).

    Chart coordinates are Euler angles plus the profile parameter,
    (theta, phi, psi, r) with psi of fiber period 4 pi.  The connection form
    is omega = c_w (d psi + cos(theta) d phi) with c_w computed (not
    assumed) from d omega = pi* Omega_N; the vertical field with
    omega(xi) = 1 is xi = (1/c_w) d_psi.  The chart takes theta's interval
    from the base chart and keeps r 0.35 away from 0 and b.  See the module
    docstring for the two potential normalizations (phi vs Phi = -2 phi).
    """
    if base is None:
        base = cp1_base()
    N = base.structure
    if N.chart.dim != 2:
        raise ParameterError("the Calabi constructor needs a 2-dimensional "
                             "polar-coordinate Hodge base")
    r_margin = 0.35
    if not b > 2.0 * r_margin:
        raise ParameterError(
            f"b = {b:g} leaves the chart's r-interval ({r_margin:g}, "
            f"{b - r_margin:g}) empty: b must exceed {2.0 * r_margin:g}")
    classes = math.nan if base.area is None else base.area / (2.0 * math.pi)
    if not (math.isfinite(classes) and abs(classes - round(classes)) <= 1e-8):
        raise BundleError(
            f"base '{N.label}' is not Hodge-normalized: Omega_N-area "
            f"{base.area} is not an integer multiple of 2 pi")
    rs = np.linspace(r_margin / 2.0, b - r_margin / 2.0, 33)
    if not np.all(ell.value_fn(rs) > 0.0):
        raise ParameterError(f"profile '{ell.label}' is not positive on (0, {b})")

    # connection normalization: d(c_w (dpsi + cos dphi)) = -c_w sin dth ^ dphi
    # must equal pi* Omega_N, so c_w = Omega_N(d_th, d_phi) / (-sin th).
    thetas = (0.7, 1.1, 1.9)
    omega_n = N.omega(np.array([[th, 1.0] for th in thetas]))[:, 0, 1]
    ratios = [w / (-math.sin(th)) for w, th in zip(omega_n, thetas)]
    c_w = float(np.mean(ratios))
    spread = np.max(np.abs(np.asarray(ratios) - c_w))
    if not spread <= 1e-10 * (1.0 + abs(c_w)):
        raise BundleError(
            f"no constant scaling of the contact form matches Omega_N on "
            f"'{N.label}': ratios {ratios}")

    cw2 = c_w * c_w

    def unpack(p):
        """theta, ell(r), cos and sin of theta, and the base point."""
        p = np.asarray(p)
        th = p[..., 0]
        return (th, ell.value_fn(p[..., 3]), np.cos(th), np.sin(th),
                np.stack([th, np.zeros_like(th)], axis=-1))

    def metric_fn(p):
        th, lv, ct, _, y = unpack(p)
        l2 = lv * lv
        gN = np.asarray(N.chart.metric_fn(y))
        g = np.zeros(th.shape + (4, 4), dtype=ct.dtype)
        g[..., 0, 0] = gN[..., 0, 0]
        g[..., 1, 1] = gN[..., 1, 1] + l2 * cw2 * (ct * ct)
        g[..., 1, 2] = g[..., 2, 1] = l2 * cw2 * ct
        g[..., 2, 2] = l2 * cw2
        g[..., 3, 3] = 1.0
        return g

    def make_J(eps: float):
        def J_fn(p):
            th, lv, ct, s, _ = unpack(p)
            J = np.zeros(th.shape + (4, 4), dtype=ct.dtype)
            # columns: images of d_theta, d_phi, d_psi, d_r
            J[..., 1, 0] = -eps / s
            J[..., 2, 0] = eps * ct / s
            J[..., 0, 1] = eps * s
            J[..., 3, 1] = lv * c_w * ct
            J[..., 3, 2] = lv * c_w
            J[..., 2, 3] = -1.0 / (lv * c_w)
            return J
        return J_fn

    def phi_potential(r):
        xs, ws = fd.gauss_legendre_01(48)
        r = np.asarray(r)
        # the real weights first: vecdot conjugates its first argument
        return 0.5 * r * np.vecdot(ws, ell.value_fn(xs * r[..., None]))

    domain = (N.chart.domain[0], (-0.7, 2.0 * math.pi + 0.7),
              (-0.7, 4.0 * math.pi + 0.7), (r_margin, b - r_margin))
    chart_ell = Chart.exact(domain, metric_fn, f"calabi_ell_{ell.label}")

    # pair potential Phi = -2 phi: g_+ = e^Phi g_ell, g_- = e^-Phi g_ell
    r_of = lambda p: np.asarray(p)[..., 3]
    half_ell_dr = _coordinate_form(4, 3, lambda r: 0.5 * ell.value_fn(r))
    chart_plus = conformal_rescale(
        chart_ell, lambda p: -phi_potential(r_of(p)),
        label=f"calabi_gplus_{ell.label}")
    chart_minus = conformal_rescale(
        chart_ell, lambda p: phi_potential(r_of(p)),
        label=f"calabi_gminus_{ell.label}")

    Jp, Jm = make_J(+1.0), make_J(-1.0)
    structures = {
        "g_ell,J+": HermitianStructure(chart_ell, Jp, label="g_ell,J+"),
        "g_ell,J-": HermitianStructure(chart_ell, Jm, label="g_ell,J-"),
        "g+,J+": HermitianStructure(chart_plus, Jp, label="g+,J+"),
        "g+,J-": HermitianStructure(chart_plus, Jm, label="g+,J-"),
        "g-,J-": HermitianStructure(chart_minus, Jm, label="g-,J-"),
    }

    ctr = chart_ell.center()
    fiber_start = ctr.copy()
    fiber_start[2] = 0.0
    mixed_start = ctr.copy()
    mixed_start[1] = 0.0
    mixed_start[2] = ctr[2] - math.pi
    loops = {
        "fiber": segment_loop(fiber_start,
                              np.array([0.0, 0.0, 4.0 * math.pi, 0.0]),
                              steps=400, label="fiber"),
        "mixed": segment_loop(mixed_start,
                              np.array([0.0, 2.0 * math.pi, 2.0 * math.pi, 0.0]),
                              steps=400, label="mixed"),
    }

    return ZooEntry(
        label=f"calabi(ell={ell.label}, b={b:g})",
        params={"ell": ell.label, "b": b, "base": N.label, "c_w": c_w},
        charts={"g_ell": chart_ell, "g_plus": chart_plus, "g_minus": chart_minus},
        structures=structures, main="g_ell,J+", loops=loops,
        expected_kind="gcK", expected_holonomy="U(n)",
        expected_lee_fn=half_ell_dr,
        expected_periods={"fiber": 0.0, "mixed": 0.0},
        pair_keys=("g+,J+", "g+,J-"), average_key="g_ell,J+",
        potential=phi_potential, profile=ell, base=base)


def stencil_only(entry: ZooEntry) -> ZooEntry:
    """The entry without metric derivatives on its charts and its base, so
    that every metric is differenced on a stencil: the entry of an fd run.
    Copies are shared as the originals are; ``entry`` is left as it is."""
    copies = {}

    def copy(obj, **changes):
        if id(obj) not in copies:
            copies[id(obj)] = replace(obj, **changes)
        return copies[id(obj)]

    def structure(H):
        return copy(H, chart=copy(H.chart, metric_derivative_fn=None))

    return replace(
        entry, charts={k: copy(c, metric_derivative_fn=None)
                       for k, c in entry.charts.items()},
        structures={k: structure(H) for k, H in entry.structures.items()},
        base=entry.base and replace(entry.base,
                                    structure=structure(entry.base.structure)))


def calabi_connection_table_residuals(entry: ZooEntry, p) -> dict:
    """The five covariant-derivative rows of the bundle metric, as residuals.

    Rows (xi the vertical field with omega(xi) = 1, X*, Y* horizontal lifts):

    1. nabla_xi d_r = nabla_{d_r} xi = (l'/l) xi
    2. nabla_xi xi = -l l' d_r
    3. nabla_{d_r} d_r = nabla_{X*} d_r = nabla_{d_r} X* = 0
    4. nabla_{X*} xi = nabla_xi X* = (l^2/2) (J_N X)*
    5. nabla_{X*} Y* = (nabla^h_X Y)* - 1/2 Omega_N(X, Y) xi

    The left sides come from stencil Christoffels of the 4-chart, the right
    sides from the profile derivative, the base connection, and Omega_N.
    """
    p = np.asarray(p, dtype=float)
    chart = entry.charts["g_ell"]
    N = entry.base.structure
    ell = entry.profile
    c_w = float(entry.params["c_w"])
    th, r = p[0], p[3]
    lv, dl = ell(r), ell.derivative(r)
    g = chart.metric(p)
    gamma = christoffel_components(chart, p)

    xi = np.array([0.0, 0.0, 1.0 / c_w, 0.0])
    e_r = np.array([0.0, 0.0, 0.0, 1.0])

    def lift_field(k):
        # horizontal lift of the base coordinate field d_{y_k}
        def fn(q):
            q = np.asarray(q, dtype=float)
            out = np.zeros(q.shape[:-1] + (4,))
            out[..., k] = 1.0
            if k == 1:
                out[..., 2] = -np.cos(q[..., 0])   # subtract omega(d_phi) xi
            return out
        return fn

    def nabla(direction, field):
        full = covariant_derivative_full(chart, field, p, (0, 1),
                                         stencil=fd.DIRECT, gamma=gamma)
        return np.asarray(direction, dtype=float) @ full

    const = fd.constant
    scale = 1.0 + lv + abs(dl)
    res = {}
    res["row1"] = max(
        vector_norm(nabla(xi, const(e_r)) - (dl / lv) * xi, g),
        vector_norm(nabla(e_r, const(xi)) - (dl / lv) * xi, g)) / scale
    res["row2"] = vector_norm(nabla(xi, const(xi)) + lv * dl * e_r, g) / scale

    lifts = [lift_field(0), lift_field(1)]
    row3 = vector_norm(nabla(e_r, const(e_r)), g)
    for lf in lifts:
        row3 = max(row3, vector_norm(nabla(lf(p), const(e_r)), g),
                   vector_norm(nabla(e_r, lf), g))
    res["row3"] = row3 / scale

    JN = N.J(np.array([th, 0.0]))
    row4 = 0.0
    for k, lf in enumerate(lifts):
        jn_x = JN[:, k]
        target = 0.5 * (lv * lv) * (jn_x[0] * lift_field(0)(p)
                                    + jn_x[1] * lift_field(1)(p))
        row4 = max(row4, vector_norm(nabla(lf(p), const(xi)) - target, g),
                   vector_norm(nabla(xi, lf) - target, g))
    res["row4"] = row4 / scale

    y = np.array([th, 1.0])
    gamma_h = christoffel_components(N.chart, y)
    omega_n = N.omega(y)
    row5 = 0.0
    for a, lfa in enumerate(lifts):
        for b, lfb in enumerate(lifts):
            horiz = (gamma_h[0, a, b] * lift_field(0)(p)
                     + gamma_h[1, a, b] * lift_field(1)(p))
            target = horiz - 0.5 * omega_n[a, b] * xi
            row5 = max(row5, vector_norm(nabla(lfa(p), lfb) - target, g))
    res["row5"] = row5 / scale
    return res


def kaehler_bases() -> list:
    """Zoo entries for the Kahler base factors of ``KAHLER_BASES``."""
    entries = []
    for name, build in KAHLER_BASES.items():
        H = build().structure
        entries.append(ZooEntry(
            label=f"base({name})", params={"name": name},
            charts={"base": H.chart}, structures={"kahler": H}, main="kahler",
            expected_kind="Kahler", expected_holonomy="",
            expected_lee_fn=fd.constant(np.zeros(H.chart.dim))))
    return entries
