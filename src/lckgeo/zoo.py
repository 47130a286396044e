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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import fd
from .calculus import christoffel_components, covariant_derivative_full
from .charts import Chart, polygon_loop, segment_loop
from .errors import BundleError, ParameterError
from .hermitian import HermitianStructure, conformal_rescale

SQRT_HALF = math.sqrt(0.5)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileFn:
    """A smooth real profile and its derivative, elementwise on arrays."""

    value_fn: Callable[[np.ndarray], np.ndarray]
    derivative_fn: Callable[[np.ndarray], np.ndarray]
    domain: tuple = (0.0, 1.0)
    label: str = ""

    def __call__(self, r: float) -> float:
        return float(self.value_fn(r))

    def derivative(self, r: float) -> float:
        return float(self.derivative_fn(r))


def named_profile(name: str, domain: tuple, label: str = "") -> ProfileFn:
    zero = lambda r: np.zeros_like(r, dtype=float)
    table = {
        "sin": (np.sin, np.cos),
        "cos": (np.cos, lambda r: -np.sin(r)),
        "zero": (zero, zero),
    }
    if name not in table:
        raise ParameterError(f"unknown profile '{name}' (known: {sorted(table)})")
    value, deriv = table[name]
    return ProfileFn(value, deriv, domain, label or name)


# ---------------------------------------------------------------------------
# Kahler bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KahlerBase:
    """A low-dimensional Kahler factor (N, h, J_N, Omega_N) in coordinates."""

    label: str
    dim: int
    domain: tuple
    g_fn: Callable
    dg_fn: Callable
    J_fn: Callable
    area: Optional[float] = None     # total integral of Omega_N, when finite

    def chart(self) -> Chart:
        return Chart(dim=self.dim, domain=self.domain, metric_fn=self.g_fn,
                     metric_derivative_fn=self.dg_fn, label=self.label)

    def omega_fn(self, y) -> np.ndarray:
        J = np.asarray(self.J_fn(y), dtype=float)
        return np.swapaxes(J, -1, -2) @ np.asarray(self.g_fn(y), dtype=float)


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
    return KahlerBase(label=f"flat_C{n}", dim=m,
                      domain=((-1.0, 1.0),) * m,
                      g_fn=fd.constant(np.eye(m)),
                      dg_fn=fd.constant(np.zeros((m, m, m))),
                      J_fn=fd.constant(_standard_j(m)))


def round_s2_base(radius: float, polar_margin: float = 0.35,
                  label: str = "") -> KahlerBase:
    """Round S^2 of the given radius on a polar chart (theta, phi).

    J rotates by 90 degrees with h(J., .) = -R^2 sin(theta) dtheta ^ dphi,
    the orientation for which the Euler-angle contact form satisfies
    d omega = pi* Omega_N on the Hopf bundle.  Area = 4 pi R^2.
    """
    R2 = radius * radius

    def g_fn(y):
        g = np.zeros(np.shape(y)[:-1] + (2, 2))
        g[..., 0, 0] = R2
        g[..., 1, 1] = R2 * np.float_power(np.sin(y[..., 0]), 2)
        return g

    def dg_fn(y):
        dg = np.zeros(np.shape(y)[:-1] + (2, 2, 2))
        dg[..., 0, 1, 1] = 2.0 * R2 * np.sin(y[..., 0]) * np.cos(y[..., 0])
        return dg

    def J_fn(y):
        s = np.sin(y[..., 0])
        J = np.zeros(np.shape(y)[:-1] + (2, 2))
        J[..., 0, 1] = s
        J[..., 1, 0] = -1.0 / s
        return J

    return KahlerBase(label=label or f"round_S2_R{radius:g}", dim=2,
                      domain=((polar_margin, math.pi - polar_margin),
                              (0.0, 2.0 * math.pi)),
                      g_fn=g_fn, dg_fn=dg_fn, J_fn=J_fn,
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
    """Charts, structures, loops and declared expectations of one example."""

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
    pair: Optional[PairData] = None
    average: Optional[HermitianStructure] = None
    holonomy_key: Optional[str] = None
    potential: Optional[Callable] = None     # phi(r) = 1/2 int_0^r ell (Calabi)
    profile: Optional[ProfileFn] = None
    base: Optional[KahlerBase] = None
    n: int = 0

    @property
    def main_structure(self) -> HermitianStructure:
        return self._structure(self.main)

    @property
    def holonomy_structure(self) -> HermitianStructure:
        return self._structure(self.holonomy_key or self.main)

    def _structure(self, key: str) -> HermitianStructure:
        if key not in self.structures:
            raise ParameterError(f"{self.label} has no Hermitian structure")
        return self.structures[key]


def euclidean(m: int) -> ZooEntry:
    """Flat chart on the box [-1, 1]^m; the trivial-holonomy control."""
    if m < 1:
        raise ParameterError("euclidean needs dimension m >= 1")
    chart = Chart(dim=m, domain=((-1.0, 1.0),) * m,
                  metric_fn=fd.constant(np.eye(m)),
                  metric_derivative_fn=fd.constant(np.zeros((m, m, m))),
                  label=f"euclidean_{m}")
    structures = {}
    main = ""
    if m % 2 == 0:
        structures["flat"] = HermitianStructure(
            chart=chart, J_fn=fd.constant(_standard_j(m)), n=m // 2,
            label="flat")
        main = "flat"
    return ZooEntry(label=f"euclidean_{m}", params={"m": m},
                    charts={"flat": chart}, structures=structures, main=main,
                    expected_kind="Kahler", expected_holonomy="trivial",
                    expected_lee_fn=fd.constant(np.zeros(m)),
                    einstein_lambda=0.0, n=m // 2)


# -- Hopf ---------------------------------------------------------------------

def _columns(x: np.ndarray) -> list:
    """The entries x[..., k] in order: plain floats for a single point, which
    multiply faster than numpy scalars, and arrays over a stack of points."""
    return x.tolist() if x.ndim == 1 else list(np.moveaxis(x, -1, 0))


def _hypersphere_embedding(angles: np.ndarray) -> np.ndarray:
    """Unit vector in R^(d+1) from d hyperspherical angles, shape (..., d).

    u_i = cos(a_i) prod_{k<i} sin(a_k) for i < d;  u_d = prod_{k<d} sin(a_k).
    """
    d = angles.shape[-1]
    sin, cos = _columns(np.sin(angles)), _columns(np.cos(angles))
    u = np.empty(angles.shape[:-1] + (d + 1,))
    prod = 1.0
    for i in range(d):
        u[..., i] = prod * cos[i]
        prod = prod * sin[i]
    u[..., d] = prod
    return u


def _hypersphere_jacobian(angles: np.ndarray) -> np.ndarray:
    """d u / d a for angles of shape (..., d): shape (..., d+1, d).

    Entry (i, j) is the product of the factors of u_i with factor j
    differentiated, multiplied left to right; column j shares the prefix
    sin(a_0) ... sin(a_(j-1)) and one running product.
    """
    d = angles.shape[-1]
    sin, cos = _columns(np.sin(angles)), _columns(np.cos(angles))
    jac = np.zeros(angles.shape[:-1] + (d + 1, d))
    prefix = 1.0
    for j in range(d):
        jac[..., j, j] = prefix * -sin[j]
        run = prefix * cos[j]
        for i in range(j + 1, d):
            jac[..., i, j] = run * cos[i]
            run = run * sin[i]
        jac[..., d, j] = run
        prefix = prefix * sin[j]
    return jac


def hopf(n: int, circumference: float = 2.0 * math.pi,
         polar_margin: float = 0.35) -> ZooEntry:
    """S^1 x S^(2n-1) with the product metric and the inversion-induced J.

    Chart coordinates (s, a_1, ..., a_(2n-1)); the metric is ds^2 plus the
    round hyperspherical metric, J is the pullback of the standard J_0 on
    C^n \\ 0 through (s, a) -> e^(-s) sigma(a), and theta = ds: the unit,
    parallel length element of the circle factor.  The circle generator is
    the deck translation s -> s + circumference.
    """
    if n < 2:
        raise ParameterError("hopf needs complex dimension n >= 2")
    if circumference <= 0:
        raise ParameterError("circumference must be positive")
    m = 2 * n
    d = m - 1
    L = float(circumference)
    J0 = _standard_j(m)

    domain = [(-0.7, L + 0.7)]
    for _ in range(d - 1):
        domain.append((polar_margin, math.pi - polar_margin))
    domain.append((0.0, 2.0 * math.pi))

    eye = np.eye(m)

    def metric_fn(p):
        p = np.asarray(p, dtype=float)
        g = np.empty(p.shape[:-1] + (m, m))
        g[...] = eye
        # float_power squares like the numpy-scalar ``**`` of a single point;
        # an array ``** 2`` rounds differently in the last place
        sin_sq = _columns(np.float_power(np.sin(p[..., 1:d]), 2))
        prod = 1.0
        for i in range(1, d):
            prod = prod * sin_sq[i - 1]
            g[..., i + 1, i + 1] = prod
        return g

    def metric_derivative_fn(p):
        p = np.asarray(p, dtype=float)
        dg = np.zeros(p.shape[:-1] + (m, m, m))
        sin, cos = np.sin(p), np.cos(p)
        sin_sq = np.float_power(sin, 2)
        coeff = 1.0
        for j in range(1, d):
            coeff = coeff * sin_sq[..., j]    # as np.prod of the squares
            for k in range(1, j + 1):
                dg[..., k, j + 1, j + 1] = (coeff * 2.0 * cos[..., k]
                                            / sin[..., k])
        return dg

    def J_fn(p):
        angles = np.asarray(p, dtype=float)[..., 1:]
        sigma = _hypersphere_embedding(angles)
        dsigma = _hypersphere_jacobian(angles)
        B = np.concatenate([-sigma[..., None], dsigma], axis=-1)
        return np.linalg.solve(B, J0 @ B)

    chart = Chart(dim=m, domain=tuple(domain), metric_fn=metric_fn,
                  metric_derivative_fn=metric_derivative_fn, label=f"hopf_{n}")
    H = HermitianStructure(chart=chart, J_fn=J_fn, n=n, label=f"hopf_{n}")

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
                    parallel_field=_basis(m, 0), n=n)


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
        r2 = np.vecdot(p, p)[..., None, None]
        return eye / (r2 * r2)

    def metric_derivative_fn(p):
        p = np.asarray(p, dtype=float)
        r6 = np.float_power(np.vecdot(p, p), 3)[..., None]
        return np.einsum("...k,ij->...kij", -4.0 * p / r6, eye)

    chart = Chart(dim=m, domain=tuple((lo, hi) for _ in range(m)),
                  metric_fn=metric_fn,
                  metric_derivative_fn=metric_derivative_fn,
                  label=f"flat_inversion_{n}")
    H = HermitianStructure(chart=chart, J_fn=fd.constant(_standard_j(m)), n=n,
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
                    einstein_lambda=0.0, n=n)


# -- warped product -----------------------------------------------------------

def _require_kahler_base(base: KahlerBase):
    """Cheap Kahler gate on a base factor: J_N^2 = -Id and compatibility."""
    y = np.array([0.5 * (lo + hi) for lo, hi in base.domain])
    J = np.asarray(base.J_fn(y), dtype=float)
    g = np.asarray(base.g_fn(y), dtype=float)
    if (np.max(np.abs(J @ J + np.eye(base.dim))) > 1e-8
            or np.max(np.abs(J.T @ g @ J - g)) > 1e-8 * (1 + np.max(np.abs(g)))):
        raise ParameterError(f"base '{base.label}' fails the Kahler gate")


def warped_vaisman_gck(c: ProfileFn, base: KahlerBase) -> ZooEntry:
    """ds^2 + dt^2 + e^(2c(t)) g_N with form ds ^ dt + e^(2c(t)) Omega_N,
    s in [-pi, pi].

    theta = c'(t) dt; d_s is a parallel unit field.  Kahler when c is
    constant, otherwise globally conformally Kahler with restricted
    holonomy SO(2n-1) (fixed vector d_s) for a generic base.
    """
    mb = base.dim
    m = mb + 2
    n = m // 2
    t_lo, t_hi = c.domain
    _require_kahler_base(base)

    def warp(p):
        """e^(2c(t)) at each point, by math.exp: np.exp rounds differently."""
        x = 2.0 * c.value_fn(p[..., 1])
        return np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(
            x.shape + (1, 1))

    def metric_fn(p):
        p = np.asarray(p, dtype=float)
        g = np.zeros(p.shape[:-1] + (m, m))
        g[..., 0, 0] = g[..., 1, 1] = 1.0
        g[..., 2:, 2:] = warp(p) * np.asarray(base.g_fn(p[..., 2:]))
        return g

    def metric_derivative_fn(p):
        p = np.asarray(p, dtype=float)
        dg = np.zeros(p.shape[:-1] + (m, m, m))
        f = warp(p)
        gN = np.asarray(base.g_fn(p[..., 2:]))
        dc = c.derivative_fn(p[..., 1])[..., None, None]
        dg[..., 1, 2:, 2:] = 2.0 * dc * f * gN
        dg[..., 2:, 2:, 2:] = f[..., None] * np.asarray(base.dg_fn(p[..., 2:]))
        return dg

    def J_fn(p):
        J = np.zeros(np.shape(p)[:-1] + (m, m))
        J[..., 1, 0] = 1.0
        J[..., 0, 1] = -1.0
        J[..., 2:, 2:] = np.asarray(base.J_fn(np.asarray(p)[..., 2:]))
        return J

    domain = ((-math.pi, math.pi), (t_lo, t_hi)) + base.domain
    chart = Chart(dim=m, domain=domain, metric_fn=metric_fn,
                  metric_derivative_fn=metric_derivative_fn,
                  label=f"warped_{c.label}_{base.label}")
    H = HermitianStructure(chart=chart, J_fn=J_fn, n=n,
                           label=f"warped_{c.label}")

    mid = 0.5 * (t_lo + t_hi)
    constant = (abs(c.derivative(mid)) < 1e-14
                and abs(c(t_lo + 0.3) - c(t_hi - 0.3)) < 1e-14)
    ctr = chart.center()
    w = 0.25
    loops = {
        "st_square": polygon_loop(
            [ctr, ctr + w * _basis(m, 0), ctr + w * (_basis(m, 0) + _basis(m, 1)),
             ctr + w * _basis(m, 1)], steps_per_edge=200, label="st_square"),
    }

    return ZooEntry(label=f"warped(c={c.label}, base={base.label})",
                    params={"c": c.label, "base": base.label},
                    charts={"warped": chart}, structures={"warped": H},
                    main="warped", loops=loops,
                    expected_kind="Kahler" if constant else "gcK",
                    expected_holonomy="trivial" if constant else "SO(2n-1)",
                    expected_lee_fn=_coordinate_form(m, 1, c.derivative_fn),
                    expected_periods={"st_square": 0.0},
                    parallel_field=_basis(m, 0), profile=c, base=base, n=n)


# -- Calabi Ansatz ------------------------------------------------------------

def calabi_ansatz(ell: ProfileFn, b: float, base: KahlerBase = None,
                  r_margin: float = 0.35) -> ZooEntry:
    """The circle-bundle Ansatz over a Hodge surface (default CP^1, area 2 pi).

    Chart coordinates are Euler angles plus the profile parameter,
    (theta, phi, psi, r) with psi of fiber period 4 pi.  The connection form
    is omega = c_w (d psi + cos(theta) d phi) with c_w computed (not
    assumed) from d omega = pi* Omega_N; the vertical field with
    omega(xi) = 1 is xi = (1/c_w) d_psi.  See the module docstring for the
    two potential normalizations (phi vs Phi = -2 phi).
    """
    if base is None:
        base = cp1_base()
    if base.dim != 2:
        raise ParameterError("the Calabi constructor needs a 2-dimensional "
                             "polar-coordinate Hodge base")
    if b <= 0:
        raise ParameterError("b must be positive")
    if base.area is None or abs(base.area / (2.0 * math.pi)
                                - round(base.area / (2.0 * math.pi))) > 1e-8:
        raise BundleError(
            f"base '{base.label}' is not Hodge-normalized: Omega_N-area "
            f"{base.area} is not an integer multiple of 2 pi")
    rs = np.linspace(r_margin / 2.0, b - r_margin / 2.0, 33)
    if np.any(ell.value_fn(rs) <= 0.0):
        raise ParameterError(f"profile '{ell.label}' is not positive on (0, {b})")

    # connection normalization: d(c_w (dpsi + cos dphi)) = -c_w sin dth ^ dphi
    # must equal pi* Omega_N, so c_w = Omega_N(d_th, d_phi) / (-sin th).
    ratios = []
    for th in (0.7, 1.1, 1.9):
        omega_n = base.omega_fn(np.array([th, 1.0]))[0, 1]
        ratios.append(omega_n / (-math.sin(th)))
    c_w = float(np.mean(ratios))
    if np.max(np.abs(np.asarray(ratios) - c_w)) > 1e-10 * (1.0 + abs(c_w)):
        raise BundleError(
            f"no constant scaling of the contact form matches Omega_N on "
            f"'{base.label}': ratios {ratios}")

    n = 2
    cw2 = c_w ** 2

    def unpack(p):
        """theta, ell(r), cos and sin of theta, and the base point."""
        p = np.asarray(p, dtype=float)
        th = p[..., 0]
        return (th, ell.value_fn(p[..., 3]), np.cos(th), np.sin(th),
                np.stack([th, np.zeros_like(th)], axis=-1))

    # squares by float_power, which rounds like the float ``** 2``
    def metric_fn(p):
        th, lv, ct, _, y = unpack(p)
        l2 = np.float_power(lv, 2)
        gN = np.asarray(base.g_fn(y))
        g = np.zeros(th.shape + (4, 4))
        g[..., 0, 0] = gN[..., 0, 0]
        g[..., 1, 1] = gN[..., 1, 1] + l2 * cw2 * np.float_power(ct, 2)
        g[..., 1, 2] = g[..., 2, 1] = l2 * cw2 * ct
        g[..., 2, 2] = l2 * cw2
        g[..., 3, 3] = 1.0
        return g

    def metric_derivative_fn(p):
        th, lv, ct, s, y = unpack(p)
        dl = ell.derivative_fn(np.asarray(p, dtype=float)[..., 3])
        lv2 = np.float_power(lv, 2)
        dgN = np.asarray(base.dg_fn(y))
        dg = np.zeros(th.shape + (4, 4, 4))
        dg[..., 0, 0, 0] = dgN[..., 0, 0, 0]
        dg[..., 0, 1, 1] = dgN[..., 0, 1, 1] - 2.0 * lv2 * cw2 * ct * s
        dg[..., 0, 1, 2] = dg[..., 0, 2, 1] = -lv2 * cw2 * s
        dg[..., 3, 1, 1] = 2.0 * lv * dl * cw2 * np.float_power(ct, 2)
        dg[..., 3, 1, 2] = dg[..., 3, 2, 1] = 2.0 * lv * dl * cw2 * ct
        dg[..., 3, 2, 2] = 2.0 * lv * dl * cw2
        return dg

    def make_J(eps: float):
        def J_fn(p):
            th, lv, ct, s, _ = unpack(p)
            J = np.zeros(th.shape + (4, 4))
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
        r = np.asarray(r, dtype=float)
        return 0.5 * r * np.vecdot(ell.value_fn(xs * r[..., None]), ws)

    domain = ((0.35, math.pi - 0.35), (-0.7, 2.0 * math.pi + 0.7),
              (-0.7, 4.0 * math.pi + 0.7), (r_margin, b - r_margin))
    chart_ell = Chart(dim=4, domain=domain, metric_fn=metric_fn,
                      metric_derivative_fn=metric_derivative_fn,
                      label=f"calabi_ell_{ell.label}")

    # pair potential Phi = -2 phi: g_+ = e^Phi g_ell, g_- = e^-Phi g_ell
    r_of = lambda p: np.asarray(p, dtype=float)[..., 3]
    half_ell_dr = _coordinate_form(4, 3, lambda r: 0.5 * ell.value_fn(r))
    chart_plus = conformal_rescale(
        chart_ell, lambda p: -phi_potential(r_of(p)),
        _coordinate_form(4, 3, lambda r: -0.5 * ell.value_fn(r)),
        label=f"calabi_gplus_{ell.label}")
    chart_minus = conformal_rescale(
        chart_ell, lambda p: phi_potential(r_of(p)), half_ell_dr,
        label=f"calabi_gminus_{ell.label}")

    Jp, Jm = make_J(+1.0), make_J(-1.0)
    structures = {
        "g_ell,J+": HermitianStructure(chart_ell, Jp, n, label="g_ell,J+"),
        "g_ell,J-": HermitianStructure(chart_ell, Jm, n, label="g_ell,J-"),
        "g+,J+": HermitianStructure(chart_plus, Jp, n, label="g+,J+"),
        "g+,J-": HermitianStructure(chart_plus, Jm, n, label="g+,J-"),
        "g-,J-": HermitianStructure(chart_minus, Jm, n, label="g-,J-"),
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
        params={"ell": ell.label, "b": b, "base": base.label, "c_w": c_w},
        charts={"g_ell": chart_ell, "g_plus": chart_plus, "g_minus": chart_minus},
        structures=structures, main="g_ell,J+", loops=loops,
        expected_kind="gcK", expected_holonomy="U(n)",
        expected_lee_fn=half_ell_dr,
        expected_periods={"fiber": 0.0, "mixed": 0.0},
        pair=PairData(I=structures["g+,J+"], J=structures["g+,J-"]),
        average=structures["g_ell,J+"],
        holonomy_key="g+,J+", potential=phi_potential, profile=ell,
        base=base, n=n)


def calabi_connection_table_residuals(entry: ZooEntry, p, mode: str = "auto") -> dict:
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
    base = entry.base
    ell = entry.profile
    c_w = float(entry.params["c_w"])
    th, r = p[0], p[3]
    lv, dl = ell(r), ell.derivative(r)
    g = chart.metric(p)
    gamma = christoffel_components(chart, p, mode=mode)
    vnorm = lambda w: float(np.sqrt(abs(w @ g @ w)))

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
        full = covariant_derivative_full(chart, field, p, (0, 1), mode=mode,
                                         stencil=fd.DIRECT, gamma=gamma)
        return np.asarray(direction, dtype=float) @ full

    const = fd.constant
    scale = 1.0 + lv + abs(dl)
    res = {}
    res["row1"] = max(vnorm(nabla(xi, const(e_r)) - (dl / lv) * xi),
                      vnorm(nabla(e_r, const(xi)) - (dl / lv) * xi)) / scale
    res["row2"] = vnorm(nabla(xi, const(xi)) + lv * dl * e_r) / scale

    lifts = [lift_field(0), lift_field(1)]
    row3 = vnorm(nabla(e_r, const(e_r)))
    for lf in lifts:
        row3 = max(row3, vnorm(nabla(lf(p), const(e_r))),
                   vnorm(nabla(e_r, lf)))
    res["row3"] = row3 / scale

    JN = np.asarray(base.J_fn(np.array([th, 0.0])), dtype=float)
    row4 = 0.0
    for k, lf in enumerate(lifts):
        jn_x = JN[:, k]
        target = 0.5 * lv ** 2 * (jn_x[0] * lift_field(0)(p)
                                  + jn_x[1] * lift_field(1)(p))
        row4 = max(row4, vnorm(nabla(lf(p), const(xi)) - target),
                   vnorm(nabla(xi, lf) - target))
    res["row4"] = row4 / scale

    base_chart = base.chart()
    y = np.array([th, 1.0])
    gamma_h = christoffel_components(base_chart, y, mode=mode)
    omega_n = base.omega_fn(y)
    row5 = 0.0
    for a, lfa in enumerate(lifts):
        for b, lfb in enumerate(lifts):
            horiz = (gamma_h[0, a, b] * lift_field(0)(p)
                     + gamma_h[1, a, b] * lift_field(1)(p))
            target = horiz - 0.5 * omega_n[a, b] * xi
            row5 = max(row5, vnorm(nabla(lfa(p), lfb) - target))
    res["row5"] = row5 / scale
    return res


def kaehler_bases() -> list:
    """Zoo entries for the Kahler base factors (flat C, flat C^2, CP^1)."""
    entries = []
    for name in ("c1", "c2", "cp1"):
        base = KAHLER_BASES[name]()
        chart = base.chart()
        H = HermitianStructure(chart, base.J_fn, n=max(base.dim // 2, 1),
                               label=name)
        entries.append(ZooEntry(
            label=f"base({name})", params={"name": name},
            charts={"base": chart}, structures={"kahler": H}, main="kahler",
            expected_kind="Kahler", expected_holonomy="",
            expected_lee_fn=fd.constant(np.zeros(base.dim)),
            n=base.dim // 2))
    return entries
