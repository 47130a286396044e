"""Verification suites, deterministic reports, and the manifold selector.

A :class:`SuiteConfig` names a zoo entry (selector string with parameters),
a list of suites, sampling controls, and tolerances.  :func:`run` executes
the suites and returns a :class:`Report` whose JSON serialization is
byte-for-byte deterministic given (config, seed); wall time is kept out of
the JSON payload for that reason and shown only in the text rendering.

Suites
------
=====================  =====================================================
lck-identities         nablaJ / dOmega / deltaOmega / RJ / RJcontr residuals
einstein-chain         the eleven Einstein-case residuals (needs lambda)
parallel-field         nabla(JV), d(JV), constancy of a, a b = 0
commuting-pair         the two-Kahler-metrics conclusions on the pair
hamiltonian-form       nabla sigma~ = Hamiltonian-2-form right-hand side
average-metric         average-metric field equations + Killing field
holonomy               curvature-span and loop estimators + agreement
classify               Kahler / gcK / strictly-lcK / Vaisman + periods
=====================  =====================================================

Exit-code contract (used by the CLI): 0 all pass, 1 residual failure,
2 configuration error, 3 inconclusive holonomy.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import holonomy as hol, identities as idn, zoo
from .calculus import codifferential, exterior_derivative
from .charts import wedge
from .errors import ParameterError
from .hermitian import lck_residual, lee_form_components

SUITE_NAMES = ("lck-identities", "einstein-chain", "parallel-field",
               "commuting-pair", "hamiltonian-form", "average-metric",
               "holonomy", "classify")

SCHEMA_VERSION = 3

# Tolerance of the residuals that sit at the direct-stencil floor: the
# classify zero periods and the commuting-pair Itheta residual.
TOL_FD = 1e-5


@dataclass(frozen=True)
class SuiteConfig:
    """Everything a run needs; unknown suite names are rejected eagerly."""

    manifold: str
    suites: tuple
    samples: int = 100
    seed: int = 7
    mode: str = "fd"
    tol_id: float = None          # default depends on mode
    tol_chain: float = 1e-3
    tol_ode: float = 1e-6
    at: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "suites", tuple(self.suites))
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            raise ParameterError(f"unknown suites {unknown}; known: {SUITE_NAMES}")
        if self.samples < 1:
            raise ParameterError("samples must be >= 1")
        if self.mode not in ("fd", "analytic"):
            raise ParameterError("mode must be 'fd' or 'analytic'")
        for name in ("tol_chain", "tol_ode"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        if self.tol_id is None:
            object.__setattr__(self, "tol_id",
                               1e-4 if self.mode == "fd" else 1e-8)
        elif self.tol_id <= 0:
            raise ParameterError("tol_id must be positive")

    def as_dict(self) -> dict:
        return {
            "manifold": self.manifold, "suites": list(self.suites),
            "samples": self.samples, "seed": self.seed, "mode": self.mode,
            "tol_id": self.tol_id,
            "tol_chain": self.tol_chain, "tol_ode": self.tol_ode,
            "at": list(self.at) if self.at is not None else None,
        }


@dataclass
class SuiteResult:
    suite: str
    residuals: dict
    passed: bool
    classification: Optional[dict] = None
    inconclusive: bool = False

    def as_dict(self) -> dict:
        return {"suite": self.suite, "residuals": self.residuals,
                "pass": self.passed, "classification": self.classification,
                "inconclusive": self.inconclusive}


@dataclass
class Report:
    config: dict
    suites: list
    passed: bool
    inconclusive: bool
    wall_time: float

    def as_dict(self) -> dict:
        # wall time deliberately omitted: JSON must be byte-deterministic
        return {"schema_version": SCHEMA_VERSION, "config": self.config,
                "suites": [s.as_dict() for s in self.suites],
                "pass": self.passed, "inconclusive": self.inconclusive}


class ResidualTable:
    """Accumulates named residuals with worst-point tracking."""

    def __init__(self):
        self._data = {}

    def add(self, name: str, value: float, point, tolerance: float):
        value = float(value)
        rec = self._data.setdefault(name, {
            "max": -math.inf, "sum": 0.0, "count": 0,
            "worst_point": None, "tolerance": float(tolerance)})
        rec["sum"] += value
        rec["count"] += 1
        # the first NaN becomes the max and stays it, so the residual fails
        if not (value <= rec["max"] or math.isnan(rec["max"])):
            rec["max"] = value
            rec["worst_point"] = [float(x) for x in np.atleast_1d(point)]

    def summarize(self) -> dict:
        out = {}
        for name, rec in sorted(self._data.items()):
            out[name] = {
                "max": rec["max"],
                "mean": rec["sum"] / rec["count"],
                "count": rec["count"],
                "worst_point": rec["worst_point"],
                "tolerance": rec["tolerance"],
                "pass": bool(rec["max"] < rec["tolerance"]),
            }
        return out

    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.summarize().values())


def _sample_points(entry, config: SuiteConfig, rng, chart=None):
    chart = chart or entry.main_structure.chart
    if config.at is not None:
        if len(config.at) != chart.dim:
            raise ParameterError(
                f"at has {len(config.at)} coordinates, but chart "
                f"'{chart.label}' has dimension {chart.dim}")
        return np.array([list(config.at)], dtype=float)
    return chart.sample_points(rng, config.samples)


def _lee_from_domega(H, p, mode: str):
    """Least-squares Lee form from d Omega = 2 theta ^ Omega (the cross road)."""
    d_omega = exterior_derivative(H.chart, H.omega, p, k=2).components
    m = H.chart.dim
    omega = H.omega(p)
    cols = []
    for l in range(m):
        e = np.zeros(m)
        e[l] = 1.0
        cols.append(2.0 * wedge(e, omega).reshape(-1))
    A = np.array(cols).T
    theta, *_ = np.linalg.lstsq(A, d_omega.reshape(-1), rcond=None)
    return theta


# ---------------------------------------------------------------------------
# suite implementations
# ---------------------------------------------------------------------------

def _lee_derived_tol(config: SuiteConfig) -> float:
    """Tolerance for residuals containing Lee-form *derivatives*.

    J carries no analytic derivatives, so these terms are stencil-floored
    near 1e-7 even in analytic mode; 1e-6 is the tight-but-safe bound there.
    """
    if config.mode == "analytic":
        return max(config.tol_id, 1e-6)
    return config.tol_id


def _suite_lck_identities(entry, config: SuiteConfig, rng) -> SuiteResult:
    H = entry.main_structure
    mode = config.mode
    pts = _sample_points(entry, config, rng)
    xs = rng.standard_normal((len(pts), H.chart.dim))
    ys = rng.standard_normal((len(pts), H.chart.dim))
    table = ResidualTable()

    def one(args):
        p, x, y = args
        theta = lee_form_components(H, p, mode=mode)
        r_dom = lck_residual(H, p, theta, mode=mode)
        theta_d = _lee_from_domega(H, p, mode)
        g_inv = np.linalg.inv(H.chart.metric(p))
        j_theta_d = H.j_form(p, theta_d)
        delta_om = codifferential(H.chart, H.omega, p, k=2, mode=mode).components
        num = delta_om - (2.0 - 2.0 * H.n) * j_theta_d
        vec = lambda t: float(np.sqrt(abs(t @ g_inv @ t)))
        r_del = vec(num) / (1.0 + max(vec(delta_om), abs(2.0 - 2.0 * H.n) * vec(j_theta_d)))
        r_nj = idn.nabla_j_residual(H, p, x, mode=mode)
        r_rj, r_rjc = idn.curvature_j_residuals(H, p, x, y, mode=mode)
        return r_nj, r_dom, r_del, r_rj, r_rjc

    rows = [one(args) for args in zip(pts, xs, ys)]
    curvature_tol = _lee_derived_tol(config)
    for p, row in zip(pts, rows):
        for name, val in zip(("nablaJ", "dOmega", "deltaOmega", "RJ", "RJcontr"), row):
            tol = curvature_tol if name in ("RJ", "RJcontr") else config.tol_id
            table.add(name, val, p, tol)
    return SuiteResult("lck-identities", table.summarize(), table.all_pass())


def _suite_einstein_chain(entry, config: SuiteConfig, rng) -> SuiteResult:
    if entry.einstein_lambda is None:
        raise ParameterError(f"{entry.label} declares no Einstein constant; "
                             "einstein-chain does not apply")
    H = entry.main_structure
    lam = float(entry.einstein_lambda)
    pts = _sample_points(entry, config, rng)
    table = ResidualTable()
    rows = [idn.einstein_chain_residuals(H, p, lam, mode=config.mode)
            for p in pts]
    for p, res in zip(pts, rows):
        for name, val in res.items():
            table.add(name, val, p, config.tol_chain)
    return SuiteResult("einstein-chain", table.summarize(), table.all_pass())


def _suite_parallel_field(entry, config: SuiteConfig, rng) -> SuiteResult:
    if entry.parallel_field is None:
        raise ParameterError(f"{entry.label} declares no parallel field")
    H = entry.main_structure
    pts = _sample_points(entry, config, rng)
    table = ResidualTable()
    a_values = []
    for p in pts:
        res = idn.parallel_field_residuals(H, p, entry.parallel_field,
                                           mode=config.mode)
        table.add("nablaJV", res["nablaJV"], p, config.tol_id)
        table.add("ddJV", res["ddJV"], p, config.tol_id)
        table.add("ab", res["ab"], p, config.tol_id)
        a_values.append((res["a"], p))
    mean_a = float(np.mean([a for a, _ in a_values]))
    for a, p in a_values:
        table.add("a_const", abs(a - mean_a), p, config.tol_id)
    return SuiteResult("parallel-field", table.summarize(), table.all_pass())


_PAIR_TOLS = {"commute": "tol_id", "traceIJ": "tol_id", "eqJ": "tol_chain",
              "to": "tol_id", "sigma": "tol_id", "deromega": "tol_id",
              "nablath": "tol_chain", "et": "tol_chain"}


def _suite_commuting_pair(entry, config: SuiteConfig, rng) -> SuiteResult:
    if entry.pair is None:
        raise ParameterError(f"{entry.label} has no Kahler/lcK pair")
    I, J = entry.pair.I, entry.pair.J
    pts = _sample_points(entry, config, rng, chart=I.chart)
    xs = rng.standard_normal((len(pts), I.chart.dim))
    table = ResidualTable()
    rows = [idn.commuting_pair_residuals(I, J, p, x, mode=config.mode)
            for p, x in zip(pts, xs)]
    for p, res in zip(pts, rows):
        for name, val in res.items():
            tol = (TOL_FD if name == "Itheta"
                   else getattr(config, _PAIR_TOLS[name]))
            table.add(name, val, p, tol)
    return SuiteResult("commuting-pair", table.summarize(), table.all_pass())


def _suite_hamiltonian_form(entry, config: SuiteConfig, rng) -> SuiteResult:
    if entry.pair is None:
        raise ParameterError(f"{entry.label} has no Kahler/lcK pair")
    I, J = entry.pair.I, entry.pair.J
    pot = idn.PotentialField(J, mode=config.mode)
    pts = _sample_points(entry, config, rng, chart=I.chart)
    xs = rng.standard_normal((len(pts), I.chart.dim))
    table = ResidualTable()
    rows = [idn.hamiltonian_form_residual(I, J, p, x, pot, mode=config.mode)
            for p, x in zip(pts, xs)]
    for p, val in zip(pts, rows):
        table.add("tilom", val, p, config.tol_chain)
    return SuiteResult("hamiltonian-form", table.summarize(), table.all_pass())


_AVG_TOLS = {"der0theta": "tol_chain", "der0Jxi": "tol_chain",
             "der0xi": "tol_chain", "derIxi": "tol_chain",
             "derzeta": "tol_chain", "killing": "tol_id",
             "theta0_vs_pair": "tol_id"}


def _suite_average_metric(entry, config: SuiteConfig, rng) -> SuiteResult:
    if entry.average is None:
        raise ParameterError(f"{entry.label} has no average-metric data")
    avg = entry.average
    pair_J = entry.pair.J if entry.pair is not None else None
    pts = _sample_points(entry, config, rng, chart=avg.chart)
    xs = rng.standard_normal((len(pts), avg.chart.dim))
    table = ResidualTable()
    for p, x in zip(pts, xs):
        res = idn.average_metric_residuals(avg, p, x, mode=config.mode,
                                           pair_J=pair_J)
        for name, val in res.items():
            if name == "f":
                continue
            tol = (_lee_derived_tol(config) if name == "killing"
                   else getattr(config, _AVG_TOLS[name]))
            table.add(name, abs(val), p, tol)
    return SuiteResult("average-metric", table.summarize(), table.all_pass())


_EXPECTED_LABELS = {"SO(2n-1)": "SO(2n-1)", "U(n)": "U(n)",
                    "SO(2n)": "SO(2n)", "trivial": "reducible/other"}


def _suite_holonomy(entry, config: SuiteConfig, rng) -> SuiteResult:
    if config.at is not None:
        raise ParameterError("holonomy works at the chart centre; "
                             "at does not apply to it")
    H = entry.holonomy_structure
    chart = H.chart
    base = chart.center()
    J_candidates = [H.J_fn]
    probes = hol.default_probes(chart, base, rng)
    est_span = hol.curvature_span(chart, base, probes, n=entry.n,
                                  J_candidates=J_candidates, mode=config.mode)
    loops = hol.default_holonomy_loops(chart, base)
    est_loop = hol.loop_holonomy(chart, loops, base, n=entry.n,
                                 J_candidates=J_candidates, mode=config.mode)
    inconclusive = ("inconclusive" in (est_span.classification,
                                       est_loop.classification))
    agree = est_span.classification == est_loop.classification
    expected = _EXPECTED_LABELS.get(entry.expected_holonomy, None)
    matches = expected is None or (est_span.classification == expected)

    table = ResidualTable()
    table.add("skew_defect_span", est_span.skew_defect, base, config.tol_id)
    table.add("skew_defect_loop", est_loop.skew_defect, base, config.tol_id)
    classification = {
        "curvature_span": {"dim": est_span.algebra_dim,
                           "label": est_span.classification,
                           "rank_gap": _finite(est_span.rank_gap)},
        "loop_holonomy": {"dim": est_loop.algebra_dim,
                          "label": est_loop.classification,
                          "rank_gap": _finite(est_loop.rank_gap)},
        "agree": agree,
        "expected": expected,
    }
    passed = (not inconclusive) and agree and matches and table.all_pass()
    return SuiteResult("holonomy", table.summarize(), passed,
                       classification=classification,
                       inconclusive=inconclusive)


def _suite_classify(entry, config: SuiteConfig, rng) -> SuiteResult:
    H = entry.main_structure
    pts = _sample_points(entry, config, rng)
    # Lee-form gates are limited by the J-field stencil (~1e-7) even in
    # analytic mode, so classification never gates below the fd tolerance.
    gate = config.tol_id if config.mode == "fd" else max(config.tol_id, 1e-4)
    result = idn.classify_structure(H, pts, entry.loops,
                                    tol_id=gate,
                                    tol_ode=config.tol_ode, mode=config.mode)
    table = ResidualTable()
    for name, value in result.periods:
        expected = entry.expected_periods.get(name)
        if expected is None:
            continue
        tol = config.tol_id if abs(expected) > 0 else TOL_FD
        table.add(f"period_{name}", abs(value - expected),
                  entry.loops[name].point(0.0), tol)
    classification = {
        "kind": result.kind,
        "expected": entry.expected_kind or None,
        "evidence": {k: float(v) for k, v in result.evidence.items()},
        "periods": {name: float(v) for name, v in result.periods},
    }
    matches = (not entry.expected_kind) or result.kind == entry.expected_kind
    return SuiteResult("classify", table.summarize(),
                       table.all_pass() and matches,
                       classification=classification)


def _finite(x: float):
    return float(x) if math.isfinite(x) else None


SUITES = {
    "lck-identities": _suite_lck_identities,
    "einstein-chain": _suite_einstein_chain,
    "parallel-field": _suite_parallel_field,
    "commuting-pair": _suite_commuting_pair,
    "hamiltonian-form": _suite_hamiltonian_form,
    "average-metric": _suite_average_metric,
    "holonomy": _suite_holonomy,
    "classify": _suite_classify,
}


# ---------------------------------------------------------------------------
# manifold selector
# ---------------------------------------------------------------------------

_CONSTANTS = {"pi": math.pi, "2pi": 2.0 * math.pi}


def _parse_value(text: str):
    text = text.strip()
    if text in _CONSTANTS:
        return _CONSTANTS[text]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_selector(selector: str):
    """Split 'name{k=v,...}' into (name, params)."""
    selector = selector.strip()
    if "{" not in selector:
        return selector, {}
    if not selector.endswith("}"):
        raise ParameterError(f"malformed selector {selector!r}")
    name, _, rest = selector.partition("{")
    params = {}
    body = rest[:-1].strip()
    if body:
        for item in body.split(","):
            if "=" not in item:
                raise ParameterError(f"malformed selector item {item!r}")
            k, _, v = item.partition("=")
            if k.strip() in params:
                raise ParameterError(f"parameter {k.strip()!r} given twice "
                                     f"in {selector!r}")
            params[k.strip()] = _parse_value(v)
    return name.strip(), params


# The parameters each family takes, with their types.
_FAMILIES = {
    "hopf": {"n": int, "circumference": float},
    "flat_inversion": {"n": int},
    "warped": {"c": str, "base": str},
    "calabi": {"ell": str, "b": float},
    "euclidean": {"m": int},
}


def _check_params(name: str, params: dict, selector: str) -> None:
    """Reject parameters the family does not take, integer parameters that
    are not integers, and number parameters that are not finite numbers."""
    takes = _FAMILIES[name]
    for key, value in params.items():
        kind = takes.get(key)
        if kind is None:
            raise ParameterError(
                f"{name} takes no parameter {key!r} in {selector!r}; "
                f"known: {', '.join(takes)}")
        if kind is int and not isinstance(value, int):
            raise ParameterError(
                f"{name} parameter {key} must be an integer, got {value!r}")
        if kind is float and not (isinstance(value, (int, float))
                                  and math.isfinite(value)):
            raise ParameterError(
                f"{name} parameter {key} must be a finite number, "
                f"got {value!r}")


def resolve_manifold(selector: str) -> zoo.ZooEntry:
    """Build the zoo entry a selector names.

    Selectors: hopf{n,circumference}, flat_inversion{n},
    warped{c=<profile>,base=<name>}, calabi{ell=<profile>,b},
    euclidean{m}.
    """
    name, params = parse_selector(selector)
    if name not in _FAMILIES:
        raise ParameterError(
            f"unknown manifold {name!r}; known: {', '.join(_FAMILIES)}")
    _check_params(name, params, selector)
    try:
        if name == "hopf":
            return zoo.hopf(params.get("n", 2),
                            float(params.get("circumference", 2.0 * math.pi)))
        if name == "flat_inversion":
            return zoo.flat_inversion(params.get("n", 2))
        if name == "warped":
            profile = zoo.named_profile(str(params.get("c", "sin")),
                                        (0.0, 2.0 * math.pi))
            base = zoo.KAHLER_BASES[str(params.get("base", "cp1"))]()
            return zoo.warped_vaisman_gck(profile, base)
        if name == "calabi":
            b = float(params.get("b", math.pi))
            profile = zoo.named_profile(str(params.get("ell", "sin")), (0.0, b))
            return zoo.calabi_ansatz(profile, b)
        return zoo.euclidean(params.get("m", 4))
    except KeyError as exc:
        raise ParameterError(f"unknown parameter value in {selector!r}: {exc}")


# ---------------------------------------------------------------------------
# run / emit
# ---------------------------------------------------------------------------

def run(config: SuiteConfig) -> Report:
    """Execute every configured suite; deterministic given (config, seed)."""
    t0 = time.monotonic()
    entry = resolve_manifold(config.manifold)
    suites = []
    for name in config.suites:
        # crc32 is stable across processes (hash() is salted)
        rng = np.random.default_rng((config.seed, zlib.crc32(name.encode())))
        suites.append(SUITES[name](entry, config, rng))
    passed = all(s.passed for s in suites)
    inconclusive = any(s.inconclusive for s in suites)
    return Report(config=config.as_dict(), suites=suites, passed=passed,
                  inconclusive=inconclusive, wall_time=time.monotonic() - t0)


def exit_code(report: Report) -> int:
    if report.inconclusive:
        return 3
    return 0 if report.passed else 1


def emit(report: Report, format: str = "json") -> bytes:
    """Serialize a report; 'json' is canonical (and wall-time free)."""
    if format == "json":
        return (json.dumps(report.as_dict(), sort_keys=True,
                           separators=(",", ": "), indent=1) + "\n").encode()
    if format == "text":
        return _render_text(report).encode()
    raise ParameterError(f"unknown emit format {format!r}")


def _render_text(report: Report) -> str:
    lines = []
    cfg = report.config
    lines.append(f"manifold : {cfg['manifold']}")
    lines.append(f"mode     : {cfg['mode']}   samples: {cfg['samples']}   "
                 f"seed: {cfg['seed']}")
    for s in report.suites:
        status = ("INCONCLUSIVE" if s.inconclusive
                  else ("pass" if s.passed else "FAIL"))
        lines.append(f"[{status}] suite {s.suite}")
        for name, rec in s.residuals.items():
            mark = "ok " if rec["pass"] else "BAD"
            lines.append(f"    {mark} {name:<18} max {rec['max']:.3e}  "
                         f"mean {rec['mean']:.3e}  tol {rec['tolerance']:.0e}"
                         f"  (n={rec['count']})")
        if s.classification:
            lines.append(f"    classification: {json.dumps(s.classification, sort_keys=True)}")
    lines.append(f"overall  : {'pass' if report.passed else 'FAIL'}"
                 f"{' (inconclusive)' if report.inconclusive else ''}")
    lines.append(f"wall time: {report.wall_time:.2f} s")
    return "\n".join(lines) + "\n"
