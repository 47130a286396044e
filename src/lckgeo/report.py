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

Each of the first six suites is its applicability check plus one call of
``_sampled``, which draws the points and direction stacks, calls the
:mod:`lckgeo.identities` check on them, once per ``SAMPLE_BLOCK`` samples,
and tabulates its residuals in sample order; classify evaluates its
samples' Lee-form evidence as one stack too.  Either raises the first
sample's error, by :func:`~lckgeo.errors.in_item_order`.  Every residual's
tolerance tier is set in one table, ``_TOLERANCES``; a name with no tier
raises.

Exit-code contract (used by the CLI): 0 all pass, 1 residual failure,
2 configuration error, 3 inconclusive holonomy.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import holonomy as hol, identities as idn, zoo
from .errors import ParameterError, in_item_order

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
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if self.mode not in ("fd", "analytic"):
            raise ParameterError("mode must be 'fd' or 'analytic'")
        if self.tol_id is None:
            object.__setattr__(self, "tol_id",
                               1e-4 if self.mode == "fd" else 1e-8)
        # NaN fails every comparison, so ``value <= 0`` would let it through
        for name in ("tol_id", "tol_chain", "tol_ode"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ParameterError(
                    f"{name} must be a finite positive number")

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["suites"] = list(self.suites)
        out["at"] = list(self.at) if self.at is not None else None
        return out


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

    def add_each(self, name: str, values, points, tolerance: float):
        """:meth:`add` each of the values at its point, in order."""
        for value, point in zip(values, points):
            self.add(name, value, point, tolerance)

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


def _sample_points(config: SuiteConfig, rng, chart):
    if config.at is not None:
        if len(config.at) != chart.dim:
            raise ParameterError(
                f"at has {len(config.at)} coordinates, but chart "
                f"'{chart.label}' has dimension {chart.dim}")
        return np.array([list(config.at)], dtype=float)
    return chart.sample_points(rng, config.samples)


# The tolerance tier of every residual a suite reports: a SuiteConfig field,
# TOL_FD, or "lee_derived" for residuals containing Lee-form derivatives.
# J carries no analytic derivatives, so those are stencil-floored near 1e-7
# even in analytic mode, where their tier is max(tol_id, 1e-6).  The classify
# periods are the one exception: a nonzero expected period is held to tol_id
# and a zero one to TOL_FD.
_TOLERANCES = {
    **dict.fromkeys(("nablaJ", "dOmega", "deltaOmega", "nablaJV", "ddJV", "ab",
                     "a_const", "commute", "traceIJ", "to", "sigma",
                     "deromega", "theta0_vs_pair", "skew_defect_span",
                     "skew_defect_loop"), "tol_id"),
    **dict.fromkeys(("Sth", "trS", "nablaJth", "diffJth", "lieJth",
                     "codiffth", "codiffom", "eqJdel2", "eqJdel3", "summ",
                     "eqf", "eqJ", "nablath", "et", "tilom", "der0theta",
                     "der0Jxi", "der0xi", "derIxi", "derzeta"), "tol_chain"),
    **dict.fromkeys(("RJ", "RJcontr", "killing"), "lee_derived"),
    "Itheta": "TOL_FD",
}

# values a check returns beside its residuals, which are not tabulated
_NOT_RESIDUALS = ("a", "b", "f")


def _tolerance(name: str, config: SuiteConfig) -> float:
    tier = _TOLERANCES.get(name)
    if tier is None:
        raise KeyError(f"residual {name!r} has no tolerance tier")
    if tier == "TOL_FD":
        return TOL_FD
    if tier == "lee_derived":
        return (max(config.tol_id, 1e-6) if config.mode == "analytic"
                else config.tol_id)
    return getattr(config, tier)


# ---------------------------------------------------------------------------
# suite implementations
# ---------------------------------------------------------------------------

# Samples per stacked check call.  A call holds the stencil values of all
# its samples at once (einstein-chain about 0.9 MB a sample), so a longer
# run is checked in blocks of this many samples, in order.
SAMPLE_BLOCK = 100


def _sampled(config: SuiteConfig, rng, chart, check,
             directions: int = 0) -> tuple:
    """Draw the sample points on ``chart``, then ``directions`` stacks of
    one direction per sample, and evaluate ``check(points, *directions)``
    on the stacks, one call per ``SAMPLE_BLOCK`` samples.  Each residual's
    values are tabulated in sample order.  Returns the table, the points and
    the check's values."""
    pts = _sample_points(config, rng, chart)
    dirs = [rng.standard_normal((len(pts), chart.dim))
            for _ in range(directions)]
    stacks = [[a[k:k + SAMPLE_BLOCK] for a in (pts, *dirs)]
              for k in range(0, len(pts), SAMPLE_BLOCK)]
    blocks = [in_item_order(lambda: check(*stack),
                            lambda sample: check(*sample), zip(*stack))
              for stack in stacks]
    table = ResidualTable()
    res = {}
    for name in blocks[0]:
        tolerance = (None if name in _NOT_RESIDUALS
                     else _tolerance(name, config))
        res[name] = np.concatenate([block[name] for block in blocks])
        if tolerance is not None:
            table.add_each(name, abs(res[name]), pts, tolerance)
    return table, pts, res


def _suite_lck_identities(entry, config: SuiteConfig, rng) -> SuiteResult:
    H = entry.main_structure
    table, *_ = _sampled(
        config, rng, H.chart,
        lambda p, x, y: idn.lck_identity_residuals(H, p, x, y),
        directions=2)
    return SuiteResult("lck-identities", table.summarize(), table.all_pass())


def _suite_einstein_chain(entry, config: SuiteConfig, rng) -> SuiteResult:
    if entry.einstein_lambda is None:
        raise ParameterError(f"{entry.label} declares no Einstein constant; "
                             "einstein-chain does not apply")
    H = entry.main_structure
    lam = float(entry.einstein_lambda)
    table, *_ = _sampled(config, rng, H.chart,
                         lambda p: idn.einstein_chain_residuals(H, p, lam))
    return SuiteResult("einstein-chain", table.summarize(), table.all_pass())


def _suite_parallel_field(entry, config: SuiteConfig, rng) -> SuiteResult:
    if entry.parallel_field is None:
        raise ParameterError(f"{entry.label} declares no parallel field")
    H = entry.main_structure
    table, pts, res = _sampled(
        config, rng, H.chart,
        lambda p: idn.parallel_field_residuals(H, p, entry.parallel_field))
    a = res["a"]
    table.add_each("a_const", abs(a - float(np.mean(a))), pts,
                   _tolerance("a_const", config))
    return SuiteResult("parallel-field", table.summarize(), table.all_pass())


def _suite_commuting_pair(entry, config: SuiteConfig, rng) -> SuiteResult:
    if entry.pair is None:
        raise ParameterError(f"{entry.label} has no Kahler/lcK pair")
    I, J = entry.pair.I, entry.pair.J
    table, *_ = _sampled(config, rng, I.chart,
                         lambda p, x: idn.commuting_pair_residuals(I, J, p, x),
                         directions=1)
    return SuiteResult("commuting-pair", table.summarize(), table.all_pass())


def _suite_hamiltonian_form(entry, config: SuiteConfig, rng) -> SuiteResult:
    if entry.pair is None:
        raise ParameterError(f"{entry.label} has no Kahler/lcK pair")
    I, J = entry.pair.I, entry.pair.J
    pot = idn.PotentialField(J)
    table, *_ = _sampled(
        config, rng, I.chart,
        lambda p, x: {"tilom": idn.hamiltonian_form_residual(I, J, p, x, pot)},
        directions=1)
    return SuiteResult("hamiltonian-form", table.summarize(), table.all_pass())


def _suite_average_metric(entry, config: SuiteConfig, rng) -> SuiteResult:
    if entry.average is None:
        raise ParameterError(f"{entry.label} has no average-metric data")
    avg = entry.average
    pair_J = entry.pair.J if entry.pair is not None else None
    table, *_ = _sampled(
        config, rng, avg.chart,
        lambda p, x: idn.average_metric_residuals(avg, p, x, pair_J=pair_J),
        directions=1)
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
    probes = hol.default_probes(chart, base, rng)
    est_span = hol.curvature_span(chart, base, probes, J_fn=H.J_fn)
    loops = hol.default_holonomy_loops(chart, base)
    est_loop = hol.loop_holonomy(chart, loops, base, J_fn=H.J_fn)
    inconclusive = ("inconclusive" in (est_span.classification,
                                       est_loop.classification))
    agree = est_span.classification == est_loop.classification
    expected = _EXPECTED_LABELS.get(entry.expected_holonomy, None)
    matches = expected is None or (est_span.classification == expected)

    table = ResidualTable()
    for name, est in (("skew_defect_span", est_span),
                      ("skew_defect_loop", est_loop)):
        table.add(name, est.skew_defect, base, _tolerance(name, config))
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
    pts = _sample_points(config, rng, H.chart)
    # Lee-form gates are limited by the J-field stencil (~1e-7) even in
    # analytic mode, so classification never gates below the fd tolerance.
    gate = config.tol_id if config.mode == "fd" else max(config.tol_id, 1e-4)
    result = idn.classify_structure(H, pts, entry.loops,
                                    tol_id=gate,
                                    tol_ode=config.tol_ode)
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
SUITE_NAMES = tuple(SUITES)


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


# Each family's parameters, with their types and defaults, and the
# constructor that takes them in that order.
_FAMILIES = {
    "hopf": ({"n": (int, 2), "circumference": (float, 2.0 * math.pi)},
             zoo.hopf),
    "flat_inversion": ({"n": (int, 2)}, zoo.flat_inversion),
    "warped": ({"c": (str, "sin"), "base": (str, "cp1")},
               lambda c, base: zoo.warped_vaisman_gck(
                   zoo.named_profile(c, (0.0, 2.0 * math.pi)),
                   zoo.KAHLER_BASES[base]())),
    "calabi": ({"ell": (str, "sin"), "b": (float, math.pi)},
               lambda ell, b: zoo.calabi_ansatz(
                   zoo.named_profile(ell, (0.0, b)), b)),
    "euclidean": ({"m": (int, 4)}, zoo.euclidean),
}


def _check_params(name: str, params: dict, selector: str) -> None:
    """Reject parameters the family does not take, integer parameters that
    are not integers, and number parameters that are not finite numbers."""
    takes = _FAMILIES[name][0]
    for key, value in params.items():
        if key not in takes:
            raise ParameterError(
                f"{name} takes no parameter {key!r} in {selector!r}; "
                f"known: {', '.join(takes)}")
        kind = takes[key][0]
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
    takes, build = _FAMILIES[name]
    try:
        return build(*(kind(params.get(key, default))
                       for key, (kind, default) in takes.items()))
    except KeyError as exc:
        raise ParameterError(f"unknown parameter value in {selector!r}: {exc}")


# ---------------------------------------------------------------------------
# run / emit
# ---------------------------------------------------------------------------

def run(config: SuiteConfig) -> Report:
    """Execute every configured suite; deterministic given (config, seed)."""
    t0 = time.monotonic()
    entry = resolve_manifold(config.manifold)
    if config.mode == "fd":
        entry = zoo.stencil_only(entry)
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
