#!/usr/bin/env python3
"""Drift comparator: the reports of two lckgeo source trees, side by side.

    python3 tools/drift.py --base PARENT_CHECKOUT --change CHANGED_CHECKOUT
    python3 tools/drift.py --base ... --change ... --samples 100
    python3 tools/drift.py --base ... --change ... \
        --change-env NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"

Each tree runs the same grid in its own subprocess, with ``<tree>/src`` on
PYTHONPATH: every suite on every selector of ``SELECTORS``, in fd and
analytic mode, at seeds 1 and 2, with ``--samples`` samples (``SAMPLES`` =
3 by default; 100 is the ``lck run`` default).  A run that raises is
recorded with the exit code ``lck run`` gives it and its error type and
message.  Each ``--change-env NAME=VALUE`` is set in the environment of the
change tree's subprocess only, so that tree can run under another numpy CPU
dispatch, or any other setting, than the base tree.

The comparator exits 1 when a verdict differs: an exit code, an error, or
anything in a report but its floating-point numbers (kind, label, algebra
dim, ``agree``, ``pass``, residual names, counts and tolerances).  It exits
2 when a tree's grid cannot run.  The numbers are drift, and it prints
them: per suite and residual the largest |change| of ``max`` or ``mean`` as
a share of the tolerance, per holonomy estimate the ratio change/base of
``rank_gap`` (below 1 where the gap fell) beside the smaller of the two
gaps, the margin left above ``holonomy.MIN_RANK_GAP`` = 10, and per suite
the largest relative change of any other number that moved.  Then come
two tables, one per mode, of the reports that are byte-identical by sha256,
the ``wc -l`` line count of ``src/lckgeo/*.py`` in each tree, in total and
for each module whose bytes differ (a module missing from a tree counts 0
lines there), the settable values that one tree has and the other lacks
(dataclass fields, and defaulted parameters of public functions and
methods, under ``src/lckgeo``, read by ``ast``), and last the runs whose
numbers of ``metric_fn``, ``metric_derivative_fn`` and ``J_fn`` points
differ, and the runs whose numbers of top-level calls of those fields
differ: the same points in fewer calls is a change in how the points are
stacked.  Those counts do not depend on the machine; a change in them is
not a verdict.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SELECTORS = ("hopf{n=2}", "flat_inversion{n=2}", "warped{c=sin,base=cp1}",
             "warped{c=cos,base=c2}", "calabi{ell=sin,b=pi}",
             "euclidean{m=4}", "hopf{n=3}")
MODES = ("fd", "analytic")
SEEDS = (1, 2)
SAMPLES = 3


def _grid(suite_names):
    for selector in SELECTORS:
        for suite in suite_names:
            for mode in MODES:
                for seed in SEEDS:
                    yield selector, suite, mode, seed


COUNTED = ("metric_fn", "metric_derivative_fn", "J_fn")


def _count_points(report_module, counts: dict, calls: dict) -> None:
    """Make each run add to ``counts`` the points at which it evaluates the
    ``metric_fn`` and the ``metric_derivative_fn`` of each chart and the
    ``J_fn`` of each structure, and to ``calls`` its calls of each, by
    wrapping the fields of the entries ``resolve_manifold`` builds.  A call
    made inside another counted call (the calabi g+ and g- metrics rescale
    the g_ell one) is part of the outer evaluation and is not counted."""
    import numpy as np

    resolve = report_module.resolve_manifold
    depth = [0]

    def counted(kind, fn):
        def wrapper(q):
            if not depth[0]:
                counts[kind] += np.asarray(q)[..., 0].size
                calls[kind] += 1
            depth[0] += 1
            try:
                return fn(q)
            finally:
                depth[0] -= 1
        return wrapper

    def resolve_counted(selector):
        entry = resolve(selector)
        structures = entry.structures.values()
        for H in structures:
            object.__setattr__(H, "J_fn", counted("J_fn", H.J_fn))
        for chart in {id(H.chart): H.chart for H in structures}.values():
            for kind in ("metric_fn", "metric_derivative_fn"):
                fn = getattr(chart, kind)
                if fn is not None:      # a chart differentiated on a stencil
                    object.__setattr__(chart, kind, counted(kind, fn))
        return entry

    report_module.resolve_manifold = resolve_counted


def work(samples: int) -> None:
    """Run the grid with the lckgeo found on sys.path, each run with
    ``samples`` samples; one JSON line per run on stdout."""
    from lckgeo import report as report_module
    from lckgeo.errors import LckError
    from lckgeo.report import SUITE_NAMES, SuiteConfig, emit, exit_code, run

    counts, calls = dict.fromkeys(COUNTED, 0), dict.fromkeys(COUNTED, 0)
    _count_points(report_module, counts, calls)
    for selector, suite, mode, seed in _grid(SUITE_NAMES):
        counts.update(dict.fromkeys(COUNTED, 0))
        calls.update(dict.fromkeys(COUNTED, 0))
        record = {"cell": [selector, suite, mode, seed], "error": None,
                  "report": None}
        try:
            report = run(SuiteConfig(manifold=selector, suites=(suite,),
                                     samples=samples, seed=seed, mode=mode))
        except Exception as exc:          # the error itself is compared
            record["exit"] = 2 if isinstance(exc, LckError) else 1
            record["error"] = [type(exc).__name__, str(exc)]
            payload = json.dumps(record["error"]).encode()
        else:
            record["exit"] = exit_code(report)
            payload = emit(report, "json")
            record["report"] = json.loads(payload)
        record["sha256"] = hashlib.sha256(payload).hexdigest()
        record["counts"] = dict(counts)
        record["calls"] = dict(calls)
        print(json.dumps(record), flush=True)


def _start(tree: Path, samples: int, extra_env: dict):
    """Start the grid on one tree, with ``extra_env`` added to its
    environment; its output goes to temporary files, so the two trees run
    side by side."""
    env = {**os.environ, **extra_env, "PYTHONPATH": str(tree / "src")}
    out, err = tempfile.TemporaryFile("w+"), tempfile.TemporaryFile("w+")
    proc = subprocess.Popen([sys.executable, __file__, "--worker",
                             "--samples", str(samples)], env=env,
                            stdout=out, stderr=err, text=True)
    return proc, out, err


def _collect(name: str, started) -> dict:
    proc, out, err = started
    with out, err:
        out.seek(0)
        err.seek(0)
        if proc.returncode != 0:
            print(f"drift: the {name} tree's grid failed:\n"
                  f"{err.read()[-3000:]}", file=sys.stderr)
            sys.exit(2)
        records = [json.loads(line) for line in out]
    return {tuple(r["cell"]): r for r in records}


def _skeleton(node, key=None):
    """The report with every float replaced by a marker, except tolerances
    and the config, which are inputs."""
    if key == "config":
        return node
    if isinstance(node, dict):
        return {k: _skeleton(v, k) for k, v in node.items()}
    if isinstance(node, list):
        return [_skeleton(v) for v in node]
    if isinstance(node, float) and key != "tolerance":
        return "<number>"
    return node


def _differences(a, b, path=""):
    """Each place where two skeletons differ."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for k in a:
            yield from _differences(a[k], b[k], f"{path}/{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, f"{path}/{i}")
    elif a != b:
        yield f"{path}: {a!r} -> {b!r}"


def _numbers(base, change, path=()):
    """(path, base value, change value) for each float of two suite results
    of one skeleton, tolerances left out."""
    if isinstance(base, dict):
        for k in base:
            yield from _numbers(base[k], change[k], path + (k,))
    elif isinstance(base, list):
        for i, (b, c) in enumerate(zip(base, change)):
            yield from _numbers(b, c, path + (i,))
    elif isinstance(base, float) and path[-1] != "tolerance":
        yield path, base, change


def _delta(a: float, b: float) -> float:
    """|b - a|: 0 for equal values, NaNs included; inf if one is NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return math.inf if math.isnan(a) or math.isnan(b) else abs(b - a)


def _relative(a: float, b: float) -> float:
    d = _delta(a, b)
    return d if d == 0.0 else (math.inf if a == 0.0 else d / abs(a))


def _ratio(a: float, b: float) -> float:
    """b / a: 1 for equal values, NaNs included; inf from a base of 0."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 1.0
    return math.inf if a == 0.0 else b / a


def compare(base: dict, change: dict):
    """Verdict differences, residual drift, rank-gap drift, other drift and
    sha256 identity of two grids of records keyed by cell."""
    verdicts, residuals, gaps, others, same = [], {}, {}, {}, {}
    for cell in sorted(set(base) | set(change), key=str):
        b, c = base.get(cell), change.get(cell)
        if b is None or c is None:
            verdicts.append(f"{cell}: run on one side only")
            continue
        same[cell] = (b["sha256"] == c["sha256"], b["error"] is not None)
        for key in ("exit", "error"):
            if b[key] != c[key]:
                verdicts.append(f"{cell}: {key} {b[key]} -> {c[key]}")
        if b["report"] is None or c["report"] is None:
            continue
        moved = [f"{cell}: {d}" for d in _differences(
            _skeleton(b["report"]), _skeleton(c["report"]))]
        if moved:
            verdicts += moved
            continue
        for bs, cs in zip(b["report"]["suites"], c["report"]["suites"]):
            suite = bs["suite"]
            if suite == "holonomy":
                gaps[cell] = {}     # an infinite gap is null, not a number
            for path, x, y in _numbers(bs, cs):
                if path[0] == "residuals" and path[2] in ("max", "mean"):
                    tol = bs["residuals"][path[1]]["tolerance"]
                    key = (suite, path[1])
                    residuals[key] = max(residuals.get(key, 0.0),
                                         _delta(x, y) / tol)
                elif path[-1] == "rank_gap":
                    gaps[cell][path[1]] = (_ratio(x, y), min(x, y))
                else:
                    key = (suite, ".".join(str(k) for k in path
                                           if not isinstance(k, int)))
                    others[key] = max(others.get(key, 0.0), _relative(x, y))
    return verdicts, residuals, gaps, others, same


def render(residuals, gaps, others, same) -> str:
    moved = sorted((k, v) for k, v in residuals.items() if v)
    lines = ["largest |change| of a residual's max or mean, as a share of "
             f"its tolerance ({len(residuals) - len(moved)} residuals "
             "unchanged)", "", "| suite | residual | share of tol |",
             "|---|---|---|"]
    lines += [f"| {s} | {r} | {v:.2e} |" for (s, r), v in moved]
    lines += ["", "ratio change/base of the holonomy rank gaps (below 1: "
              "the gap fell), and the smaller of the two gaps (a verdict "
              "needs 10, holonomy.MIN_RANK_GAP)", "",
              "| selector | mode | seed | curvature_span | loop_holonomy |",
              "|---|---|---|---|---|"]
    for (sel, _, mode, seed), g in sorted(gaps.items(), key=str):
        cols = [f"×{g[e][0]:.4g} (min {g[e][1]:.3g})" if e in g
                else "inf gap" for e in ("curvature_span", "loop_holonomy")]
        lines.append(f"| {sel} | {mode} | {seed} | " + " | ".join(cols) + " |")
    lines += ["", "largest relative change of the other numbers that moved",
              "", "| suite | number | relative change |", "|---|---|---|"]
    lines += [f"| {s} | {n} | {v:.2e} |"
              for (s, n), v in sorted(others.items()) if v]
    suites = list(dict.fromkeys(cell[1] for cell in same))
    for mode in MODES:
        lines += ["", f"byte-identical {mode} reports (sha256), of the seed "
                  "runs; * marks a suite that does not run on the entry, "
                  "whose error is compared", "",
                  "| selector | " + " | ".join(suites) + " |",
                  "|---|" + "---|" * len(suites)]
        for sel in dict.fromkeys(cell[0] for cell in same):
            row = []
            for suite in suites:
                runs = [v for k, v in same.items()
                        if k[:3] == (sel, suite, mode)]
                if not runs:
                    row.append("")
                    continue
                mark = "*" if all(err for _, err in runs) else ""
                row.append(f"{sum(s for s, _ in runs)}/{len(runs)}{mark}")
            lines.append(f"| {sel} | " + " | ".join(row) + " |")
    return "\n".join(lines)


def line_counts(base: Path, change: Path) -> str:
    """The ``wc -l`` table of ``src/lckgeo/*.py`` in the two trees."""
    trees = [{f.name: f.read_bytes()
              for f in (tree / "src" / "lckgeo").glob("*.py")}
             for tree in (base, change)]
    names = sorted(set(trees[0]) | set(trees[1]))

    def count(files, which):
        return sum(files[n].count(b"\n") for n in which if n in files)

    lines = ["", "lines of src/lckgeo/*.py (wc -l)", "",
             "| module | base | change |", "|---|---|---|"]
    lines += [f"| {n} | {count(trees[0], [n])} | {count(trees[1], [n])} |"
              for n in names if trees[0].get(n) != trees[1].get(n)]
    lines.append(f"| total | {count(trees[0], names)} | "
                 f"{count(trees[1], names)} |")
    return "\n".join(lines)


def settable_values(tree: Path) -> set:
    """The settable values of ``<tree>/src/lckgeo``: each field of a
    dataclass, as ``module.Class.field``, and each defaulted parameter of a
    public function or method, as ``module.function(parameter=)``."""
    found = set()
    for path in (tree / "src" / "lckgeo").glob("*.py"):
        for node in ast.parse(path.read_bytes()).body:
            prefix = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                found.update(f"{prefix}({arg}=)" for arg in _defaulted(node))
            if not (isinstance(node, ast.ClassDef) and _public(node.name)):
                continue
            if any(_names_dataclass(d) for d in node.decorator_list):
                found.update(f"{prefix}.{item.target.id}" for item in node.body
                             if isinstance(item, ast.AnnAssign)
                             and isinstance(item.target, ast.Name))
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    found.update(f"{prefix}.{item.name}({arg}=)"
                                 for arg in _defaulted(item))
    return found


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__")
                                        and name.endswith("__"))


def _names_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return "dataclass" in (getattr(decorator, "id", None),
                           getattr(decorator, "attr", None))


def _defaulted(fn) -> list:
    """The parameters of a function definition that have a default."""
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, default in zip(args.kwonlyargs,
                                                 args.kw_defaults)
                    if default is not None]


def settable_changes(base: Path, change: Path) -> str:
    """The table of the settable values that one tree has and the other
    lacks."""
    before, after = settable_values(base), settable_values(change)
    rows = [f"| {name} | {'base' if name in before else 'change'} |"
            for name in sorted(before ^ after)]
    if not rows:
        return "\nno settable value differs"
    return "\n".join(["", "settable values in one tree only "
                      f"({len(before)} in base, {len(after)} in change)", "",
                      "| settable value | only in |", "|---|---|"] + rows)


def count_changes(base: dict, change: dict) -> str:
    """The table of the runs whose field-evaluation points differ."""
    return _changed(base, change, "counts", "field-evaluation points",
                    "no evaluation count differs")


def call_changes(base: dict, change: dict) -> str:
    """The table of the runs whose numbers of top-level field calls
    differ."""
    return _changed(base, change, "calls", "top-level field calls",
                    "no field call count differs")


def _changed(base: dict, change: dict, key: str, what: str,
             none: str) -> str:
    rows = []
    for cell in sorted(set(base) & set(change), key=str):
        b, c = base[cell][key], change[cell][key]
        if b != c:
            rows.append("| " + " | ".join(
                [str(v) for v in cell] + [f"{b[k]} -> {c[k]}" for k in COUNTED])
                + " |")
    if not rows:
        return "\n" + none
    return "\n".join(["", f"{what} that differ, base -> change",
                      "", "| selector | suite | mode | seed | "
                      + " | ".join(COUNTED) + " |",
                      "|---|---|---|---|" + "---|" * len(COUNTED)] + rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--samples", type=int, default=SAMPLES,
                        help=f"samples per run (default {SAMPLES})")
    parser.add_argument("--change-env", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="set NAME to VALUE in the change tree's "
                        "subprocess only (repeatable)")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.samples < 1:
        parser.error("--samples must be >= 1")
    if any(item.find("=") < 1 for item in args.change_env):
        parser.error("--change-env takes NAME=VALUE")
    change_env = dict(item.split("=", 1) for item in args.change_env)
    if args.worker:
        work(args.samples)
        return 0
    if args.base is None or args.change is None:
        parser.error("--base and --change are required")
    procs = {name: _start(tree.resolve(), args.samples, env)
             for name, tree, env in (("base", args.base, {}),
                                     ("change", args.change, change_env))}
    for proc, _, _ in procs.values():
        proc.wait()             # both, before either failure exits
    base = _collect("base", procs["base"])
    change = _collect("change", procs["change"])
    verdicts, *drift = compare(base, change)
    print(render(*drift))
    print(line_counts(args.base, args.change))
    print(settable_changes(args.base, args.change))
    print(count_changes(base, change))
    print(call_changes(base, change))
    if verdicts:
        print("\nverdicts that differ:")
        print("\n".join(verdicts))
        return 1
    print("\nno verdict differs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
