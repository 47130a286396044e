"""The ``lck`` command-line runner.

Usage::

    lck run --manifold "hopf{n=2}" --suite classify --suite holonomy \
            --samples 100 --seed 7 --mode fd --json report.json
    lck run --manifold "warped{c=sin,base=cp1}" --suite lck-identities \
            --at=-0.415,4.479,2.328,3.852

``--at=x1,x2,...`` replays one point, such as a residual's worst point; it
takes the ``=`` form because a separate value with a leading minus sign
would be read as a flag.

Config files hold the same fields as flags, one ``key = value`` per line
(``suites`` as a comma list); flags override file values, and a key that
is not one of :data:`CONFIG_KEYS` is a configuration error.  Exit codes:
0 all suites pass, 1 residual failure, 2 configuration error,
3 inconclusive holonomy.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import LckError, ParameterError
from .report import SUITE_NAMES, SuiteConfig, emit, exit_code, run

# the destinations of the ``run`` flags, ``suites`` for the repeatable
# --suite, less the outputs and --config itself
CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(SuiteConfig))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lck",
        description="verification suites for explicit lcK geometries")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run verification suites on a manifold")
    p.add_argument("--manifold", help="selector, e.g. calabi{ell=sin,b=pi}")
    p.add_argument("--suite", action="append", default=None,
                   metavar="NAME", help=f"one of {', '.join(SUITE_NAMES)}; "
                   "repeatable")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode", choices=("fd", "analytic"), default=None)
    p.add_argument("--tol-id", type=float, default=None)
    p.add_argument("--tol-chain", type=float, default=None)
    p.add_argument("--tol-ode", type=float, default=None)
    p.add_argument("--json", metavar="PATH",
                   help="write the JSON report here ('-' for stdout)")
    p.add_argument("--text", action="store_true",
                   help="print the human-readable summary")
    p.add_argument("--config", metavar="FILE",
                   help="flat key=value config file; flags override")
    p.add_argument("--at", metavar="X1,X2,...",
                   help="evaluate at this single point instead of "
                   "sampling; write --at=X1,X2,... so that a leading minus "
                   "sign is not read as a flag")
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"malformed config line {raw.strip()!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in CONFIG_KEYS:
                raise ParameterError(f"unknown config key {key!r}; known: "
                                     f"{', '.join(CONFIG_KEYS)}")
            values[key] = val.strip()
    return values


def _assemble_config(args) -> SuiteConfig:
    file_vals = _read_config_file(args.config) if args.config else {}

    def pick(flag, key, cast):
        if flag is not None:
            return flag
        if key in file_vals:
            return cast(file_vals[key])
        return None

    manifold = pick(args.manifold, "manifold", str)
    if not manifold:
        raise ParameterError("no manifold selector given (flag or config file)")
    suites = args.suite
    if suites is None and "suites" in file_vals:
        suites = [s.strip() for s in file_vals["suites"].split(",") if s.strip()]
    if suites is None:
        suites = []            # an empty run is legal: config echo, pass=true
    at = pick(args.at, "at", str)
    if at == "":
        raise ParameterError("at is empty; give a point as X1,X2,...")
    if at is not None:
        at = tuple(float(x) for x in at.split(","))

    # only the values a flag or the file gives: SuiteConfig holds the defaults
    kwargs = dict(manifold=manifold, suites=tuple(suites), at=at)
    for key, cast in (("samples", int), ("seed", int), ("mode", str),
                      ("tol_chain", float), ("tol_ode", float),
                      ("tol_id", float)):
        value = pick(getattr(args, key), key, cast)
        if value is not None:
            kwargs[key] = value
    return SuiteConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _assemble_config(args)
    except (ParameterError, OSError, ValueError) as exc:
        print(f"lck: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(config)
    except LckError as exc:
        print(f"lck: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    wrote_something = False
    if args.json:
        payload = emit(report, "json")
        if args.json == "-":
            sys.stdout.buffer.write(payload)
        else:
            with open(args.json, "wb") as fh:
                fh.write(payload)
        wrote_something = True
    if args.text or not wrote_something:
        sys.stdout.write(emit(report, "text").decode())
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
