#!/usr/bin/env python3
"""lckgeo benchmark: end-to-end timings and outside-in layer counters.

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 15 --trace 0

Run from a source checkout; lckgeo is imported from ``src/`` beside this
directory.  One client in one process sends requests in a closed loop: each
request is one ``lckgeo.run(SuiteConfig(...))`` call, the work of one
``lck run``.  Every pass over the workload's request list draws fresh
request seeds from ``--seed``.  Times are corrected to the speed of a
reference host by fixed reference work timed beside them (see
reference.py); the raw times are printed and kept in the run record.

``--trace 0`` measures set-up in fresh processes, runs passes for about
``--seconds`` (at least three, however long they take), re-runs one request
of the first pass (picked by the seed) untimed to check byte-identical JSON,
and reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs
the first pass untraced, then re-runs every request with every layer
wrapped (see tracing.py), and reports the per-layer metrics and the layer
table.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A run record (environment, every request with
the sha256 of its canonical JSON, the layer table and span edges) is written
to ``.bench_runs/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from reference import startups
from tracing import Tracer
from workloads import WORKLOADS, execute, pass_seeds, rerun

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 5
# A median of fewer passes is too easily one host slowdown.
MIN_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_lckgeo():
    if not (SRC / "lckgeo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lckgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lckgeo
    return lckgeo


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(numpy), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure_setup(manifolds) -> list:
    """``(corrected, raw)`` seconds for fresh processes to import lckgeo and
    resolve ``manifolds``."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *manifolds]
    return startups(cmd, SETUP_REPEATS)


def pass_time(outcomes, raw=False) -> float:
    """Time of one pass: its requests' latencies, corrected or raw."""
    return sum(o.raw_s if raw else o.latency_s for o in outcomes)


def timed_passes(lckgeo, requests, entries, seed, seconds, least) -> list:
    """Closed-loop passes: at least ``least``, then more while another would
    still end within ``seconds``.

    Returns the outcomes of each pass.
    """
    passes, spans = [], []
    start = perf_counter()
    while True:
        seeds = pass_seeds(seed, len(passes), len(requests))
        t0 = perf_counter()
        passes.append([execute(lckgeo, req, s, entries[req.manifold])
                       for req, s in zip(requests, seeds)])
        spans.append(perf_counter() - t0)
        if (len(passes) >= least and perf_counter() - start
                + statistics.median(spans) > seconds):
            return passes


def end_to_end(lckgeo, args, requests, entries, record):
    """Set-up, timed passes and one untimed re-run; the end-to-end metrics."""
    setup = measure_setup(sorted(entries))
    passes = timed_passes(lckgeo, requests, entries, args.seed, args.seconds,
                          MIN_PASSES)
    first = passes[0]
    # One re-run per run keeps the heavy workloads inside the time budget of
    # a full benchmark round; the traced run re-runs every request.
    again = rerun(lckgeo, [first[args.seed % len(first)]], entries)
    outcomes = [o for outs in passes for o in outs]
    failed = sum(o.failure is not None for o in outcomes)
    values = {"wall_s": statistics.median(map(pass_time, passes)),
              "req_p50_ms": 1e3 * statistics.median(
                  o.latency_s for o in outcomes),
              "setup_s": statistics.median(c for c, _ in setup),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ok_share": 1.0 - failed / len(outcomes)}
    raw = {"wall_s": statistics.median(pass_time(o, raw=True) for o in passes),
           "req_p50_ms": 1e3 * statistics.median(o.raw_s for o in outcomes),
           "setup_s": statistics.median(r for _, r in setup)}
    samples = {"wall_s": len(passes), "req_p50_ms": len(outcomes),
               "setup_s": len(setup)}
    record.update(setup_s=[{"corrected": c, "raw": r} for c, r in setup],
                  raw_medians=raw,
                  rerun_requests=[a.record() for a in again])
    return passes, values, samples


def per_layer(lckgeo, args, requests, entries, record, names):
    """One untraced pass, then every request again traced; layer metrics."""
    passes = timed_passes(lckgeo, requests, entries, args.seed, 0.0, 1)
    first = passes[0]
    tracer = Tracer()
    tracer.install()
    again = rerun(lckgeo, first, entries, scope=tracer.request)
    wall, traced_wall = pass_time(first), pass_time(again)
    matches = sum(a.sha256 is not None and a.sha256 == o.sha256
                  for a, o in zip(again, first))
    values = {"report.json_repeat_share": matches / len(first),
              "trace.overhead_share": (traced_wall - wall) / wall}
    for name in names:
        if name not in values:
            values[name] = tracer.value(*name.rsplit(".", 1))
    record.update(untraced_wall_s=wall, traced_wall_s=traced_wall,
                  traced_requests=[a.record() for a in again],
                  request_fields=tracer.requests, layers=tracer.table(),
                  edges=tracer.edge_list())
    return passes, values, {}


def main(argv=None) -> int:
    args = parse_args(argv)
    lckgeo = import_lckgeo()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    requests = WORKLOADS[args.workload]
    entries = {req.manifold: lckgeo.resolve_manifold(req.manifold)
               for req in requests}
    record = {"environment": environment(args)}
    if args.trace:
        passes, values, samples = per_layer(lckgeo, args, requests, entries,
                                            record, units)
    else:
        passes, values, samples = end_to_end(lckgeo, args, requests, entries,
                                             record)

    outcomes = [o for outs in passes for o in outs]
    failures = [o.record() for o in outcomes if o.failure is not None]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record.update(metrics=metrics, samples=samples, failures=failures,
                  passes=[{"wall_s": pass_time(outs),
                           "raw_wall_s": pass_time(outs, raw=True),
                           "requests": [o.record() for o in outs]}
                          for outs in passes])
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print("environment:", json.dumps(record["environment"]))
    if args.trace:
        print(f"{'layer function':40s} {'calls':>8s} {'self ms/call':>12s} "
              f"{'incl ms/call':>12s} {'metric evals/call':>17s}")
        for name, row in record["layers"].items():
            print(f"{name:40s} {row['calls']:8d} {row['self_ms_per_call']:12.4f} "
                  f"{row['inclusive_ms_per_call']:12.4f} "
                  f"{row['metric_fn_evals_per_call']:17.1f}")
    raw = record.get("raw_medians", {})
    for name, m in metrics.items():
        count = f"  (median of {samples[name]})" if name in samples else ""
        if name in raw:
            count += f"  raw {raw[name]:.6g}"
        print(f"{name:48s} {m['value']:.6g} {m['unit']}{count}")
    for failure in failures:
        print("FAILED:", json.dumps(failure))
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
