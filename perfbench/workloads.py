"""Request lists of the benchmark workloads, seed derivation and outcome checks.

A request is one ``lckgeo.run(SuiteConfig(...))`` call with one suite on one
manifold, the same work as one ``lck run`` invocation.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from reference import interval

HOPF2 = "hopf{n=2}"
HOPF3 = "hopf{n=3}"
FLAT2 = "flat_inversion{n=2}"
WARPED = "warped{c=sin,base=cp1}"
CALABI = "calabi{ell=sin,b=pi}"


@dataclass(frozen=True)
class Request:
    manifold: str
    suite: str
    samples: int
    mode: str = "fd"


# Sampled residual suites: nested fd stencils, validated Chart.metric, Lee
# forms and nabla theta; chart dimension 4 and 6; cheap flat fields, the
# Python-loop Hopf J and the quadrature-backed Calabi metric.  The sample
# counts are the acceptance criteria's, scaled down uniformly by 50 to fit a
# run: 100 per manifold for lck-identities (criterion 01), 50 for
# einstein-chain (03) and commuting-pair (06), 100 for hamiltonian-form and
# 40 for average-metric (07).  parallel-field has no criterion and takes the
# `lck run` default of 100.  Counts are rounded, so average-metric runs 1
# where the scale gives 0.8.
SCALE = 50
_CRITERIA = (
    (HOPF2, "lck-identities", 100),
    (HOPF3, "lck-identities", 100),
    (FLAT2, "lck-identities", 100),
    (WARPED, "lck-identities", 100),
    (CALABI, "lck-identities", 100),
    (FLAT2, "einstein-chain", 50),
    (CALABI, "commuting-pair", 50),
    (CALABI, "hamiltonian-form", 100),
    (CALABI, "average-metric", 40),
    (HOPF2, "parallel-field", 100),
    (WARPED, "parallel-field", 100),
)
_POINTWISE = tuple((m, s, round(n / SCALE)) for m, s, n in _CRITERIA)

# The holonomy and classify suites cost seconds per request whatever the
# sample count, so each of these workloads is one request on one manifold:
# a run then holds at least three passes within the time budget of a full
# benchmark round.  Holonomy on calabi (14-20 s per estimate) does not fit
# and is left out; its quadrature metric is still timed by pointwise.
WORKLOADS = {
    "pointwise": tuple(Request(m, s, n) for m, s, n in _POINTWISE),
    # RK4 transport, Christoffel and raw metric_fn; `samples` is ignored.
    "holonomy": (Request(HOPF2, "holonomy", 1),),
    # Sequential loop_integral Lee-form evaluations and the Hopf J_fn.
    "classify": (Request(HOPF2, "classify", 2),),
    # The pointwise list through metric_derivative_fn and the analytic
    # branch of Chart.metric_jacobian.
    "analytic": tuple(Request(m, s, n, "analytic") for m, s, n in _POINTWISE),
}

# zoo expected_holonomy -> label the holonomy estimators report
_HOLONOMY_LABELS = {"SO(2n-1)": "SO(2n-1)", "U(n)": "U(n)", "SO(2n)": "SO(2n)",
                    "trivial": "reducible/other"}


def pass_seeds(seed: int, pass_index: int, count: int) -> list:
    """Fresh request seeds for one pass, a pure function of the workload seed."""
    state = np.random.SeedSequence([seed, pass_index]).generate_state(count)
    return [int(s) for s in state]


@dataclass
class Outcome:
    request: Request
    seed: int
    raw_s: float              # measured latency
    latency_s: float          # latency corrected to the reference host
    sha256: str = None
    failure: str = None       # None when every check passed

    def record(self) -> dict:
        return {"manifold": self.request.manifold, "suite": self.request.suite,
                "samples": self.request.samples, "mode": self.request.mode,
                "seed": self.seed, "raw_s": self.raw_s,
                "latency_s": self.latency_s,
                "sha256": self.sha256, "failure": self.failure}


def execute(lckgeo, request: Request, seed: int, entry) -> Outcome:
    """Run one request (timed up to its canonical JSON) and check its outcome.

    ``entry`` is the zoo entry of the request's manifold, read for the
    declared ``expected_kind`` and ``expected_holonomy``.
    """
    config = lckgeo.SuiteConfig(manifold=request.manifold,
                                suites=(request.suite,),
                                samples=request.samples, seed=seed,
                                mode=request.mode)
    raised = None
    with interval() as timed:
        try:
            blob = lckgeo.emit(lckgeo.run(config))
        except Exception as exc:  # a raising request is a failed request
            raised = f"raised {type(exc).__name__}: {exc}"
    if raised:
        return Outcome(request, seed, timed.raw_s, timed.corrected_s,
                       failure=raised)
    sha = hashlib.sha256(blob).hexdigest()
    return Outcome(request, seed, timed.raw_s, timed.corrected_s, sha,
                   _check(blob, entry))


def _check(blob: bytes, entry):
    report = json.loads(blob)
    if report["inconclusive"]:
        return "inconclusive"
    if not report["pass"]:
        return "pass=false"
    suite = report["suites"][0]
    if suite["suite"] == "classify":
        kind = suite["classification"]["kind"]
        if kind != entry.expected_kind:
            return f"kind {kind} != expected {entry.expected_kind}"
    if suite["suite"] == "holonomy":
        labels = {suite["classification"][est]["label"]
                  for est in ("curvature_span", "loop_holonomy")}
        if len(labels) != 1:
            return f"holonomy estimators disagree: {sorted(labels)}"
        expected = _HOLONOMY_LABELS[entry.expected_holonomy]
        if labels != {expected}:
            return f"holonomy {labels.pop()} != expected {expected}"
    return None


def rerun(lckgeo, outcomes, entries, scope=nullcontext) -> list:
    """Re-run each request with its seed, each inside ``scope()``.

    A re-run whose canonical JSON digest differs fails the original request.
    Returns the re-run outcomes.
    """
    again = []
    for out in outcomes:
        with scope():
            new = execute(lckgeo, out.request, out.seed,
                          entries[out.request.manifold])
        if out.failure is None and new.sha256 != out.sha256:
            out.failure = new.failure or "canonical JSON differs on re-run"
        again.append(new)
    return again
