"""The restricted-holonomy trichotomy, estimated two independent ways.

Curvature spans (Ambrose-Singer) and logs of loop transports must agree:
the Vaisman product gives SO(2n-1) with a parallel fixed vector, the Kahler
member of the Calabi pair gives U(n), flat spaces give the trivial algebra.

Run:  python3 demos/05_holonomy.py
"""

import math

import numpy as np

from lckgeo import zoo
from lckgeo.holonomy import (common_fixed_vectors, curvature_span,
                             default_holonomy_loops, default_probes,
                             loop_holonomy)

rng = np.random.default_rng(11)

cases = [
    ("euclidean R^4", zoo.euclidean(4)),
    ("flat inversion (n=2)", zoo.flat_inversion(2)),
    ("Hopf S^1 x S^3", zoo.hopf(2)),
    ("warped ds^2+dt^2+e^(2 sin t) g_N", zoo.warped_vaisman_gck(
        zoo.named_profile("sin", (0.0, 2.0 * math.pi)), zoo.cp1_base())),
    ("Calabi pair metric g_+", zoo.calabi_ansatz(
        zoo.named_profile("sin", (0.0, math.pi)), math.pi)),
]

print(f"{'space':<34} {'span':>12} {'loops':>12} {'dim':>4}  witnesses")
print("-" * 86)
for name, entry in cases:
    H = entry.holonomy_structure
    chart = H.chart
    base = chart.center()
    est_s = curvature_span(chart, base, default_probes(chart, base, rng),
                           J_fn=H.J_fn)
    est_l = loop_holonomy(chart, default_holonomy_loops(chart, base), base,
                          J_fn=H.J_fn)
    witness = ""
    if est_s.classification == "SO(2n-1)":
        fixed = common_fixed_vectors(est_s, chart.metric(base))
        v = fixed[:, 0] / np.max(np.abs(fixed[:, 0]))
        witness = f"fixed vector ~ {np.round(np.abs(v), 3)}"
    elif est_s.classification == "U(n)":
        Jb = H.J(base)
        comm = max(np.max(np.abs(G @ Jb - Jb @ G)) for G in est_s.generators)
        witness = f"[generators, J] ~ {comm:.1e}"
    agree = "==" if est_s.classification == est_l.classification else "!="
    print(f"{name:<34} {est_s.classification:>12} {agree}{est_l.classification:>11}"
          f" {est_s.algebra_dim:>4}  {witness}")
print("-" * 86)
print("dim so(2n-1) = (2n-1)(n-1) = 3 and dim u(n) = n^2 = 4 for n = 2")
