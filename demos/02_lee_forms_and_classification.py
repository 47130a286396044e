"""Lee forms, loop periods, and the Kahler / gcK / Vaisman discrimination.

Run:  python3 demos/02_lee_forms_and_classification.py
"""

import math

import numpy as np

from lckgeo import zoo
from lckgeo.hermitian import lee_field, lee_form_components
from lckgeo.identities import classify_structure
from lckgeo.transport import loop_integral

rng = np.random.default_rng(7)

print("=" * 72)
print("Lee forms of the explicit structures vs. their closed forms")
print("=" * 72)

hopf = zoo.hopf(2)
H = hopf.main_structure
p = H.chart.sample_points(rng, 1)[0]
print(f"Hopf S^1 x S^3      theta = {np.round(lee_form_components(H, p), 8)}"
      "   (the unit length element ds of the circle)")

inv = zoo.flat_inversion(2)
H2 = inv.main_structure
p2 = H2.chart.sample_points(rng, 1)[0]
print(f"inverted flat C^2   theta = {np.round(lee_form_components(H2, p2), 6)}")
print(f"                -2 d ln r = {np.round(-2.0 * p2 / float(p2 @ p2), 6)}")

cal = zoo.calabi_ansatz(zoo.named_profile("sin", (0.0, math.pi)), math.pi)
H3 = cal.structures["g_ell,J+"]
p3 = H3.chart.sample_points(rng, 1)[0]
print(f"Calabi bundle, J_+  theta = {np.round(lee_form_components(H3, p3), 6)}"
      f"   (1/2 l(r) dr with l(r)=sin r: {0.5 * math.sin(p3[3]):.6f})")

print()
print("=" * 72)
print("Loop periods: the fundamental-group morphism made numerical")
print("=" * 72)
# from here on every metric is differenced on a stencil, as in fd mode
hopf, inv, cal = (zoo.stencil_only(e) for e in (hopf, inv, cal))
H, H2, H3 = (hopf.main_structure, inv.main_structure,
             cal.structures["g_ell,J+"])
period = loop_integral(H.chart, lee_field(H), hopf.loops["s1_generator"])
print(f"Hopf circle generator:  integral of theta = {period:.8f} "
      f"(circumference 2 pi = {2 * math.pi:.8f})")
for name, loop in cal.loops.items():
    v = loop_integral(H3.chart, lee_field(H3), loop)
    print(f"Calabi loop {name:<8}: integral of theta = {v:+.2e} (exact form)")

print()
print("=" * 72)
print("Classification (theta, nabla theta, d theta, periods -> kind)")
print("=" * 72)
for entry, H_ in ((hopf, H), (inv, H2), (cal, H3)):
    pts = H_.chart.sample_points(rng, 8)
    out = classify_structure(H_, pts, entry.loops)
    ev = out.evidence
    print(f"{entry.label:<24} -> {out.kind:<24} "
          f"|theta| {ev['max_theta']:.2e}  |nabla theta| "
          f"{ev['max_nabla_theta']:.2e}  max period {ev['max_period']:.2e}")
