"""Chart-based tensor calculus: connection, curvature, geodesics, transport.

Run:  python3 demos/01_tensor_calculus.py
"""

import dataclasses
import math

import numpy as np

from lckgeo import zoo
from lckgeo.calculus import christoffel, ricci_scalar, riemann
from lckgeo.charts import form_norm, segment_loop
from lckgeo.transport import geodesic, orthogonality_defect, parallel_transport

print("=" * 72)
print("1. Christoffel symbols on the round 2-sphere (polar chart)")
print("=" * 72)
s2 = zoo.round_s2_base(1.0, polar_margin=0.25).structure.chart
# a chart differences its metric on a stencil when it has no derivative
s2_stencil = dataclasses.replace(s2, metric_derivative_fn=None)
p = np.array([math.pi / 4, 1.0])
G_fd = christoffel(s2_stencil, p).components
G_an = christoffel(s2, p).components
print(f"Gamma^theta_(phi,phi) at theta=pi/4: stencil {G_fd[0, 1, 1]:+.10f}, "
      f"analytic {G_an[0, 1, 1]:+.10f}, closed form {-0.5:+.10f}")
print(f"max |stencil - analytic| = {np.max(np.abs(G_fd - G_an)):.2e}")

print()
print("=" * 72)
print("2. Curvature: scalar of round spheres and flatness of the inversion")
print("=" * 72)
for radius in (1.0, 2.0):
    chart = dataclasses.replace(zoo.round_s2_base(radius).structure.chart,
                                metric_derivative_fn=None)
    _, scal = ricci_scalar(chart, chart.center())
    print(f"S^2 radius {radius}: scalar curvature {scal:.8f} "
          f"(expected {2.0 / radius**2})")

inv = zoo.stencil_only(zoo.flat_inversion(2))
chart = inv.charts["inverted"]
rng = np.random.default_rng(0)
worst = max(form_norm(np.einsum("ae,ebcd->abcd", chart.metric(q),
                                riemann(chart, q).components),
                      chart.metric(q))
            for q in chart.sample_points(rng, 10))
print(f"inverted metric r^-4 g_0 on the annulus: max |Riemann| over 10 "
      f"samples = {worst:.2e} (the metric is flat)")

print()
print("=" * 72)
print("3. Geodesics: the equator of S^2 is a unit-speed great circle")
print("=" * 72)
start = np.array([math.pi / 2, 1.0])
end = geodesic(s2, start, np.array([0.0, 1.0]), time=0.75, steps=300)
print(f"start {start}, tangent d_phi, time 0.75 -> end {end} "
      f"(expected [pi/2, 1.75])")

print()
print("=" * 72)
print("4. Parallel transport around a latitude: the classical cone angle")
print("=" * 72)
for theta0 in (math.pi / 3, 1.2):
    loop = segment_loop(np.array([theta0, 0.0]),
                        np.array([0.0, 2.0 * math.pi]), steps=400)
    M = parallel_transport(s2, loop, np.eye(2))
    E = np.diag([1.0, math.sin(theta0)])
    M_hat = E @ M @ np.linalg.inv(E)
    angle = math.atan2(M_hat[0, 1], M_hat[0, 0])
    expected = 2.0 * math.pi * math.cos(theta0)
    wrapped = (expected + math.pi) % (2.0 * math.pi) - math.pi
    print(f"colatitude {theta0:.3f}: rotation angle {angle:+.6f} "
          f"(cone angle 2 pi cos = {expected:.6f}, wrapped {wrapped:+.6f}); "
          f"isometry defect {orthogonality_defect(s2, loop, M):.2e}")
