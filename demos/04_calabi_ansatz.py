"""The circle-bundle Ansatz: one metric family, two Kahler structures.

Builds g_ell = pi*h + l(r)^2 w (x) w + dr^2 over the normalized CP^1, checks
the covariant-derivative table, exhibits the conformally Kahler pair
(g_+, J_+), (g_-, J_-) with pair potential Phi = -2 phi, and verifies the
commuting-pair conclusions and the Hamiltonian 2-form equation.

Run:  python3 demos/04_calabi_ansatz.py
"""

import math

import numpy as np

from lckgeo import zoo
from lckgeo.calculus import exterior_derivative
from lckgeo.charts import form_norm
from lckgeo.hermitian import lee_form_components
from lckgeo.identities import (PotentialField, commuting_pair_residuals,
                               hamiltonian_form_residual)

rng = np.random.default_rng(3)
# every metric differenced on a stencil, as in fd mode
entry = zoo.stencil_only(
    zoo.calabi_ansatz(zoo.named_profile("sin", (0.0, math.pi)), math.pi))
chart = entry.charts["g_ell"]
print(f"bundle over {entry.params['base']}, connection scale c_w = "
      f"{entry.params['c_w']}, profile l(r) = sin r on (0, pi)")
print(f"potential phi(r) = (1 - cos r)/2; phi(1) = {entry.potential(1.0):.8f} "
      f"vs {(1 - math.cos(1.0)) / 2:.8f}")

print()
print("covariant-derivative table of the bundle metric (max residuals, 10 pts)")
worst = {}
for p in chart.sample_points(rng, 10):
    for k, v in zoo.calabi_connection_table_residuals(entry, p).items():
        worst[k] = max(worst.get(k, 0.0), v)
for k, v in worst.items():
    print(f"  {k}: {v:.2e}")

print()
print("the two structures and their Lee forms (theta_eps = eps/2 l dr):")
p = chart.sample_points(rng, 1)[0]
for key in ("g_ell,J+", "g_ell,J-", "g+,J+", "g+,J-", "g-,J-"):
    H = entry.structures[key]
    theta = lee_form_components(H, p)
    d_om = exterior_derivative(H.chart, H.omega, p, k=2)
    print(f"  ({key:<9}) theta_r = {theta[3]:+.6f}   |dOmega| = "
          f"{form_norm(d_om, H.chart.metric(p)):.2e}")
print(f"  [l(r)/2 = {0.5 * math.sin(p[3]):.6f}; (g+,J+) and (g-,J-) are "
      "the Kahler pair]")

print()
print("commuting-pair conclusions on (g = g_+, I = J_+, J = J_-):")
I, J = entry.pair.I, entry.pair.J
worst = {}
for q in chart.sample_points(rng, 10):
    for k, v in commuting_pair_residuals(I, J, q, rng.standard_normal(4)).items():
        worst[k] = max(worst.get(k, 0.0), v)
for k in ("commute", "traceIJ", "Itheta", "eqJ", "to", "sigma", "deromega",
          "nablath", "et"):
    print(f"  {k:<10} {worst[k]:.2e}")

print()
print("Hamiltonian 2-form residual for sigma~ = e^phi sigma:")
pot = PotentialField(J)
worst_t = max(hamiltonian_form_residual(I, J, q, rng.standard_normal(4), pot)
              for q in chart.sample_points(rng, 10))
print(f"  max over 10 samples: {worst_t:.2e}  (tolerance 1e-3)")
