"""The Einstein-case identity chain on the flat inverted metric (lambda = 0).

Every identity of the derivation is evaluated pointwise through two
independent code paths and reported as a scale-free residual.

Run:  python3 demos/03_einstein_chain.py
"""

import numpy as np

from lckgeo import zoo
from lckgeo.identities import einstein_chain_residuals, einstein_deviation

DESCRIPTIONS = {
    "Sth": "S theta = 1/2 d|theta|^2 + |theta|^2 theta",
    "trS": "tr S = |theta|^2 - delta theta",
    "nablaJth": "nabla(J theta) = (JS - J theta (x) theta - |theta|^2 J)",
    "diffJth": "d(J theta) = 2 JS + theta ^ J theta - 2 |theta|^2 Omega",
    "lieJth": "[theta, J theta] = -|theta|^2 J theta",
    "codiffth": "delta(theta ^ J theta) = (delta theta + |theta|^2) J theta",
    "codiffom": "delta(|theta|^2 Omega) = -J d|theta|^2 + (2-2n)|theta|^2 J theta",
    "eqJdel2": "delta S = (delta theta) theta - 1/2 d|theta|^2 + d delta theta",
    "eqJdel3": "J delta(JS) + delta S = -(delta theta) theta - d|theta|^2 - ...",
    "summ": "3 (delta theta) theta + d delta theta + d|theta|^2 + ... = 0",
    "eqf": "d f = (2 lambda - 3 f + (4-2n)|theta|^2) theta",
}

# every metric differenced on a stencil, as in fd mode
entry = zoo.stencil_only(zoo.flat_inversion(2))
H = entry.main_structure
rng = np.random.default_rng(42)
pts = H.chart.sample_points(rng, 25)

dev = max(einstein_deviation(H, p, 0.0) for p in pts[:5])
print(f"Einstein gate: max |Ric - 0 * g| residual = {dev:.2e}")
print()
print(f"{'identity':<10} {'max residual':>14}   formula")
print("-" * 76)

worst = {}
for p in pts:
    for name, value in einstein_chain_residuals(H, p, 0.0).items():
        worst[name] = max(worst.get(name, 0.0), value)
for name in DESCRIPTIONS:
    print(f"{name:<10} {worst[name]:>14.3e}   {DESCRIPTIONS[name]}")
print("-" * 76)
print(f"all {len(worst)} residuals < 1e-3:",
      all(v < 1e-3 for v in worst.values()))
