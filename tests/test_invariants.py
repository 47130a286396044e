"""Large-sample invariant sweeps across the whole zoo (>= 100 points each)."""

import numpy as np

from lckgeo.calculus import christoffel_components, lowered_riemann
from lckgeo.calculus import metric_compatibility_defect
from lckgeo.hermitian import lck_residual, lee_form_parts
from lckgeo.zoo import stencil_only


def _main_charts(hopf2, flat_inv2, warped_sin, calabi_sin):
    return [stencil_only(e).main_structure.chart
            for e in (hopf2, flat_inv2, warped_sin, calabi_sin)]


def test_connection_invariants_at_scale(hopf2, flat_inv2, warped_sin,
                                        calabi_sin, rng):
    """Gamma symmetric in its lower indices and nabla g < tol_id, 100 points."""
    for chart in _main_charts(hopf2, flat_inv2, warped_sin, calabi_sin):
        for p in chart.sample_points(rng, 100):
            G = christoffel_components(chart, p)
            assert np.max(np.abs(G - np.transpose(G, (0, 2, 1)))) < 1e-12
            assert metric_compatibility_defect(chart, p) < 1e-4


def test_riemann_invariants_at_scale(hopf2, flat_inv2, warped_sin, calabi_sin,
                                     rng):
    """Riemann antisymmetries and first Bianchi < tol_id, 100 points."""
    for chart in _main_charts(hopf2, flat_inv2, warped_sin, calabi_sin):
        for p in chart.sample_points(rng, 100):
            R = lowered_riemann(chart, p)
            scale = 1.0 + np.max(np.abs(R))
            assert np.max(np.abs(R + np.transpose(R, (1, 0, 2, 3)))) < 1e-4 * scale
            assert np.max(np.abs(R + np.transpose(R, (0, 1, 3, 2)))) < 1e-4 * scale
            bianchi = (R + np.transpose(R, (0, 2, 3, 1))
                       + np.transpose(R, (0, 3, 1, 2)))
            assert np.max(np.abs(bianchi)) < 1e-4 * scale


def test_lee_form_consistency_at_scale(hopf2, flat_inv2, warped_sin,
                                       calabi_sin, rng):
    """|dOmega - 2 theta ^ Omega| < tol_id for every main structure, 100 pts."""
    for entry in (hopf2, flat_inv2, warped_sin, calabi_sin):
        H = stencil_only(entry).main_structure
        for p in H.chart.sample_points(rng, 100):
            assert lck_residual(lee_form_parts(H, p)) < 1e-4, entry.label
