"""Chart-based numerical workbench for locally conformally Kahler geometry.

Layers, bottom up:

* :mod:`lckgeo.charts` / :mod:`lckgeo.calculus` / :mod:`lckgeo.transport` --
  coordinate boxes with smooth metric fields, Christoffel symbols, curvature,
  exterior calculus, geodesics, parallel transport, line integrals;
* :mod:`lckgeo.hermitian` / :mod:`lckgeo.identities` -- Hermitian structures,
  Lee forms, and residual checkers for the lcK structure equations;
* :mod:`lckgeo.zoo` -- the explicit examples (Hopf, flat inversion, warped
  products, the Calabi circle-bundle Ansatz, Kahler bases);
* :mod:`lckgeo.holonomy` -- numerical restricted-holonomy estimation;
* :mod:`lckgeo.report` / :mod:`lckgeo.cli` -- verification suites, reports,
  and the ``lck`` command.
"""

from .charts import (Chart, Loop, coordinate_rectangle, polygon_loop,
                     segment_loop, wedge)
from .calculus import (christoffel, codifferential, exterior_derivative,
                       ricci_scalar, riemann)
from .transport import (geodesic, loop_integral, orthogonality_defect,
                        parallel_transport)
from .hermitian import (HermitianStructure, LeeData, conformal_rescale,
                        lee_form, nijenhuis_residual)
from .identities import (StructureClass, classify_structure,
                         einstein_chain_residuals, commuting_pair_residuals,
                         hamiltonian_form_residual, average_metric_residuals,
                         parallel_field_residuals, nabla_j_residual,
                         curvature_j_residuals, s_commutator_residual,
                         PotentialField)
from .zoo import (ProfileFn, ZooEntry, calabi_ansatz, flat_inversion, hopf,
                  kaehler_bases, named_profile, warped_vaisman_gck, euclidean)
from .holonomy import (HolonomyEstimate, classify_algebra, curvature_span,
                       loop_holonomy)
from .report import Report, SuiteConfig, emit, resolve_manifold, run

__version__ = "0.1.0"

__all__ = [
    "Chart", "Loop", "coordinate_rectangle", "polygon_loop",
    "segment_loop", "wedge", "christoffel", "codifferential",
    "exterior_derivative", "ricci_scalar", "riemann", "geodesic",
    "loop_integral", "orthogonality_defect", "parallel_transport",
    "HermitianStructure", "LeeData", "conformal_rescale", "lee_form",
    "nijenhuis_residual", "StructureClass", "classify_structure",
    "einstein_chain_residuals", "commuting_pair_residuals",
    "hamiltonian_form_residual", "average_metric_residuals",
    "parallel_field_residuals", "nabla_j_residual", "curvature_j_residuals",
    "s_commutator_residual", "PotentialField", "ProfileFn", "ZooEntry",
    "calabi_ansatz", "flat_inversion", "hopf", "kaehler_bases",
    "named_profile", "warped_vaisman_gck", "euclidean", "HolonomyEstimate",
    "classify_algebra", "curvature_span", "loop_holonomy", "Report",
    "SuiteConfig", "emit", "resolve_manifold", "run",
]
