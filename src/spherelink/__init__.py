"""spherelink: numerical linking numbers on the round n-sphere.

Computes Lk(K, L) for disjoint closed oriented submanifolds K^k, L^l of
S^n (k + l = n - 1) by three routes -- a direct geodesic distance-kernel
integral over K x L, an antipodally-paired convolution variant, and the
degree of the geodesic join-sweep map -- validated at every order against
the oracle, the classical Gauss integral of the stereographic images in
R^n, integrated in its exact form on S^n with no projection.  The join
degree's "reduced" variant is the direct kernel carrying the join sign
(the join parameter integrates out exactly); its "full" variant integrates
the join map's Jacobian determinant, with exact chain-rule derivatives,
over K x L x [0, 1] and is the independent check.

The package exports the catalog constructors, the evaluators with their
grid, report and rounding, the kernels, the oracle and `sphere_volume`.
Every route works on whole arrays of points and tangent frames, which stay
private to `engine`.
"""

__version__ = "0.1.0"

from .catalog import (
    OrientedSubmanifold,
    antipodal_image,
    clifford_torus_curve,
    fourier_curve,
    great_subsphere,
    hopf_fiber,
    orientation_reversed,
    rotated,
    small_round_sphere,
)
from .engine import (
    DisjointnessError,
    GridSpec,
    LinkingReport,
    evaluate_corollary,
    evaluate_join_degree,
    evaluate_main_theorem,
    round_to_linking,
    sign_factor,
)
from .kernels import KernelEvaluator, convolution, phi, phi_kernel_ratio
from .oracle import oracle_linking
from .spheregeom import sphere_volume

__all__ = [
    "__version__",
    "OrientedSubmanifold",
    "antipodal_image",
    "clifford_torus_curve",
    "fourier_curve",
    "great_subsphere",
    "hopf_fiber",
    "orientation_reversed",
    "rotated",
    "small_round_sphere",
    "DisjointnessError",
    "GridSpec",
    "LinkingReport",
    "evaluate_corollary",
    "evaluate_join_degree",
    "evaluate_main_theorem",
    "round_to_linking",
    "sign_factor",
    "KernelEvaluator",
    "convolution",
    "phi",
    "phi_kernel_ratio",
    "oracle_linking",
    "sphere_volume",
]
