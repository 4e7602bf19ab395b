"""Convexity certificates for planar images of quadratic maps.

Given a pair of quadratic functions ``F = (f, g)`` on R^n and a convex cone
spanned by two independent plane vectors, the set ``F(R^n) + cone`` is
convex; this package turns that fact into executable artifacts: it
classifies images of lines (point / ray / line / parabola), constructs
explicit convex-combination witnesses with audit traces, decides the
two-quadratic alternative (multiplier vs. counterexample), and restricts
everything to affine manifolds.
"""

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .cone2d import Cone2, ConeCoords, contains, coords, positive_quadrant
from .conic2d import Conic2
from .quadmap import (AffineManifold, LineImage, LineImageKind, QuadraticForm,
                      QuadraticMap, classify_line_image, eval_map,
                      manifold_from_linear_system, restrict_to_manifold)
from .slemma import Outcome, SLemmaVerdict, decide, dual_lower_bound, slater_check
from .smallmat import MinResult, eigh, min_of_quadratic, symmetrize
from .witness import (Branch, ConePoint, ConvexityReport, WitnessCertificate,
                      cone_point, convexity_probe, verify_certificate,
                      witness_convex_combination)

__version__ = "0.1.0"

__all__ = [
    "AffineManifold", "Branch", "Cone2", "ConeCoords", "ConePoint",
    "Conic2", "ConvexityReport", "DEFAULT_TOLERANCES", "LineImage",
    "LineImageKind", "MinResult", "Outcome", "QuadraticForm",
    "QuadraticMap", "SLemmaVerdict", "ToleranceConfig", "WitnessCertificate",
    "classify_line_image", "cone_point", "contains", "convexity_probe",
    "coords", "decide", "dual_lower_bound", "eigh", "eval_map",
    "manifold_from_linear_system", "min_of_quadratic", "positive_quadrant",
    "restrict_to_manifold", "slater_check", "symmetrize", "verify_certificate",
    "witness_convex_combination",
]
