"""Tolerance configuration shared by every numerical routine in the package.

A single immutable value is threaded through all modules so that there is one
knob surface: no function takes a per-call tolerance that shadows a field
here, and the decision procedure's fixed bracket and margins are module
constants of :mod:`hckit.slemma`.  Every threshold below is relative to a
locally computed scale unless noted otherwise, and every field is read by
some code path: the eigendecomposition and SVD come from LAPACK and take no
knobs of their own, the witness runs on the image polynomials, which take no
conic classification threshold, and takes its point on a flat image from the
intermediate value theorem, which takes no on-curve tolerance.  Problem files
may still name a retired field (see ``hckit.problemio.RETIRED_TOLERANCES``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    # dense linear algebra (LAPACK eigh and SVD)
    rank_tol: float = 1e-10            # singular-value cutoff, relative to largest
    psd_tol: float = 1e-9              # "is PSD" slack on eigenvalues
    range_tol: float = 1e-8            # residual slack for "m in range(M)"

    # planar cones
    indep_tol: float = 1e-10           # |det| > indep_tol * |b| * |c|
    cone_tol: float = 1e-9             # default membership slack on coordinates

    # crossings of a parabola image
    root_tol: float = 1e-9             # crossing slack along a leg, times the data scale

    # line images of quadratic maps
    det_tol: float = 1e-9              # |alpha*beta' - alpha'*beta| vs the two rows' sizes
    line_tol: float = 1e-12            # endpoints equal => degenerate line

    # witness construction
    cert_tol: float = 1e-6             # certificate residual, relative
    eq_tol: float = 1e-9               # "w coincides with an endpoint" trigger

    def with_overrides(self, **kwargs: float) -> "ToleranceConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = ToleranceConfig()

