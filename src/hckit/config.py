"""Tolerance configuration shared by every numerical routine in the package.

A single immutable value is threaded through all modules so that there is one
knob surface.  Every threshold below is relative to a locally computed scale
unless noted otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    # dense symmetric eigensolver
    jacobi_off_tol: float = 1e-12      # off-diagonal stop, relative to max |entry|
    jacobi_max_sweeps: int = 100
    rank_tol: float = 1e-10            # singular-value cutoff, relative to largest
    psd_tol: float = 1e-9              # "is PSD" slack on eigenvalues
    range_tol: float = 1e-8            # residual slack for "m in range(M)"

    # planar cones
    indep_tol: float = 1e-10           # |det| > indep_tol * |b| * |c|
    cone_tol: float = 1e-9             # default membership slack on coordinates

    # implicit conics
    class_tol: float = 1e-9            # classification thresholds
    on_tol: float = 1e-7               # "point lies on the curve", relative
    root_tol: float = 1e-9             # a root at t <= root_tol counts as t <= 0

    # line images of quadratic maps
    det_tol: float = 1e-9              # case split on |alpha*beta' - alpha'*beta|
    line_tol: float = 1e-12            # endpoints equal => degenerate line

    # witness construction
    cert_tol: float = 1e-6             # certificate residual, relative
    eq_tol: float = 1e-9               # "w coincides with an endpoint" trigger

    def with_overrides(self, **kwargs: float) -> "ToleranceConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = ToleranceConfig()


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the multiplier/counterexample search in :mod:`hckit.slemma`."""

    lambda_max: float = 1e6
    slack: float = 1e-7
    strict_margin: float = 1e-10
    feas_tol: float = 1e-9
    restarts: int = 64
    golden_iters: int = 200
    descent_box: float = 10.0
    seed: int = 0


DEFAULT_SEARCH = SearchConfig()
