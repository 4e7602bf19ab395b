"""Tolerance configuration: the values a problem may set.

A single immutable value is threaded through the modules that read it, so
there is one knob surface: no function takes a per-call tolerance that
shadows a field here.  Each field is read by some code path: ``rank_tol``
decides the dimension of the user's manifold, ``cone_tol`` the slack of
cone membership on input, and ``cert_tol`` what a certificate must meet.
Thresholds fixed by the arithmetic of one test are module constants next to
the function that reads them: ``PSD_TOL`` and ``RANGE_TOL`` in
:mod:`hckit.smallmat`, ``DET_TOL`` and ``LINE_TOL`` in :mod:`hckit.quadmap`,
``EQ_TOL`` and ``ROOT_TOL`` in :mod:`hckit.witness`, ``INDEP_TOL`` in
:mod:`hckit.cone2d`, and the decision procedure's bracket and margins in
:mod:`hckit.slemma`.  Problem files may still name a retired field (see
``hckit.problemio.RETIRED_TOLERANCES``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ToleranceConfig:
    rank_tol: float = 1e-10            # singular-value cutoff, relative to largest
    cone_tol: float = 1e-9             # default membership slack on coordinates
    cert_tol: float = 1e-6             # certificate residual, relative

    def with_overrides(self, **kwargs: float) -> "ToleranceConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_TOLERANCES = ToleranceConfig()
