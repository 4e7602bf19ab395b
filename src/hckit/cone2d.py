"""Planar convex cones spanned by two linearly independent generators.

The cone is ``{lam*b + bet*c : lam >= 0, bet >= 0}``; all membership and
decomposition questions reduce to 2x2 coordinate arithmetic in the basis
``{b, c}``.  A :class:`Cone2` is valid by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import DegenerateCone

INDEP_TOL = 1e-10       # independent generators: |det| > INDEP_TOL * |b| * |c|


@dataclass(frozen=True)
class Cone2:
    """Cone generated by two independent 2-vectors ``b`` and ``c``.

    ``det`` is ``b x c`` and ``b_norm``, ``c_norm`` are ``|b|``, ``|c|``;
    all are fixed at construction, so coordinate queries take no norms.
    They are taken on Python floats with ``math.hypot``, so an overflow
    gives an infinite or NaN value and no warning.  Construction raises
    :class:`DegenerateCone` unless ``|det| > INDEP_TOL * |b| * |c|``; a NaN
    bound (``inf * 0`` from an overflowing norm) counts as dependent.
    """

    b: np.ndarray
    c: np.ndarray
    det: float = field(init=False)
    b_norm: float = field(init=False)
    c_norm: float = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float).reshape(2).copy()
        c = np.asarray(self.c, dtype=float).reshape(2).copy()
        b.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        (b0, b1), (c0, c1) = b.tolist(), c.tolist()
        object.__setattr__(self, "det", b0 * c1 - b1 * c0)
        object.__setattr__(self, "b_norm", math.hypot(b0, b1))
        object.__setattr__(self, "c_norm", math.hypot(c0, c1))
        if not abs(self.det) > INDEP_TOL * self.b_norm * self.c_norm:
            raise DegenerateCone(
                f"generators are numerically dependent (|det| = {abs(self.det):.3e})")


@dataclass(frozen=True)
class ConeCoords:
    lam: float
    bet: float


def positive_quadrant() -> Cone2:
    """The standard cone with generators (1, 0) and (0, 1)."""
    return Cone2((1.0, 0.0), (0.0, 1.0))


def coords(cone: Cone2, point) -> ConeCoords:
    """Coordinates of ``point`` in the basis ``{b, c}`` (Cramer's rule).

    ``det`` is nonzero by construction.  The arithmetic is on Python floats,
    so an overflow gives an infinite or NaN coordinate and no warning.
    """
    p0, p1 = np.asarray(point, dtype=float).reshape(2).tolist()
    (b0, b1), (c0, c1) = cone.b.tolist(), cone.c.tolist()
    return ConeCoords((p0 * c1 - p1 * c0) / cone.det, (b0 * p1 - b1 * p0) / cone.det)


def _within(cone: Cone2, point, tol: float) -> bool:
    """Membership with each coordinate's slack scaled by its Cramer numerator.

    The coordinate on ``b`` may fall to ``-tol * (1 + |p| |c| / |det|)`` and
    the one on ``c`` to ``-tol * (1 + |p| |b| / |det|)``: a long ``p`` may
    leave the cone by an angle of about ``tol``, a short one by ``tol``
    absolute.  A NaN, or an overflowing coordinate or slack, is outside.
    """
    p = np.asarray(point, dtype=float).reshape(2)
    co = coords(cone, p)
    p_norm = math.hypot(*p.tolist())
    lam_floor = -tol * (1.0 + p_norm * (cone.c_norm / abs(cone.det)))
    bet_floor = -tol * (1.0 + p_norm * (cone.b_norm / abs(cone.det)))
    if not all(map(math.isfinite, (co.lam, co.bet, lam_floor, bet_floor))):
        return False
    return co.lam >= lam_floor and co.bet >= bet_floor


def contains(cone: Cone2, point, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Membership test at ``cfg.cone_tol``, scaled per coordinate (see
    :func:`_within`, which the certificate verifier runs at ``cert_tol``)."""
    return _within(cone, point, cfg.cone_tol)


def sample(cone: Cone2, radius: float, rng_seed) -> np.ndarray:
    """Draw ``lam*b + bet*c`` with both coefficients uniform on [0, radius].

    ``rng_seed`` may be an int, a seed sequence, or an existing Generator;
    an int gives a deterministic output.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)
    lam, bet = rng.uniform(0.0, radius, size=2)
    return lam * cone.b + bet * cone.c
