"""Implicit conics ``psi(y) = y^T A y + a^T y + a0`` in the plane.

Besides classification into the standard affine normal-form families, this
module implements the two geometric facts the witness construction rests on:

* every strict convex combination of two points on a (PSD-normalized)
  parabola evaluates negative under ``psi``;
* from any point with ``psi < 0``, at least one of the two closed rays spanned
  by a pair of independent directions meets the parabola.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import cone2d
from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import IdenticallyZero, LemmaViolated, NotAParabola, PreconditionViolated
from .smallmat import eigh, quadratic_roots, symmetrize


@dataclass(frozen=True)
class Conic2:
    """Quadratic curve data: symmetric 2x2 ``A``, linear ``a``, constant ``a0``.

    A conic with both ``A`` and ``a`` zero is rejected (the zero set would be
    empty or the whole plane regardless of geometry).
    """

    A: np.ndarray
    a: np.ndarray
    a0: float

    def __post_init__(self):
        A = symmetrize(self.A)
        if A.shape != (2, 2):
            raise ValueError(f"A must be 2x2, got {A.shape}")
        a = np.asarray(self.a, dtype=float).reshape(2).copy()
        if not np.any(A) and not np.any(a):
            raise ValueError("A and a cannot both be zero")
        A.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "a0", float(self.a0))

    def evaluate(self, point) -> float:
        y = np.asarray(point, dtype=float).reshape(2)
        return float(y @ self.A @ y + self.a @ y + self.a0)

    def negated(self) -> "Conic2":
        return Conic2(-self.A, -self.a, -self.a0)

    def coefficient_scale(self) -> float:
        return 1.0 + max(float(np.max(np.abs(self.A))),
                         float(np.max(np.abs(self.a))), abs(self.a0))


class ConicClass(enum.Enum):
    ELLIPSE = "Ellipse"
    HYPERBOLA = "Hyperbola"
    PARABOLA = "Parabola"
    DEGENERATE_LINES = "DegenerateLines"
    DEGENERATE_POINT = "DegeneratePoint"
    EMPTY = "Empty"


def _point_scale(conic: Conic2, point) -> float:
    y = np.asarray(point, dtype=float).reshape(2)
    return conic.coefficient_scale() * (1.0 + float(np.max(np.abs(y)))) ** 2


def classify(conic: Conic2, tol: float | None = None,
             cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> ConicClass:
    """Classify the zero set by eigenvalue signs and extended degeneracy.

    The tag only depends on the zero set, so it is invariant under scaling
    all coefficients by a nonzero constant.  Degenerate inputs receive
    degenerate tags rather than raising.
    """
    if tol is None:
        tol = cfg.class_tol
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    A, a, a0 = conic.A, conic.a, conic.a0
    norm_a_mat = float(np.max(np.abs(A)))
    norm_all = max(norm_a_mat, float(np.max(np.abs(a))), abs(a0))
    if norm_a_mat <= tol * norm_all:
        # effectively affine: a single line, or nothing if a is negligible too
        if float(np.max(np.abs(a))) <= tol * norm_all:
            return ConicClass.EMPTY
        return ConicClass.DEGENERATE_LINES

    dec = eigh(A, cfg)
    lam = dec.eigenvalues
    spectral = float(np.max(np.abs(lam)))
    zero = np.abs(lam) <= tol * spectral

    if not zero[0] and not zero[1]:
        if lam[0] * lam[1] > 0.0:
            sgn = math.copysign(1.0, lam[0])
            center_coords = (dec.eigenvectors.T @ a) / lam
            height = a0 - 0.25 * float(center_coords @ (dec.eigenvectors.T @ a))
            signed = sgn * height
            if signed < -tol * norm_all:
                return ConicClass.ELLIPSE
            if signed > tol * norm_all:
                return ConicClass.EMPTY
            return ConicClass.DEGENERATE_POINT
        det3 = _extended_det(A, a, a0)
        if abs(det3) <= tol * norm_all ** 3:
            return ConicClass.DEGENERATE_LINES
        return ConicClass.HYPERBOLA

    # rank one: parabola iff the linear part leaves the kernel direction
    kernel_idx = 0 if zero[0] else 1
    other_idx = 1 - kernel_idx
    u = dec.eigenvectors[:, kernel_idx]
    v = dec.eigenvectors[:, other_idx]
    if abs(float(a @ u)) > tol * norm_all:
        return ConicClass.PARABOLA
    lam_nz = float(lam[other_idx])
    disc = float(a @ v) ** 2 - 4.0 * lam_nz * a0
    if disc < -tol * norm_all ** 2:
        return ConicClass.EMPTY
    return ConicClass.DEGENERATE_LINES


def _extended_det(A, a, a0) -> float:
    b = np.zeros((3, 3))
    b[:2, :2] = A
    b[:2, 2] = 0.5 * a
    b[2, :2] = 0.5 * a
    b[2, 2] = a0
    return float(np.linalg.det(b))


def normalize_parabola(conic: Conic2, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> Conic2:
    """Flip the overall sign if needed so the quadratic part is PSD.

    The zero set is unchanged; applying twice equals applying once.
    """
    if classify(conic, cfg=cfg) is not ConicClass.PARABOLA:
        raise NotAParabola("input does not classify as a parabola")
    lam = eigh(conic.A, cfg).eigenvalues
    if lam[0] + lam[1] < 0.0:
        return conic.negated()
    return conic


def _require_normalized_parabola(conic: Conic2, cfg: ToleranceConfig):
    if classify(conic, cfg=cfg) is not ConicClass.PARABOLA:
        raise PreconditionViolated("conic is not a parabola")
    lam = eigh(conic.A, cfg).eigenvalues
    scale = 1.0 + float(np.max(np.abs(lam)))
    if lam[0] < -cfg.psd_tol * scale:
        raise PreconditionViolated("parabola is not PSD-normalized")


def chord_interior_sign(conic: Conic2, x, y, t: float,
                        cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Evaluate a PSD-normalized parabola at an interior chord point.

    ``x`` and ``y`` must be distinct points on the curve and ``t`` strictly
    inside (0, 1).  The returned value is negative: the restriction of the
    quadratic to the chord vanishes at both endpoints and has positive
    leading coefficient, so it is negative strictly between them.
    """
    _require_normalized_parabola(conic, cfg)
    xp = np.asarray(x, dtype=float).reshape(2)
    yp = np.asarray(y, dtype=float).reshape(2)
    if abs(conic.evaluate(xp)) > cfg.on_tol * _point_scale(conic, xp):
        raise PreconditionViolated("x does not lie on the curve")
    if abs(conic.evaluate(yp)) > cfg.on_tol * _point_scale(conic, yp):
        raise PreconditionViolated("y does not lie on the curve")
    sep = float(np.max(np.abs(xp - yp)))
    if sep <= 1e-14 * (1.0 + float(np.max(np.abs(xp)))):
        raise PreconditionViolated("chord endpoints coincide")
    if not 0.0 < t < 1.0:
        raise PreconditionViolated("t must lie strictly inside (0, 1)")
    return conic.evaluate(xp + t * (yp - xp))


def ray_intersections(conic: Conic2, z, direction,
                      cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> list[float]:
    """Parameters ``t <= root_tol`` with ``psi(z + t*dir) = 0``.

    Returned sorted descending (closest to 0 first).  Handles the linear and
    constant degenerations of the restriction; raises
    :class:`IdenticallyZero` when the whole line sits inside the zero set.
    """
    zp = np.asarray(z, dtype=float).reshape(2)
    d = np.asarray(direction, dtype=float).reshape(2)
    if not np.any(d):
        raise ValueError("direction must be nonzero")
    alpha = float(d @ conic.A @ d)
    beta = float(2.0 * (zp @ conic.A @ d) + conic.a @ d)
    gamma = conic.evaluate(zp)
    mag = max(abs(alpha), abs(beta), abs(gamma))
    geom = max(1.0, float(np.max(np.abs(zp))), float(np.max(np.abs(d)))) ** 2
    if mag <= 1e-13 * conic.coefficient_scale() * geom:
        raise IdenticallyZero("line lies inside the conic zero set")
    return sorted((t for t in quadratic_roots(alpha, beta, gamma)
                   if t <= cfg.root_tol), reverse=True)


@dataclass(frozen=True)
class RayHit:
    """A curve crossing ``z + t * direction`` with ``t <= 0`` (up to slack)."""

    direction_label: str
    direction: np.ndarray
    t: float
    point: np.ndarray


def first_negative_ray_hit(conic: Conic2, z, cone: cone2d.Cone2,
                           cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> RayHit:
    """Hit of the parabola by one of the two backward rays from ``z``.

    Requires a PSD-normalized parabola and ``psi(z) < 0``; under those
    hypotheses at least one of the rays ``{z + t*b : t <= 0}`` and
    ``{z + t*c : t <= 0}`` meets the curve.  Both rays are examined and the
    valid root closest to 0 wins, ties going to the ``b`` ray.  Absence of
    any root signals :class:`LemmaViolated` (numerical breakdown or a broken
    precondition), never a silent fallback.
    """
    _require_normalized_parabola(conic, cfg)
    zp = np.asarray(z, dtype=float).reshape(2)
    if not conic.evaluate(zp) < 0.0:
        raise PreconditionViolated("psi(z) must be strictly negative")
    candidates: list[tuple[float, str, np.ndarray]] = []
    for label, d in (("b", cone.b), ("c", cone.c)):
        roots = ray_intersections(conic, zp, d, cfg)
        if roots:
            candidates.append((roots[0], label, d))
    if not candidates:
        raise LemmaViolated("neither backward ray meets the parabola")
    # max t is closest to zero; tie resolved in favor of the b ray by order
    best = max(candidates, key=lambda item: (item[0], item[1] == "b"))
    t, label, d = best
    return RayHit(direction_label=label, direction=d.copy(), t=float(t),
                  point=zp + t * d)
