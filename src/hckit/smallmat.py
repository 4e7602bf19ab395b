"""Dense small-scale real linear algebra used by every other module.

Provides the symmetric eigendecomposition, global minimization of a
quadratic function, the real roots of a scalar quadratic, and the LAPACK
guard shared with :func:`hckit.quadmap.manifold_from_linear_system` (whose
one SVD gives rank, kernel and min-norm solution).  The matrix work is
LAPACK through numpy, ``np.linalg.eigh`` for symmetric matrices.
Everything is plain ``float64`` at desk scale (n up to a few hundred);
there is no sparse or complex support.  :func:`min_of_quadratic` tests
PSD and range at the module constants ``PSD_TOL`` and ``RANGE_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalNumerics

PSD_TOL = 1e-9      # "is PSD" slack on eigenvalues, relative to 1 + max|eigenvalue|
RANGE_TOL = 1e-8    # residual slack for "m in range(M)", relative to 1 + |m|


def symmetrize(entries) -> np.ndarray:
    """Return the symmetric part ``(E + E^T) / 2`` as a float array."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def _lapack(routine, a: np.ndarray):
    """Run a numpy.linalg routine; failures raise :class:`InternalNumerics`.

    A non-finite entry is refused up front: LAPACK would return NaN from
    ``eigh`` but raise from ``svd``.
    """
    if not np.all(np.isfinite(a)):
        raise InternalNumerics(f"{routine.__name__}: matrix has a non-finite entry")
    try:
        return routine(a)
    except np.linalg.LinAlgError as exc:
        raise InternalNumerics(f"{routine.__name__}: {exc}") from exc


def eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a symmetric matrix with LAPACK (``np.linalg.eigh``).

    Returns numpy's named tuple: ``eigenvalues`` sorted ascending and
    ``eigenvectors`` holding the matching orthonormal eigenvectors as
    columns.  The input is symmetrized first, so mildly asymmetric storage
    is accepted.  Deterministic for identical input.  A non-finite entry or
    a LAPACK failure raises :class:`InternalNumerics`.
    """
    a = symmetrize(matrix)
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    return _lapack(np.linalg.eigh, a)


@dataclass(frozen=True)
class MinResult:
    """Outcome of global quadratic minimization.

    ``bounded`` selects the payload: a finite infimum ``value`` attained at
    ``minimizer``, or a descent ``direction`` along which the function is
    unbounded below.
    """

    bounded: bool
    value: float | None = None
    minimizer: np.ndarray | None = None
    direction: np.ndarray | None = None


def min_of_quadratic(matrix, linear, constant: float) -> MinResult:
    """Globally minimize ``q(x) = <Mx, x> + <m, x> + m0`` over all of R^n.

    Bounded requires ``M`` PSD up to ``PSD_TOL`` and ``m`` in the range of
    ``M`` up to ``RANGE_TOL``; the infimum is then
    ``m0 - (1/4) m^T M^+ m``, attained where ``M x = -m/2``.  Eigenvalues
    count as zero only up to ``eigh``'s rounding level, so a small positive
    one keeps its term and the value is not overstated.  Otherwise a
    certified descent direction is returned: either an eigenvector with
    negative eigenvalue, or a kernel direction along which the linear term
    decreases.
    """
    m0 = float(constant)
    mvec = np.asarray(linear, dtype=float)
    lam, vecs = eigh(matrix)
    scale = 1.0 + float(np.max(np.abs(lam)))
    if lam[0] < -PSD_TOL * scale:
        return MinResult(bounded=False, direction=vecs[:, 0].copy())
    coords = vecs.T @ mvec
    # eigenvalues from -PSD_TOL*scale up to eigh's rounding level count as
    # zero; every larger one, however small, keeps its term
    near_null = lam <= lam.size * np.finfo(float).eps * scale
    resid = float(np.linalg.norm(coords[near_null])) if np.any(near_null) else 0.0
    if resid > RANGE_TOL * (1.0 + float(np.linalg.norm(mvec))):
        idx = int(np.argmax(np.where(near_null, np.abs(coords), -np.inf)))
        d = -math.copysign(1.0, coords[idx]) * vecs[:, idx]
        return MinResult(bounded=False, direction=d)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=~near_null)
    minimizer = vecs @ (-0.5 * inv * coords)
    value = m0 - 0.25 * float(np.sum(inv * coords * coords))
    return MinResult(bounded=True, value=value, minimizer=minimizer)


def quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of the scalar polynomial ``a t^2 + b t + c``.

    A leading coefficient at most 1e-14 of the largest one makes the
    polynomial linear; if the linear coefficient is that small too (or the
    polynomial is zero) there is no root.  Otherwise the cancellation-free
    form ``q = -(b + sign(b) sqrt(disc))/2`` gives the roots ``q/a`` and
    ``c/q``; a double root is listed once.  The coefficients are scaled by a
    power of two first (exact, roots unchanged), so nothing overflows.
    """
    mag = max(abs(a), abs(b), abs(c))
    if abs(a) <= 1e-14 * mag:
        if abs(b) <= 1e-14 * mag:
            return []
        return [-c / b]
    exp = math.frexp(mag)[1]
    a, b, c = math.ldexp(a, -exp), math.ldexp(b, -exp), math.ldexp(c, -exp)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b))
    if q == 0.0:
        # b == 0 and c == 0: double root at 0
        return [0.0]
    r1 = q / a
    r2 = c / q
    return [r1] if r1 == r2 else [r1, r2]
