"""Dense small-scale real linear algebra used by every other module.

Provides a cyclic Jacobi symmetric eigensolver, numerical rank and null-space
bases via the Gram matrix, minimum-norm solutions of rectangular systems, and
global minimization of a quadratic function.  Everything is plain ``float64``
numpy at desk scale (n up to a few hundred); there is no sparse or complex
support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .errors import InternalNumerics


def symmetrize(entries) -> np.ndarray:
    """Return the symmetric part ``(E + E^T) / 2`` as a float array."""
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class EigenDecomp:
    """Eigendecomposition of a symmetric matrix.

    ``eigenvalues`` is sorted ascending; ``eigenvectors`` holds the matching
    orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(matrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> EigenDecomp:
    """Diagonalize a symmetric matrix with the cyclic Jacobi iteration.

    The input is symmetrized first, so mildly asymmetric storage is accepted.
    Iteration stops once every off-diagonal entry is below
    ``cfg.jacobi_off_tol`` times the largest input magnitude; the sweep cap
    signals :class:`InternalNumerics` (it is not reachable for genuine
    symmetric input at desk scale).  Deterministic for identical input.
    """
    a = symmetrize(matrix)
    n = a.shape[0]
    if n < 1:
        raise ValueError("matrix dimension must be >= 1")
    v = np.eye(n)
    scale = float(np.max(np.abs(a)))
    if scale == 0.0 or n == 1:
        order = np.argsort(np.diag(a), kind="stable")
        return EigenDecomp(np.diag(a)[order].copy(), v[:, order].copy())
    thresh = cfg.jacobi_off_tol * scale

    converged = False
    for _ in range(cfg.jacobi_max_sweeps):
        off = np.max(np.abs(a - np.diag(np.diag(a))))
        if off <= thresh:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                # closed forms keep the pivot entries exact
                a[p, p] = c * c * app - 2.0 * s * c * apq + s * s * aqq
                a[q, q] = s * s * app + 2.0 * s * c * apq + c * c * aqq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    else:
        converged = False
    if not converged:
        off = np.max(np.abs(a - np.diag(np.diag(a))))
        if off > thresh:
            raise InternalNumerics(
                f"Jacobi iteration did not converge in {cfg.jacobi_max_sweeps}"
                f" sweeps (off-diagonal {off:.3e} > {thresh:.3e})"
            )

    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return EigenDecomp(eigenvalues[order], v[:, order].copy())


# Forming H^T H squares the spectrum, so an exactly singular direction can
# surface with a Gram eigenvalue as large as a few hundred ulp of the top
# one; eigenvalues below this relative floor are numerical zeros no matter
# how small the requested singular-value threshold is.
_GRAM_EIG_FLOOR = 1e-13


def _gram_cut(lam_max: float, tol: float) -> float:
    return lam_max * max(tol * tol, _GRAM_EIG_FLOOR)


def singular_values(matrix, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Singular values of a rectangular matrix via ``eigh`` of the Gram matrix."""
    h = np.asarray(matrix, dtype=float)
    gram = h.T @ h
    dec = eigh(gram, cfg)
    return np.sqrt(np.clip(dec.eigenvalues, 0.0, None))[::-1]


def numerical_rank(matrix, tol: float | None = None,
                   cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Number of singular values above ``tol`` times the largest one."""
    if tol is None:
        tol = cfg.rank_tol
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] == 0 or not np.any(h):
        return 0
    lam = eigh(h.T @ h, cfg).eigenvalues
    return int(np.sum(lam > _gram_cut(float(lam[-1]), tol)))


def null_space_basis(matrix, tol: float | None = None,
                     cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Orthonormal basis of the (numerical) kernel of an m-by-n matrix.

    Returns an n-by-k array whose columns span ``{x : H x = 0}`` with
    ``k = n - numerical_rank(H)``.  An empty matrix (m = 0) encodes "no
    constraints" and yields the identity.  ``k`` may be 0.
    """
    if tol is None:
        tol = cfg.rank_tol
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {h.shape}")
    m, n = h.shape
    if m == 0 or not np.any(h):
        return np.eye(n)
    dec = eigh(h.T @ h, cfg)
    lam = dec.eigenvalues
    keep = lam <= _gram_cut(float(lam[-1]), tol)
    return dec.eigenvectors[:, keep].copy()


def min_norm_solution(matrix, rhs, tol: float | None = None,
                      cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Minimum-norm solution of ``H x = d`` through the Gram pseudoinverse.

    Two refinement passes absorb the accuracy lost to squaring the spectrum;
    the corrections live in the row space, so the minimum-norm property is
    preserved.  Does not check consistency; callers compare the residual
    themselves.
    """
    if tol is None:
        tol = cfg.rank_tol
    h = np.asarray(matrix, dtype=float)
    d = np.asarray(rhs, dtype=float)
    m, n = h.shape
    if m == 0:
        return np.zeros(n)
    dec = eigh(h.T @ h, cfg)
    lam = dec.eigenvalues
    lam_max = float(lam[-1]) if lam.size else 0.0
    if lam_max <= 0.0:
        return np.zeros(n)
    cut = _gram_cut(lam_max, tol)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > cut)

    def apply_pinv(vec):
        coords = dec.eigenvectors.T @ (h.T @ vec)
        return dec.eigenvectors @ (inv * coords)

    x = apply_pinv(d)
    for _ in range(2):
        x = x + apply_pinv(d - h @ x)
    return x


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


def min_of_quadratic(matrix, linear, constant: float,
                     cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> MinResult:
    """Globally minimize ``q(x) = <Mx, x> + <m, x> + m0`` over all of R^n.

    Bounded requires ``M`` PSD up to ``cfg.psd_tol`` and ``m`` in the range
    of ``M`` up to ``cfg.range_tol``; the infimum is then
    ``m0 - (1/4) m^T M^+ m``, attained where ``M x = -m/2``.  Otherwise a
    certified descent direction is returned: either an eigenvector with
    negative eigenvalue, or a kernel direction along which the linear term
    decreases.
    """
    m0 = float(constant)
    mvec = np.asarray(linear, dtype=float)
    dec = eigh(matrix, cfg)
    lam = dec.eigenvalues
    vecs = dec.eigenvectors
    scale = 1.0 + float(np.max(np.abs(lam)))
    if lam[0] < -cfg.psd_tol * scale:
        return MinResult(bounded=False, direction=vecs[:, 0].copy())
    coords = vecs.T @ mvec
    near_null = np.abs(lam) <= cfg.psd_tol * scale
    resid = float(np.linalg.norm(coords[near_null])) if np.any(near_null) else 0.0
    if resid > cfg.range_tol * (1.0 + float(np.linalg.norm(mvec))):
        idx = int(np.argmax(np.where(near_null, np.abs(coords), -np.inf)))
        d = -math.copysign(1.0, coords[idx]) * vecs[:, idx]
        return MinResult(bounded=False, direction=d)
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=~near_null)
    minimizer = vecs @ (-0.5 * inv * coords)
    value = m0 - 0.25 * float(np.sum(inv * coords * coords))
    return MinResult(bounded=True, value=value, minimizer=minimizer)
