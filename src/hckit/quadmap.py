"""Pairs of quadratic functions as maps into the plane.

The central operation classifies the image of a straight line under
``F = (f, g)``: it is a point, a ray, a straight line, or a parabola.  The
classified image keeps the two image polynomials ``P(t) = F(x(t))``, and
all later work runs on them: the parameter of a point on a parabola image
is one affine map, and the side of a point against it is one polynomial
evaluation.  The implicit conic equation of a parabola is expanded on
demand, for reporting only.  Restriction to affine manifolds
``x0 + range(K)`` yields another quadratic map, so every operation
transfers.  The classification's two thresholds are the module constants
``DET_TOL`` and ``LINE_TOL``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLERANCES, ToleranceConfig
from .conic2d import Conic2
from .errors import (DegenerateLine, DimensionMismatch, InconsistentSystem,
                     InternalNumerics, PreconditionViolated)
from .smallmat import _lapack, symmetrize

DET_TOL = 1e-9      # |alpha*beta' - alpha'*beta| vs the two rows' sizes
LINE_TOL = 1e-12    # endpoints equal => degenerate line


@dataclass(frozen=True)
class QuadraticForm:
    """One scalar quadratic ``q(x) = <Mx, x> + <m, x> + m0`` on R^n.

    The matrix is symmetrized on construction.  ``n = 0`` is allowed and
    makes the form constant (it arises from restricting to a 0-dimensional
    manifold).
    """

    matrix: np.ndarray
    linear: np.ndarray
    constant: float

    def __post_init__(self):
        mat = symmetrize(self.matrix)
        lin = np.asarray(self.linear, dtype=float).reshape(-1).copy()
        if lin.shape[0] != mat.shape[0]:
            raise DimensionMismatch(
                f"linear term has length {lin.shape[0]}, matrix is {mat.shape[0]}x{mat.shape[0]}"
            )
        mat.setflags(write=False)
        lin.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "constant", float(self.constant))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x) -> float:
        xv = np.asarray(x, dtype=float).reshape(-1)
        if xv.shape[0] != self.n:
            raise DimensionMismatch(f"point has length {xv.shape[0]}, expected {self.n}")
        return float(xv @ self.matrix @ xv + self.linear @ xv + self.constant)

    def bound(self, s: float) -> float:
        """``(sum|M| s) s + sum|m| s + |m0|``, at least ``|q(x)|`` when every ``|x_i| <= s``.

        Taken on Python floats, so an overflow gives an infinite bound and no
        warning; the product is grouped so that a zero matrix gives 0, not
        ``0 * inf``, when only ``s * s`` overflows.
        """
        mat = sum(map(abs, self.matrix.ravel().tolist()))
        lin = sum(map(abs, self.linear.tolist()))
        return (mat * s) * s + lin * s + abs(self.constant)

    def along(self, x: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
        """Coefficients ``(a, b, c)`` of ``q(x + s v) = a s^2 + b s + c``."""
        return (float(v @ self.matrix @ v),
                float(2.0 * (x @ self.matrix @ v) + self.linear @ v), self(x))

    def shifted(self, offset: float) -> "QuadraticForm":
        """The form plus a constant (used for objective shifts)."""
        return QuadraticForm(self.matrix, self.linear, self.constant + offset)


@dataclass(frozen=True)
class QuadraticMap:
    """Pair ``F = (f, g)`` mapping R^n into the plane."""

    f: QuadraticForm
    g: QuadraticForm

    def __post_init__(self):
        if self.f.n != self.g.n:
            raise DimensionMismatch(
                f"components act on different spaces ({self.f.n} vs {self.g.n})"
            )

    @property
    def n(self) -> int:
        return self.f.n


def eval_map(fmap: QuadraticMap, x) -> np.ndarray:
    """Evaluate ``(f(x), g(x))`` by direct substitution."""
    return np.array([fmap.f(x), fmap.g(x)])


@dataclass(frozen=True)
class LineCoeffs:
    """Coefficients of ``F`` along ``x(t) = xbar + t*(ybar - xbar)``.

    Both image coordinates are quadratic polynomials in ``t``:
    ``(alpha t^2 + beta t + gamma, alpha_p t^2 + beta_p t + gamma_p)``.
    """

    alpha: float
    beta: float
    gamma: float
    alpha_p: float
    beta_p: float
    gamma_p: float

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma,
                         self.alpha_p, self.beta_p, self.gamma_p])

    def scale(self) -> float:
        return 1.0 + float(np.max(np.abs(self.as_array())))

    def row(self, k: int) -> tuple[float, float, float]:
        """Coefficients ``(a, b, c)`` of image coordinate ``k`` (0: f, 1: g)."""
        if k == 0:
            return self.alpha, self.beta, self.gamma
        return self.alpha_p, self.beta_p, self.gamma_p

    def at(self, t: float) -> tuple[float, float]:
        """The image point ``(P_f(t), P_g(t))``, in Horner form."""
        return ((self.alpha * t + self.beta) * t + self.gamma,
                (self.alpha_p * t + self.beta_p) * t + self.gamma_p)


class LineImageKind(enum.Enum):
    POINT = "Point"
    RAY = "Ray"
    LINE = "Line"
    PARABOLA = "Parabola"


@dataclass(frozen=True)
class LineImage:
    """Classified image of a line with enough payload to invert it.

    ``coeffs`` holds the two image polynomials of the line.  Payload by kind:

    * POINT: ``point``.
    * RAY: ``apex``, unit-free ``ray_direction`` (points away from the apex),
      plus the pivot polynomial index used for parameter recovery.
    * LINE: ``line_point`` and ``line_direction`` (exact parametrization by
      the linear coefficients), plus the pivot polynomial index.
    * PARABOLA: the affine parameter map
      ``t = (t_row . u - t_offset) / t_slope`` valid for every image point
      ``u``, and the coordinate ``swap`` says it shears away.  The
      PSD-normalized implicit :attr:`conic` is expanded from these on first
      read (reported, not used for solves).
    """

    kind: LineImageKind
    coeffs: LineCoeffs
    point: np.ndarray | None = None
    apex: np.ndarray | None = None
    ray_direction: np.ndarray | None = None
    line_point: np.ndarray | None = None
    line_direction: np.ndarray | None = None
    t_row: np.ndarray | None = None
    t_slope: float | None = None
    t_offset: float | None = None
    pivot: int = 0
    swap: bool = False

    @cached_property
    def conic(self) -> Conic2 | None:
        """Implicit equation ``psi(u) = 0`` of a parabola image, else None.

        ``psi(u) = sign(a_q) * (P_q(t(u)) - u_q)`` expanded in ``u``, with
        ``q`` the sheared-away coordinate, so ``psi`` is negative strictly
        inside the parabola and its quadratic part is PSD.
        """
        if self.kind is not LineImageKind.PARABOLA:
            return None
        qa, qb, qc = self.coeffs.row(int(self.swap))
        first = np.array([0.0, 1.0]) if self.swap else np.array([1.0, 0.0])
        sigma = math.copysign(1.0, qa)
        row, slope, offset = self.t_row, self.t_slope, self.t_offset
        s2 = slope * slope
        if s2 == 0.0:
            raise InternalNumerics("parabola conic: the squared slope underflows")
        quad = qa / s2
        lin = qb / slope - 2.0 * qa * offset / s2
        const = qa * offset * offset / s2 - qb * offset / slope + qc
        if not all(map(math.isfinite, (quad, lin, const))):
            raise InternalNumerics("parabola conic has a non-finite coefficient")
        return Conic2(sigma * quad * np.outer(row, row), sigma * (lin * row - first),
                      sigma * const)

    def parameter_of(self, target) -> float:
        """Line parameter of an image point (parabola payload only)."""
        u = np.asarray(target, dtype=float).reshape(2)
        return (float(self.t_row @ u) - self.t_offset) / self.t_slope

    def side(self, target) -> float:
        """Side of a point against the parabola, negative strictly inside.

        This is the implicit equation evaluated unexpanded,
        ``sign(a_q) * (P_q(t(u)) - u_q)`` with ``q`` the coordinate whose
        polynomial the parameter map shears away (parabola payload only).
        """
        u = np.asarray(target, dtype=float).reshape(2)
        q = 1 if self.swap else 0
        return math.copysign(1.0, self.coeffs.row(q)[0]) * (
            self.coeffs.at(self.parameter_of(u))[q] - u[q])


def classify_line_image(fmap: QuadraticMap, xbar, ybar) -> LineImage:
    """Decide which of the four image shapes the line produces.

    The split is on the determinant of the quadratic/linear coefficient pairs
    of the two image polynomials, relative to the product of the two pairs'
    own sizes so that f and g at different scales do not flatten a
    parabola.  A determinant within ``DET_TOL`` of zero means the two
    polynomials are proportional up to constants, so the image sits on a
    straight line: a point if everything non-constant vanishes, a full line
    if the shared polynomial is affine, a ray if it is genuinely quadratic.
    Any larger determinant produces a parabola, whose parameter map comes
    from shearing the dominant quadratic coordinate against the other one;
    its implicit equation is left to :attr:`LineImage.conic`.  Endpoints
    that agree to ``LINE_TOL`` raise :class:`DegenerateLine`, and image
    polynomials whose coefficients overflow raise :class:`InternalNumerics`.
    """
    xb = np.asarray(xbar, dtype=float).reshape(-1)
    yb = np.asarray(ybar, dtype=float).reshape(-1)
    if xb.shape != yb.shape:
        raise DimensionMismatch("line endpoints have different lengths")
    ref = 1.0 + max(float(np.max(np.abs(xb), initial=0.0)),
                    float(np.max(np.abs(yb), initial=0.0)))
    if xb.size == 0 or float(np.max(np.abs(yb - xb))) <= LINE_TOL * ref:
        raise DegenerateLine("line endpoints coincide")
    if xb.shape[0] != fmap.n:
        raise DimensionMismatch(f"points have length {xb.shape[0]}, map expects {fmap.n}")
    d = yb - xb
    co = LineCoeffs(*fmap.f.along(xb, d), *fmap.g.along(xb, d))
    al, be, ga = co.row(0)
    alp, bep, gap = co.row(1)
    if not all(map(math.isfinite, (al, be, ga, alp, bep, gap))):
        raise InternalNumerics("the line's image polynomials have a non-finite coefficient")
    row_f = max(abs(al), abs(be))
    row_g = max(abs(alp), abs(bep))

    if max(row_f, row_g) <= DET_TOL * co.scale():
        return LineImage(LineImageKind.POINT, co, point=np.array([ga, gap]))

    # each row's (quadratic, linear) pair scaled by a power of two, which is
    # exact and keeps the 2x2 products below overflow
    ef, eg = math.frexp(row_f)[1], math.frexp(row_g)[1]
    fq, fl = math.ldexp(al, -ef), math.ldexp(be, -ef)
    gq, gl = math.ldexp(alp, -eg), math.ldexp(bep, -eg)
    if abs(fq * gl - gq * fl) <= (DET_TOL * math.ldexp(row_f, -ef)
                                  * math.ldexp(row_g, -eg)):
        # proportional rows: pivot on the larger pair for stability
        pivot = 0 if row_f >= row_g else 1
        a1, b1, c1 = co.row(pivot)
        c2 = co.row(1 - pivot)[2]
        dot = fq * gq + fl * gl      # k = other row / pivot row, scaling undone
        k = (math.ldexp(dot / (fq * fq + fl * fl), eg - ef) if pivot == 0
             else math.ldexp(dot / (gq * gq + gl * gl), ef - eg))
        if abs(a1) <= DET_TOL * max(abs(a1), abs(b1)):
            return LineImage(
                LineImageKind.LINE, co,
                line_point=np.array([ga, gap]),
                line_direction=np.array([be, bep]),
                pivot=pivot,
            )
        t_v = -b1 / (2.0 * a1)
        s_v = (a1 * t_v + b1) * t_v + c1
        offset = c2 - k * c1
        apex_piv = np.array([s_v, k * s_v + offset])
        dir_piv = math.copysign(1.0, a1) * np.array([1.0, k])
        if pivot == 1:
            apex_piv = apex_piv[::-1]
            dir_piv = dir_piv[::-1]
        return LineImage(
            LineImageKind.RAY, co,
            apex=apex_piv, ray_direction=dir_piv,
            pivot=pivot,
        )

    # parabola: shear using the larger quadratic coefficient
    swap = abs(al) < abs(alp)
    qa, qb, qc = co.row(int(swap))
    la, lb, lc = co.row(int(not swap))
    k = la / qa
    slope = lb - k * qb          # nonzero because the rows are not proportional
    offset = lc - k * qc
    # parameter map t = (row . u - offset) / slope in original coordinates
    row = np.array([1.0, -k]) if swap else np.array([-k, 1.0])
    return LineImage(
        LineImageKind.PARABOLA, co,
        t_row=row, t_slope=float(slope), t_offset=float(offset), swap=swap,
    )


@dataclass(frozen=True)
class AffineManifold:
    """Affine set ``{x0 + K z}`` with orthonormal basis columns ``K``."""

    x0: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float).reshape(-1).copy()
        k = np.asarray(self.basis, dtype=float)
        if k.ndim != 2 or k.shape[0] != x0.shape[0]:
            raise DimensionMismatch(
                f"basis shape {k.shape} does not match point of length {x0.shape[0]}"
            )
        if k.shape[1] > 0:
            gram = k.T @ k
            if float(np.max(np.abs(gram - np.eye(k.shape[1])))) > 1e-9:
                raise ValueError("basis columns are not orthonormal")
        k = k.copy()
        x0.setflags(write=False)
        k.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "basis", k)

    @property
    def ambient_dim(self) -> int:
        return self.x0.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def embed(self, z) -> np.ndarray:
        zv = np.asarray(z, dtype=float).reshape(-1)
        if zv.shape[0] != self.dim:
            raise DimensionMismatch(f"point has length {zv.shape[0]}, expected {self.dim}")
        return self.x0 + self.basis @ zv

    def coordinates(self, x, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
        """Coordinates ``z`` of a point ``x = x0 + K z`` of the manifold.

        ``x`` must meet the manifold within the backward-error bound that
        :func:`manifold_from_linear_system` applies to ``x0``: its distance
        ``|x - x0 - K K^T (x - x0)|`` may be at most
        ``cfg.rank_tol * (|x0| + |x|)``.  A point further off raises
        :class:`PreconditionViolated`.
        """
        xv = np.asarray(x, dtype=float).reshape(-1)
        if xv.shape[0] != self.ambient_dim:
            raise DimensionMismatch(
                f"point has length {xv.shape[0]}, expected {self.ambient_dim}")
        z = self.basis.T @ (xv - self.x0)
        off = float(np.linalg.norm(xv - self.x0 - self.basis @ z))
        bound = cfg.rank_tol * (float(np.linalg.norm(self.x0)) + float(np.linalg.norm(xv)))
        if not off <= bound:
            raise PreconditionViolated(
                f"point is off the manifold (distance {off:.3e}, bound {bound:.3e})")
        return z


def restrict_to_manifold(fmap: QuadraticMap, manifold: AffineManifold) -> QuadraticMap:
    """Pull ``F`` back along ``z -> x0 + K z``; the result is again quadratic."""
    if manifold.ambient_dim != fmap.n:
        raise DimensionMismatch(
            f"manifold lives in R^{manifold.ambient_dim}, map expects R^{fmap.n}"
        )
    x0, k = manifold.x0, manifold.basis

    def one(q: QuadraticForm) -> QuadraticForm:
        mat = k.T @ q.matrix @ k
        lin = k.T @ (2.0 * (q.matrix @ x0) + q.linear)
        return QuadraticForm(mat, lin, q(x0))

    return QuadraticMap(one(fmap.f), one(fmap.g))


def manifold_from_linear_system(matrix, rhs,
                                cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> AffineManifold:
    """Solution set of ``H x = d`` as an affine manifold.

    ``x0`` is the minimum-norm solution and the basis spans ``ker H``, both
    from one SVD ``H = U diag(s) V^T``: the rank counts ``s > tol * s[0]``
    with ``tol = cfg.rank_tol``, ``x0 = V_r diag(1/s_r) U_r^T d`` and the
    basis is the right singular vectors past the rank.  A system whose
    residual exceeds the backward-error bound ``tol * (|d| + s[0] |x0|)``
    (no relative change of size ``tol`` in ``H`` and ``d`` makes ``x0``
    exact) raises :class:`InconsistentSystem`.  A 0-row ``H`` encodes "no
    constraints".  A non-finite entry or an SVD failure raises
    :class:`InternalNumerics`.
    """
    tol = cfg.rank_tol
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {h.shape}")
    d = np.asarray(rhs, dtype=float).reshape(-1)
    m, n = h.shape
    if d.shape[0] != m:
        raise DimensionMismatch(f"rhs has length {d.shape[0]}, H has {m} rows")
    if m == 0:
        return AffineManifold(np.zeros(n), np.eye(n))
    u, s, vt = _lapack(np.linalg.svd, h)
    rank = int(np.count_nonzero(s > tol * s[0]))
    x0 = vt[:rank].T @ ((u[:, :rank].T @ d) / s[:rank])
    resid = float(np.linalg.norm(h @ x0 - d))
    if resid > tol * (float(np.linalg.norm(d)) + s[0] * float(np.linalg.norm(x0))):
        raise InconsistentSystem(f"H x = d is inconsistent (residual {resid:.3e})")
    return AffineManifold(x0, vt[rank:].T.copy())
